// Unit tests for the benchmark harness's own arithmetic: percentiles and
// the tail-sample rule, the open-loop schedule and due-time accounting,
// span self times, and the host readings.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "harness/host.h"
#include "harness/open_loop.h"
#include "harness/spans.h"
#include "harness/stats.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(StatsTest, NearestRankPercentilesAreSamples) {
  std::vector<double> v = OneTo(100);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(Percentile(v, 0.5), 50);
  EXPECT_EQ(Percentile(v, 0.99), 99);
  EXPECT_EQ(Percentile(v, 1.0), 100);
  EXPECT_EQ(Percentile(v, 0.001), 1);
  EXPECT_EQ(Median(OneTo(5)), 3);
  EXPECT_EQ(Median({7.5}), 7.5);
  EXPECT_EQ(Percentile({}, 0.5), 0);
}

TEST(StatsTest, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(NearestRank(1000, 0.99), 990u);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(MinSamplesForTail(0.99), 1000u);
  EXPECT_EQ(MinSamplesForTail(0.5), 20u);
  // The p99 of 1000 samples leaves exactly the ten largest above it.
  EXPECT_EQ(Percentile(OneTo(1000), 0.99), 990);
}

TEST(StatsTest, WindowsHoldAtLeastOneWindowOfSamples) {
  using Bounds = std::vector<std::pair<std::size_t, std::size_t>>;
  EXPECT_EQ(WindowBounds(2500, 1000), (Bounds{{0, 1000}, {1000, 2500}}));
  EXPECT_EQ(WindowBounds(999, 1000), (Bounds{{0, 999}}));
  EXPECT_EQ(WindowBounds(3000, 1000),
            (Bounds{{0, 1000}, {1000, 2000}, {2000, 3000}}));
  // One window per 1000 samples; a spike confined to one window does not
  // move the median of the window p99s.
  std::vector<double> v;
  for (int w = 0; w < 3; ++w) {
    for (int i = 1; i <= 1000; ++i) v.push_back(w == 1 ? 100.0 * i : i);
  }
  EXPECT_EQ(MedianOfWindowPercentiles(v, 1000, 0.99), 990);
  EXPECT_EQ(Percentile(v, 0.99), 97000);
}

TEST(OpenLoopTest, FixedRateScheduleIsSeededAndNeverBursts) {
  const std::vector<std::uint64_t> a = FixedRateSchedule(100, 12, 7);
  EXPECT_EQ(a, FixedRateSchedule(100, 12, 7));
  EXPECT_NE(a, FixedRateSchedule(100, 12, 8));
  ASSERT_EQ(a.size(), 1200u);
  EXPECT_GE(a.front(), 2'500'000u);  // a quarter period
  EXPECT_LT(a.back(), 12'000'000'000ULL);
  // Gaps stay within half and one and a half periods of 10 ms.
  for (std::size_t i = 1; i < a.size(); ++i) {
    ASSERT_GE(a[i] - a[i - 1], 4'999'999u);
    ASSERT_LE(a[i] - a[i - 1], 15'000'001u);
  }
  EXPECT_TRUE(FixedRateSchedule(0, 10, 1).empty());
}

TEST(OpenLoopTest, LatencyCountsFromDueTime) {
  // Sent 5 ms late (every connection busy), served in 2 ms: the client
  // waited 7 ms, of which the generator owns 5.
  Arrival late{1'000'000, 6'000'000, 8'000'000};
  EXPECT_DOUBLE_EQ(late.LatencyMs(), 7.0);
  EXPECT_DOUBLE_EQ(late.LateMs(), 5.0);
  EXPECT_DOUBLE_EQ(late.ServiceMs(), 2.0);
  // Sent on time: no lateness, latency equals service time.
  Arrival on_time{1'000'000, 1'000'000, 3'500'000};
  EXPECT_DOUBLE_EQ(on_time.LateMs(), 0.0);
  EXPECT_DOUBLE_EQ(on_time.LatencyMs(), on_time.ServiceMs());
}

TEST(SpansTest, SelfTimeSubtractsTheUnionOfChildren) {
  SpanLog log(true);
  const std::uint32_t root = log.Add("root", 0, 0, 100);
  log.Add("a", root, 10, 30);
  const std::uint32_t b = log.Add("b", root, 20, 50);  // overlaps a
  log.Add("c", root, 90, 120);                         // runs past root
  log.Add("b.child", b, 25, 35);
  const std::vector<Span> spans = log.spans();
  const std::vector<std::uint64_t> self = SelfTimes(spans);
  // root: 100 - [10,50] - [90,100] = 50.
  EXPECT_EQ(self[0], 50u);
  EXPECT_EQ(self[1], 20u);
  EXPECT_EQ(self[2], 20u);  // 30 - 10 for its own child
  EXPECT_EQ(self[3], 30u);  // a child keeps its whole duration
  EXPECT_EQ(self[4], 10u);
}

TEST(SpansTest, SelfTimesOfANestedTreeSumToTheRoot) {
  SpanLog log(true);
  const std::uint32_t root = log.Add("SsbEngine::Run", 0, 1000, 2000, 42);
  std::uint64_t at = 1000;
  for (const std::uint64_t dur : {100u, 250u, 400u}) {
    log.Add("engine.op", root, at, at + dur, 42);
    at += dur;
  }
  const std::vector<Span> spans = log.spans();
  const std::vector<std::uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(std::accumulate(self.begin(), self.end(), std::uint64_t{0}),
            spans[0].Duration());
  EXPECT_EQ(self[0], 250u);
  EXPECT_EQ(self[1] + self[2] + self[3], 750u);
  for (const Span& s : spans) EXPECT_EQ(s.trace_id, 42u);
}

TEST(SpansTest, DisabledLogRecordsNothing) {
  SpanLog log(false);
  EXPECT_EQ(log.Add("x", 0, 0, 10), 0u);
  EXPECT_TRUE(log.spans().empty());
}

TEST(HostTest, StealFractionFromProcStatLines) {
  const CpuTimes before =
      ParseCpuLine("cpu  100 0 50 800 10 0 0 40 0 0");
  const CpuTimes after =
      ParseCpuLine("cpu  200 0 100 1600 20 0 0 80 0 0");
  ASSERT_TRUE(before.ok);
  EXPECT_EQ(before.total, 1000u);
  EXPECT_EQ(before.steal, 40u);
  EXPECT_DOUBLE_EQ(StealFraction(before, after), 0.04);
  EXPECT_FALSE(ParseCpuLine("cpu0 1 2 3").ok);
  EXPECT_EQ(StealFraction(before, CpuTimes{}), 0.0);
}

}  // namespace
}  // namespace perfbench
