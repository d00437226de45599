// Tests for the sampling profiler (signal-driven span-stack capture,
// folded output, self-time attribution) and the PMU timeline sampler —
// including running the sampler concurrently with per-operator
// PerfCounters attribution, the configuration the TSan job checks for
// races.

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "common/stopwatch.h"
#include "perf/perf_counters.h"
#include "perf/pmu_sampler.h"
#include "telemetry/profiler.h"
#include "telemetry/span.h"

namespace hef::telemetry {
namespace {

// Spins wall-clock time inside a span so the sampler has something to
// hit. Pure spin (no sleep): SIGPROF timers fire on wall time, but a
// busy loop keeps the stack interesting under schedulers that coalesce.
void SpinFor(double seconds) {
  const std::uint64_t end =
      MonotonicNanos() + static_cast<std::uint64_t>(seconds * 1e9);
  while (MonotonicNanos() < end) {
  }
}

TEST(ProfilerTest, OffByDefaultAndSpansStayCheap) {
  EXPECT_FALSE(Profiler::Get().running());
  // With no capture enabled a scope must not maintain the span stack.
  {
    HEF_TRACE_SPAN("cheap");
    EXPECT_EQ(internal::CurrentSpanStack().depth.load(), 0);
  }
}

TEST(ProfilerTest, SamplesAttributeToOpenSpans) {
  Profiler& profiler = Profiler::Get();
  (void)profiler.TakeSamples();  // drain leftovers from other tests
  ASSERT_TRUE(profiler.Start().ok());
  EXPECT_TRUE(profiler.running());
  EXPECT_FALSE(profiler.Start().ok());  // double start refused
  {
    HEF_TRACE_SPAN("outer");
    {
      HEF_TRACE_SPAN("inner");
      SpinFor(0.15);
    }
    SpinFor(0.05);
  }
  profiler.Stop();
  profiler.Stop();  // idempotent
  EXPECT_FALSE(profiler.running());
  const std::vector<ProfileSample> samples = profiler.TakeSamples();
  ASSERT_GT(samples.size(), 5u) << "SIGPROF timers did not fire";
  // Samples are time-ordered.
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].nanos, samples[i - 1].nanos);
  }
  // The spin ran almost entirely under the spans.
  EXPECT_GE(Profiler::AttributedFraction(samples), 0.9);
  const std::string folded = Profiler::FoldedStacks(samples);
  EXPECT_NE(folded.find("outer;inner "), std::string::npos);
  const std::string table =
      Profiler::SelfTimeTable(samples, profiler.period_nanos());
  EXPECT_NE(table.find("inner"), std::string::npos);
  EXPECT_NE(table.find("% attributed to spans"), std::string::npos);
  // Stopping restored the capture mask: spans are cheap again.
  EXPECT_EQ(SpanTracer::Get().capture_mask() & SpanTracer::kCaptureProfile,
            0u);
}

TEST(ProfilerTest, FoldedStacksRendering) {
  ProfileSample no_span;
  ProfileSample two;
  two.depth = 2;
  two.frames[0] = "a";
  two.frames[1] = "b";
  ProfileSample deep;
  deep.depth = ProfileSample::kMaxFrames + 3;  // deeper than the capture
  for (int i = 0; i < ProfileSample::kMaxFrames; ++i) deep.frames[i] = "x";
  const std::string folded =
      Profiler::FoldedStacks({no_span, two, two, deep});
  EXPECT_NE(folded.find("(no span) 1\n"), std::string::npos);
  EXPECT_NE(folded.find("a;b 2\n"), std::string::npos);
  EXPECT_NE(folded.find(";(truncated) 1\n"), std::string::npos);
  EXPECT_EQ(Profiler::AttributedFraction({no_span, two}), 0.5);
  EXPECT_EQ(Profiler::AttributedFraction({}), 0.0);
}

TEST(ProfilerTest, WorkerThreadsAreSampled) {
  Profiler& profiler = Profiler::Get();
  (void)profiler.TakeSamples();
  ASSERT_TRUE(profiler.Start().ok());
  std::thread worker([] {
    Profiler::RegisterCurrentThread();
    HEF_TRACE_SPAN("worker.span");
    SpinFor(0.1);
  });
  worker.join();
  profiler.Stop();
  const std::vector<ProfileSample> samples = profiler.TakeSamples();
  bool saw_worker = false;
  for (const ProfileSample& s : samples) {
    for (int i = 0; i < std::min(s.depth, ProfileSample::kMaxFrames); ++i) {
      if (std::string(s.frames[i]) == "worker.span") saw_worker = true;
    }
  }
  EXPECT_TRUE(saw_worker) << "no sample landed in the worker's span";
}

// The race-sensitive configuration: PMU timeline sampling concurrent
// with per-operator PerfCounters attribution on other threads. The
// sampler owns its own counter group (second fd set), so TSan must see
// no shared mutable state between the two. Runs regardless of PMU
// availability — without PMU both sides degrade but the threading is
// identical.
TEST(PmuSamplerTest, CoexistsWithPerOperatorCounters) {
  PmuSampler sampler;
  PmuSamplerOptions options;
  options.period_nanos = 1'000'000;  // 1 ms: many windows in a short test
  ASSERT_TRUE(sampler.Start(options).ok());
  EXPECT_TRUE(sampler.running());
  EXPECT_FALSE(sampler.Start(options).ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&stop] {
      // Per-worker counters, the engine's attribution pattern.
      PerfCounters perf;
      while (!stop.load(std::memory_order_relaxed)) {
        perf.Start();
        volatile std::uint64_t sink = 0;
        for (int i = 0; i < 50000; ++i) {
          sink = sink + static_cast<std::uint64_t>(i);
        }
        (void)perf.Stop();
        (void)perf.ReadNow();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : workers) w.join();
  sampler.Stop();
  sampler.Stop();  // idempotent
  EXPECT_FALSE(sampler.running());
  // With PMU access the sampler recorded counter windows into the tracer;
  // without it, zero windows is the documented degradation.
  if (PerfCounters().available()) {
    EXPECT_GT(sampler.samples(), 0u);
    bool saw_ipc = false;
    for (const CounterEvent& c : SpanTracer::Get().DrainCounters()) {
      if (std::string(c.track) == "pmu.ipc") saw_ipc = true;
    }
    EXPECT_TRUE(saw_ipc);
  } else {
    EXPECT_EQ(sampler.samples(), 0u);
    (void)SpanTracer::Get().DrainCounters();
  }
}

}  // namespace
}  // namespace hef::telemetry
