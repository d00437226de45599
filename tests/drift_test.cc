// DriftMonitor tests — synthetic observation streams with injected
// timestamps, replayed against private monitor instances so every CUSUM
// trajectory is deterministic. The scenarios mirror the failure modes
// the sentinel exists for: a step change (the host or data shifted), a
// slow ramp (gradual degradation), stationary noise (must NOT fire),
// recovery with hysteresis, and the retune handshake.

#include "perf/drift_monitor.h"

#include <cmath>
#include <cstdint>
#include <string>

#include "gtest/gtest.h"
#include "telemetry/json_value.h"

namespace hef {
namespace {

constexpr std::uint64_t kRows = 1000;
constexpr std::uint64_t kSecond = 1'000'000'000ull;

DriftKey Key(const std::string& query = "Q1.1",
             const std::string& kernel = "probe",
             const std::string& point = "v1s1p2") {
  return DriftKey{query, kernel, point};
}

// One window at `ns_per_row`, `seq` seconds into the stream.
void Feed(DriftMonitor& m, const DriftKey& key, double ns_per_row,
          std::uint64_t seq) {
  DriftObservation obs;
  obs.nanos = (seq + 1) * kSecond;
  obs.rows = kRows;
  obs.wall_nanos =
      static_cast<std::uint64_t>(ns_per_row * static_cast<double>(kRows));
  m.Observe(key, obs);
}

TEST(DriftMonitorTest, StepChangeFires) {
  DriftMonitor m;
  m.SetPrediction("probe", "v1s1p2", 10.0);
  std::uint64_t seq = 0;
  for (int i = 0; i < 5; ++i) Feed(m, Key(), 10.0, seq++);
  EXPECT_EQ(m.drift_events(), 0u);
  // 3x the prediction: residual 2.0, accrual (2.0 - slack) per window —
  // fires within a handful of windows, not on the first.
  for (int i = 0; i < 5; ++i) Feed(m, Key(), 30.0, seq++);
  EXPECT_EQ(m.drift_events(), 1u);
  EXPECT_EQ(m.drifted_keys(), 1u);
  const auto advice = m.Advice();
  ASSERT_EQ(advice.size(), 1u);
  EXPECT_EQ(advice[0].query, "Q1.1");
  EXPECT_EQ(advice[0].kernel, "probe");
  EXPECT_EQ(advice[0].point, "v1s1p2");
  EXPECT_EQ(advice[0].direction, "slow");
  EXPECT_EQ(advice[0].suggested_initial, "v1s1p2");
  EXPECT_GT(advice[0].observed_ns_per_row, 10.0);
  EXPECT_DOUBLE_EQ(advice[0].predicted_ns_per_row, 10.0);
  EXPECT_GT(advice[0].residual, 0.0);
}

TEST(DriftMonitorTest, FastDriftFiresTooAndNamesDirection) {
  // Running persistently *below* prediction is also drift: the tuned
  // point is stale and a re-search could commit to the faster reality.
  DriftMonitor m;
  m.SetPrediction("probe", "v1s1p2", 10.0);
  std::uint64_t seq = 0;
  for (int i = 0; i < 15; ++i) Feed(m, Key(), 4.0, seq++);
  EXPECT_GE(m.drift_events(), 1u);
  const auto advice = m.Advice();
  ASSERT_EQ(advice.size(), 1u);
  EXPECT_EQ(advice[0].direction, "fast");
  EXPECT_LT(advice[0].residual, 0.0);
}

TEST(DriftMonitorTest, SlowRampEventuallyFires) {
  DriftMonitor m;
  m.SetPrediction("probe", "v1s1p2", 10.0);
  std::uint64_t seq = 0;
  bool fired = false;
  // +2% per window: crosses the slack band around window 13, then the
  // residual excess accumulates. Must fire well before doubling.
  for (int i = 0; i < 100 && !fired; ++i) {
    Feed(m, Key(), 10.0 * (1.0 + 0.02 * i), seq++);
    fired = m.drift_events() > 0;
  }
  EXPECT_TRUE(fired);
}

TEST(DriftMonitorTest, StationaryNoiseNeverFires) {
  DriftMonitor m;
  m.SetPrediction("probe", "v1s1p2", 10.0);
  std::uint64_t seq = 0;
  // ±15% alternation stays inside the 25% slack band: zero accrual no
  // matter how long it runs.
  for (int i = 0; i < 500; ++i) {
    Feed(m, Key(), i % 2 == 0 ? 11.5 : 8.5, seq++);
  }
  EXPECT_EQ(m.drift_events(), 0u);
  EXPECT_EQ(m.drifted_keys(), 0u);
}

TEST(DriftMonitorTest, OccasionalOutlierDecaysInsteadOfFiring) {
  DriftMonitor m;
  m.SetPrediction("probe", "v1s1p2", 10.0);
  std::uint64_t seq = 0;
  // One +100% window per ten: each spike accrues 0.75, the nine quiet
  // windows between decay 0.25 each — the statistic never reaches 3.
  for (int i = 0; i < 300; ++i) {
    Feed(m, Key(), i % 10 == 0 ? 20.0 : 10.0, seq++);
  }
  EXPECT_EQ(m.drift_events(), 0u);
}

TEST(DriftMonitorTest, RecoversWithHysteresis) {
  DriftMonitor m;
  m.SetPrediction("probe", "v1s1p2", 10.0);
  std::uint64_t seq = 0;
  for (int i = 0; i < 5; ++i) Feed(m, Key(), 10.0, seq++);
  for (int i = 0; i < 5; ++i) Feed(m, Key(), 30.0, seq++);
  ASSERT_EQ(m.drifted_keys(), 1u);
  // A couple of good windows decay the CUSUM but stay above the reset
  // level (threshold * reset_fraction): still drifted — no flapping.
  Feed(m, Key(), 10.0, seq++);
  Feed(m, Key(), 10.0, seq++);
  EXPECT_EQ(m.drifted_keys(), 1u);
  // Sustained good behaviour clears it; the detection count is sticky.
  for (int i = 0; i < 60; ++i) Feed(m, Key(), 10.0, seq++);
  EXPECT_EQ(m.drifted_keys(), 0u);
  EXPECT_EQ(m.drift_events(), 1u);
  EXPECT_TRUE(m.Advice().empty());
}

TEST(DriftMonitorTest, NotifyRetuneClearsDriftState) {
  DriftMonitor m;
  m.SetPrediction("probe", "v1s1p2", 10.0);
  std::uint64_t seq = 0;
  for (int i = 0; i < 5; ++i) Feed(m, Key(), 10.0, seq++);
  for (int i = 0; i < 5; ++i) Feed(m, Key(), 30.0, seq++);
  ASSERT_EQ(m.drifted_keys(), 1u);
  m.NotifyRetune("probe");
  EXPECT_EQ(m.drifted_keys(), 0u);
  // The CUSUM restarted from zero: the next bad window alone cannot
  // re-fire (it takes several to accumulate back to the threshold).
  Feed(m, Key(), 30.0, seq++);
  EXPECT_EQ(m.drifted_keys(), 0u);
}

TEST(DriftMonitorTest, SetPredictionRestartsCusum) {
  DriftMonitor m;
  m.SetPrediction("probe", "v1s1p2", 10.0);
  std::uint64_t seq = 0;
  for (int i = 0; i < 5; ++i) Feed(m, Key(), 10.0, seq++);
  // Two bad windows accumulate (but do not fire yet at 1.75 each)...
  Feed(m, Key(), 30.0, seq++);
  EXPECT_EQ(m.drift_events(), 0u);
  // ...then the retuner commits a new prediction matching reality: the
  // accumulated excess must not carry over and fire spuriously.
  m.SetPrediction("probe", "v1s1p2", 30.0);
  for (int i = 0; i < 20; ++i) Feed(m, Key(), 30.0, seq++);
  EXPECT_EQ(m.drift_events(), 0u);
}

TEST(DriftMonitorTest, SealBaselineUsesMedianOfCalibrationWindows) {
  DriftMonitor m;
  std::uint64_t seq = 0;
  // Calibration: windows around 13 ns/row with one lucky 10. No
  // prediction, so nothing can fire yet.
  for (const double ns : {13.0, 10.0, 14.0, 13.0, 12.5}) {
    Feed(m, Key(), ns, seq++);
  }
  EXPECT_EQ(m.drift_events(), 0u);
  m.SealBaseline();
  // Steady state at the typical cost: within slack of the sealed median
  // (the lucky minimum would read every window as +35%, "slow").
  for (int i = 0; i < 50; ++i) Feed(m, Key(), 13.5, seq++);
  EXPECT_EQ(m.drift_events(), 0u);
  // A genuine slowdown against the sealed baseline fires.
  for (int i = 0; i < 5; ++i) Feed(m, Key(), 40.0, seq++);
  EXPECT_EQ(m.drift_events(), 1u);

  // Too few calibration windows (or only near-empty ones): the key stays
  // unsealed and nothing fires against a guess.
  DriftMonitor sparse;
  seq = 0;
  Feed(sparse, Key(), 10.0, seq++);
  Feed(sparse, Key(), 10.0, seq++);
  DriftObservation tiny;
  tiny.nanos = (++seq) * kSecond;
  tiny.rows = 8;
  tiny.wall_nanos = 80;
  sparse.Observe(Key(), tiny);
  sparse.SealBaseline();
  for (int i = 0; i < 20; ++i) Feed(sparse, Key(), 40.0, seq++);
  EXPECT_EQ(sparse.drift_events(), 0u);
}

TEST(DriftMonitorTest, SealBaselineKeepsTunerPredictions) {
  DriftMonitor m;
  m.SetPrediction("probe", "v1s1p2", 10.0);
  std::uint64_t seq = 0;
  for (int i = 0; i < 3; ++i) Feed(m, Key(), 30.0, seq++);
  m.SealBaseline();  // must not adopt 30 for a tuner-predicted key
  for (int i = 0; i < 5; ++i) Feed(m, Key(), 30.0, seq++);
  EXPECT_EQ(m.drift_events(), 1u);
}

TEST(DriftMonitorTest, SmallWindowsDoNotDriveTheCusum) {
  DriftMonitor m;
  m.SetPrediction("probe", "v1s1p2", 10.0);
  std::uint64_t seq = 0;
  for (int i = 0; i < 5; ++i) Feed(m, Key(), 10.0, seq++);
  // Terrible per-row cost on near-empty windows (< min_rows): profile
  // absorbs them, the detector ignores them.
  for (int i = 0; i < 50; ++i) {
    DriftObservation obs;
    obs.nanos = (++seq) * kSecond;
    obs.rows = 8;
    obs.wall_nanos = 8 * 1000;  // 1000 ns/row
    m.Observe(Key(), obs);
  }
  EXPECT_EQ(m.drift_events(), 0u);
}

TEST(DriftMonitorTest, ResidualCapBoundsOneAbsurdWindowsInfluence) {
  DriftOptions options;
  options.threshold = 25.0;  // above one capped accrual (10 - slack)
  DriftMonitor m(options);
  m.SetPrediction("probe", "v1s1p2", 10.0);
  std::uint64_t seq = 0;
  for (int i = 0; i < 5; ++i) Feed(m, Key(), 10.0, seq++);
  // A 1000x window (SIGSTOP, injected stall) accrues at most the cap.
  Feed(m, Key(), 10000.0, seq++);
  EXPECT_EQ(m.drift_events(), 0u);
  // Three capped windows clear even this threshold.
  Feed(m, Key(), 10000.0, seq++);
  Feed(m, Key(), 10000.0, seq++);
  EXPECT_EQ(m.drift_events(), 1u);
}

TEST(DriftMonitorTest, KeysAreIndependent) {
  DriftMonitor m;
  m.SetPrediction("probe", "v1s1p2", 10.0);
  m.SetPrediction("gather", "v2s1p1", 5.0);
  std::uint64_t seq = 0;
  const DriftKey probe = Key("Q2.1", "probe", "v1s1p2");
  const DriftKey gather = Key("Q2.1", "gather", "v2s1p1");
  for (int i = 0; i < 5; ++i) {
    Feed(m, probe, 10.0, seq);
    Feed(m, gather, 5.0, seq);
    ++seq;
  }
  for (int i = 0; i < 5; ++i) {
    Feed(m, probe, 30.0, seq);  // only the probe drifts
    Feed(m, gather, 5.0, seq);
    ++seq;
  }
  EXPECT_EQ(m.drifted_keys(), 1u);
  const auto advice = m.Advice();
  ASSERT_EQ(advice.size(), 1u);
  EXPECT_EQ(advice[0].kernel, "probe");
}

TEST(DriftMonitorTest, AdviceSortsWorstResidualFirst) {
  DriftMonitor m;
  m.SetPrediction("probe", "v1s1p2", 10.0);
  m.SetPrediction("gather", "v2s1p1", 10.0);
  std::uint64_t seq = 0;
  const DriftKey probe = Key("Q1.1", "probe", "v1s1p2");
  const DriftKey gather = Key("Q1.1", "gather", "v2s1p1");
  for (int i = 0; i < 5; ++i) {
    Feed(m, probe, 10.0, seq);
    Feed(m, gather, 10.0, seq);
    ++seq;
  }
  for (int i = 0; i < 10; ++i) {
    Feed(m, probe, 30.0, seq);  // 3x
    Feed(m, gather, 80.0, seq);  // 8x — worse
    ++seq;
  }
  const auto advice = m.Advice();
  ASSERT_EQ(advice.size(), 2u);
  EXPECT_EQ(advice[0].kernel, "gather");
  EXPECT_EQ(advice[1].kernel, "probe");
}

TEST(DriftMonitorTest, PmuFieldsFoldIntoProfileWhenValid) {
  DriftMonitor m;
  std::uint64_t seq = 0;
  DriftObservation obs;
  obs.nanos = (++seq) * kSecond;
  obs.rows = kRows;
  obs.wall_nanos = 10 * kRows;
  obs.pmu_valid = true;
  obs.instructions = 4000;
  obs.cycles = 2000;
  obs.llc_misses = 500;
  m.Observe(Key(), obs);
  auto parsed = telemetry::JsonValue::Parse(m.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const telemetry::JsonValue* profiles = parsed.value().Find("profiles");
  ASSERT_NE(profiles, nullptr);
  ASSERT_EQ(profiles->array().size(), 1u);
  const telemetry::JsonValue& p = profiles->array()[0];
  EXPECT_DOUBLE_EQ(p.NumberOr("ipc", 0), 2.0);
  EXPECT_DOUBLE_EQ(p.NumberOr("llc_per_kilorow", 0), 500.0);
}

TEST(DriftMonitorTest, ToJsonMatchesSchema) {
  DriftMonitor m;
  m.SetPrediction("probe", "v1s1p2", 10.0);
  std::uint64_t seq = 0;
  for (int i = 0; i < 5; ++i) Feed(m, Key(), 10.0, seq++);
  for (int i = 0; i < 5; ++i) Feed(m, Key(), 30.0, seq++);
  auto parsed = telemetry::JsonValue::Parse(m.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const telemetry::JsonValue& doc = parsed.value();
  EXPECT_EQ(doc.StringOr("schema", ""), "hef-drift-v1");
  EXPECT_EQ(doc.NumberOr("drift_events", -1), 1.0);
  const telemetry::JsonValue* options = doc.Find("options");
  ASSERT_NE(options, nullptr);
  EXPECT_GT(options->NumberOr("threshold", 0), 0.0);
  const telemetry::JsonValue* profiles = doc.Find("profiles");
  ASSERT_NE(profiles, nullptr);
  ASSERT_TRUE(profiles->is_array());
  ASSERT_EQ(profiles->array().size(), 1u);
  const telemetry::JsonValue& p = profiles->array()[0];
  EXPECT_EQ(p.StringOr("query", ""), "Q1.1");
  EXPECT_EQ(p.StringOr("kernel", ""), "probe");
  EXPECT_EQ(p.StringOr("point", ""), "v1s1p2");
  EXPECT_EQ(p.StringOr("baseline", ""), "tuner");
  EXPECT_GT(p.NumberOr("ns_per_row", 0), 0.0);
  EXPECT_GT(p.NumberOr("ns_per_row_min", 0), 0.0);
  const telemetry::JsonValue* advice = doc.Find("advice");
  ASSERT_NE(advice, nullptr);
  ASSERT_TRUE(advice->is_array());
  ASSERT_EQ(advice->array().size(), 1u);
  const telemetry::JsonValue& a = advice->array()[0];
  EXPECT_EQ(a.StringOr("direction", ""), "slow");
  const telemetry::JsonValue* suggested = a.Find("suggested");
  ASSERT_NE(suggested, nullptr);
  EXPECT_EQ(suggested->StringOr("action", ""), "retune");
  EXPECT_EQ(suggested->StringOr("initial", ""), "v1s1p2");
}

TEST(DriftMonitorTest, ConfigureWidensThresholdsAndRestartsCusum) {
  DriftMonitor m;
  m.SetPrediction("probe", "v1s1p2", 10.0);
  std::uint64_t seq = 0;
  for (int i = 0; i < 5; ++i) Feed(m, Key(), 10.0, seq++);
  Feed(m, Key(), 30.0, seq++);  // partial accrual under the defaults
  DriftOptions wide = m.options();
  wide.slack = 0.75;
  wide.threshold = 8.0;
  m.Configure(wide);
  EXPECT_DOUBLE_EQ(m.options().threshold, 8.0);
  // Old accrual was discarded; +30% windows sit inside the new slack.
  for (int i = 0; i < 50; ++i) Feed(m, Key(), 13.0, seq++);
  EXPECT_EQ(m.drift_events(), 0u);
}

TEST(DriftMonitorTest, ResetDropsEverything) {
  DriftMonitor m;
  m.SetPrediction("probe", "v1s1p2", 10.0);
  std::uint64_t seq = 0;
  for (int i = 0; i < 5; ++i) Feed(m, Key(), 10.0, seq++);
  for (int i = 0; i < 5; ++i) Feed(m, Key(), 30.0, seq++);
  ASSERT_EQ(m.drift_events(), 1u);
  m.Reset();
  EXPECT_EQ(m.drift_events(), 0u);
  EXPECT_EQ(m.drifted_keys(), 0u);
  auto parsed = telemetry::JsonValue::Parse(m.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().Find("profiles")->array().empty());
}

TEST(DriftMonitorTest, ZeroRowOrZeroWallWindowsAreIgnored) {
  DriftMonitor m;
  m.SetPrediction("probe", "v1s1p2", 10.0);
  DriftObservation obs;
  obs.nanos = kSecond;
  obs.rows = 0;
  obs.wall_nanos = 1000;
  m.Observe(Key(), obs);
  obs.rows = 1000;
  obs.wall_nanos = 0;
  m.Observe(Key(), obs);
  auto parsed = telemetry::JsonValue::Parse(m.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().Find("profiles")->array().empty());
}

}  // namespace
}  // namespace hef
