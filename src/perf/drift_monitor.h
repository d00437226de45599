// DriftMonitor — the online sentinel that compares production cost
// measurements against the cost the tuner committed to.
//
// The paper's central bet is that the tuned (v, s, p) point is hardware-
// and data-dependent; ROADMAP item 1(b) asks for retuning "when measured
// IPC/LLC-miss profiles drift from the tuner's assumptions". This class
// is the measurement half of that loop: execution paths attribute their
// PMU/wall observations to a (query, kernel, tuned-point) key, the
// monitor folds them into rolling EWMA profiles, computes residuals
// against the tuner's predicted ns/row for that point, and flags
// *sustained* departure with a one-sided CUSUM per direction plus
// hysteresis — a single preempted morsel never fires, a plan mistuned
// for this host fires within a handful of windows.
//
// Cost signal choice: the primary residual is wall-based ns/row, not
// IPC. The tuner's predictions are wall-clock (TuningCache stores
// seconds), and perf_event_open is unavailable in locked-down containers
// — a sentinel keyed on counters alone would be blind exactly where CI
// runs. When PMU readings are valid the profile additionally tracks IPC
// and LLC misses per kilorow, and the advice report carries them so the
// retuner can tell "memory got slower" from "frequency dropped".
//
// Outputs, all derived from the same profile table:
//   * perf.drift_* metrics (windows, detections, recoveries, drifted)
//   * drift_detected / drift_recovered flight-recorder events
//   * /driftz endpoint + --drift_advice=FILE, both `hef-drift-v1` JSON;
//     the advice array lists (query, kernel, observed-vs-predicted,
//     suggested regrid) for the future online retuner to consume.
//
// Time is injected: every observation carries its own monotonic
// timestamp, and the monitor never reads a clock — tests replay
// synthetic counter streams deterministically.

#ifndef HEF_PERF_DRIFT_MONITOR_H_
#define HEF_PERF_DRIFT_MONITOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace hef {

// One attribution key. `kernel` is the tuned kernel class ("probe",
// "gather", or "query" for whole-query accounting); `point` is the tuned
// implementation in HybridConfig::ToString() form ("v1s3p2").
struct DriftKey {
  std::string query;
  std::string kernel;
  std::string point;
};

// One measurement window: `rows` processed in `wall_nanos` of kernel
// time, observed at monotonic time `nanos`. PMU fields are used only
// when pmu_valid (counters may be unreadable in containers).
struct DriftObservation {
  std::uint64_t nanos = 0;
  std::uint64_t rows = 0;
  std::uint64_t wall_nanos = 0;
  bool pmu_valid = false;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t llc_misses = 0;
};

struct DriftOptions {
  // EWMA smoothing for the rolling profile (per observation window).
  double ewma_alpha = 0.2;
  // CUSUM slack k: per-window residuals within ±slack of the prediction
  // accumulate nothing — this is the noise band.
  double slack = 0.25;
  // CUSUM threshold h: fire when the accumulated excess reaches this.
  double threshold = 3.0;
  // Hysteresis: a drifted key recovers only once its CUSUM decays below
  // threshold * reset_fraction (not merely below threshold).
  double reset_fraction = 0.25;
  // Residuals are clamped to ±residual_cap before accumulating so one
  // absurd window (injected stall, SIGSTOP) cannot alone dominate the
  // statistic forever.
  double residual_cap = 10.0;
  // Windows observed before the CUSUM arms (lets the EWMA warm up).
  int min_windows = 3;
  // Windows below this many rows are folded into the profile but do not
  // drive the CUSUM (per-row cost of a near-empty window is noise).
  std::uint64_t min_rows = 64;
};

// Advice entry for the (future) online retuner; serialized verbatim into
// the hef-drift-v1 `advice` array.
struct DriftAdvice {
  std::string query;
  std::string kernel;
  std::string point;
  double observed_ns_per_row = 0;
  double predicted_ns_per_row = 0;
  double residual = 0;       // (observed - predicted) / predicted
  std::string direction;     // "slow" | "fast"
  std::uint64_t windows = 0;
  std::uint64_t drift_events = 0;
  // Suggested regrid: re-run the pruning search seeded at the current
  // point (the optimum rarely jumps far; Algorithm 2 walks neighbours).
  std::string suggested_initial;
};

class DriftMonitor {
 public:
  // Process-wide instance fed by the engine and read by /driftz.
  static DriftMonitor& Get();

  // Tests construct private instances with tight thresholds.
  explicit DriftMonitor(DriftOptions options = {});

  // Replaces the detection options (benches widen slack/threshold on
  // noisy shared runners). Profiles and predictions survive; every CUSUM
  // restarts so windows judged under the old thresholds don't carry over.
  void Configure(const DriftOptions& options) HEF_EXCLUDES(mu_);

  // Registers the tuner's predicted cost for a kernel at a tuned point
  // (from TuningCache / TuneResult::ns_per_element). Every key with this
  // kernel+point measures residuals against it.
  void SetPrediction(const std::string& kernel, const std::string& point,
                     double ns_per_row) HEF_EXCLUDES(mu_);

  // Folds one measurement window into the key's rolling profile and
  // advances its CUSUM when a prediction exists. Cheap (one mutex + a
  // dozen FLOPs) and called at query/operator granularity, never per
  // block.
  void Observe(const DriftKey& key, const DriftObservation& obs)
      HEF_EXCLUDES(mu_);

  // Adopts the median cost of a key's calibration windows as its
  // predicted cost, for every key that has none — benches call this
  // after warm-up so drift is measured against the calibrated steady
  // state even without a tuning cache. Calibration windows are the
  // windows of at least min_rows rows observed since the key was created
  // (or the last Reset); a key with fewer than min_windows of them stays
  // unsealed. The median is the robust choice: the minimum of a handful
  // of millisecond windows sits at the lucky tail, so ordinary jitter
  // reads as sustained "slow" drift against it, and a mean inherits any
  // outlier. Callers should Reset after a cold pass so plan builds and
  // cold caches never calibrate. Keys with SetPrediction entries are
  // untouched.
  void SealBaseline() HEF_EXCLUDES(mu_);

  // The tuner repointed `kernel`: clear drifted state and CUSUMs for all
  // its keys (predictions are then re-registered by the retuner).
  void NotifyRetune(const std::string& kernel) HEF_EXCLUDES(mu_);

  // Sustained-drift detections so far (monotonic; mirrors the
  // perf.drift_detected counter).
  std::uint64_t drift_events() const HEF_EXCLUDES(mu_);
  // Keys currently in the drifted state.
  std::uint64_t drifted_keys() const HEF_EXCLUDES(mu_);

  // Currently-drifted keys, worst residual first.
  std::vector<DriftAdvice> Advice() const HEF_EXCLUDES(mu_);

  // {"schema":"hef-drift-v1",...} — the /driftz payload and the
  // --drift_advice artifact.
  std::string ToJson() const HEF_EXCLUDES(mu_);
  Status WriteAdvice(const std::string& path) const HEF_EXCLUDES(mu_);

  // Drops all profiles, predictions and counters (tests; the bench
  // resets between warmup configurations).
  void Reset() HEF_EXCLUDES(mu_);

  DriftOptions options() const HEF_EXCLUDES(mu_);

 private:
  struct Profile {
    DriftKey key;
    // Rolling profile (EWMA + EWMA of squared deviation).
    double ns_per_row = 0;
    double ns_per_row_var = 0;
    double ns_per_row_min = 0;  // fastest window since creation/Reset
    // ns/row of the first kMaxCalibrationWindows windows of >= min_rows
    // rows observed while the key had no prediction (SealBaseline's
    // median).
    std::vector<double> calibration;
    double ipc = 0;
    double llc_per_kilorow = 0;
    std::uint64_t windows = 0;
    std::uint64_t pmu_windows = 0;
    std::uint64_t rows = 0;
    std::uint64_t last_nanos = 0;
    // Residual state.
    double predicted_ns_per_row = 0;  // 0 = no prediction yet
    bool sealed_baseline = false;     // prediction came from SealBaseline
    double last_residual = 0;
    double cusum_slow = 0;  // observed persistently above prediction
    double cusum_fast = 0;  // observed persistently below prediction
    bool drifted = false;
    std::string direction;
    std::uint64_t drift_events = 0;
  };

  static constexpr std::size_t kMaxCalibrationWindows = 64;

  Profile& FindOrCreate(const DriftKey& key) HEF_REQUIRES(mu_);
  void AdvanceCusum(Profile& p, double observed, std::uint64_t nanos)
      HEF_REQUIRES(mu_);
  static DriftAdvice MakeAdvice(const Profile& p);

  mutable std::mutex mu_;
  DriftOptions options_ HEF_GUARDED_BY(mu_);
  // query \x1f kernel \x1f point -> profile (flat composite key keeps
  // lookup a single map probe).
  std::map<std::string, Profile> profiles_ HEF_GUARDED_BY(mu_);
  // kernel \x1f point -> predicted ns/row.
  std::map<std::string, double> predictions_ HEF_GUARDED_BY(mu_);
  std::uint64_t drift_events_ HEF_GUARDED_BY(mu_) = 0;
  std::uint64_t recoveries_ HEF_GUARDED_BY(mu_) = 0;
};

}  // namespace hef

#endif  // HEF_PERF_DRIFT_MONITOR_H_
