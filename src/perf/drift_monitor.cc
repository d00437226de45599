#include "perf/drift_monitor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "telemetry/flight_recorder.h"
#include "telemetry/http_server.h"
#include "telemetry/json_writer.h"
#include "telemetry/metrics.h"

namespace hef {

namespace {

constexpr char kSep = '\x1f';

std::string ProfileKey(const DriftKey& key) {
  std::string k;
  k.reserve(key.query.size() + key.kernel.size() + key.point.size() + 2);
  k += key.query;
  k += kSep;
  k += key.kernel;
  k += kSep;
  k += key.point;
  return k;
}

std::string PredictionKey(const std::string& kernel,
                          const std::string& point) {
  return kernel + kSep + point;
}

// Registers /driftz on the shared debug surface at static-init time.
// drift_monitor.o is pulled into every binary that links the engine
// (engine feeds the monitor), so the provider exists before any server
// starts and the telemetry layer never has to know about hef_perf.
const bool kDriftzRegistered = [] {
  telemetry::RegisterDebugJsonProvider(
      "/driftz", [] { return DriftMonitor::Get().ToJson(); });
  return true;
}();

}  // namespace

DriftMonitor& DriftMonitor::Get() {
  static DriftMonitor* instance = new DriftMonitor();
  (void)kDriftzRegistered;
  return *instance;
}

DriftMonitor::DriftMonitor(DriftOptions options) : options_(options) {}

void DriftMonitor::Configure(const DriftOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
  for (auto& [k, p] : profiles_) {
    p.cusum_slow = 0;
    p.cusum_fast = 0;
  }
}

DriftOptions DriftMonitor::options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_;
}

void DriftMonitor::SetPrediction(const std::string& kernel,
                                 const std::string& point,
                                 double ns_per_row) {
  if (!(ns_per_row > 0)) return;
  std::lock_guard<std::mutex> lock(mu_);
  predictions_[PredictionKey(kernel, point)] = ns_per_row;
  // Existing profiles of this kernel+point pick the prediction up (and
  // restart their CUSUMs — the reference cost changed under them).
  for (auto& [k, p] : profiles_) {
    if (p.key.kernel == kernel && p.key.point == point) {
      p.predicted_ns_per_row = ns_per_row;
      p.sealed_baseline = false;
      p.cusum_slow = 0;
      p.cusum_fast = 0;
    }
  }
}

DriftMonitor::Profile& DriftMonitor::FindOrCreate(const DriftKey& key) {
  auto [it, inserted] = profiles_.try_emplace(ProfileKey(key));
  Profile& p = it->second;
  if (inserted) {
    p.key = key;
    auto pred = predictions_.find(PredictionKey(key.kernel, key.point));
    if (pred != predictions_.end()) p.predicted_ns_per_row = pred->second;
  }
  return p;
}

void DriftMonitor::AdvanceCusum(Profile& p, double observed,
                                std::uint64_t nanos) {
  const double predicted = p.predicted_ns_per_row;
  double residual = (observed - predicted) / predicted;
  residual = std::clamp(residual, -options_.residual_cap,
                        options_.residual_cap);
  p.last_residual = residual;
  // Two one-sided CUSUMs: slow (cost above prediction) and fast (cost
  // below — also drift: the plan is leaving performance on the table and
  // the point should be re-searched).
  p.cusum_slow = std::max(0.0, p.cusum_slow + residual - options_.slack);
  p.cusum_fast = std::max(0.0, p.cusum_fast - residual - options_.slack);

  auto& metrics = telemetry::MetricsRegistry::Get();
  if (!p.drifted) {
    const bool slow = p.cusum_slow >= options_.threshold;
    const bool fast = p.cusum_fast >= options_.threshold;
    if (slow || fast) {
      p.drifted = true;
      p.direction = slow ? "slow" : "fast";
      ++p.drift_events;
      ++drift_events_;
      metrics.counter("perf.drift_detected").Increment();
      // arg0 carries the signed residual in per-mille so a flight dump
      // alone says "probe at v1s3p2 runs 2.4x predicted".
      const auto permille = static_cast<std::int64_t>(residual * 1000.0);
      telemetry::FlightRecorder::Get().Record(
          telemetry::FlightEventKind::kDriftDetected, p.key.kernel.c_str(),
          /*trace_id=*/0, static_cast<std::uint64_t>(permille),
          static_cast<std::uint64_t>(observed));
    }
  } else {
    // Hysteresis: recover only once both statistics decayed well below
    // the firing threshold, so a key oscillating around it does not
    // flap detect/recover every window.
    const double reset = options_.threshold * options_.reset_fraction;
    if (p.cusum_slow <= reset && p.cusum_fast <= reset) {
      p.drifted = false;
      p.direction.clear();
      ++recoveries_;
      metrics.counter("perf.drift_recovered").Increment();
      telemetry::FlightRecorder::Get().Record(
          telemetry::FlightEventKind::kDriftRecovered, p.key.kernel.c_str(),
          /*trace_id=*/0, 0, static_cast<std::uint64_t>(observed));
    }
  }
  (void)nanos;
}

void DriftMonitor::Observe(const DriftKey& key,
                           const DriftObservation& obs) {
  if (obs.rows == 0 || obs.wall_nanos == 0) return;
  const double observed =
      static_cast<double>(obs.wall_nanos) / static_cast<double>(obs.rows);

  std::lock_guard<std::mutex> lock(mu_);
  Profile& p = FindOrCreate(key);
  ++p.windows;
  p.rows += obs.rows;
  p.last_nanos = obs.nanos;

  const double alpha = options_.ewma_alpha;
  if (p.windows == 1) {
    p.ns_per_row = observed;
    p.ns_per_row_min = observed;
  } else {
    p.ns_per_row_min = std::min(p.ns_per_row_min, observed);
    const double dev = observed - p.ns_per_row;
    p.ns_per_row += alpha * dev;
    p.ns_per_row_var = (1 - alpha) * (p.ns_per_row_var + alpha * dev * dev);
  }
  if (obs.pmu_valid && obs.cycles > 0) {
    const double ipc = static_cast<double>(obs.instructions) /
                       static_cast<double>(obs.cycles);
    const double llc = static_cast<double>(obs.llc_misses) * 1000.0 /
                       static_cast<double>(obs.rows);
    ++p.pmu_windows;
    if (p.pmu_windows == 1) {
      p.ipc = ipc;
      p.llc_per_kilorow = llc;
    } else {
      p.ipc += alpha * (ipc - p.ipc);
      p.llc_per_kilorow += alpha * (llc - p.llc_per_kilorow);
    }
  }

  auto& metrics = telemetry::MetricsRegistry::Get();
  metrics.counter("perf.drift_windows").Increment();

  if (p.predicted_ns_per_row > 0 && obs.rows >= options_.min_rows &&
      p.windows >= static_cast<std::uint64_t>(options_.min_windows)) {
    AdvanceCusum(p, observed, obs.nanos);
  }
  if (p.predicted_ns_per_row <= 0 && obs.rows >= options_.min_rows &&
      p.calibration.size() < kMaxCalibrationWindows) {
    p.calibration.push_back(observed);
  }
  metrics.gauge("perf.drift_keys").Set(static_cast<double>(profiles_.size()));
  std::uint64_t drifted = 0;
  for (const auto& [k, prof] : profiles_) drifted += prof.drifted ? 1 : 0;
  metrics.gauge("perf.drift_drifted_keys").Set(static_cast<double>(drifted));
}

void DriftMonitor::SealBaseline() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [k, p] : profiles_) {
    if (p.predicted_ns_per_row > 0) continue;
    std::vector<double>& windows = p.calibration;
    if (windows.size() <
        static_cast<std::size_t>(std::max(1, options_.min_windows))) {
      continue;
    }
    const auto mid = windows.begin() + windows.size() / 2;
    std::nth_element(windows.begin(), mid, windows.end());
    double median = *mid;
    if (windows.size() % 2 == 0) {
      median = (median + *std::max_element(windows.begin(), mid)) / 2;
    }
    if (!(median > 0)) continue;
    p.predicted_ns_per_row = median;
    p.sealed_baseline = true;
    p.cusum_slow = 0;
    p.cusum_fast = 0;
  }
}

void DriftMonitor::NotifyRetune(const std::string& kernel) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [k, p] : profiles_) {
    if (p.key.kernel != kernel) continue;
    p.cusum_slow = 0;
    p.cusum_fast = 0;
    p.drifted = false;
    p.direction.clear();
  }
}

std::uint64_t DriftMonitor::drift_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return drift_events_;
}

std::uint64_t DriftMonitor::drifted_keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t drifted = 0;
  for (const auto& [k, p] : profiles_) drifted += p.drifted ? 1 : 0;
  return drifted;
}

DriftAdvice DriftMonitor::MakeAdvice(const Profile& p) {
  DriftAdvice a;
  a.query = p.key.query;
  a.kernel = p.key.kernel;
  a.point = p.key.point;
  a.observed_ns_per_row = p.ns_per_row;
  a.predicted_ns_per_row = p.predicted_ns_per_row;
  a.residual = p.predicted_ns_per_row > 0
                   ? (p.ns_per_row - p.predicted_ns_per_row) /
                         p.predicted_ns_per_row
                   : 0;
  a.direction = p.direction;
  a.windows = p.windows;
  a.drift_events = p.drift_events;
  a.suggested_initial = p.key.point;
  return a;
}

std::vector<DriftAdvice> DriftMonitor::Advice() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DriftAdvice> advice;
  for (const auto& [k, p] : profiles_) {
    if (p.drifted) advice.push_back(MakeAdvice(p));
  }
  std::sort(advice.begin(), advice.end(),
            [](const DriftAdvice& a, const DriftAdvice& b) {
              return std::fabs(a.residual) > std::fabs(b.residual);
            });
  return advice;
}

std::string DriftMonitor::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  telemetry::JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("hef-drift-v1");
  w.Key("drift_events").UInt(drift_events_);
  w.Key("recoveries").UInt(recoveries_);
  w.Key("predictions").UInt(predictions_.size());
  w.Key("options").BeginObject();
  w.Key("ewma_alpha").Double(options_.ewma_alpha);
  w.Key("slack").Double(options_.slack);
  w.Key("threshold").Double(options_.threshold);
  w.Key("reset_fraction").Double(options_.reset_fraction);
  w.Key("min_windows").Int(options_.min_windows);
  w.EndObject();
  w.Key("profiles").BeginArray();
  for (const auto& [k, p] : profiles_) {
    w.BeginObject();
    w.Key("query").String(p.key.query);
    w.Key("kernel").String(p.key.kernel);
    w.Key("point").String(p.key.point);
    w.Key("windows").UInt(p.windows);
    w.Key("rows").UInt(p.rows);
    w.Key("ns_per_row").Double(p.ns_per_row);
    w.Key("ns_per_row_min").Double(p.ns_per_row_min);
    w.Key("ns_per_row_stddev").Double(std::sqrt(
        std::max(0.0, p.ns_per_row_var)));
    if (p.pmu_windows > 0) {
      w.Key("ipc").Double(p.ipc);
      w.Key("llc_per_kilorow").Double(p.llc_per_kilorow);
    }
    if (p.predicted_ns_per_row > 0) {
      w.Key("predicted_ns_per_row").Double(p.predicted_ns_per_row);
      w.Key("baseline").String(p.sealed_baseline ? "sealed" : "tuner");
      w.Key("residual").Double(p.last_residual);
      w.Key("cusum_slow").Double(p.cusum_slow);
      w.Key("cusum_fast").Double(p.cusum_fast);
    }
    w.Key("drifted").Bool(p.drifted);
    if (p.drifted) w.Key("direction").String(p.direction);
    w.Key("drift_events").UInt(p.drift_events);
    w.EndObject();
  }
  w.EndArray();
  w.Key("advice").BeginArray();
  std::vector<const Profile*> drifted;
  for (const auto& [k, p] : profiles_) {
    if (p.drifted) drifted.push_back(&p);
  }
  std::sort(drifted.begin(), drifted.end(),
            [](const Profile* a, const Profile* b) {
              const double ra = (a->ns_per_row - a->predicted_ns_per_row) /
                                a->predicted_ns_per_row;
              const double rb = (b->ns_per_row - b->predicted_ns_per_row) /
                                b->predicted_ns_per_row;
              return std::fabs(ra) > std::fabs(rb);
            });
  for (const Profile* p : drifted) {
    const DriftAdvice a = MakeAdvice(*p);
    w.BeginObject();
    w.Key("query").String(a.query);
    w.Key("kernel").String(a.kernel);
    w.Key("point").String(a.point);
    w.Key("observed_ns_per_row").Double(a.observed_ns_per_row);
    w.Key("predicted_ns_per_row").Double(a.predicted_ns_per_row);
    w.Key("residual").Double(a.residual);
    w.Key("direction").String(a.direction);
    w.Key("windows").UInt(a.windows);
    w.Key("drift_events").UInt(a.drift_events);
    w.Key("suggested").BeginObject();
    w.Key("action").String("retune");
    w.Key("initial").String(a.suggested_initial);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

Status DriftMonitor::WriteAdvice(const std::string& path) const {
  const std::string json = ToJson();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp);
    if (!file) return Status::IoError("cannot write " + tmp);
    file << json << "\n";
    if (!file.good()) return Status::IoError("write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("rename to " + path + " failed");
  }
  return Status::OK();
}

void DriftMonitor::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  profiles_.clear();
  predictions_.clear();
  drift_events_ = 0;
  recoveries_ = 0;
}

}  // namespace hef
