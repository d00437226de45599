// The benchmark's workloads and the traced run's layer probes.
//
// The workload sets up kSetupRepeats times (setup_s is the median), checks
// every answer against the reference engine for the run's seed, then
// measures for `seconds` with tracing off. With `trace`, the timed window
// is split: the first half runs untraced and the second half records spans,
// and AddLayerMetrics adds the per-layer numbers.

#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <vector>

#include "harness/setup.h"
#include "harness/spans.h"
#include "engine/query_id.h"
#include "engine/result.h"
#include "ssb/database.h"

namespace perfbench {

// Closed loop: one client running the mix round-robin on an in-process
// engine.
RunReport RunWorkload(const WorkloadSpec& spec, std::uint64_t seed,
                      double seconds, bool trace, SpanLog& spans);

// Per-layer probes shared by every workload's traced run: per-query p50
// of all 13 queries, plan build, operator self times, flavour, thread and
// stats ratios (all same-process), morsel and steal counts at two
// threads, decode and hash-table unit costs.
// Answers are checked against `refs` (all 13 queries) and counted in
// `report`.
void AddLayerMetrics(const WorkloadSpec& spec, const hef::ssb::SsbDatabase& db,
                     const std::map<hef::QueryId, hef::QueryResult>& refs,
                     SpanLog& spans, RunReport& report);

// Latency statistics use consecutive windows of this many samples, each
// enough for a p99 with kMinBeyondTail samples beyond it
// (MinSamplesForTail(kTailQuantile)), and report the median window.
inline constexpr std::size_t kWindowSamples = 1000;
// qps needs no tail, so it uses shorter windows: a host stall then spoils
// only the few windows it overlaps, and the median steps over them.
inline constexpr std::size_t kQpsWindowSamples = 100;

// Adds the e2e metric set every workload prints.
struct EndToEnd {
  double qps = 0;
  double good_fraction = 0;        // of completed queries: correct, in limit
  std::vector<double> latency_ms;  // in completion order
  double setup_s = 0;
  double storage_ratio = 0;
};
// False (with a message on stderr) when the sample cannot support p99.
bool AddEndToEndMetrics(const EndToEnd& e2e, RunReport& report);

// Serves the workload's mix from an in-process ServeServer to an open-loop
// client (FixedRateSchedule at kServeRate, kServeConnections connections)
// and adds the serve-layer metrics, with a span tree per request.
void AddServeLayerProbe(const WorkloadSpec& spec,
                        const hef::ssb::SsbDatabase& db,
                        const std::map<hef::QueryId, hef::QueryResult>& refs,
                        std::uint64_t seed, SpanLog& spans,
                        RunReport& report);

// Adds the serve-layer metrics; zeros when the workload has no serve probe.
struct ServeLayer {
  std::vector<double> queue_ms;
  std::vector<double> exec_ms;
  std::vector<double> http_ms;
  std::vector<double> late_ms;
};
void AddServeLayerMetrics(const ServeLayer& layer, RunReport& report);

// Shared trace-mode metrics: the setup phases, and how the traced half of
// the timed window compares with the untraced half.
struct TraceComparison {
  std::vector<double> generate_s;  // one per setup
  std::vector<double> encode_s;
  // Client-measured latency per query, untraced and traced halves.
  std::map<hef::QueryId, std::vector<double>> untraced_ms;
  std::map<hef::QueryId, std::vector<double>> traced_ms;
  // Root span of every traced request, with its query.
  std::vector<std::pair<hef::QueryId, std::uint32_t>> traced_roots;
};
void AddTraceMetrics(const TraceComparison& trace, const SpanLog& spans,
                     RunReport& report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
