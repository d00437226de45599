// Metric sets shared by the workloads.

#include <cstdio>

#include "harness/host.h"
#include "harness/stats.h"
#include "harness/workloads.h"

namespace perfbench {

bool AddEndToEndMetrics(const EndToEnd& e2e, RunReport& report) {
  const std::size_t need = MinSamplesForTail(kTailQuantile);
  if (e2e.latency_ms.size() < need) {
    std::fprintf(stderr,
                 "hefbench: %zu latency samples; p99 needs at least %zu "
                 "(%zu beyond it)\n",
                 e2e.latency_ms.size(), need, kMinBeyondTail);
    return false;
  }
  report.Add("qps", e2e.qps, "1/s");
  report.Add("goodput_qps", e2e.qps * e2e.good_fraction, "1/s");
  report.Add("p50_ms",
             MedianOfWindowPercentiles(e2e.latency_ms, kWindowSamples, 0.5),
             "ms");
  report.Add("p99_ms",
             MedianOfWindowPercentiles(e2e.latency_ms, kWindowSamples,
                                       kTailQuantile),
             "ms");
  report.Add("setup_s", e2e.setup_s, "s");
  report.Add("storage_ratio", e2e.storage_ratio, "ratio");
  report.Add("peak_rss_mib", PeakRssMib(), "MiB");
  report.Add("ok_rate",
             report.attempted == 0
                 ? 0.0
                 : static_cast<double>(report.attempted - report.failed) /
                       static_cast<double>(report.attempted),
             "ratio");
  return true;
}

void AddServeLayerMetrics(const ServeLayer& layer, RunReport& report) {
  report.Add("serve.queue_ms.p50", Median(layer.queue_ms), "ms");
  report.Add("serve.queue_ms.p99", Percentile(layer.queue_ms, kTailQuantile),
             "ms");
  report.Add("serve.exec_ms.p50", Median(layer.exec_ms), "ms");
  report.Add("serve.http_ms.p50", Median(layer.http_ms), "ms");
  report.Add("serve.http_ms.p99", Percentile(layer.http_ms, kTailQuantile),
             "ms");
  report.Add("serve.gen_late_ms.p99", Percentile(layer.late_ms, kTailQuantile),
             "ms");
}

namespace {

double SumOfMedians(const std::map<hef::QueryId, std::vector<double>>& ms) {
  double sum = 0;
  for (const auto& [id, samples] : ms) sum += Median(samples);
  return sum;
}

}  // namespace

void AddTraceMetrics(const TraceComparison& trace, const SpanLog& spans,
                     RunReport& report) {
  report.Add("ssb.generate_s", Median(trace.generate_s), "s");
  report.Add("storage.encode_s", Median(trace.encode_s), "s");
  const double untraced = SumOfMedians(trace.untraced_ms);
  report.Add("trace_overhead",
             untraced > 0 ? SumOfMedians(trace.traced_ms) / untraced : 0.0,
             "ratio");
  // The self times of each traced request's span tree (its blocking
  // path), summed per request; their per-query medians, summed over the
  // mix, against the untraced per-query median latencies.
  const std::vector<Span> all = spans.spans();
  const std::vector<std::uint64_t> self = SelfTimes(all);
  std::vector<double> tree_ms(all.size() + 1, 0.0);
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::uint32_t root = static_cast<std::uint32_t>(i + 1);
    while (all[root - 1].parent != 0) root = all[root - 1].parent;
    tree_ms[root] += static_cast<double>(self[i]) * 1e-6;
  }
  std::map<hef::QueryId, std::vector<double>> blocking_ms;
  for (const auto& [id, root] : trace.traced_roots) {
    blocking_ms[id].push_back(tree_ms[root]);
  }
  report.Add("trace.span_sum_ratio",
             untraced > 0 ? SumOfMedians(blocking_ms) / untraced : 0.0,
             "ratio");
}

}  // namespace perfbench
