// The workloads: one closed-loop client on an in-process engine.

#include <cstdio>
#include <memory>

#include "harness/stats.h"
#include "harness/workloads.h"
#include "engine/engine.h"

namespace perfbench {
namespace {

using hef::QueryId;

struct LoopResult {
  std::vector<double> latency_ms;
  std::vector<std::uint64_t> done_ns;
  std::map<QueryId, std::vector<double>> per_query_ms;
  std::vector<std::pair<QueryId, std::uint32_t>> roots;  // traced only
  std::uint64_t within_limit = 0;
  std::uint64_t start_ns = 0;

  // Median over short windows of each window's completions per second.
  double WindowQps() const {
    std::vector<double> qps;
    for (const auto& [begin, end] :
         WindowBounds(latency_ms.size(), kQpsWindowSamples)) {
      const std::uint64_t from = begin == 0 ? start_ns : done_ns[begin - 1];
      qps.push_back(static_cast<double>(end - begin) /
                    (static_cast<double>(done_ns[end - 1] - from) * 1e-9));
    }
    return Median(qps);
  }
};

// Runs the mix round-robin until `seconds` have passed, checking every
// answer. Each Run gets an "SsbEngine::Run" span when spans are on.
LoopResult ClosedLoop(hef::SsbEngine& engine, const std::vector<QueryId>& mix,
                      const std::map<QueryId, hef::QueryResult>& refs,
                      double seconds, SpanLog& spans, RunReport& report) {
  LoopResult loop;
  const std::uint64_t start = NowNanos();
  loop.start_ns = start;
  const std::uint64_t stop = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t now = start;
  for (std::size_t i = 0; now < stop; ++i) {
    const QueryId id = mix[i % mix.size()];
    const std::uint64_t t0 = NowNanos();
    hef::Result<hef::QueryResult> r = engine.Run(id, hef::exec::QueryContext());
    now = NowNanos();
    const double ms = static_cast<double>(now - t0) * 1e-6;
    const bool ok = r.ok();
    const bool wrong = ok && !(r.value() == refs.at(id));
    report.Count(ok && !wrong, wrong);
    const std::uint32_t span =
        spans.Add("SsbEngine::Run", 0, t0, now, ok ? r->trace_id : 0);
    if (span != 0) loop.roots.emplace_back(id, span);
    loop.latency_ms.push_back(ms);
    loop.done_ns.push_back(now);
    loop.per_query_ms[id].push_back(ms);
    if (ok && !wrong && ms <= kLatencyLimitMs) ++loop.within_limit;
  }
  return loop;
}

}  // namespace

RunReport RunWorkload(const WorkloadSpec& spec, std::uint64_t seed,
                      double seconds, bool trace, SpanLog& spans) {
  RunReport report;
  TraceComparison comparison;
  std::vector<double> setup_s;
  // The engine refers to the database: declared after it so it is
  // destroyed first, and reset before every rebuild.
  BuiltDatabase built;
  std::unique_ptr<hef::SsbEngine> engine;
  std::map<QueryId, hef::QueryResult> cold;
  for (int r = 0; r < kSetupRepeats; ++r) {
    // Free the previous setup first, so peak_rss_mib sees one database.
    engine.reset();
    built = BuiltDatabase{};
    const std::uint64_t t0 = NowNanos();
    built = BuildDatabase(seed, spans);
    engine = std::make_unique<hef::SsbEngine>(
        *built.db, MakeEngineConfig(kEngineThreads));
    // The cold first pass builds every plan; later passes are warm.
    for (const QueryId id : spec.queries) {
      const std::uint64_t q0 = NowNanos();
      hef::Result<hef::QueryResult> result =
          engine->Run(id, hef::exec::QueryContext());
      spans.Add("SsbEngine::Run", 0, q0, NowNanos(),
                result.ok() ? result->trace_id : 0);
      if (result.ok()) {
        cold[id] = std::move(result).value();
      } else {
        cold.erase(id);
      }
    }
    setup_s.push_back(static_cast<double>(NowNanos() - t0) * 1e-9);
    comparison.generate_s.push_back(built.generate_s);
    comparison.encode_s.push_back(built.encode_s);
  }

  const std::map<QueryId, hef::QueryResult> refs = ReferenceAnswers(
      *built.db, trace ? hef::AllQueries() : spec.queries);
  for (const QueryId id : spec.queries) {
    const auto it = cold.find(id);
    const bool ok = it != cold.end();
    const bool wrong = ok && !(it->second == refs.at(id));
    report.Count(ok && !wrong, wrong);
    if (wrong) std::fprintf(stderr, "hefbench: %s wrong\n", hef::QueryName(id));
  }

  SpanLog untraced_spans(false);
  const LoopResult loop =
      ClosedLoop(*engine, spec.queries, refs, trace ? seconds / 2 : seconds,
                 untraced_spans, report);
  if (!trace) {
    EndToEnd e2e;
    e2e.qps = loop.WindowQps();
    e2e.good_fraction = static_cast<double>(loop.within_limit) /
                        static_cast<double>(loop.latency_ms.size());
    e2e.latency_ms = loop.latency_ms;
    e2e.setup_s = Median(setup_s);
    e2e.storage_ratio = built.storage_ratio;
    if (!AddEndToEndMetrics(e2e, report)) report.correct = false;
    return report;
  }

  const LoopResult traced =
      ClosedLoop(*engine, spec.queries, refs, seconds / 2, spans, report);
  comparison.untraced_ms = loop.per_query_ms;
  comparison.traced_ms = traced.per_query_ms;
  comparison.traced_roots = traced.roots;
  AddTraceMetrics(comparison, spans, report);
  AddLayerMetrics(spec, *built.db, refs, spans, report);
  if (spec.serve_probe) {
    AddServeLayerProbe(spec, *built.db, refs, seed, spans, report);
  } else {
    AddServeLayerMetrics(ServeLayer{}, report);
  }
  return report;
}

}  // namespace perfbench
