// Per-layer probes of the traced run. Ratios between engine variants are
// measured in one process with the variants interleaved query by query,
// so host drift cancels out of them.

#include <algorithm>
#include <memory>
#include <string>

#include "common/aligned_buffer.h"
#include "common/stopwatch.h"
#include "harness/stats.h"
#include "harness/workloads.h"
#include "engine/engine.h"
#include "ssb/chunked_fact.h"
#include "storage/decode.h"
#include "table/linear_hash_table.h"
#include "table/probe.h"

namespace perfbench {
namespace {

using hef::QueryId;

constexpr int kColdRounds = 3;
constexpr int kWarmRounds = 9;
constexpr int kUnitRounds = 5;

// Fact columns each SSB query reads (from the SSB query text), for the
// decode-time estimate.
int FactColumnsRead(QueryId id) {
  switch (id) {
    case QueryId::kQ1_1:
    case QueryId::kQ1_2:
    case QueryId::kQ1_3:
      return 4;  // orderdate discount quantity extendedprice
    case QueryId::kQ4_1:
    case QueryId::kQ4_2:
    case QueryId::kQ4_3:
      return 6;  // orderdate custkey suppkey partkey revenue supplycost
    default:
      return 4;  // orderdate, two join keys, revenue
  }
}

bool InMix(const WorkloadSpec& spec, QueryId id) {
  return std::find(spec.queries.begin(), spec.queries.end(), id) !=
         spec.queries.end();
}

// Engine variants run side by side; kBase is the workload's own config.
enum VariantIndex { kBase, kStats, kScalar, kSimd, kTwoThreads, kVariants };

struct Variant {
  std::unique_ptr<hef::SsbEngine> engine;
  std::map<QueryId, std::vector<double>> ms;

  double MixP50Sum(const WorkloadSpec& spec) const {
    double sum = 0;
    for (const QueryId id : spec.queries) sum += Median(ms.at(id));
    return sum;
  }
};

// One timed, checked Run with its span; operator statistics (when
// collected) become child spans named "engine.<operator>", laid end to end
// from the Run's start.
double TimedRun(hef::SsbEngine& engine, QueryId id,
                const std::map<QueryId, hef::QueryResult>& refs,
                SpanLog& spans, RunReport& report,
                hef::QueryResult* out = nullptr) {
  const std::uint64_t t0 = NowNanos();
  hef::Result<hef::QueryResult> r = engine.Run(id, hef::exec::QueryContext());
  const std::uint64_t t1 = NowNanos();
  const bool ok = r.ok();
  const bool wrong = ok && !(r.value() == refs.at(id));
  report.Count(ok && !wrong, wrong);
  const std::uint32_t span =
      spans.Add("SsbEngine::Run", 0, t0, t1, ok ? r->trace_id : 0);
  if (ok) {
    std::uint64_t at = t0;
    for (const hef::OperatorStats& op : r->operator_stats) {
      spans.Add("engine." + op.name, span, at, at + op.wall_nanos,
                r->trace_id);
      at += op.wall_nanos;
    }
    if (out != nullptr) *out = std::move(r).value();
  }
  return static_cast<double>(t1 - t0) * 1e-6;
}

double NsPer(std::uint64_t nanos, std::size_t items) {
  return items == 0 ? 0.0
                    : static_cast<double>(nanos) / static_cast<double>(items);
}

// DecodeRange over all nine fact columns in block-size calls.
double DecodeNsPerValue(const hef::ssb::ChunkedFact& fact,
                        const hef::HybridConfig& cfg, SpanLog& spans) {
  hef::storage::DecodeScratch scratch;
  scratch.EnsureCapacity(kBlockSize);
  hef::AlignedBuffer<std::uint64_t> out(kBlockSize, 64);
  std::uint64_t checksum = 0;
  std::vector<double> ns;
  for (int round = 0; round < kUnitRounds; ++round) {
    std::uint64_t total = 0;
    for (const auto& column : fact.columns()) {
      const std::uint64_t t0 = NowNanos();
      for (std::size_t begin = 0; begin < fact.rows(); begin += kBlockSize) {
        const std::size_t n =
            std::min<std::size_t>(kBlockSize, fact.rows() - begin);
        column.data.DecodeRange(cfg, begin, n, scratch, out.data());
        checksum += out[n - 1];
      }
      const std::uint64_t t1 = NowNanos();
      spans.Add("ChunkedColumn::DecodeRange", 0, t0, t1);
      total += t1 - t0;
    }
    ns.push_back(NsPer(total, fact.rows() * fact.columns().size()));
  }
  hef::DoNotOptimize(checksum);
  return Median(ns);
}

// The part dimension filtered as in Q4.1 (p_mfgr in MFGR#1, MFGR#2) is
// inserted key by key; the real lo_partkey foreign keys are then probed
// in block-size ProbeArray calls.
void HashTableCosts(const hef::ssb::SsbDatabase& db,
                    const hef::HybridConfig& probe_cfg, SpanLog& spans,
                    RunReport& report) {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> values;
  for (std::size_t i = 0; i < db.part.n; ++i) {
    if (db.part.mfgr[i] <= 2) {
      keys.push_back(i + 1);
      values.push_back(db.part.brand1[i]);
    }
  }
  const hef::ssb::ChunkedFact& fact = *db.chunked;
  const hef::storage::ChunkedColumn* partkey = nullptr;
  for (const auto& column : fact.columns()) {
    if (std::string(column.name) == "lo_partkey") partkey = &column.data;
  }
  hef::AlignedBuffer<std::uint64_t> fk(fact.rows(), 64);
  hef::AlignedBuffer<std::uint64_t> hits(fact.rows(), 64);
  hef::storage::DecodeScratch scratch;
  scratch.EnsureCapacity(fact.rows());
  if (partkey != nullptr) {
    partkey->DecodeRange(hef::HybridConfig::PureScalar(), 0, fact.rows(),
                         scratch, fk.data());
  }

  std::vector<double> build_ns;
  std::vector<double> probe_ns;
  std::uint64_t misses = 0;
  for (int round = 0; round < kUnitRounds; ++round) {
    hef::LinearHashTable table(keys.size());
    const std::uint64_t t0 = NowNanos();
    for (std::size_t i = 0; i < keys.size(); ++i) {
      table.Insert(keys[i], values[i]);
    }
    const std::uint64_t t1 = NowNanos();
    spans.Add("LinearHashTable::Insert", 0, t0, t1);
    build_ns.push_back(NsPer(t1 - t0, keys.size()));
    if (partkey == nullptr) continue;
    const std::uint64_t t2 = NowNanos();
    for (std::size_t begin = 0; begin < fact.rows(); begin += kBlockSize) {
      const std::size_t n =
          std::min<std::size_t>(kBlockSize, fact.rows() - begin);
      hef::ProbeArray(probe_cfg, table, fk.data() + begin, hits.data() + begin,
                      n);
    }
    const std::uint64_t t3 = NowNanos();
    spans.Add("ProbeArray", 0, t2, t3);
    probe_ns.push_back(NsPer(t3 - t2, fact.rows()));
    misses += static_cast<std::uint64_t>(
        std::count(hits.data(), hits.data() + fact.rows(), hef::kMissValue));
  }
  hef::DoNotOptimize(misses);
  report.Add("table.build_ns_per_key", Median(build_ns), "ns");
  if (!probe_ns.empty()) {
    report.Add("table.probe_ns_per_key", Median(probe_ns), "ns");
  }
}

}  // namespace

void AddLayerMetrics(const WorkloadSpec& spec, const hef::ssb::SsbDatabase& db,
                     const std::map<QueryId, hef::QueryResult>& refs,
                     SpanLog& spans, RunReport& report) {
  std::vector<Variant> variants(kVariants);
  const hef::EngineConfig configs[kVariants] = {
      MakeEngineConfig(kEngineThreads),
      MakeEngineConfig(kEngineThreads, true),
      MakeEngineConfig(kEngineThreads, false, hef::Flavor::kScalar),
      MakeEngineConfig(kEngineThreads, false, hef::Flavor::kSimd),
      MakeEngineConfig(2),
  };
  for (int v = 0; v < kVariants; ++v) {
    variants[v].engine = std::make_unique<hef::SsbEngine>(db, configs[v]);
  }
  Variant& base = variants[kBase];

  // Plan build: the first Run after InvalidatePlanCache, per query.
  std::map<QueryId, std::vector<double>> cold_ms;
  for (int round = 0; round < kColdRounds; ++round) {
    for (const QueryId id : hef::AllQueries()) {
      const std::uint64_t t0 = NowNanos();
      base.engine->InvalidatePlanCache();
      spans.Add("InvalidatePlanCache", 0, t0, NowNanos());
      cold_ms[id].push_back(TimedRun(*base.engine, id, refs, spans, report));
    }
  }
  // Warm every variant, then interleave them query by query. Variants
  // other than the base only run the workload's own mix.
  for (Variant& v : variants) {
    for (const QueryId id : hef::AllQueries()) {
      if (&v == &base || InMix(spec, id)) {
        TimedRun(*v.engine, id, refs, spans, report);
      }
    }
  }
  const std::size_t first_op_span = spans.spans().size();
  for (int round = 0; round < kWarmRounds; ++round) {
    for (const QueryId id : hef::AllQueries()) {
      for (Variant& v : variants) {
        if (&v != &base && !InMix(spec, id)) continue;
        v.ms[id].push_back(TimedRun(*v.engine, id, refs, spans, report));
      }
    }
  }

  for (const QueryId id : hef::AllQueries()) {
    report.Add(std::string("engine.") + hef::QueryName(id) + ".p50_ms",
               Median(base.ms.at(id)), "ms");
  }
  double plan_build_ms = 0;
  for (const QueryId id : spec.queries) {
    plan_build_ms +=
        std::max(0.0, Median(cold_ms.at(id)) - Median(base.ms.at(id)));
  }
  report.Add("engine.plan_build_ms", plan_build_ms, "ms");

  // Operator self times per mix pass, from the stats variant's spans.
  const std::vector<Span> all = spans.spans();
  const std::vector<std::uint64_t> self = SelfTimes(all);
  std::map<std::string, double> op_ms;
  for (std::size_t i = first_op_span; i < all.size(); ++i) {
    const std::string& name = all[i].name;
    if (name.rfind("engine.", 0) != 0) continue;
    const std::string op = name.substr(7, name.find('.', 7) - 7);
    op_ms[op] += static_cast<double>(self[i]) * 1e-6 / kWarmRounds;
  }
  for (const char* op : {"build", "filter", "probe", "groupby"}) {
    report.Add(std::string("engine.") + op + "_ms", op_ms[op], "ms");
  }

  // A few checked passes of the mix: chunk and row counts from the base
  // variant, morsel and steal counts from the two-thread one (steals from
  // the registry, when present).
  double steals_before = 0;
  const bool have_steals = ReadRegistryCounter("exec.steals", &steals_before);
  std::uint64_t chunks_scanned = 0;
  std::uint64_t chunks_total = 0;
  std::uint64_t morsels = 0;
  std::uint64_t result_rows = 0;
  std::uint64_t runs = 0;
  double values_decoded = 0;
  for (int round = 0; round < 2; ++round) {
    for (const QueryId id : spec.queries) {
      hef::QueryResult r;
      TimedRun(*base.engine, id, refs, spans, report, &r);
      chunks_scanned += r.chunks_scanned;
      chunks_total += r.chunks_total;
      result_rows += r.rows.size();
      values_decoded += static_cast<double>(r.chunks_scanned) *
                        static_cast<double>(kChunkRows) * FactColumnsRead(id);
      TimedRun(*variants[kTwoThreads].engine, id, refs, spans, report, &r);
      morsels += r.morsels;
      ++runs;
    }
  }
  double steals_after = 0;
  const bool still_have_steals =
      ReadRegistryCounter("exec.steals", &steals_after);
  report.Add("storage.chunks_scanned_frac",
             chunks_total == 0 ? 1.0
                               : static_cast<double>(chunks_scanned) /
                                     static_cast<double>(chunks_total),
             "ratio");
  report.Add("engine.rows_examined_per_result",
             result_rows == 0 ? 0.0
                              : static_cast<double>(chunks_scanned) *
                                    static_cast<double>(kChunkRows) /
                                    static_cast<double>(result_rows),
             "count");
  report.Add("exec.morsels_per_query",
             static_cast<double>(morsels) / static_cast<double>(runs), "count");
  if (have_steals && still_have_steals) {
    report.Add("exec.steals_per_query",
               (steals_after - steals_before) / static_cast<double>(runs),
               "count");
  }

  // Unit costs of the storage and table layers at the engine's points.
  const hef::EngineConfig config = MakeEngineConfig(kEngineThreads);
  const double decode_ns =
      DecodeNsPerValue(*db.chunked, config.DecodeConfig(), spans);
  report.Add("storage.decode_ns_per_value", decode_ns, "ns");
  const double mix_p50_sum = base.MixP50Sum(spec);
  report.Add("engine.decode_share",
             values_decoded / static_cast<double>(runs) *
                 static_cast<double>(spec.queries.size()) * decode_ns * 1e-6 /
                 mix_p50_sum,
             "ratio");
  HashTableCosts(db, config.ProbeConfig(), spans, report);

  // Same-process ratios over the workload's mix.
  auto p50_sum = [&](VariantIndex v) { return variants[v].MixP50Sum(spec); };
  report.Add("hybrid.speedup_vs_scalar", p50_sum(kScalar) / mix_p50_sum,
             "ratio");
  report.Add("hybrid.speedup_vs_simd", p50_sum(kSimd) / mix_p50_sum, "ratio");
  report.Add("exec.parallel_speedup", mix_p50_sum / p50_sum(kTwoThreads),
             "ratio");
  report.Add("telemetry.stats_overhead", p50_sum(kStats) / mix_p50_sum,
             "ratio");
}

}  // namespace perfbench
