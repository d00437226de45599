#include "harness/setup.h"

#include "engine/reference.h"
#include "ssb/chunked_fact.h"
#include "telemetry/json_value.h"
#include "telemetry/metrics.h"

namespace perfbench {
namespace {

using hef::QueryId;

// Knobs that ROADMAP plans to delete once chunked storage is the only
// path. Each is set only while it exists, so deleting a knob while
// keeping its "on" behaviour needs no benchmark edit.
template <typename Config>
void EnableChunkedPrunedScan(Config& config) {
  if constexpr (requires { config.chunked_scan; }) config.chunked_scan = true;
  if constexpr (requires { config.scan_pruning; }) config.scan_pruning = true;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // Full scans: at least 90% of the chunks survive pruning, so decode,
      // filter, probe, gather and group-by do nearly all the work.
      {"ssb-scan",
       {QueryId::kQ2_1, QueryId::kQ2_2, QueryId::kQ2_3, QueryId::kQ3_1,
        QueryId::kQ3_2, QueryId::kQ4_1},
       false},
      // Well-pruned queries: per-query fixed costs (plan-cache lookup,
      // pruning, per-query telemetry) are a large share and decode is
      // small. Q3.3 and Q3.4 are left out: their two-city supplier filter
      // makes their cost flip with the data seed (see the README), and an
      // odd number of round-robin queries keeps the mix median inside one
      // query's latency range. The traced run also serves this mix over
      // HTTP for the serve-layer metrics.
      {"ssb-selective",
       {QueryId::kQ1_1, QueryId::kQ1_2, QueryId::kQ1_3, QueryId::kQ4_2,
        QueryId::kQ4_3},
       true},
  };
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

hef::EngineConfig MakeEngineConfig(int threads, bool collect_stats,
                                   hef::Flavor flavor) {
  hef::EngineConfig config;
  config.flavor = flavor;
  config.probe_cfg = hef::HybridConfig{1, 1, 3};
  config.gather_cfg = hef::HybridConfig{1, 1, 3};
  config.decode_cfg = hef::HybridConfig{1, 1, 3};
  config.block_size = kBlockSize;
  config.threads = threads;
  config.collect_stats = collect_stats;
  EnableChunkedPrunedScan(config);
  return config;
}

hef::serve::ServeConfig MakeServeConfig() {
  hef::serve::ServeConfig config;
  config.admission.executors = kServeExecutors;
  config.engine = MakeEngineConfig(kEngineThreads);
  return config;
}

BuiltDatabase BuildDatabase(std::uint64_t seed, SpanLog& spans) {
  BuiltDatabase built;
  const std::uint64_t t0 = NowNanos();
  built.db = std::make_unique<hef::ssb::SsbDatabase>(
      hef::ssb::SsbDatabase::Generate(kScaleFactor, seed));
  const std::uint64_t t1 = NowNanos();
  spans.Add("SsbDatabase::Generate", 0, t0, t1);
  built.generate_s = static_cast<double>(t1 - t0) * 1e-9;

  hef::ssb::ChunkedFactOptions options;
  options.chunk_rows = kChunkRows;
  options.policy = hef::storage::EncodingPolicy::kAuto;
  hef::ssb::EnsureChunked(*built.db, options);
  const std::uint64_t t2 = NowNanos();
  spans.Add("ssb::EnsureChunked", 0, t1, t2);
  built.encode_s = static_cast<double>(t2 - t1) * 1e-9;
  built.storage_ratio = static_cast<double>(built.db->chunked->EncodedBytes()) /
                        static_cast<double>(built.db->chunked->PlainBytes());
  return built;
}

std::map<QueryId, hef::QueryResult> ReferenceAnswers(
    const hef::ssb::SsbDatabase& db, const std::vector<QueryId>& queries) {
  std::map<QueryId, hef::QueryResult> refs;
  for (const QueryId id : queries) refs[id] = hef::RunReferenceQuery(db, id);
  return refs;
}

bool ReadRegistryCounter(const std::string& name, double* value) {
  auto snapshot = hef::telemetry::JsonValue::Parse(
      hef::telemetry::MetricsRegistry::Get().ToJson());
  if (!snapshot.ok()) return false;
  const hef::telemetry::JsonValue* counters = snapshot->Find("counters");
  if (counters == nullptr) return false;
  const hef::telemetry::JsonValue* v = counters->Find(name);
  if (v == nullptr || !v->is_number()) return false;
  *value = v->number();
  return true;
}

}  // namespace perfbench
