// Engine-level tests for the chunked scan path: bit-identical results
// across flat / chunked / chunked+pruned execution for all 13 SSB
// queries, a sweep of the late-materialising scan against the reference
// engine across encodings, flavours, engine knobs and thread counts, the
// decode.<column> stats rows, the pruning bookkeeping surfaced through
// QueryResult and EXPLAIN, and the configuration validation on the
// fallible Run path.

#include <cstdint>
#include <map>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "engine/explain.h"
#include "engine/reference.h"
#include "ssb/chunked_fact.h"
#include "ssb/database.h"
#include "telemetry/metrics.h"

namespace hef {
namespace {

// Small scale, small chunks: SF 0.01 is 60k fact rows; 8192-row chunks
// (2 engine blocks) give 8 chunks so pruning has something to skip.
constexpr double kSf = 0.01;
constexpr std::size_t kChunkRows = 8192;

ssb::SsbDatabase MakeChunkedDb(
    storage::EncodingPolicy policy = storage::EncodingPolicy::kAuto) {
  ssb::SsbDatabase db = ssb::SsbDatabase::Generate(kSf);
  ssb::ChunkedFactOptions options;
  options.chunk_rows = kChunkRows;
  options.policy = policy;
  ssb::EnsureChunked(db, options);
  return db;
}

EngineConfig Config(Flavor flavor, bool chunked, bool pruning) {
  EngineConfig config;
  config.flavor = flavor;
  config.threads = 1;
  config.chunked_scan = chunked;
  config.scan_pruning = pruning;
  return config;
}

TEST(ChunkedScanTest, AllQueriesBitIdenticalAcrossScanModes) {
  const ssb::SsbDatabase db = MakeChunkedDb();
  for (const Flavor flavor : {Flavor::kScalar, Flavor::kHybrid}) {
    SsbEngine flat(db, Config(flavor, false, false));
    SsbEngine chunked(db, Config(flavor, true, false));
    SsbEngine pruned(db, Config(flavor, true, true));
    for (const QueryId id : AllQueries()) {
      const QueryResult want = flat.Run(id);
      const QueryResult got_chunked = chunked.Run(id);
      const QueryResult got_pruned = pruned.Run(id);
      EXPECT_TRUE(want == got_chunked)
          << QueryName(id) << " chunked mismatch";
      EXPECT_TRUE(want == got_pruned)
          << QueryName(id) << " pruned mismatch";
      // The group rows compare above; qualifying_rows additionally pins
      // the scan cardinality, so pruning provably dropped only dead
      // chunks.
      EXPECT_EQ(want.qualifying_rows, got_pruned.qualifying_rows)
          << QueryName(id);
    }
  }
}

TEST(ChunkedScanTest, ResultsMatchReferenceWithPruning) {
  const ssb::SsbDatabase db = MakeChunkedDb();
  SsbEngine pruned(db, Config(Flavor::kSimd, true, true));
  for (const QueryId id : AllQueries()) {
    EXPECT_TRUE(pruned.Run(id) == RunReferenceQuery(db, id))
        << QueryName(id);
  }
}

// Every path that fetches a column after the selection shrank decodes
// only the surviving rows: later filters, join keys, the Bloom
// pre-filter's re-fetch after compaction, and the measures. Each must
// stay exact for every encoding, flavour, knob and thread count.
class ChunkedScanSweepTest
    : public ::testing::TestWithParam<
          std::tuple<storage::EncodingPolicy, Flavor>> {};

TEST_P(ChunkedScanSweepTest, AllQueriesMatchReference) {
  const auto [policy, flavor] = GetParam();
  const ssb::SsbDatabase db = MakeChunkedDb(policy);
  std::map<QueryId, QueryResult> want;
  for (const QueryId id : AllQueries()) {
    want[id] = RunReferenceQuery(db, id);
  }
  for (int knobs = 0; knobs < 4; ++knobs) {
    for (const int threads : {1, 4}) {
      EngineConfig config = Config(flavor, true, false);
      config.fused_filters = (knobs & 1) != 0;
      config.vectorized_agg = (knobs & 2) != 0;
      config.threads = threads;
      SsbEngine engine(db, config);
      for (const QueryId id : AllQueries()) {
        const QueryResult got = engine.Run(id);
        EXPECT_TRUE(got == want[id])
            << QueryName(id) << " fused=" << config.fused_filters
            << " vagg=" << config.vectorized_agg << " threads=" << threads;
        EXPECT_EQ(got.qualifying_rows, want[id].qualifying_rows)
            << QueryName(id);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndFlavors, ChunkedScanSweepTest,
    ::testing::Combine(::testing::Values(storage::EncodingPolicy::kAuto,
                                         storage::EncodingPolicy::kPlain,
                                         storage::EncodingPolicy::kDict,
                                         storage::EncodingPolicy::kFor),
                       ::testing::Values(Flavor::kScalar, Flavor::kSimd,
                                         Flavor::kHybrid)),
    [](const ::testing::TestParamInfo<ChunkedScanSweepTest::ParamType>& info) {
      return std::string(
                 storage::EncodingPolicyName(std::get<0>(info.param))) +
             "_" + FlavorName(std::get<1>(info.param));
    });

// Decode rows of one stats run, keyed by column ("decode.<column>").
std::map<std::string, OperatorStats> DecodeRows(const QueryResult& result) {
  std::map<std::string, OperatorStats> rows;
  for (const OperatorStats& op : result.operator_stats) {
    if (op.name.rfind("decode.", 0) == 0) rows[op.name.substr(7)] = op;
  }
  return rows;
}

// Decode has its own stats rows: one per plan column, block rows in,
// values materialised out, carved out of the operator that touched the
// column so the rows still add up to no more than the query's wall time.
TEST(ChunkedScanTest, DecodeRowsAttributeMaterialisedValues) {
  const ssb::SsbDatabase db = MakeChunkedDb();
  EngineConfig config = Config(Flavor::kHybrid, true, false);
  config.collect_stats = true;
  SsbEngine engine(db, config);
  const QueryResult result = engine.Run(QueryId::kQ2_1);
  const std::map<std::string, OperatorStats> decode = DecodeRows(result);
  // Q2.1 has no fact filters: three probes, then the revenue measure.
  ASSERT_EQ(decode.size(), 4u);
  ASSERT_EQ(decode.count("revenue"), 1u);
  std::uint64_t sum_nanos = 0;
  int probes = 0;
  // Rows reaching the current join stage: its key filter's input when
  // the join has one (the probe then sees only the keys it passed).
  std::uint64_t stage_rows_in = 0;
  for (const OperatorStats& op : result.operator_stats) {
    sum_nanos += op.wall_nanos;
    if (op.name.rfind("keyfilter.", 0) == 0) stage_rows_in = op.rows_in;
    if (op.name.rfind("probe.", 0) != 0) continue;
    if (stage_rows_in == 0) stage_rows_in = op.rows_in;
    const OperatorStats& d = decode.at(op.name.substr(6));
    EXPECT_EQ(d.rows_in, db.chunked->rows()) << op.name;
    if (probes++ == 0) {
      // The first probe's key is filtered on its packed codes, so only
      // the keys its key filter passes decode...
      EXPECT_EQ(d.rows_out, op.rows_in) << op.name;
    } else {
      // ...every later column only the rows that reached it.
      EXPECT_EQ(d.rows_out, stage_rows_in) << op.name;
    }
    EXPECT_LT(d.rows_out, d.rows_in) << op.name;
    stage_rows_in = 0;
  }
  EXPECT_EQ(probes, 3);
  EXPECT_EQ(decode.at("revenue").rows_out, result.qualifying_rows);
  EXPECT_LE(sum_nanos, result.wall_nanos);

  const ExplainMeta meta = MakeExplainMeta("Q2.1", "hybrid", config);
  EXPECT_NE(ExplainToText(meta, result).find("decode.revenue"),
            std::string::npos);
  EXPECT_NE(ExplainToJson(meta, result).find("\"kind\":\"decode\""),
            std::string::npos);

  // Flat scans decode nothing and report no decode rows.
  config.chunked_scan = false;
  SsbEngine flat(db, config);
  EXPECT_TRUE(DecodeRows(flat.Run(QueryId::kQ2_1)).empty());
}

// A join with a key filter reports two rows that split its stage window:
// keyfilter.<column> (every key reaching the stage in, the keys that can
// match out) and probe.<column> (the hash probe of exactly those keys).
// The filter is exact, so the probe that follows it never misses.
TEST(ChunkedScanTest, KeyFilterRowsSplitTheJoinStage) {
  const ssb::SsbDatabase db = MakeChunkedDb();
  EngineConfig config = Config(Flavor::kHybrid, true, true);
  config.collect_stats = true;
  SsbEngine engine(db, config);
  int filtered_stages = 0;
  for (const QueryId id : AllQueries()) {
    const QueryResult result = engine.Run(id);
    const std::vector<OperatorStats>& ops = result.operator_stats;
    std::uint64_t sum_nanos = 0;
    std::uint64_t reaching = 0;  // rows out of the previous stage
    bool first_stage = true;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const OperatorStats& op = ops[i];
      sum_nanos += op.wall_nanos;
      if (op.name.rfind("filter.", 0) == 0) {
        reaching = op.rows_out;
        first_stage = false;
      }
      if (op.name.rfind("keyfilter.", 0) != 0) {
        if (op.name.rfind("probe.", 0) == 0) {
          reaching = op.rows_out;
          first_stage = false;
        }
        continue;
      }
      ++filtered_stages;
      ASSERT_LT(i + 1, ops.size()) << QueryName(id);
      const OperatorStats& probe = ops[i + 1];
      ASSERT_EQ(probe.name, "probe." + op.name.substr(10)) << QueryName(id);
      if (!first_stage) {
        EXPECT_EQ(op.rows_in, reaching) << op.name;
      }
      EXPECT_EQ(op.rows_out, probe.rows_in) << QueryName(id) << op.name;
      EXPECT_EQ(probe.rows_out, probe.rows_in) << QueryName(id) << op.name;
      EXPECT_LE(op.rows_out, op.rows_in) << QueryName(id) << op.name;
      EXPECT_EQ(op.invocations, probe.invocations) << QueryName(id);
    }
    EXPECT_LE(sum_nanos, result.wall_nanos) << QueryName(id);
  }
  EXPECT_GT(filtered_stages, 13);
}

// The first join's key filter runs on the packed FoR codes whenever it
// opens the pipeline (no fact filter ran before it): its key column then
// decodes exactly the keys the filter passed — decode.<key> rows out
// equal keyfilter.<key> rows out — instead of whole blocks, and answers
// stay those of the reference engine. A silent fallback to the decoded
// path would decode every block row and fail here.
class CodeSpaceKeyFilterTest
    : public ::testing::TestWithParam<
          std::tuple<storage::EncodingPolicy, Flavor>> {};

TEST_P(CodeSpaceKeyFilterTest, FirstKeyDecodesOnlyFilterSurvivors) {
  const auto [policy, flavor] = GetParam();
  const ssb::SsbDatabase db = MakeChunkedDb(policy);
  for (const int threads : {1, 4}) {
    EngineConfig config = Config(flavor, true, false);
    config.collect_stats = true;
    config.threads = threads;
    SsbEngine engine(db, config);
    int code_space_queries = 0;
    for (const QueryId id : AllQueries()) {
      const QueryResult got = engine.Run(id);
      EXPECT_TRUE(got == RunReferenceQuery(db, id))
          << QueryName(id) << " threads=" << threads;
      const OperatorStats* opener = nullptr;
      for (const OperatorStats& op : got.operator_stats) {
        if (op.name.rfind("filter.", 0) == 0 ||
            op.name.rfind("keyfilter.", 0) == 0 ||
            op.name.rfind("probe.", 0) == 0) {
          opener = &op;
          break;
        }
      }
      ASSERT_NE(opener, nullptr) << QueryName(id);
      if (opener->name.rfind("keyfilter.", 0) != 0) continue;
      ++code_space_queries;
      const std::map<std::string, OperatorStats> decode = DecodeRows(got);
      const OperatorStats& d = decode.at(opener->name.substr(10));
      EXPECT_EQ(d.rows_in, db.chunked->rows()) << QueryName(id);
      EXPECT_EQ(d.rows_out, opener->rows_out)
          << QueryName(id) << " " << opener->name << " threads=" << threads;
      EXPECT_LT(d.rows_out, d.rows_in) << QueryName(id);
    }
    // Q2.1-Q4.3 all open with a selective, key-filtered join.
    EXPECT_EQ(code_space_queries, 10) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndFlavors, CodeSpaceKeyFilterTest,
    ::testing::Combine(::testing::Values(storage::EncodingPolicy::kAuto,
                                         storage::EncodingPolicy::kFor),
                       ::testing::Values(Flavor::kScalar, Flavor::kSimd,
                                         Flavor::kHybrid)),
    [](const ::testing::TestParamInfo<CodeSpaceKeyFilterTest::ParamType>&
           info) {
      return std::string(
                 storage::EncodingPolicyName(std::get<0>(info.param))) +
             "_" + FlavorName(std::get<1>(info.param));
    });

TEST(ChunkedScanTest, PlainChunksHandOutFullBlocksWithoutCopy) {
  const ssb::SsbDatabase db = MakeChunkedDb(storage::EncodingPolicy::kPlain);
  EngineConfig config = Config(Flavor::kHybrid, true, false);
  config.collect_stats = true;
  SsbEngine engine(db, config);
  const QueryResult result = engine.Run(QueryId::kQ2_1);
  int in_place = 0;
  for (const auto& [column, op] : DecodeRows(result)) {
    EXPECT_EQ(op.rows_in, db.chunked->rows()) << column;
    if (op.rows_out == 0) ++in_place;
  }
  // Only the first probe's key is read as whole blocks, in place.
  EXPECT_EQ(in_place, 1);
}

TEST(ChunkedScanTest, EnvelopeCountsChunks) {
  const ssb::SsbDatabase db = MakeChunkedDb();
  const std::uint64_t total = db.chunked->num_chunks();

  SsbEngine flat(db, Config(Flavor::kHybrid, false, false));
  EXPECT_EQ(flat.Run(QueryId::kQ1_1).chunks_total, 0u);

  SsbEngine chunked(db, Config(Flavor::kHybrid, true, false));
  const QueryResult unpruned = chunked.Run(QueryId::kQ1_1);
  EXPECT_EQ(unpruned.chunks_total, total);
  EXPECT_EQ(unpruned.chunks_scanned, total);
  EXPECT_EQ(unpruned.chunks_pruned, 0u);

  SsbEngine pruned(db, Config(Flavor::kHybrid, true, true));
  const QueryResult result = pruned.Run(QueryId::kQ1_1);
  EXPECT_EQ(result.chunks_total, total);
  EXPECT_EQ(result.chunks_scanned + result.chunks_pruned, total);
  // Q1.1 filters one year out of seven from date-clustered chunks:
  // pruning must actually drop something at this chunk granularity.
  EXPECT_GT(result.chunks_pruned, 0u);
}

TEST(ChunkedScanTest, OperatorStatsAttributePrunes) {
  const ssb::SsbDatabase db = MakeChunkedDb();
  EngineConfig config = Config(Flavor::kHybrid, true, true);
  config.collect_stats = true;
  SsbEngine engine(db, config);
  const QueryResult result = engine.Run(QueryId::kQ1_1);
  std::uint64_t attributed = 0;
  for (const OperatorStats& op : result.operator_stats) {
    attributed += op.chunks_pruned;
  }
  // First-cause-wins attribution: per-operator prunes sum to the
  // envelope total.
  EXPECT_EQ(attributed, result.chunks_pruned);

  const ExplainMeta meta =
      MakeExplainMeta("Q1.1", "hybrid", engine.config());
  const std::string text = ExplainToText(meta, result);
  EXPECT_NE(text.find("chunks="), std::string::npos);
  EXPECT_NE(text.find("pruned="), std::string::npos);
  const std::string json = ExplainToJson(meta, result);
  EXPECT_NE(json.find("\"chunks_total\""), std::string::npos);
  EXPECT_NE(json.find("\"chunks_pruned\""), std::string::npos);
}

TEST(ChunkedScanTest, StorageMetricsAdvance) {
  const ssb::SsbDatabase db = MakeChunkedDb();
  auto& registry = telemetry::MetricsRegistry::Get();
  const std::uint64_t scanned0 =
      registry.counter("storage.chunks_scanned").value();
  const std::uint64_t pruned0 =
      registry.counter("storage.chunks_pruned").value();
  SsbEngine engine(db, Config(Flavor::kHybrid, true, true));
  EXPECT_GT(registry.gauge("storage.encoded_bytes").value(), 0);
  EXPECT_GT(registry.gauge("storage.plain_bytes").value(), 0);
  engine.Run(QueryId::kQ1_1);
  const std::uint64_t scanned =
      registry.counter("storage.chunks_scanned").value() - scanned0;
  const std::uint64_t pruned =
      registry.counter("storage.chunks_pruned").value() - pruned0;
  EXPECT_EQ(scanned + pruned, db.chunked->num_chunks());
  EXPECT_GT(pruned, 0u);
}

TEST(ChunkedScanTest, ChunkedScanWithoutEnsureChunkedIsInvalidArgument) {
  const ssb::SsbDatabase db = ssb::SsbDatabase::Generate(kSf);
  SsbEngine engine(db, Config(Flavor::kScalar, true, false));
  const Result<QueryResult> r =
      engine.Run(QueryId::kQ1_1, exec::QueryContext());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ChunkedScanTest, MisalignedChunkRowsIsInvalidArgument) {
  ssb::SsbDatabase db = ssb::SsbDatabase::Generate(kSf);
  ssb::ChunkedFactOptions options;
  options.chunk_rows = 1000;  // not a multiple of the 4096 block
  ssb::EnsureChunked(db, options);
  SsbEngine engine(db, Config(Flavor::kScalar, true, false));
  const Result<QueryResult> r =
      engine.Run(QueryId::kQ1_1, exec::QueryContext());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ChunkedScanTest, AnswersAfterDropFlatFact) {
  ssb::SsbDatabase db = MakeChunkedDb();
  // Capture the expected answers while the flat columns are alive.
  SsbEngine flat(db, Config(Flavor::kHybrid, false, false));
  const QueryResult want = flat.Run(QueryId::kQ4_2);

  SsbEngine engine(db, Config(Flavor::kHybrid, true, true));
  ssb::DropFlatFact(db);
  EXPECT_TRUE(engine.Run(QueryId::kQ4_2) == want);
}

TEST(ChunkedScanTest, EnsureChunkedIsIdempotent) {
  ssb::SsbDatabase db = MakeChunkedDb();
  const ssb::ChunkedFact* first = db.chunked.get();
  ssb::EnsureChunked(db);  // different (default) options: still a no-op
  EXPECT_EQ(db.chunked.get(), first);
}

}  // namespace
}  // namespace hef
