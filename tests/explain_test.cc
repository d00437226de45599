// EXPLAIN ANALYZE tests: a golden text tree and JSON document rendered
// from synthetic operator stats (fixed numbers, deterministic output),
// plus end-to-end checks that an engine Run fills the diagnostics
// envelope (trace id, wall time, morsels, plan-cache bit), that the
// explain JSON parses under the hef-explain-v1 schema, and that error
// Statuses carry the trace-id suffix.

#include <cstdint>
#include <string>

#include "engine/engine.h"
#include "engine/explain.h"
#include "exec/query_context.h"
#include "gtest/gtest.h"
#include "ssb/database.h"
#include "telemetry/json_value.h"

namespace hef {
namespace {

using telemetry::JsonValue;

// A fabricated hybrid run with round numbers so both renderings are
// byte-stable: a pipeline over a chunked scan (one late decode row, one
// join whose key filter runs before its probe), cached plan, traced.
QueryResult SyntheticResult() {
  QueryResult result;
  result.rows.push_back(GroupRow{{1993, 0, 0}, 12345});
  result.qualifying_rows = 250;
  result.trace_id = 0xABC;
  result.wall_nanos = 5'000'000;  // 5 ms
  result.morsels = 7;
  result.plan_cache_hit = true;
  auto add = [&](const char* name, std::uint64_t nanos, std::uint64_t inv,
                 std::uint64_t in, std::uint64_t out) {
    OperatorStats op;
    op.name = name;
    op.wall_nanos = nanos;
    op.invocations = inv;
    op.rows_in = in;
    op.rows_out = out;
    result.operator_stats.push_back(op);
  };
  // Execution order: build first, sink last (the renderer reverses).
  add("build", 2'000'000, 1, 100, 100);
  add("decode.partkey", 300'000, 4, 4000, 500);
  add("filter.year", 500'000, 4, 1000, 500);
  add("keyfilter.partkey", 100'000, 4, 500, 260);
  add("probe.partkey", 1'000'000, 4, 260, 250);
  add("groupby", 250'000, 4, 250, 250);
  return result;
}

ExplainMeta SyntheticMeta() {
  ExplainMeta meta;
  meta.query = "Q9.9";
  meta.engine = "hybrid";
  meta.flavor = "hybrid";
  meta.tuned = true;
  meta.probe_cfg = HybridConfig{2, 1, 3};
  meta.gather_cfg = HybridConfig{1, 2, 4};
  meta.decode_cfg = HybridConfig{2, 2, 1};
  return meta;
}

TEST(ExplainTextTest, GoldenTree) {
  EXPECT_EQ(
      ExplainToText(SyntheticMeta(), SyntheticResult()),
      "Q9.9 [hybrid] trace=0000000000000abc wall=5.000ms morsels=7 "
      "plan=cached\n"
      "groupby (v1 s2 p4)  self=0.250ms  rows 250 -> 250  calls=4\n"
      "  `- probe.partkey (v2 s1 p3)  self=1.000ms  rows 260 -> 250"
      "  sel=96.15%  calls=4\n"
      "    `- keyfilter.partkey (v2 s1 p3)  self=0.100ms  rows 500 -> 260"
      "  sel=52.00%  calls=4\n"
      "      `- filter.year (v1 s2 p4)  self=0.500ms  rows 1000 -> 500"
      "  sel=50.00%  calls=4\n"
      "        `- decode.partkey (v2 s2 p1)  self=0.300ms  rows 4000 -> 500"
      "  sel=12.50%  calls=4\n"
      "          `- build  self=2.000ms  rows 100 -> 100\n");
}

TEST(ExplainTextTest, UntunedAndStatlessRendering) {
  // Voila: engine == flavor collapses the bracket, no (v,s,p) points.
  ExplainMeta meta;
  meta.query = "Q1.1";
  meta.engine = "voila";
  meta.flavor = "voila";
  QueryResult result = SyntheticResult();
  const std::string text = ExplainToText(meta, result);
  EXPECT_NE(text.find("Q1.1 [voila] trace="), std::string::npos);
  EXPECT_EQ(text.find("(v"), std::string::npos);
  // Stats-free run: a pointer at the flag instead of an empty tree.
  result.operator_stats.clear();
  EXPECT_NE(ExplainToText(meta, result).find("no operator stats"),
            std::string::npos);
}

TEST(ExplainJsonTest, GoldenDocumentParses) {
  const auto parsed =
      JsonValue::Parse(ExplainToJson(SyntheticMeta(), SyntheticResult()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = parsed.value();
  EXPECT_EQ(doc.StringOr("schema", ""), "hef-explain-v1");
  EXPECT_EQ(doc.StringOr("query", ""), "Q9.9");
  EXPECT_EQ(doc.StringOr("engine", ""), "hybrid");
  EXPECT_EQ(doc.StringOr("flavor", ""), "hybrid");
  EXPECT_EQ(doc.StringOr("trace", ""), "0000000000000abc");
  EXPECT_NEAR(doc.NumberOr("wall_ms", 0), 5.0, 1e-9);
  EXPECT_EQ(doc.NumberOr("morsels", 0), 7.0);
  EXPECT_EQ(doc.NumberOr("qualifying_rows", 0), 250.0);
  EXPECT_EQ(doc.NumberOr("output_rows", 0), 1.0);
  const JsonValue* hit = doc.Find("plan_cache_hit");
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->bool_value());
  const JsonValue* tuned = doc.Find("tuned");
  ASSERT_NE(tuned, nullptr);
  ASSERT_NE(tuned->Find("probe"), nullptr);
  EXPECT_EQ(tuned->Find("probe")->NumberOr("v", 0), 2.0);
  EXPECT_EQ(tuned->Find("gather")->NumberOr("p", 0), 4.0);
  EXPECT_EQ(tuned->Find("decode")->NumberOr("v", 0), 2.0);

  const JsonValue* ops = doc.Find("operators");
  ASSERT_NE(ops, nullptr);
  ASSERT_EQ(ops->array().size(), 6u);
  const JsonValue& build = ops->array()[0];
  EXPECT_EQ(build.StringOr("name", ""), "build");
  EXPECT_EQ(build.StringOr("kind", ""), "build");
  EXPECT_EQ(build.Find("tuned"), nullptr);  // builds are not tuned
  const JsonValue& decode = ops->array()[1];
  EXPECT_EQ(decode.StringOr("name", ""), "decode.partkey");
  EXPECT_EQ(decode.StringOr("kind", ""), "decode");
  EXPECT_NEAR(decode.NumberOr("selectivity", 0), 0.125, 1e-9);
  ASSERT_NE(decode.Find("tuned"), nullptr);
  EXPECT_EQ(decode.Find("tuned")->NumberOr("s", -1), 2.0);  // decode point
  const JsonValue& keyfilter = ops->array()[3];
  EXPECT_EQ(keyfilter.StringOr("name", ""), "keyfilter.partkey");
  EXPECT_EQ(keyfilter.StringOr("kind", ""), "keyfilter");
  EXPECT_NEAR(keyfilter.NumberOr("selectivity", 0), 0.52, 1e-9);
  ASSERT_NE(keyfilter.Find("tuned"), nullptr);  // runs at the probe point
  EXPECT_EQ(keyfilter.Find("tuned")->NumberOr("v", -1), 2.0);
  const JsonValue& probe = ops->array()[4];
  EXPECT_EQ(probe.StringOr("kind", ""), "probe");
  EXPECT_NEAR(probe.NumberOr("selectivity", 0), 250.0 / 260.0, 1e-9);
  ASSERT_NE(probe.Find("tuned"), nullptr);
  EXPECT_EQ(probe.Find("tuned")->NumberOr("s", -1), 1.0);
  const JsonValue& sink = ops->array()[5];
  EXPECT_EQ(sink.StringOr("kind", ""), "aggregate");
  ASSERT_NE(sink.Find("tuned"), nullptr);
  EXPECT_EQ(sink.Find("tuned")->NumberOr("v", -1), 1.0);  // gather point
}

// ------------------------------------------------------------- end-to-end

const ssb::SsbDatabase& TestDb() {
  static const ssb::SsbDatabase* db =
      new ssb::SsbDatabase(ssb::SsbDatabase::Generate(0.01));
  return *db;
}

TEST(ExplainEndToEndTest, RunFillsDiagnosticsEnvelope) {
  EngineConfig config;
  config.flavor = Flavor::kScalar;
  config.collect_stats = true;
  SsbEngine engine(TestDb(), config);
  const QueryId id = ParseQueryId("2.1").value();

  const auto first = engine.Run(id, exec::QueryContext());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_NE(first.value().trace_id, 0u);
  EXPECT_GT(first.value().wall_nanos, 0u);
  EXPECT_GT(first.value().morsels, 0u);
  EXPECT_FALSE(first.value().plan_cache_hit);  // first run builds
  ASSERT_FALSE(first.value().operator_stats.empty());

  const auto second = engine.Run(id, exec::QueryContext());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().plan_cache_hit);
  EXPECT_NE(second.value().trace_id, first.value().trace_id);

  // A pre-seeded trace id is honoured, not re-minted.
  exec::QueryContext traced;
  traced.set_trace_id(0x5EED);
  const auto third = engine.Run(id, traced);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().trace_id, 0x5EEDu);

  const ExplainMeta meta = MakeExplainMeta("Q2.1", "scalar", config);
  const std::string text = ExplainToText(meta, first.value());
  EXPECT_NE(text.find("Q2.1 [scalar] trace="), std::string::npos);
  EXPECT_NE(text.find("groupby"), std::string::npos);
  const auto json = JsonValue::Parse(ExplainToJson(meta, first.value()));
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_EQ(json.value().StringOr("schema", ""), "hef-explain-v1");
  EXPECT_FALSE(json.value().Find("operators")->array().empty());
}

TEST(ExplainEndToEndTest, ErrorStatusCarriesTraceId) {
  EngineConfig config;
  config.flavor = Flavor::kScalar;
  SsbEngine engine(TestDb(), config);
  const QueryId id = ParseQueryId("1.1").value();
  // An already-expired deadline fails fast and deterministically.
  const auto result =
      engine.Run(id, exec::QueryContext::WithDeadline(1e-9));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.status().message().find(" [trace="), std::string::npos)
      << result.status().message();
}

}  // namespace
}  // namespace hef
