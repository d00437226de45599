// Tests for the star planner: selectivity estimation, probe ordering, and
// plan structure per query.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "engine/star_plan.h"
#include "ssb/database.h"

namespace hef {
namespace {

const ssb::SsbDatabase& TestDb() {
  static const ssb::SsbDatabase* db =
      new ssb::SsbDatabase(ssb::SsbDatabase::Generate(0.05, 7));
  return *db;
}

TEST(StarPlanTest, SelectivitiesAreEstimatedForEveryJoin) {
  for (const QueryId id : AllQueries()) {
    const BoundPlan bound = BuildQueryPlan(TestDb(), id);
    for (const JoinStage& join : bound.plan.joins) {
      // Zero is legitimate: at tiny scale factors a city-level filter can
      // match no suppliers at all (Q3.3/Q3.4).
      EXPECT_GE(join.selectivity, 0.0) << QueryName(id);
      EXPECT_LE(join.selectivity, 1.0 + 1e-9) << QueryName(id);
      EXPECT_GE(join.payload_slot, 0) << QueryName(id);
    }
  }
}

TEST(StarPlanTest, JoinsOrderedMostSelectiveFirst) {
  for (const QueryId id : AllQueries()) {
    const BoundPlan bound = BuildQueryPlan(TestDb(), id);
    for (std::size_t j = 1; j < bound.plan.joins.size(); ++j) {
      EXPECT_LE(bound.plan.joins[j - 1].selectivity,
                bound.plan.joins[j].selectivity)
          << QueryName(id) << " stage " << j;
    }
  }
}

TEST(StarPlanTest, Q2PlansProbePartFirst) {
  // Part filters (1/25 category, brand ranges) dominate supplier region
  // (1/5) and the unfiltered date join.
  const auto& db = TestDb();
  for (const QueryId id :
       {QueryId::kQ2_1, QueryId::kQ2_2, QueryId::kQ2_3}) {
    const BoundPlan bound = BuildQueryPlan(db, id);
    ASSERT_EQ(bound.plan.joins.size(), 3u) << QueryName(id);
    EXPECT_EQ(bound.plan.joins[0].fact_key, &db.lineorder.partkey)
        << QueryName(id);
    EXPECT_EQ(bound.plan.joins[2].fact_key, &db.lineorder.orderdate)
        << QueryName(id);
  }
}

TEST(StarPlanTest, Q4_3ProbesMostSelectiveDimensionsFirst) {
  // s_nation = US (1/25) and p_category = 14 (1/25) precede c_region
  // (1/5) and the 2-year date filter (~2/7).
  const auto& db = TestDb();
  const BoundPlan bound = BuildQueryPlan(db, QueryId::kQ4_3);
  ASSERT_EQ(bound.plan.joins.size(), 4u);
  const auto* first = bound.plan.joins[0].fact_key;
  const auto* second = bound.plan.joins[1].fact_key;
  EXPECT_TRUE(first == &db.lineorder.suppkey ||
              first == &db.lineorder.partkey);
  EXPECT_TRUE(second == &db.lineorder.suppkey ||
              second == &db.lineorder.partkey);
  EXPECT_NE(first, second);
}

TEST(StarPlanTest, Q1PlansHaveNoJoinsExceptQ13) {
  EXPECT_TRUE(BuildQueryPlan(TestDb(), QueryId::kQ1_1).plan.joins.empty());
  EXPECT_TRUE(BuildQueryPlan(TestDb(), QueryId::kQ1_2).plan.joins.empty());
  EXPECT_EQ(BuildQueryPlan(TestDb(), QueryId::kQ1_3).plan.joins.size(), 1u);
}

TEST(StarPlanTest, MeasureColumnsPerQueryClass) {
  const auto& db = TestDb();
  const BoundPlan q1 = BuildQueryPlan(db, QueryId::kQ1_1);
  EXPECT_EQ(q1.plan.value_op, ValueOp::kSumProduct);
  EXPECT_EQ(q1.plan.value_a, &db.lineorder.extendedprice);
  const BoundPlan q2 = BuildQueryPlan(db, QueryId::kQ2_2);
  EXPECT_EQ(q2.plan.value_op, ValueOp::kSum);
  EXPECT_EQ(q2.plan.value_a, &db.lineorder.revenue);
  const BoundPlan q4 = BuildQueryPlan(db, QueryId::kQ4_1);
  EXPECT_EQ(q4.plan.value_op, ValueOp::kSumDiff);
  EXPECT_EQ(q4.plan.value_b, &db.lineorder.supplycost);
}

TEST(StarPlanTest, GidDecodeRoundTripsOverDomain) {
  for (const QueryId id : {QueryId::kQ2_1, QueryId::kQ3_2, QueryId::kQ4_2,
                           QueryId::kQ4_3}) {
    const BoundPlan bound = BuildQueryPlan(TestDb(), id);
    // decode must be injective over the domain (no two gids render the
    // same key tuple) — spot-check a stride of gids.
    std::set<std::array<std::uint64_t, 3>> seen;
    const std::size_t stride =
        std::max<std::size_t>(1, bound.plan.gid_domain / 997);
    for (std::size_t g = 0; g < bound.plan.gid_domain; g += stride) {
      ASSERT_TRUE(seen.insert(bound.plan.decode(g)).second)
          << QueryName(id) << " gid " << g;
    }
  }
}

TEST(StarPlanTest, KeyFilterLimits) {
  // Strictly below the selectivity limit, at most the span cap.
  EXPECT_TRUE(WantKeyFilter(0.0, 0));
  EXPECT_TRUE(WantKeyFilter(0.2, 6000));
  EXPECT_TRUE(WantKeyFilter(kKeyFilterMaxSelectivity - 1e-9,
                            kKeyFilterMaxSpan));
  EXPECT_FALSE(WantKeyFilter(kKeyFilterMaxSelectivity, 10));
  EXPECT_FALSE(WantKeyFilter(1.0, 10));
  EXPECT_FALSE(WantKeyFilter(0.01, kKeyFilterMaxSpan + 1));
}

TEST(StarPlanTest, KeyFiltersBuiltExactlyForSelectiveJoins) {
  int filtered = 0;
  int unfiltered = 0;
  for (const QueryId id : AllQueries()) {
    const BoundPlan bound = BuildQueryPlan(TestDb(), id);
    std::size_t owned = 0;
    for (const JoinStage& join : bound.plan.joins) {
      const std::uint64_t span =
          join.key_hi >= join.key_lo ? join.key_hi - join.key_lo + 1 : 0;
      ASSERT_EQ(join.key_filter != nullptr,
                WantKeyFilter(join.selectivity, span))
          << QueryName(id) << " sel " << join.selectivity;
      if (join.key_filter == nullptr) {
        ++unfiltered;
        continue;
      }
      ++filtered;
      ++owned;
      // Exact: one bit per dimension key, every key accepted.
      const KeyFilter& filter = *join.key_filter;
      EXPECT_EQ(filter.Popcount(), join.table->size()) << QueryName(id);
      EXPECT_EQ(filter.span(), span) << QueryName(id);
      if (span != 0) {
        EXPECT_EQ(filter.lo(), join.key_lo) << QueryName(id);
      }
      for (std::size_t slot = 0; slot < join.table->capacity(); ++slot) {
        const std::uint64_t key = join.table->keys()[slot];
        if (key != kEmptyKey) {
          ASSERT_TRUE(filter.Contains(key)) << QueryName(id) << " " << key;
        }
      }
    }
    // The plan owns its filters, so a cached plan reuses them.
    EXPECT_EQ(bound.key_filters.size(), owned) << QueryName(id);
  }
  // Both sides of the limit occur across the 13 queries: the selective
  // dimension joins get filters, the unfiltered date joins do not.
  EXPECT_GT(filtered, 0);
  EXPECT_GT(unfiltered, 0);
  for (const QueryId id : {QueryId::kQ2_1, QueryId::kQ4_1}) {
    const BoundPlan bound = BuildQueryPlan(TestDb(), id);
    EXPECT_NE(bound.plan.joins.front().key_filter, nullptr) << QueryName(id);
    EXPECT_EQ(bound.plan.joins.back().key_filter, nullptr) << QueryName(id);
  }
}

}  // namespace
}  // namespace hef
