#include "engine/star_plan.h"

#include <algorithm>
#include <vector>

#include "common/macros.h"
#include "ssb/schema.h"

namespace hef {

namespace {

using ssb::SsbDatabase;

// The parallel runner of the BuildQueryPlan call currently executing on
// this thread (null -> serial builds). Thread-local so the recursive
// builder helpers need no signature plumbing and concurrent
// BuildQueryPlan calls on different threads stay independent.
thread_local const LinearHashTable::ParallelFor* g_parallel_for = nullptr;

// Builds a dimension hash table over rows passing `pred`, keyed by
// `key_of(row)` with payload `payload_of(row)`. The qualifying pairs are
// materialized once and bulk-inserted, so large builds can use the
// partitioned parallel path of LinearHashTable::InsertBatch.
std::unique_ptr<LinearHashTable> BuildDimTable(
    std::size_t n, const std::function<bool(std::size_t)>& pred,
    const std::function<std::uint64_t(std::size_t)>& key_of,
    const std::function<std::uint64_t(std::size_t)>& payload_of) {
  std::vector<std::uint64_t> keys, payloads;
  for (std::size_t i = 0; i < n; ++i) {
    if (pred(i)) {
      keys.push_back(key_of(i));
      payloads.push_back(payload_of(i));
    }
  }
  auto table =
      std::make_unique<LinearHashTable>(keys.empty() ? 1 : keys.size());
  table->InsertBatch(
      keys.data(), payloads.data(), keys.size(),
      g_parallel_for == nullptr ? nullptr : *g_parallel_for);
  return table;
}

std::unique_ptr<LinearHashTable> DateTable(
    const SsbDatabase& db, const std::function<bool(std::size_t)>& pred,
    const std::function<std::uint64_t(std::size_t)>& payload) {
  return BuildDimTable(
      db.date.n, pred, [&db](std::size_t i) { return db.date.datekey[i]; },
      payload);
}

std::unique_ptr<LinearHashTable> CustomerTable(
    const SsbDatabase& db, const std::function<bool(std::size_t)>& pred,
    const std::function<std::uint64_t(std::size_t)>& payload) {
  return BuildDimTable(
      db.customer.n, pred, [](std::size_t i) { return i + 1; }, payload);
}

std::unique_ptr<LinearHashTable> SupplierTable(
    const SsbDatabase& db, const std::function<bool(std::size_t)>& pred,
    const std::function<std::uint64_t(std::size_t)>& payload) {
  return BuildDimTable(
      db.supplier.n, pred, [](std::size_t i) { return i + 1; }, payload);
}

std::unique_ptr<LinearHashTable> PartTable(
    const SsbDatabase& db, const std::function<bool(std::size_t)>& pred,
    const std::function<std::uint64_t(std::size_t)>& payload) {
  return BuildDimTable(
      db.part.n, pred, [](std::size_t i) { return i + 1; }, payload);
}

BoundPlan BuildQ1(const SsbDatabase& db, QueryId id) {
  const auto& lo = db.lineorder;
  BoundPlan bound;
  StarPlan& plan = bound.plan;
  plan.value_a = &lo.extendedprice;
  plan.value_b = &lo.discount;
  plan.value_op = ValueOp::kSumProduct;
  plan.gid_domain = 1;
  plan.gid = [](const std::array<std::uint64_t, 4>&) { return 0; };
  plan.decode = [](std::uint64_t) { return std::array<std::uint64_t, 3>{}; };

  switch (id) {
    case QueryId::kQ1_1:
      plan.filters = {{&lo.orderdate, 19930101, 19931231},
                      {&lo.discount, 1, 3},
                      {&lo.quantity, 0, 24}};
      break;
    case QueryId::kQ1_2:
      plan.filters = {{&lo.orderdate, 19940101, 19940131},
                      {&lo.discount, 4, 6},
                      {&lo.quantity, 26, 35}};
      break;
    case QueryId::kQ1_3: {
      // The week predicate needs the date dimension: join instead of a
      // datekey range.
      plan.filters = {{&lo.discount, 5, 7}, {&lo.quantity, 26, 35}};
      bound.tables.push_back(DateTable(
          db,
          [&db](std::size_t i) {
            return db.date.weeknuminyear[i] == 6 && db.date.year[i] == 1994;
          },
          [](std::size_t) { return 1; }));
      plan.joins = {{&lo.orderdate, bound.tables.back().get()}};
      break;
    }
    default:
      HEF_CHECK_MSG(false, "not a Q1 query");
  }
  return bound;
}

BoundPlan BuildQ2(const SsbDatabase& db, QueryId id) {
  const auto& lo = db.lineorder;
  std::uint64_t brand_lo = 0, brand_hi = 0;
  std::uint64_t supp_region = 0;
  std::function<bool(std::size_t)> part_pred;
  switch (id) {
    case QueryId::kQ2_1:
      // p_category = 'MFGR#12', s_region = 'AMERICA'.
      part_pred = [&db](std::size_t i) { return db.part.category[i] == 12; };
      brand_lo = 1201;
      brand_hi = 1240;
      supp_region = ssb::kAmerica;
      break;
    case QueryId::kQ2_2:
      // p_brand1 between 'MFGR#2221' and 'MFGR#2228', s_region = 'ASIA'.
      part_pred = [&db](std::size_t i) {
        return db.part.brand1[i] >= 2221 && db.part.brand1[i] <= 2228;
      };
      brand_lo = 2221;
      brand_hi = 2228;
      supp_region = ssb::kAsia;
      break;
    case QueryId::kQ2_3:
      // p_brand1 = 'MFGR#2221', s_region = 'EUROPE'.
      part_pred = [&db](std::size_t i) { return db.part.brand1[i] == 2221; };
      brand_lo = 2221;
      brand_hi = 2221;
      supp_region = ssb::kEurope;
      break;
    default:
      HEF_CHECK_MSG(false, "not a Q2 query");
  }

  BoundPlan bound;
  bound.tables.push_back(PartTable(
      db, part_pred, [&db](std::size_t i) { return db.part.brand1[i]; }));
  bound.tables.push_back(SupplierTable(
      db,
      [&db, supp_region](std::size_t i) {
        return db.supplier.region[i] == supp_region;
      },
      [](std::size_t) { return 1; }));
  bound.tables.push_back(
      DateTable(db, [](std::size_t) { return true; },
                [&db](std::size_t i) { return db.date.year[i]; }));

  const std::uint64_t brands = brand_hi - brand_lo + 1;
  StarPlan& plan = bound.plan;
  plan.joins = {{&lo.partkey, bound.tables[0].get()},
                {&lo.suppkey, bound.tables[1].get()},
                {&lo.orderdate, bound.tables[2].get()}};
  plan.value_a = &lo.revenue;
  plan.value_op = ValueOp::kSum;
  plan.gid_domain = 7 * brands;
  // Payload slots: 0 = brand, 1 = supplier marker, 2 = year.
  plan.gid = [brand_lo, brands](const std::array<std::uint64_t, 4>& p) {
    return (p[2] - ssb::kFirstYear) * brands + (p[0] - brand_lo);
  };
  plan.decode = [brand_lo, brands](std::uint64_t g) {
    return std::array<std::uint64_t, 3>{ssb::kFirstYear + g / brands,
                                        brand_lo + g % brands, 0};
  };
  return bound;
}

BoundPlan BuildQ3(const SsbDatabase& db, QueryId id) {
  const auto& lo = db.lineorder;
  std::function<bool(std::size_t)> cust_pred, supp_pred, date_pred;
  std::function<std::uint64_t(std::size_t)> cust_payload, supp_payload;
  std::uint64_t geo_domain = 0;

  switch (id) {
    case QueryId::kQ3_1:
      // c_region = s_region = 'ASIA', d_year 1992..1997; group by
      // c_nation, s_nation, d_year.
      cust_pred = [&db](std::size_t i) {
        return db.customer.region[i] == ssb::kAsia;
      };
      supp_pred = [&db](std::size_t i) {
        return db.supplier.region[i] == ssb::kAsia;
      };
      cust_payload = [&db](std::size_t i) { return db.customer.nation[i]; };
      supp_payload = [&db](std::size_t i) { return db.supplier.nation[i]; };
      date_pred = [&db](std::size_t i) { return db.date.year[i] <= 1997; };
      geo_domain = ssb::kNumNations;
      break;
    case QueryId::kQ3_2:
      // c_nation = s_nation = 'UNITED STATES'; group by cities.
      cust_pred = [&db](std::size_t i) {
        return db.customer.nation[i] == ssb::kNationUnitedStates;
      };
      supp_pred = [&db](std::size_t i) {
        return db.supplier.nation[i] == ssb::kNationUnitedStates;
      };
      cust_payload = [&db](std::size_t i) { return db.customer.city[i]; };
      supp_payload = [&db](std::size_t i) { return db.supplier.city[i]; };
      date_pred = [&db](std::size_t i) { return db.date.year[i] <= 1997; };
      geo_domain = ssb::kNumCities;
      break;
    case QueryId::kQ3_3:
    case QueryId::kQ3_4: {
      // Cities 'UNITED KI1' / 'UNITED KI5' on both sides.
      auto city_pred = [](std::uint64_t city) {
        return city == ssb::kCityUnitedKi1 || city == ssb::kCityUnitedKi5;
      };
      cust_pred = [&db, city_pred](std::size_t i) {
        return city_pred(db.customer.city[i]);
      };
      supp_pred = [&db, city_pred](std::size_t i) {
        return city_pred(db.supplier.city[i]);
      };
      cust_payload = [&db](std::size_t i) { return db.customer.city[i]; };
      supp_payload = [&db](std::size_t i) { return db.supplier.city[i]; };
      if (id == QueryId::kQ3_4) {
        // d_yearmonth = 'Dec1997'.
        date_pred = [&db](std::size_t i) {
          return db.date.yearmonthnum[i] == 199712;
        };
      } else {
        date_pred = [&db](std::size_t i) { return db.date.year[i] <= 1997; };
      }
      geo_domain = ssb::kNumCities;
      break;
    }
    default:
      HEF_CHECK_MSG(false, "not a Q3 query");
  }

  BoundPlan bound;
  bound.tables.push_back(CustomerTable(db, cust_pred, cust_payload));
  bound.tables.push_back(SupplierTable(db, supp_pred, supp_payload));
  bound.tables.push_back(DateTable(
      db, date_pred, [&db](std::size_t i) { return db.date.year[i]; }));

  StarPlan& plan = bound.plan;
  plan.joins = {{&lo.custkey, bound.tables[0].get()},
                {&lo.suppkey, bound.tables[1].get()},
                {&lo.orderdate, bound.tables[2].get()}};
  plan.value_a = &lo.revenue;
  plan.value_op = ValueOp::kSum;
  const std::uint64_t years = 7;
  plan.gid_domain = geo_domain * geo_domain * years;
  // Payload slots: 0 = customer geo, 1 = supplier geo, 2 = year.
  plan.gid = [geo_domain, years](const std::array<std::uint64_t, 4>& p) {
    return (p[0] * geo_domain + p[1]) * years + (p[2] - ssb::kFirstYear);
  };
  plan.decode = [geo_domain, years](std::uint64_t g) {
    return std::array<std::uint64_t, 3>{g / (geo_domain * years),
                                        (g / years) % geo_domain,
                                        ssb::kFirstYear + g % years};
  };
  return bound;
}

BoundPlan BuildQ4(const SsbDatabase& db, QueryId id) {
  const auto& lo = db.lineorder;
  BoundPlan bound;
  StarPlan& plan = bound.plan;
  plan.value_a = &lo.revenue;
  plan.value_b = &lo.supplycost;
  plan.value_op = ValueOp::kSumDiff;

  switch (id) {
    case QueryId::kQ4_1: {
      // c_region = s_region = 'AMERICA', p_mfgr in {1, 2};
      // group by d_year, c_nation.
      bound.tables.push_back(CustomerTable(
          db,
          [&db](std::size_t i) {
            return db.customer.region[i] == ssb::kAmerica;
          },
          [&db](std::size_t i) { return db.customer.nation[i]; }));
      bound.tables.push_back(SupplierTable(
          db,
          [&db](std::size_t i) {
            return db.supplier.region[i] == ssb::kAmerica;
          },
          [](std::size_t) { return 1; }));
      bound.tables.push_back(
          PartTable(db, [&db](std::size_t i) { return db.part.mfgr[i] <= 2; },
                    [](std::size_t) { return 1; }));
      bound.tables.push_back(
          DateTable(db, [](std::size_t) { return true; },
                    [&db](std::size_t i) { return db.date.year[i]; }));
      plan.joins = {{&lo.custkey, bound.tables[0].get()},
                    {&lo.suppkey, bound.tables[1].get()},
                    {&lo.partkey, bound.tables[2].get()},
                    {&lo.orderdate, bound.tables[3].get()}};
      // Payload slots: 0 = c_nation, 1/2 markers, 3 = year.
      plan.gid_domain = 7 * ssb::kNumNations;
      plan.gid = [](const std::array<std::uint64_t, 4>& p) {
        return (p[3] - ssb::kFirstYear) * ssb::kNumNations + p[0];
      };
      plan.decode = [](std::uint64_t g) {
        return std::array<std::uint64_t, 3>{
            ssb::kFirstYear + g / ssb::kNumNations, g % ssb::kNumNations, 0};
      };
      break;
    }
    case QueryId::kQ4_2: {
      // + d_year in {1997, 1998}; group by d_year, s_nation, p_category.
      bound.tables.push_back(CustomerTable(
          db,
          [&db](std::size_t i) {
            return db.customer.region[i] == ssb::kAmerica;
          },
          [](std::size_t) { return 1; }));
      bound.tables.push_back(SupplierTable(
          db,
          [&db](std::size_t i) {
            return db.supplier.region[i] == ssb::kAmerica;
          },
          [&db](std::size_t i) { return db.supplier.nation[i]; }));
      bound.tables.push_back(PartTable(
          db, [&db](std::size_t i) { return db.part.mfgr[i] <= 2; },
          [&db](std::size_t i) { return db.part.category[i]; }));
      bound.tables.push_back(DateTable(
          db, [&db](std::size_t i) { return db.date.year[i] >= 1997; },
          [&db](std::size_t i) { return db.date.year[i]; }));
      plan.joins = {{&lo.custkey, bound.tables[0].get()},
                    {&lo.suppkey, bound.tables[1].get()},
                    {&lo.partkey, bound.tables[2].get()},
                    {&lo.orderdate, bound.tables[3].get()}};
      // Payload slots: 0 marker, 1 = s_nation, 2 = category, 3 = year.
      constexpr std::uint64_t kCatDomain = 56;
      plan.gid_domain = 2 * ssb::kNumNations * kCatDomain;
      plan.gid = [](const std::array<std::uint64_t, 4>& p) {
        return ((p[3] - 1997) * ssb::kNumNations + p[1]) * kCatDomain + p[2];
      };
      plan.decode = [](std::uint64_t g) {
        return std::array<std::uint64_t, 3>{
            1997 + g / (ssb::kNumNations * kCatDomain),
            (g / kCatDomain) % ssb::kNumNations, g % kCatDomain};
      };
      break;
    }
    case QueryId::kQ4_3: {
      // s_nation = 'UNITED STATES', p_category = 'MFGR#14',
      // c_region = 'AMERICA', d_year in {1997, 1998};
      // group by d_year, s_city, p_brand1.
      bound.tables.push_back(SupplierTable(
          db,
          [&db](std::size_t i) {
            return db.supplier.nation[i] == ssb::kNationUnitedStates;
          },
          [&db](std::size_t i) { return db.supplier.city[i]; }));
      bound.tables.push_back(PartTable(
          db, [&db](std::size_t i) { return db.part.category[i] == 14; },
          [&db](std::size_t i) { return db.part.brand1[i]; }));
      bound.tables.push_back(CustomerTable(
          db,
          [&db](std::size_t i) {
            return db.customer.region[i] == ssb::kAmerica;
          },
          [](std::size_t) { return 1; }));
      bound.tables.push_back(DateTable(
          db, [&db](std::size_t i) { return db.date.year[i] >= 1997; },
          [&db](std::size_t i) { return db.date.year[i]; }));
      plan.joins = {{&lo.suppkey, bound.tables[0].get()},
                    {&lo.partkey, bound.tables[1].get()},
                    {&lo.custkey, bound.tables[2].get()},
                    {&lo.orderdate, bound.tables[3].get()}};
      // Payload slots: 0 = s_city, 1 = brand (1401..1440), 2 marker,
      // 3 = year.
      constexpr std::uint64_t kBrands = 40;
      plan.gid_domain = 2 * ssb::kNumCities * kBrands;
      plan.gid = [](const std::array<std::uint64_t, 4>& p) {
        return ((p[3] - 1997) * ssb::kNumCities + p[0]) * kBrands +
               (p[1] - 1401);
      };
      plan.decode = [](std::uint64_t g) {
        return std::array<std::uint64_t, 3>{
            1997 + g / (ssb::kNumCities * kBrands),
            (g / kBrands) % ssb::kNumCities, 1401 + g % kBrands};
      };
      break;
    }
    default:
      HEF_CHECK_MSG(false, "not a Q4 query");
  }
  return bound;
}

}  // namespace

namespace {

BoundPlan BuildQueryPlanUnordered(const SsbDatabase& db, QueryId id) {
  switch (id) {
    case QueryId::kQ1_1:
    case QueryId::kQ1_2:
    case QueryId::kQ1_3:
      return BuildQ1(db, id);
    case QueryId::kQ2_1:
    case QueryId::kQ2_2:
    case QueryId::kQ2_3:
      return BuildQ2(db, id);
    case QueryId::kQ3_1:
    case QueryId::kQ3_2:
    case QueryId::kQ3_3:
    case QueryId::kQ3_4:
      return BuildQ3(db, id);
    case QueryId::kQ4_1:
    case QueryId::kQ4_2:
    case QueryId::kQ4_3:
      return BuildQ4(db, id);
  }
  HEF_CHECK_MSG(false, "unknown query id");
  __builtin_unreachable();
}

// Foreign-key domain of a join: the referenced dimension's cardinality.
std::size_t FkDomain(const SsbDatabase& db, const JoinStage& join) {
  if (join.fact_key == &db.lineorder.custkey) return db.customer.n;
  if (join.fact_key == &db.lineorder.suppkey) return db.supplier.n;
  if (join.fact_key == &db.lineorder.partkey) return db.part.n;
  if (join.fact_key == &db.lineorder.orderdate) return db.date.n;
  HEF_CHECK_MSG(false, "unknown fact foreign key");
  __builtin_unreachable();
}

}  // namespace

const char* FactColumnName(const ssb::LineorderFact& lo,
                           const ssb::Column* col) {
  if (col == &lo.orderdate) return "orderdate";
  if (col == &lo.custkey) return "custkey";
  if (col == &lo.suppkey) return "suppkey";
  if (col == &lo.partkey) return "partkey";
  if (col == &lo.quantity) return "quantity";
  if (col == &lo.discount) return "discount";
  if (col == &lo.extendedprice) return "extendedprice";
  if (col == &lo.revenue) return "revenue";
  if (col == &lo.supplycost) return "supplycost";
  return "column";
}

bool WantKeyFilter(double selectivity, std::uint64_t span) {
  return selectivity < kKeyFilterMaxSelectivity && span <= kKeyFilterMaxSpan;
}

BoundPlan BuildQueryPlan(const SsbDatabase& db, QueryId id) {
  return BuildQueryPlan(db, id, PlanBuildOptions{});
}

BoundPlan BuildQueryPlan(const SsbDatabase& db, QueryId id,
                         const PlanBuildOptions& options) {
  g_parallel_for =
      options.parallel_for == nullptr ? nullptr : &options.parallel_for;
  BoundPlan bound = BuildQueryPlanUnordered(db, id);
  g_parallel_for = nullptr;
  // Fix payload slots to schema order before any reordering: the plan's
  // gid/decode functions address payloads by these slots.
  for (std::size_t j = 0; j < bound.plan.joins.size(); ++j) {
    bound.plan.joins[j].payload_slot = static_cast<int>(j);
  }
  // Selectivity-based probe ordering: most selective join first minimizes
  // the rows every later probe touches.
  for (JoinStage& join : bound.plan.joins) {
    join.selectivity = static_cast<double>(join.table->size()) /
                       static_cast<double>(FkDomain(db, join));
  }
  std::stable_sort(bound.plan.joins.begin(), bound.plan.joins.end(),
                   [](const JoinStage& a, const JoinStage& b) {
                     return a.selectivity < b.selectivity;
                   });
  // Key ranges for zone-map join pruning and the key filters: scan each
  // table's key slab. Dimension filters are usually range-shaped in key
  // space (a week of datekeys, a brand interval), so [key_lo, key_hi] is
  // a tight necessary condition on matching fact chunks.
  for (JoinStage& join : bound.plan.joins) {
    for (std::size_t slot = 0; slot < join.table->capacity(); ++slot) {
      const std::uint64_t key = join.table->keys()[slot];
      if (key == kEmptyKey) continue;
      join.key_lo = std::min(join.key_lo, key);
      join.key_hi = std::max(join.key_hi, key);
    }
    // A second pass over the slab fills the join's exact key bitmap. An
    // empty table (key_lo > key_hi) gets an empty filter that rejects
    // every key.
    const std::uint64_t span =
        join.key_hi >= join.key_lo ? join.key_hi - join.key_lo + 1 : 0;
    if (!WantKeyFilter(join.selectivity, span)) continue;
    auto filter = std::make_unique<KeyFilter>(join.key_lo, join.key_hi);
    for (std::size_t slot = 0; slot < join.table->capacity(); ++slot) {
      const std::uint64_t key = join.table->keys()[slot];
      if (key != kEmptyKey) filter->Insert(key);
    }
    join.key_filter = filter.get();
    bound.key_filters.push_back(std::move(filter));
  }
  return bound;
}

}  // namespace hef
