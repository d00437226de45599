#include "voila/voila_engine.h"

#include <immintrin.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "algo/murmur.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "engine/star_plan.h"
#include "exec/fault_injection.h"
#include "exec/plan_cache.h"
#include "exec/runtime.h"
#include "exec/task_pool.h"
#include "engine/explain.h"
#include "table/key_filter.h"
#include "table/linear_hash_table.h"
#include "telemetry/diagnostics.h"
#include "telemetry/span.h"

namespace hef {

struct VoilaEngine::Impl {
  const ssb::SsbDatabase& db;
  VoilaConfig config;

  // One worker's interpreter registers (Voila materializes one output
  // vector per primitive; these are its registers). Each worker owns a
  // private set, so the interpreter loops need no synchronization.
  struct Regs {
    std::vector<std::uint32_t> sel;       // selection vector
    std::vector<std::uint32_t> sel_next;  // output selection vector
    std::vector<std::uint64_t> key_vec;   // materialized key column
    std::vector<std::uint64_t> hash_vec;  // materialized hash values
    std::vector<std::uint64_t> slot_vec;  // materialized home slots
    std::vector<std::uint64_t> val_vec;   // materialized measure / filter
    std::vector<std::uint64_t> val2_vec;  // second measure column
    std::array<std::vector<std::uint64_t>, 4> payload_vec;

    explicit Regs(std::size_t n) {
      sel.resize(n);
      sel_next.resize(n);
      key_vec.resize(n);
      hash_vec.resize(n);
      slot_vec.resize(n);
      val_vec.resize(n);
      val2_vec.resize(n);
      for (auto& p : payload_vec) p.resize(n);
    }
  };

  // Registers for the single-threaded path, built once per engine.
  Regs main_regs;

  // Built plans keyed by query, shared-prefix metrics with the HEF
  // engine (both report engine.plan_cache.{hit,miss}).
  exec::PlanCache<QueryId, BoundPlan> plan_cache{"engine.plan_cache"};

  Impl(const ssb::SsbDatabase& database, VoilaConfig cfg)
      : db(database),
        config(cfg),
        main_regs(static_cast<std::size_t>(
            cfg.vector_size < 16 ? 16 : cfg.vector_size)) {
    HEF_CHECK_MSG(config.vector_size >= 16, "vector size too small");
    HEF_CHECK_MSG(config.prefetch_group >= 1, "prefetch group too small");
    HEF_CHECK_MSG(config.threads >= 0 && config.threads <= 256,
                  "thread count %d out of range", config.threads);
  }

  // Builds one query's plan. With multiple workers configured, the
  // dimension hash tables build through the partitioned InsertBatch path
  // on the persistent pool; the plan is identical either way.
  BoundPlan BuildPlan(QueryId id) const {
    HEF_TRACE_SPAN("voila.build");
    PlanBuildOptions options;
    const int workers = exec::ResolveThreads(config.threads);
    if (workers > 1) {
      options.parallel_for = [workers](
                                 int parts,
                                 const std::function<void(int)>& fn) {
        const int w = workers < parts ? workers : parts;
        std::atomic<int> next{0};
        exec::TaskPool::Get().Run(w, [&](int) {
          int p;
          while ((p = next.fetch_add(1)) < parts) fn(p);
        });
      };
    }
    return BuildQueryPlan(db, id, options);
  }

  // The fallible build used by the serving path (see
  // SsbEngine::Impl::TryBuildEntry — same contract, "voila.build" site).
  Result<BoundPlan> TryBuildPlan(QueryId id,
                                 const exec::QueryContext& ctx) const {
    HEF_RETURN_NOT_OK(ctx.Check());
    HEF_FAULT_POINT_STATUS("voila.build");
    try {
      return BuildPlan(id);
    } catch (const std::exception& e) {
      return Status::Internal(std::string("plan build failed for ") +
                              QueryName(id) + ": " + e.what());
    }
  }

  // Primitive: materialize col[base + sel[j]] into out[sel[j]].
  void GatherColumn(Regs& r, const ssb::Column& col, std::size_t base,
                    std::size_t n, std::vector<std::uint64_t>& out) const {
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint32_t i = r.sel[j];
      out[i] = col[base + i];
    }
  }

  // Primitive: sel_next = positions with lo <= val <= hi.
  std::size_t SelectRange(Regs& r, std::size_t n, std::uint64_t lo,
                          std::uint64_t hi) const {
    std::size_t m = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint32_t i = r.sel[j];
      r.sel_next[m] = i;
      m += (r.val_vec[i] >= lo) & (r.val_vec[i] <= hi);
    }
    std::swap(r.sel, r.sel_next);
    return m;
  }

  // Primitive: sel_next = positions whose key the join's key filter
  // contains (the exact semi-join the HEF pipeline runs before its
  // probes, as a branch-free selection over the shared plan's bitmap).
  std::size_t SelectKeys(Regs& r, std::size_t n,
                         const KeyFilter& filter) const {
    std::size_t m = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint32_t i = r.sel[j];
      r.sel_next[m] = i;
      m += filter.Contains(r.key_vec[i]) ? 1 : 0;
    }
    std::swap(r.sel, r.sel_next);
    return m;
  }

  // Primitive: hash_vec = murmur(key_vec), slot_vec = hash & mask.
  void ComputeSlots(Regs& r, const LinearHashTable& table,
                    std::size_t n) const {
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint32_t i = r.sel[j];
      r.hash_vec[i] = Murmur64(r.key_vec[i], table.hash_seed());
    }
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint32_t i = r.sel[j];
      r.slot_vec[i] = r.hash_vec[i] & table.mask();
    }
  }

  // Primitive: probe with group prefetching; writes payloads and shrinks
  // the selection to hits.
  std::size_t ProbeFsm(Regs& r, const LinearHashTable& table, std::size_t n,
                       std::vector<std::uint64_t>& payload_out) const {
    const std::uint64_t* keys = table.keys();
    const std::uint64_t* values = table.values();
    const std::uint64_t mask = table.mask();
    const auto group = static_cast<std::size_t>(config.prefetch_group);

    std::size_t m = 0;
    for (std::size_t g0 = 0; g0 < n; g0 += group) {
      const std::size_t gn = std::min(group, n - g0);
      if (config.prefetch) {
        // FSM stage 1: issue all slot prefetches for the group before any
        // dereference (concurrent_fsms = 1 -> one group in flight).
        for (std::size_t j = 0; j < gn; ++j) {
          const std::uint64_t slot = r.slot_vec[r.sel[g0 + j]];
          _mm_prefetch(reinterpret_cast<const char*>(keys + slot),
                       _MM_HINT_T0);
          _mm_prefetch(reinterpret_cast<const char*>(values + slot),
                       _MM_HINT_T0);
        }
      }
      // FSM stage 2: resolve the group.
      for (std::size_t j = 0; j < gn; ++j) {
        const std::uint32_t i = r.sel[g0 + j];
        const std::uint64_t key = r.key_vec[i];
        std::uint64_t slot = r.slot_vec[i];
        while (true) {
          const std::uint64_t k = keys[slot];
          if (k == key) {
            payload_out[i] = values[slot];
            r.sel_next[m++] = i;
            break;
          }
          if (k == kEmptyKey) break;
          slot = (slot + 1) & mask;
        }
      }
    }
    std::swap(r.sel, r.sel_next);
    return m;
  }

  // Per-stage accumulation, same layout as the HEF engine (filters,
  // probes, group-by) so tools can render both engines' stats alike.
  struct StageAcc {
    std::uint64_t nanos = 0, calls = 0, rows_in = 0, rows_out = 0;

    void Merge(const StageAcc& o) {
      nanos += o.nanos;
      calls += o.calls;
      rows_in += o.rows_in;
      rows_out += o.rows_out;
    }
  };

  // Interprets fact rows [row_begin, row_end) — the per-worker run loop
  // body — accumulating into the caller's agg/cnt arrays (sized
  // plan.gid_domain) and `accs` (when non-null).
  void RunBlocks(const StarPlan& plan, Regs& regs, std::size_t row_begin,
                 std::size_t row_end, std::vector<std::uint64_t>& agg,
                 std::vector<std::uint64_t>& cnt,
                 std::uint64_t* qualifying_out,
                 std::vector<StageAcc>* stage_accs,
                 const exec::QueryContext* ctx = nullptr) const {
    const auto vec = static_cast<std::size_t>(config.vector_size);
    const bool stats = stage_accs != nullptr;
    const std::size_t probe_base = plan.filters.size();
    const std::size_t groupby_idx = probe_base + plan.joins.size();
    std::uint64_t qualifying = 0;

    std::uint64_t t0 = 0;
    auto stage_begin = [&] {
      if (stats) t0 = MonotonicNanos();
    };
    auto stage_end = [&](std::size_t idx, std::uint64_t in_rows,
                         std::uint64_t out_rows) {
      if (!stats) return;
      StageAcc& a = (*stage_accs)[idx];
      a.nanos += MonotonicNanos() - t0;
      ++a.calls;
      a.rows_in += in_rows;
      a.rows_out += out_rows;
    };

    for (std::size_t b0 = row_begin; b0 < row_end; b0 += vec) {
      // Vector boundary = cancellation granularity (and preemption point),
      // same contract as the HEF engine's block loop.
      if (ctx != nullptr) {
        if (HEF_UNLIKELY(ctx->ShouldYield())) ctx->YieldWhilePreempted();
        if (HEF_UNLIKELY(ctx->ShouldStop())) break;
      }
      HEF_FAULT_POINT("voila.morsel");
      const std::size_t bn = std::min(vec, row_end - b0);
      std::size_t n = bn;
      for (std::size_t j = 0; j < n; ++j) {
        regs.sel[j] = static_cast<std::uint32_t>(j);
      }
      int live_payloads = 0;
      std::array<int, 4> probed_slots{};

      for (std::size_t fi = 0; fi < plan.filters.size(); ++fi) {
        const RangeFilter& f = plan.filters[fi];
        if (n == 0) break;
        stage_begin();
        const std::size_t in_rows = n;
        GatherColumn(regs, *f.col, b0, n, regs.val_vec);
        n = SelectRange(regs, n, f.lo, f.hi);
        stage_end(fi, in_rows, n);
      }

      for (std::size_t ji = 0; ji < plan.joins.size(); ++ji) {
        const JoinStage& j = plan.joins[ji];
        if (n == 0) break;
        HEF_DCHECK(j.payload_slot >= 0 && j.payload_slot < 4);
        stage_begin();
        const std::size_t in_rows = n;
        GatherColumn(regs, *j.fact_key, b0, n, regs.key_vec);
        if (j.key_filter != nullptr) n = SelectKeys(regs, n, *j.key_filter);
        ComputeSlots(regs, *j.table, n);
        // Payloads land in the schema-order slot the gid mapping expects,
        // independent of probe order.
        n = ProbeFsm(regs, *j.table, n, regs.payload_vec[j.payload_slot]);
        probed_slots[live_payloads++] = j.payload_slot;
        stage_end(probe_base + ji, in_rows, n);
      }
      if (n == 0) continue;
      qualifying += n;

      stage_begin();
      GatherColumn(regs, *plan.value_a, b0, n, regs.val_vec);
      if (plan.value_b != nullptr) {
        GatherColumn(regs, *plan.value_b, b0, n, regs.val2_vec);
        // Materialize the combined measure (a separate primitive in the
        // interpreted engine).
        if (plan.value_op == ValueOp::kSumProduct) {
          for (std::size_t j = 0; j < n; ++j) {
            const std::uint32_t i = regs.sel[j];
            regs.val_vec[i] *= regs.val2_vec[i];
          }
        } else if (plan.value_op == ValueOp::kSumDiff) {
          for (std::size_t j = 0; j < n; ++j) {
            const std::uint32_t i = regs.sel[j];
            regs.val_vec[i] -= regs.val2_vec[i];
          }
        }
      }

      std::array<std::uint64_t, 4> p{};
      for (std::size_t j = 0; j < n; ++j) {
        const std::uint32_t i = regs.sel[j];
        for (int k = 0; k < live_payloads; ++k) {
          const int slot = probed_slots[k];
          p[slot] = regs.payload_vec[slot][i];
        }
        const std::uint64_t g = plan.gid(p);
        HEF_DCHECK(g < plan.gid_domain);
        agg[g] += regs.val_vec[i];
        cnt[g] += 1;
      }
      stage_end(groupby_idx, n, n);
    }
    *qualifying_out += qualifying;
  }

  QueryResult ExecutePlan(const StarPlan& plan,
                          const exec::QueryContext* ctx = nullptr) {
    const auto vec = static_cast<std::size_t>(config.vector_size);
    const std::size_t total = db.lineorder.n;

    std::vector<std::uint64_t> agg(plan.gid_domain, 0);
    std::vector<std::uint64_t> cnt(plan.gid_domain, 0);
    std::uint64_t qualifying = 0;

    const bool stats = config.collect_stats;
    const std::size_t n_stages = plan.filters.size() + plan.joins.size() + 1;
    std::vector<StageAcc> accs(stats ? n_stages : 0);

    const std::size_t blocks_total = (total + vec - 1) / vec;
    std::uint64_t morsels = blocks_total;  // serial path: one per vector
    const int threads =
        std::min<int>(exec::ResolveThreads(config.threads),
                      static_cast<int>(blocks_total == 0 ? 1 : blocks_total));
    if (threads <= 1) {
      RunBlocks(plan, main_regs, 0, total, agg, cnt, &qualifying,
                stats ? &accs : nullptr, ctx);
    } else {
      // Morsel parallelism over the persistent pool, same scheduler as
      // the HEF engine: workers claim vector-sized morsels dynamically,
      // stealing when their shard drains. Private accumulators merge in
      // worker order (commutative sums -> bit-identical results).
      std::vector<std::vector<std::uint64_t>> worker_agg(
          threads, std::vector<std::uint64_t>(plan.gid_domain, 0));
      std::vector<std::vector<std::uint64_t>> worker_cnt(
          threads, std::vector<std::uint64_t>(plan.gid_domain, 0));
      std::vector<std::uint64_t> worker_qualifying(threads, 0);
      std::vector<std::vector<StageAcc>> worker_accs(
          threads, std::vector<StageAcc>(stats ? n_stages : 0));
      const exec::MorselRunInfo info = exec::RunMorsels(
          blocks_total, threads,
          [&](int t, exec::MorselScheduler& sched) {
            HEF_TRACE_SPAN("voila.worker");
            Regs regs(vec);
            std::size_t blk_begin = 0;
            std::size_t blk_end = 0;
            while (sched.Next(t, &blk_begin, &blk_end)) {
              RunBlocks(plan, regs, blk_begin * vec,
                        std::min(total, blk_end * vec), worker_agg[t],
                        worker_cnt[t], &worker_qualifying[t],
                        stats ? &worker_accs[t] : nullptr, ctx);
            }
          },
          ctx);
      morsels = info.dispatched;
      for (int t = 0; t < threads; ++t) {
        qualifying += worker_qualifying[t];
        for (std::size_t g = 0; g < plan.gid_domain; ++g) {
          agg[g] += worker_agg[t][g];
          cnt[g] += worker_cnt[t][g];
        }
        if (stats) {
          for (std::size_t i = 0; i < n_stages; ++i) {
            accs[i].Merge(worker_accs[t][i]);
          }
        }
      }
    }

    QueryResult result;
    result.qualifying_rows = qualifying;
    result.morsels = morsels;
    if (stats) {
      const ssb::LineorderFact& lo = db.lineorder;
      auto to_stats = [](const std::string& name, const StageAcc& a) {
        OperatorStats s;
        s.name = name;
        s.wall_nanos = a.nanos;
        s.invocations = a.calls;
        s.rows_in = a.rows_in;
        s.rows_out = a.rows_out;
        return s;
      };
      auto& ops = result.operator_stats;
      ops.reserve(accs.size());
      std::size_t idx = 0;
      for (const RangeFilter& f : plan.filters) {
        ops.push_back(to_stats(
            std::string("filter.") + FactColumnName(lo, f.col),
            accs[idx++]));
      }
      for (const JoinStage& j : plan.joins) {
        ops.push_back(to_stats(
            std::string("probe.") + FactColumnName(lo, j.fact_key),
            accs[idx++]));
      }
      ops.push_back(to_stats("groupby", accs[idx]));
    }
    for (std::size_t g = 0; g < plan.gid_domain; ++g) {
      if (cnt[g] == 0) continue;
      GroupRow row;
      row.keys = plan.decode(g);
      row.value = agg[g];
      result.rows.push_back(row);
    }
    std::sort(result.rows.begin(), result.rows.end());
    return result;
  }

  // The serving path behind Run(id, ctx) — same contract as
  // SsbEngine::Impl::TryRun.
  Result<QueryResult> TryRun(QueryId id, const exec::QueryContext& ctx) {
    HEF_TRACE_SPAN("voila.query");
    HEF_RETURN_NOT_OK(ctx.Check());
    const bool stats = config.collect_stats;
    OperatorStats build;
    std::uint64_t t0 = 0;
    if (stats) {
      build.name = "build";
      t0 = MonotonicNanos();
    }
    bool cache_hit = false;
    const BoundPlan* bound = nullptr;
    BoundPlan fresh;
    if (config.plan_cache) {
      Result<const BoundPlan*> cached = plan_cache.TryGetOrBuild(
          id, [&]() -> Result<BoundPlan> { return TryBuildPlan(id, ctx); },
          &cache_hit);
      HEF_RETURN_NOT_OK(cached.status());
      bound = cached.value();
    } else {
      Result<BoundPlan> built = TryBuildPlan(id, ctx);
      HEF_RETURN_NOT_OK(built.status());
      fresh = std::move(built).value();
      bound = &fresh;
    }
    if (stats) {
      build.wall_nanos = MonotonicNanos() - t0;
      build.invocations = 1;
      for (const auto& table : bound->tables) {
        build.rows_in += table->size();
        build.rows_out += table->size();
      }
    }
    QueryResult result;
    try {
      HEF_TRACE_SPAN("voila.pipeline");
      result = ExecutePlan(bound->plan, &ctx);
    } catch (const std::exception& e) {
      return Status::Internal(std::string("query execution failed for ") +
                              QueryName(id) + ": " + e.what());
    } catch (...) {
      return Status::Internal(
          std::string("query execution failed for ") + QueryName(id) +
          ": unknown exception");
    }
    // A stop mid-scan leaves a partial result; report the reason instead.
    HEF_RETURN_NOT_OK(ctx.Check());
    result.plan_cache_hit = cache_hit;
    if (stats) {
      result.operator_stats.insert(result.operator_stats.begin(),
                                   std::move(build));
    }
    return result;
  }
};

VoilaEngine::VoilaEngine(const ssb::SsbDatabase& db, VoilaConfig config)
    : impl_(std::make_unique<Impl>(db, config)) {}

VoilaEngine::~VoilaEngine() = default;

const VoilaConfig& VoilaEngine::config() const { return impl_->config; }

void VoilaEngine::InvalidatePlanCache() { impl_->plan_cache.Invalidate(); }

QueryResult VoilaEngine::Run(QueryId id) {
  // Abort-on-error convenience form over the same serving path (see
  // SsbEngine::Run for the rationale).
  Result<QueryResult> result = Run(id, exec::QueryContext());
  HEF_CHECK_MSG(result.ok(), "VoilaEngine::Run(%s) failed: %s",
                QueryName(id), result.status().ToString().c_str());
  return std::move(result).value();
}

Result<QueryResult> VoilaEngine::Run(QueryId id,
                                     const exec::QueryContext& ctx) {
  // Same diagnostics envelope as SsbEngine::Run: adopt or mint a trace
  // id, register with /statusz for the run's lifetime, record the
  // completion, and stamp errors with the trace id.
  exec::QueryContext traced = ctx;
  if (traced.trace_id() == 0) traced.set_trace_id(exec::MintTraceId());
  const std::string query = QueryName(id);

  const std::uint64_t t0 = MonotonicNanos();
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    telemetry::ActiveQueryGuard guard(traced.trace_id(), query, "voila",
                                      traced.deadline_nanos());
    return impl_->TryRun(id, traced);
  }();
  const std::uint64_t wall = MonotonicNanos() - t0;
  exec::RecordQueryOutcome(result.status());

  telemetry::QueryCompletion completion;
  completion.trace_id = traced.trace_id();
  completion.query = query;
  completion.engine = "voila";
  completion.wall_nanos = wall;
  if (result.ok()) {
    QueryResult& r = result.value();
    r.trace_id = traced.trace_id();
    r.wall_nanos = wall;
    completion.cache_hit = r.plan_cache_hit;
    completion.morsels = r.morsels;
    if (!r.operator_stats.empty()) {
      ExplainMeta meta;
      meta.query = query;
      meta.engine = "voila";
      meta.flavor = "voila";
      completion.explain_json = ExplainToJson(meta, r);
    }
    telemetry::Diagnostics::Get().RecordCompletion(completion);
    return result;
  }
  completion.status_code =
      static_cast<std::uint16_t>(result.status().code());
  completion.status_message = result.status().message();
  telemetry::Diagnostics::Get().RecordCompletion(completion);
  return Status(result.status().code(),
                result.status().message() + " [trace=" +
                    telemetry::FormatTraceId(traced.trace_id()) + "]");
}

}  // namespace hef
