#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "engine/explain.h"
#include "engine/primitives.h"
#include "engine/scan.h"
#include "engine/star_plan.h"
#include "exec/fault_injection.h"
#include "exec/plan_cache.h"
#include "exec/runtime.h"
#include "exec/task_pool.h"
#include "perf/drift_monitor.h"
#include "perf/perf_counters.h"
#include "ssb/chunked_fact.h"
#include "storage/decode.h"
#include "table/group_agg.h"
#include "table/key_filter.h"
#include "table/probe.h"
#include "telemetry/diagnostics.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"

namespace hef {

namespace {

std::uint64_t SaturatingDelta(std::uint64_t after, std::uint64_t before) {
  return after > before ? after - before : 0;
}

// The distinct fact columns a plan reads, in first-touch order (filters,
// join keys, measures). The chunked scan keeps one decode buffer and one
// decode.<column> stats row per entry.
std::vector<const ssb::Column*> PlanColumns(const StarPlan& plan) {
  std::vector<const ssb::Column*> cols;
  auto add = [&](const ssb::Column* col) {
    if (col != nullptr &&
        std::find(cols.begin(), cols.end(), col) == cols.end()) {
      cols.push_back(col);
    }
  };
  for (const RangeFilter& f : plan.filters) add(f.col);
  for (const JoinStage& j : plan.joins) add(j.fact_key);
  add(plan.value_a);
  add(plan.value_b);
  return cols;
}

}  // namespace

struct SsbEngine::Impl {
  const ssb::SsbDatabase& db;
  EngineConfig config;

  // One worker's pipeline scratch buffers (each thread owns a set).
  struct Buffers {
    AlignedBuffer<std::uint64_t> rows, keys, vals_a, vals_b, pos, scratch,
        filter_out, bitmap_a, bitmap_b;
    std::array<AlignedBuffer<std::uint64_t>, 4> payloads;
    // Chunked scan: one decoded-block buffer per distinct plan column
    // (at most 4 joins + 2 values, or 3 filters + 2 values) plus the
    // decode kernels' iota/staging scratch. Allocated lazily on the
    // first chunked ExecuteRange, so flat-scan engines pay nothing.
    std::array<AlignedBuffer<std::uint64_t>, 8> decoded;
    storage::DecodeScratch decode_scratch;

    explicit Buffers(std::size_t block) {
      rows.Allocate(block, 64);
      keys.Allocate(block, 64);
      vals_a.Allocate(block, 64);
      vals_b.Allocate(block, 64);
      pos.Allocate(block, 64);
      scratch.Allocate(block, 64);
      filter_out.Allocate(block, 64);
      bitmap_a.Allocate(BitmapWords(block), 8);
      bitmap_b.Allocate(BitmapWords(block), 8);
      for (auto& p : payloads) p.Allocate(block, 64);
    }
  };

  // Buffers for the single-threaded path, built once per engine.
  Buffers main_buffers;

  // One operator's accumulated statistics within a worker (merged across
  // workers into QueryResult::operator_stats). Plain integers: each worker
  // owns its own vector, so the hot-loop bumps need no atomics.
  struct OpAcc {
    std::uint64_t nanos = 0;
    std::uint64_t calls = 0;
    std::uint64_t rows_in = 0;
    std::uint64_t rows_out = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t llc_misses = 0;
    bool pmu_valid = false;
    bool pmu_scaled = false;

    void Merge(const OpAcc& o) {
      nanos += o.nanos;
      calls += o.calls;
      rows_in += o.rows_in;
      rows_out += o.rows_out;
      instructions += o.instructions;
      cycles += o.cycles;
      llc_misses += o.llc_misses;
      pmu_valid = pmu_valid || o.pmu_valid;
      pmu_scaled = pmu_scaled || o.pmu_scaled;
    }
  };

  // One fully-built query: the bound plan (dimension hash tables and key
  // filters) plus its chunk-pruning verdicts.
  struct PlanEntry {
    BoundPlan bound;
    // Chunk-pruning verdicts (empty unless chunked_scan && scan_pruning).
    // Shares the plan's lifetime: chunk statistics and predicate ranges
    // are both fixed per query, so cache hits skip the pass too.
    ChunkPruning pruning;
  };

  // Built plans keyed by query, reused across Run() calls while
  // config.plan_cache is on.
  exec::PlanCache<QueryId, PlanEntry> plan_cache{"engine.plan_cache"};

  Impl(const ssb::SsbDatabase& database, EngineConfig cfg)
      : db(database),
        config(cfg),
        main_buffers(static_cast<std::size_t>(cfg.block_size)) {
    HEF_CHECK_MSG(config.block_size >= 64, "block size %d too small",
                  config.block_size);
    HEF_CHECK_MSG(config.threads >= 0 && config.threads <= 256,
                  "thread count %d out of range", config.threads);
    if (config.chunked_scan && db.chunked != nullptr) {
      auto& registry = telemetry::MetricsRegistry::Get();
      registry.gauge("storage.encoded_bytes")
          .Set(static_cast<double>(db.chunked->EncodedBytes()));
      registry.gauge("storage.plain_bytes")
          .Set(static_cast<double>(db.chunked->PlainBytes()));
      registry.gauge("storage.chunks")
          .Set(static_cast<double>(db.chunked->num_chunks()));
    }
  }

  // Builds one query's plan. With multiple workers configured, the
  // dimension hash tables build through the partitioned InsertBatch path
  // on the persistent pool; layout and plan are identical either way.
  PlanEntry BuildEntry(QueryId id) {
    PlanEntry entry;
    {
      HEF_TRACE_SPAN("engine.build");
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
      entry.bound = BuildQueryPlan(db, id, options);
    }
    if (config.chunked_scan && config.scan_pruning &&
        db.chunked != nullptr) {
      HEF_TRACE_SPAN("engine.prune");
      entry.pruning = ComputeChunkPruning(db, entry.bound.plan,
                                          QueryName(id));
    }
    return entry;
  }

  // The fallible build used by the serving path: rejects an already-
  // stopped context before doing any work, exposes the "engine.build"
  // fault site, and converts build-time exceptions (including injected
  // ones surfacing from pool workers) to Status::Internal.
  Result<PlanEntry> TryBuildEntry(QueryId id,
                                  const exec::QueryContext& ctx) {
    HEF_RETURN_NOT_OK(ctx.Check());
    HEF_FAULT_POINT_STATUS("engine.build");
    try {
      return BuildEntry(id);
    } catch (const std::exception& e) {
      return Status::Internal(std::string("plan build failed for ") +
                              QueryName(id) + ": " + e.what());
    }
  }

  // Runs the pipeline over fact rows [row_begin, row_end), accumulating
  // into the caller's agg/cnt arrays (sized plan.gid_domain).
  //
  // When `accs` is non-null, per-operator wall time / row counts are
  // accumulated into it (layout: filters, then probes, then group-by,
  // then one key-filter row per join, then — on the chunked scan — one
  // decode row per PlanColumns entry); a non-null `pmu` additionally
  // brackets every operator with group reads so counter deltas attribute
  // to operators. Both null on the default path, which then pays nothing
  // beyond a branch per operator per block.
  void ExecuteRange(const StarPlan& plan, Buffers& buf, std::size_t row_begin,
                    std::size_t row_end, std::vector<std::uint64_t>& agg,
                    std::vector<std::uint64_t>& cnt,
                    std::uint64_t* qualifying_out,
                    std::vector<OpAcc>* accs = nullptr,
                    const PerfCounters* pmu = nullptr,
                    telemetry::Histogram* block_rows_hist = nullptr,
                    const exec::QueryContext* ctx = nullptr,
                    const std::vector<std::uint8_t>* chunk_alive = nullptr) {
    const HybridConfig probe_cfg = config.ProbeConfig();
    const HybridConfig gather_cfg = config.GatherConfig();
    const HybridConfig decode_cfg = config.DecodeConfig();
    const Flavor flavor = config.flavor;
    const auto block = static_cast<std::size_t>(config.block_size);

    // Chunked scan: resolve each distinct plan column to its chunked
    // shadow once, and pair it with a decoded-block buffer. Inside the
    // block loop a column decodes on first touch — columns a filter chain
    // already killed the block for never decode — and a column first
    // touched after the selection shrank decodes only the surviving rows.
    const ssb::ChunkedFact* chunked =
        config.chunked_scan ? db.chunked.get() : nullptr;
    struct DecodedCol {
      const ssb::Column* flat = nullptr;
      const storage::ChunkedColumn* col = nullptr;
      std::uint64_t* data = nullptr;
      // The block's values once fully decoded (`data`, or the chunk's own
      // payload for a plain chunk); null until then.
      const std::uint64_t* base = nullptr;
    };
    std::array<DecodedCol, 8> dcols;
    std::size_t n_dcols = 0;
    const std::size_t chunk_rows =
        chunked != nullptr ? chunked->chunk_rows() : 0;
    if (chunked != nullptr) {
      for (const ssb::Column* flat : PlanColumns(plan)) {
        const storage::ChunkedColumn* col = chunked->Find(flat);
        HEF_CHECK_MSG(col != nullptr,
                      "chunked scan: plan column is not a fact column");
        HEF_CHECK_MSG(n_dcols < dcols.size(),
                      "chunked scan: too many distinct plan columns");
        if (buf.decoded[n_dcols].capacity() < block) {
          buf.decoded[n_dcols].Allocate(block, 64);
        }
        dcols[n_dcols] = {flat, col, buf.decoded[n_dcols].data(), nullptr};
        ++n_dcols;
      }
      buf.decode_scratch.EnsureCapacity(block);
    }

    auto& rows = buf.rows;
    auto& keys = buf.keys;
    auto& vals_a = buf.vals_a;
    auto& vals_b = buf.vals_b;
    auto& pos = buf.pos;
    auto& scratch = buf.scratch;
    auto& filter_out = buf.filter_out;
    auto& bitmap_a = buf.bitmap_a;
    auto& bitmap_b = buf.bitmap_b;
    auto& payloads = buf.payloads;

    std::uint64_t qualifying = 0;

    // Operator-window bracketing. op_begin/op_end cost nothing (one
    // predictable branch) when stats are off; with stats they read the
    // monotonic clock, and with a PMU attached also snapshot the counter
    // group, so deltas land on the operator that spent them.
    //
    // Decode runs inside the window of the operator that touches a column,
    // and a join's key filter inside its probe window; their cost is
    // carved out of that window (`carved`) and booked on their own
    // decode.<column> / keyfilter.<column> rows instead.
    const bool stats = accs != nullptr;
    std::uint64_t op_t0 = 0;
    PerfReading op_p0;
    OpAcc carved;
    auto op_begin = [&] {
      if (!stats) return;
      carved = OpAcc();
      if (pmu != nullptr) op_p0 = pmu->ReadNow();
      op_t0 = MonotonicNanos();
    };
    // `count_call == false` folds the window's time into the operator
    // without counting an activation or rows (used for shared tail work
    // like the fused filters' bitmap-to-positions conversion).
    auto op_end = [&](std::size_t idx, std::uint64_t in_rows,
                      std::uint64_t out_rows, bool count_call = true) {
      if (!stats) return;
      OpAcc& a = (*accs)[idx];
      a.nanos += SaturatingDelta(MonotonicNanos() - op_t0, carved.nanos);
      if (count_call) {
        ++a.calls;
        a.rows_in += in_rows;
        a.rows_out += out_rows;
      }
      if (pmu != nullptr) {
        const PerfReading p1 = pmu->ReadNow();
        if (p1.valid && op_p0.valid) {
          a.instructions += SaturatingDelta(
              SaturatingDelta(p1.instructions, op_p0.instructions),
              carved.instructions);
          a.cycles += SaturatingDelta(
              SaturatingDelta(p1.cycles, op_p0.cycles), carved.cycles);
          a.llc_misses += SaturatingDelta(
              SaturatingDelta(p1.llc_misses, op_p0.llc_misses),
              carved.llc_misses);
          a.pmu_valid = true;
          a.pmu_scaled = a.pmu_scaled || p1.scaled;
        }
      }
    };
    const std::size_t probe_acc_base = plan.filters.size();
    const std::size_t groupby_acc = probe_acc_base + plan.joins.size();
    const std::size_t keyfilter_acc_base = groupby_acc + 1;
    const std::size_t decode_acc_base =
        keyfilter_acc_base + plan.joins.size();

    // Runs `work` (which returns its output row count) as a sub-window of
    // the current operator: books it on accumulator `idx` with `in_rows`
    // rows in, and carves it out of the enclosing operator window.
    auto carved_call = [&](std::size_t idx, std::uint64_t in_rows,
                           auto&& work) {
      if (!stats) {
        work();
        return;
      }
      PerfReading p0;
      if (pmu != nullptr) p0 = pmu->ReadNow();
      const std::uint64_t t0 = MonotonicNanos();
      const std::uint64_t out_rows = work();
      const std::uint64_t dt = MonotonicNanos() - t0;
      OpAcc& a = (*accs)[idx];
      a.nanos += dt;
      ++a.calls;
      a.rows_in += in_rows;
      a.rows_out += out_rows;
      carved.nanos += dt;
      if (pmu != nullptr) {
        const PerfReading p1 = pmu->ReadNow();
        if (p1.valid && p0.valid) {
          const std::uint64_t ins =
              SaturatingDelta(p1.instructions, p0.instructions);
          const std::uint64_t cyc = SaturatingDelta(p1.cycles, p0.cycles);
          const std::uint64_t llc =
              SaturatingDelta(p1.llc_misses, p0.llc_misses);
          a.instructions += ins;
          a.cycles += cyc;
          a.llc_misses += llc;
          a.pmu_valid = true;
          a.pmu_scaled = a.pmu_scaled || p1.scaled;
          carved.instructions += ins;
          carved.cycles += cyc;
          carved.llc_misses += llc;
        }
      }
    };

    // Payload slots probed so far in the current block (schema-order slot
    // ids; probe order may differ after the selectivity sort).
    std::array<int, 4> probed_slots{};
    int probed_count = 0;

    for (std::size_t b0 = row_begin; b0 < row_end; b0 += block) {
      // Block boundary = cancellation granularity (and the fault site the
      // robustness tests use to stop, stall, or blow up mid-query). Also
      // the preemption point: yield to higher-priority queries before
      // starting another block.
      if (ctx != nullptr) {
        if (HEF_UNLIKELY(ctx->ShouldYield())) ctx->YieldWhilePreempted();
        if (HEF_UNLIKELY(ctx->ShouldStop())) break;
      }
      HEF_FAULT_POINT("engine.morsel");
      // Zone-map verdict: a dead chunk's blocks never decode, scan, or
      // probe anything. chunk_rows % block == 0 (validated in TryRun),
      // so a block maps to exactly one chunk.
      if (chunk_alive != nullptr && !(*chunk_alive)[b0 / chunk_rows]) {
        continue;
      }
      const std::size_t bn = std::min(block, row_end - b0);
      std::size_t n = bn;
      bool identity = true;  // rows == [0, n), block-local
      probed_count = 0;
      for (std::size_t i = 0; i < n_dcols; ++i) dcols[i].base = nullptr;

      // Index of a fact column among the chunked scan's plan columns.
      auto dcol_index = [&](const ssb::Column& col) -> std::size_t {
        for (std::size_t i = 0; i < n_dcols; ++i) {
          if (dcols[i].flat == &col) return i;
        }
        HEF_CHECK_MSG(false, "column not registered for chunked scan");
        __builtin_unreachable();
      };

      // Base pointer of a fact column for this block: flat data at b0,
      // or the whole block from the chunked shadow, decoded on first
      // touch (plain chunks hand out their payload without a copy). Row
      // ids are block-local, so every downstream gather works off this
      // base regardless of the storage layout.
      auto column_base = [&](const ssb::Column& col)
          -> const std::uint64_t* {
        if (chunked == nullptr) return col.data() + b0;
        const std::size_t di = dcol_index(col);
        DecodedCol& d = dcols[di];
        if (d.base == nullptr) {
          // Decode rows: block rows in, values materialised out.
          carved_call(decode_acc_base + di, bn, [&]() -> std::uint64_t {
            d.base = d.col->DecodeBlock(decode_cfg, b0, bn,
                                        buf.decode_scratch, d.data);
            return d.base == d.data ? bn : 0;
          });
        }
        return d.base;
      };

      // Applies the survivor positions in pos[0..m) to the row-id vector
      // and all live payload vectors.
      auto apply_selection = [&](std::size_t m) {
        if (identity) {
          for (std::size_t i = 0; i < m; ++i) rows[i] = pos[i];
          identity = false;
        } else {
          GatherArray(gather_cfg, rows.data(), pos.data(), scratch.data(),
                      m);
          std::swap(rows, scratch);
        }
        for (int k = 0; k < probed_count; ++k) {
          auto& payload = payloads[probed_slots[k]];
          GatherArray(gather_cfg, payload.data(), pos.data(),
                      scratch.data(), m);
          std::swap(payload, scratch);
        }
        n = m;
      };

      // Fetches a fact column for the current selection. A chunked
      // column first touched after the selection shrank decodes only the
      // selected rows, straight into `out` (late materialisation); the
      // block stays undecoded for any later touch.
      auto fetch = [&](const ssb::Column& col,
                       AlignedBuffer<std::uint64_t>& out)
          -> const std::uint64_t* {
        if (chunked != nullptr && !identity) {
          const std::size_t di = dcol_index(col);
          const DecodedCol& d = dcols[di];
          if (d.base == nullptr) {
            carved_call(decode_acc_base + di, bn, [&]() -> std::uint64_t {
              d.col->GatherDecode(decode_cfg, b0, rows.data(), n,
                                  buf.decode_scratch, out.data());
              return n;
            });
            return out.data();
          }
        }
        const std::uint64_t* base = column_base(col);
        if (identity) return base;
        GatherArray(gather_cfg, base, rows.data(), out.data(), n);
        return out.data();
      };

      // Range filters: either compact after every predicate (the
      // vectorized-pipeline default) or evaluate all predicates as
      // bitmaps and conjoin once (fused selection scans).
      if (config.fused_filters && plan.filters.size() >= 2) {
        // Filters precede joins in every plan, so the selection is still
        // the identity here and columns can be scanned in place.
        std::size_t live = 0;
        std::size_t last_fi = 0;
        for (std::size_t fi = 0; fi < plan.filters.size(); ++fi) {
          const RangeFilter& f = plan.filters[fi];
          op_begin();
          std::uint64_t* target =
              fi == 0 ? bitmap_a.data() : bitmap_b.data();
          live = ScanRangeBitmap(flavor, column_base(*f.col), n, f.lo,
                                 f.hi, target);
          if (fi > 0) {
            live = BitmapAnd(bitmap_a.data(), bitmap_b.data(), n);
          }
          op_end(fi, n, live);
          last_fi = fi;
          if (live == 0) break;
        }
        op_begin();
        const std::size_t m =
            live == 0 ? 0
                      : BitmapToPositions(bitmap_a.data(), n, pos.data());
        apply_selection(m);
        op_end(last_fi, 0, 0, /*count_call=*/false);
      } else {
        for (std::size_t fi = 0; fi < plan.filters.size(); ++fi) {
          const RangeFilter& f = plan.filters[fi];
          if (n == 0) break;
          op_begin();
          const std::uint64_t* v = fetch(*f.col, vals_a);
          const std::size_t m =
              CompactInRange(flavor, v, n, f.lo, f.hi, pos.data());
          const std::size_t in_rows = n;
          apply_selection(m);
          op_end(fi, in_rows, n);
        }
      }

      // Join stages: key filter (when the plan built one), then hash
      // probe, in one operator window whose key-filter part is carved out
      // onto its own keyfilter.<column> row.
      for (std::size_t ji = 0; ji < plan.joins.size(); ++ji) {
        const JoinStage& j = plan.joins[ji];
        if (n == 0) break;
        op_begin();
        // Code-space semi-join: while the selection is still the whole
        // block and its key column untouched, the key filter tests the
        // chunk's packed FoR codes directly, so the fetch below decodes
        // only the keys that pass.
        bool code_filtered = false;
        if (j.key_filter != nullptr && chunked != nullptr && identity) {
          const DecodedCol& d = dcols[dcol_index(*j.fact_key)];
          if (d.base == nullptr && d.col->HasCodeFilter(b0)) {
            code_filtered = true;
            carved_call(keyfilter_acc_base + ji, n, [&]() -> std::uint64_t {
              using CodeFilter = storage::ChunkedColumn::CodeFilter;
              switch (d.col->FilterBlockCodes(probe_cfg, b0, n,
                                              *j.key_filter,
                                              filter_out.data())) {
                case CodeFilter::kAll:
                  return n;
                case CodeFilter::kNone:
                  apply_selection(0);
                  return 0;
                case CodeFilter::kPerRow:
                  break;
              }
              const std::size_t fm = CompactInRange(
                  flavor, filter_out.data(), n, 1, 1, pos.data());
              if (fm != n) apply_selection(fm);
              return fm;
            });
          }
        }
        const std::uint64_t* k = fetch(*j.fact_key, keys);
        if (j.key_filter != nullptr && !code_filtered) {
          // Exact semi-join: drop the keys the dimension cannot contain,
          // compacting the selection and the already-fetched key vector
          // (no re-fetch, which would decode again), so the hash probe
          // sees only keys that hit.
          carved_call(keyfilter_acc_base + ji, n, [&]() -> std::uint64_t {
            KeyFilterArray(probe_cfg, *j.key_filter, k, filter_out.data(),
                           n);
            const std::size_t fm = CompactInRange(
                flavor, filter_out.data(), n, 1, 1, pos.data());
            if (fm != n) {
              GatherArray(gather_cfg, k, pos.data(), filter_out.data(), fm);
              k = filter_out.data();
              apply_selection(fm);
            }
            return fm;
          });
        }
        // The probe row counts the keys hash-probed, so its ns/row stays
        // comparable with the tuner's per-key prediction.
        const std::size_t probe_in = n;
        const int slot = j.payload_slot;
        HEF_DCHECK(slot >= 0 && slot < 4);
        ProbeArray(probe_cfg, *j.table, k, payloads[slot].data(), n);
        const std::size_t m =
            CompactHits(flavor, payloads[slot].data(), n, pos.data());
        probed_slots[probed_count++] = slot;  // compacts with the rest
        if (m != n) {
          apply_selection(m);
        }
        op_end(probe_acc_base + ji, probe_in, n);
      }
      if (stats && block_rows_hist != nullptr) block_rows_hist->Observe(n);
      if (n == 0) continue;
      qualifying += n;

      // Measure columns.
      op_begin();
      const std::uint64_t* va = fetch(*plan.value_a, vals_a);
      const std::uint64_t* vb = nullptr;
      if (plan.value_b != nullptr) {
        vb = fetch(*plan.value_b, vals_b);
      }

      // Group-by aggregation. Group ids come from the plan's (scalar)
      // mapping; the accumulate step is either the shared scalar loop or
      // the conflict-detected gather-add-scatter path.
      if (config.vectorized_agg && flavor != Flavor::kScalar) {
        std::array<std::uint64_t, 4> p{};
        for (std::size_t i = 0; i < n; ++i) {
          for (int k = 0; k < probed_count; ++k) {
            const int slot = probed_slots[k];
            p[slot] = payloads[slot][i];
          }
          std::uint64_t value = va[i];
          switch (plan.value_op) {
            case ValueOp::kSum:
              break;
            case ValueOp::kSumProduct:
              value *= vb[i];
              break;
            case ValueOp::kSumDiff:
              value -= vb[i];
              break;
          }
          pos[i] = plan.gid(p);  // materialized group ids
          HEF_DCHECK(pos[i] < plan.gid_domain);
          scratch[i] = value;    // materialized measures
        }
        GroupSumAdd(/*use_simd=*/true, pos.data(), scratch.data(), n,
                    agg.data(), cnt.data());
      } else {
        std::array<std::uint64_t, 4> p{};
        for (std::size_t i = 0; i < n; ++i) {
          for (int k = 0; k < probed_count; ++k) {
            const int slot = probed_slots[k];
            p[slot] = payloads[slot][i];
          }
          std::uint64_t value = va[i];
          switch (plan.value_op) {
            case ValueOp::kSum:
              break;
            case ValueOp::kSumProduct:
              value *= vb[i];
              break;
            case ValueOp::kSumDiff:
              value -= vb[i];
              break;
          }
          const std::uint64_t g = plan.gid(p);
          HEF_DCHECK(g < plan.gid_domain);
          agg[g] += value;
          cnt[g] += 1;
        }
      }
      op_end(groupby_acc, n, n);
    }
    *qualifying_out = qualifying;
  }

  // Converts merged accumulators into named OperatorStats rows and feeds
  // the process-wide metrics registry (query counters, per-join
  // selectivity gauges, hash-table displacement histogram).
  void FillOperatorStats(const StarPlan& plan,
                         const std::vector<OpAcc>& accs, std::uint64_t total,
                         std::uint64_t qualifying,
                         const ChunkPruning* pruning,
                         QueryResult* result) const {
    const ssb::LineorderFact& lo = db.lineorder;
    auto to_stats = [](const std::string& name, const OpAcc& a) {
      OperatorStats s;
      s.name = name;
      s.wall_nanos = a.nanos;
      s.invocations = a.calls;
      s.rows_in = a.rows_in;
      s.rows_out = a.rows_out;
      s.perf.valid = a.pmu_valid;
      s.perf.instructions = a.instructions;
      s.perf.cycles = a.cycles;
      s.perf.llc_misses = a.llc_misses;
      s.perf.scaled = a.pmu_scaled;
      s.perf.elapsed_seconds = static_cast<double>(a.nanos) * 1e-9;
      return s;
    };

    auto& ops = result->operator_stats;
    ops.reserve(accs.size() + 1);
    // Chunked scan: decode rows sit at the leaf of the pipeline, one per
    // plan column (accumulators after the group-by's and the key
    // filters'; see ExecuteRange).
    const std::size_t keyfilter_acc_base =
        plan.filters.size() + plan.joins.size() + 1;
    const std::size_t decode_acc_base =
        keyfilter_acc_base + plan.joins.size();
    if (accs.size() > decode_acc_base) {
      const std::vector<const ssb::Column*> cols = PlanColumns(plan);
      for (std::size_t i = 0; i < cols.size(); ++i) {
        ops.push_back(to_stats(
            std::string("decode.") + FactColumnName(lo, cols[i]),
            accs[decode_acc_base + i]));
      }
    }
    // Pruning stages align with the filter-then-join operator order, so
    // `idx` doubles as the ChunkPruning stage index.
    auto attach_chunks = [&](OperatorStats& s, std::size_t stage) {
      if (pruning == nullptr || stage >= pruning->reached.size()) return;
      s.chunks_pruned = pruning->pruned_by[stage];
      s.chunks_scanned = pruning->reached[stage] - s.chunks_pruned;
    };
    std::size_t idx = 0;
    for (const RangeFilter& f : plan.filters) {
      ops.push_back(to_stats(
          std::string("filter.") + FactColumnName(lo, f.col), accs[idx]));
      attach_chunks(ops.back(), idx);
      ++idx;
    }
    auto& registry = telemetry::MetricsRegistry::Get();
    for (std::size_t ji = 0; ji < plan.joins.size(); ++ji) {
      const JoinStage& j = plan.joins[ji];
      const char* column = FactColumnName(lo, j.fact_key);
      // A join's key filter runs just before its hash probe.
      if (j.key_filter != nullptr) {
        ops.push_back(to_stats(std::string("keyfilter.") + column,
                               accs[keyfilter_acc_base + ji]));
      }
      const std::string name = std::string("probe.") + column;
      ops.push_back(to_stats(name, accs[idx]));
      attach_chunks(ops.back(), idx);
      registry.gauge("engine.selectivity." + name)
          .Set(ops.back().Selectivity());
      ++idx;
    }
    ops.push_back(to_stats("groupby", accs[idx]));

    registry.counter("engine.queries").Increment();
    registry.counter("engine.rows_scanned").Increment(total);
    registry.counter("engine.rows_qualifying").Increment(qualifying);

    // Linear-probe displacement of every occupied dimension slot — the
    // probe-chain length distribution vector probes traverse.
    telemetry::Histogram& probe_hist =
        registry.histogram("table.probe_length");
    for (const JoinStage& j : plan.joins) {
      const LinearHashTable& t = *j.table;
      for (std::uint64_t slot = 0; slot <= t.mask(); ++slot) {
        const std::uint64_t key = t.keys()[slot];
        if (key == kEmptyKey) continue;
        probe_hist.Observe((slot - t.HomeSlot(key)) & t.mask());
      }
    }
  }

  QueryResult ExecutePlan(const StarPlan& plan,
                          const ChunkPruning* pruning = nullptr,
                          const exec::QueryContext* ctx = nullptr) {
    const bool stats = config.collect_stats;
    const bool chunked = config.chunked_scan && db.chunked != nullptr;
    const std::size_t total = chunked ? db.chunked->rows() : db.lineorder.n;
    const auto block = static_cast<std::size_t>(config.block_size);
    const std::vector<std::uint8_t>* alive =
        pruning != nullptr && !pruning->alive.empty() ? &pruning->alive
                                                      : nullptr;

    std::vector<std::uint64_t> agg(plan.gid_domain, 0);
    std::vector<std::uint64_t> cnt(plan.gid_domain, 0);
    std::uint64_t qualifying = 0;

    // Layout: filters, probes, group-by, key filters, decodes (see
    // ExecuteRange).
    const std::size_t n_ops = plan.filters.size() + 2 * plan.joins.size() +
                              1 + (chunked ? PlanColumns(plan).size() : 0);
    std::vector<OpAcc> accs;
    telemetry::Histogram* block_hist = nullptr;
    if (stats) {
      accs.resize(n_ops);
      block_hist = &telemetry::MetricsRegistry::Get().histogram(
          "engine.block_qualifying_rows");
    }

    const std::size_t blocks_total = (total + block - 1) / block;
    std::uint64_t morsels = blocks_total;  // serial path: one per block
    const int threads =
        std::min<int>(exec::ResolveThreads(config.threads),
                      static_cast<int>(blocks_total == 0 ? 1 : blocks_total));
    if (threads <= 1) {
      HEF_TRACE_SPAN("engine.pipeline");
      // perf fds count the opening thread, so the single-threaded path
      // opens its group here and workers open their own below.
      std::unique_ptr<PerfCounters> pmu;
      if (stats && config.collect_pmu) {
        pmu = std::make_unique<PerfCounters>();
        if (pmu->available()) {
          pmu->Start();
        } else {
          pmu.reset();
        }
      }
      ExecuteRange(plan, main_buffers, 0, total, agg, cnt, &qualifying,
                   stats ? &accs : nullptr, pmu.get(), block_hist, ctx,
                   alive);
    } else {
      // Morsel parallelism over the persistent pool: workers claim
      // block-aligned morsels dynamically from the scheduler (stealing
      // from loaded shards when their own drains, so a skewed or
      // preempted worker no longer serializes the tail). Accumulators
      // stay private and merge in worker order at the end — group sums
      // commute, so results are bit-identical to single-threaded.
      std::vector<std::vector<std::uint64_t>> worker_agg(
          threads, std::vector<std::uint64_t>(plan.gid_domain, 0));
      std::vector<std::vector<std::uint64_t>> worker_cnt(
          threads, std::vector<std::uint64_t>(plan.gid_domain, 0));
      std::vector<std::uint64_t> worker_qualifying(threads, 0);
      std::vector<std::vector<OpAcc>> worker_accs(
          threads, std::vector<OpAcc>(stats ? n_ops : 0));
      const exec::MorselRunInfo info = exec::RunMorsels(
          blocks_total, threads,
          [&](int t, exec::MorselScheduler& sched) {
            HEF_TRACE_SPAN("engine.worker");
            Buffers buffers(block);
            // Each worker opens its own counter group: perf fds opened
            // with pid=0 follow the opening thread only.
            std::unique_ptr<PerfCounters> pmu;
            if (stats && config.collect_pmu) {
              pmu = std::make_unique<PerfCounters>();
              if (pmu->available()) {
                pmu->Start();
              } else {
                pmu.reset();
              }
            }
            std::size_t blk_begin = 0;
            std::size_t blk_end = 0;
            while (sched.Next(t, &blk_begin, &blk_end)) {
              std::uint64_t q = 0;
              ExecuteRange(plan, buffers, blk_begin * block,
                           std::min(total, blk_end * block), worker_agg[t],
                           worker_cnt[t], &q,
                           stats ? &worker_accs[t] : nullptr, pmu.get(),
                           block_hist, ctx, alive);
              worker_qualifying[t] += q;
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
          for (std::size_t i = 0; i < n_ops; ++i) {
            accs[i].Merge(worker_accs[t][i]);
          }
        }
      }
    }

    QueryResult result;
    result.qualifying_rows = qualifying;
    result.morsels = morsels;
    if (chunked) {
      result.chunks_total = db.chunked->num_chunks();
      result.chunks_scanned = pruning != nullptr
                                  ? pruning->chunks_scanned
                                  : result.chunks_total;
      result.chunks_pruned = result.chunks_total - result.chunks_scanned;
      auto& registry = telemetry::MetricsRegistry::Get();
      registry.counter("storage.chunks_scanned")
          .Increment(result.chunks_scanned);
      registry.counter("storage.chunks_pruned")
          .Increment(result.chunks_pruned);
    }
    if (stats) {
      FillOperatorStats(plan, accs, total, qualifying, pruning, &result);
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

  // The serving path behind Run(id, ctx): status in, status out — no
  // aborts for anything a client request can cause. Exceptions escaping
  // the pipeline (a worker threw; the TaskPool rethrew the first one at
  // the join) become Status::Internal here.
  Result<QueryResult> TryRun(QueryId id, const exec::QueryContext& ctx) {
    HEF_TRACE_SPAN("engine.query");
    HEF_RETURN_NOT_OK(CheckFlavorSupported(config.flavor));
    if (config.chunked_scan) {
      if (db.chunked == nullptr) {
        return Status::InvalidArgument(
            "chunked_scan requires ssb::EnsureChunked(db) before queries "
            "run");
      }
      const std::size_t chunk_rows = db.chunked->chunk_rows();
      if (chunk_rows % static_cast<std::size_t>(config.block_size) != 0) {
        return Status::InvalidArgument(
            "chunked_scan needs chunk_rows (" +
            std::to_string(chunk_rows) +
            ") to be a multiple of block_size (" +
            std::to_string(config.block_size) + ")");
      }
    }
    HEF_RETURN_NOT_OK(ctx.Check());
    const bool stats = config.collect_stats;

    OperatorStats build;
    std::unique_ptr<PerfCounters> pmu;
    std::uint64_t t0 = 0;
    if (stats) {
      build.name = "build";
      if (config.collect_pmu) {
        pmu = std::make_unique<PerfCounters>();
        if (pmu->available()) {
          pmu->Start();
        } else {
          pmu.reset();
        }
      }
      t0 = MonotonicNanos();
    }

    // Resolve the plan: a cache hit reuses the dimension hash tables and
    // key filters built by an earlier Run; the "build" stats row then
    // reports the (tiny) lookup cost, which is the build work this Run
    // actually did. With the cache off, every Run builds fresh. A failed
    // build inserts nothing — the cache never holds a half-built plan.
    bool cache_hit = false;
    const PlanEntry* entry = nullptr;
    PlanEntry fresh;
    if (config.plan_cache) {
      Result<const PlanEntry*> cached = plan_cache.TryGetOrBuild(
          id,
          [&]() -> Result<PlanEntry> { return TryBuildEntry(id, ctx); },
          &cache_hit);
      HEF_RETURN_NOT_OK(cached.status());
      entry = cached.value();
    } else {
      Result<PlanEntry> built = TryBuildEntry(id, ctx);
      HEF_RETURN_NOT_OK(built.status());
      fresh = std::move(built).value();
      entry = &fresh;
    }

    if (stats) {
      build.wall_nanos = MonotonicNanos() - t0;
      build.invocations = 1;
      for (const auto& table : entry->bound.tables) {
        build.rows_in += table->size();
        build.rows_out += table->size();
      }
      if (pmu != nullptr) {
        build.perf = pmu->Stop();
        build.perf.elapsed_seconds =
            static_cast<double>(build.wall_nanos) * 1e-9;
      }
    }

    QueryResult result;
    try {
      result = ExecutePlan(entry->bound.plan,
                           entry->pruning.alive.empty() ? nullptr
                                                        : &entry->pruning,
                           &ctx);
    } catch (const std::exception& e) {
      return Status::Internal(std::string("query execution failed for ") +
                              QueryName(id) + ": " + e.what());
    } catch (...) {
      return Status::Internal(
          std::string("query execution failed for ") + QueryName(id) +
          ": unknown exception");
    }
    // A stop mid-scan exits the loops without an error; the partial
    // accumulators were merged into a partial result that must not look
    // like a complete one. Report why the scan ended instead.
    HEF_RETURN_NOT_OK(ctx.Check());
    result.plan_cache_hit = cache_hit;
    if (stats) {
      result.operator_stats.insert(result.operator_stats.begin(),
                                   std::move(build));
    }
    return result;
  }
};

SsbEngine::SsbEngine(const ssb::SsbDatabase& db, EngineConfig config)
    : impl_(std::make_unique<Impl>(db, config)) {}

SsbEngine::~SsbEngine() = default;

const EngineConfig& SsbEngine::config() const { return impl_->config; }

void SsbEngine::InvalidatePlanCache() { impl_->plan_cache.Invalidate(); }

QueryResult SsbEngine::Run(QueryId id) {
  // The abort-on-error convenience form runs through the same serving
  // path with an unconstrained context: no token, no deadline, so only a
  // genuine failure (or an armed fault) can make it non-OK — and tests
  // and benches treat that as fatal, exactly as the pre-Status engine
  // did.
  Result<QueryResult> result = Run(id, exec::QueryContext());
  HEF_CHECK_MSG(result.ok(), "SsbEngine::Run(%s) failed: %s", QueryName(id),
                result.status().ToString().c_str());
  return std::move(result).value();
}

Result<QueryResult> SsbEngine::Run(QueryId id,
                                   const exec::QueryContext& ctx) {
  // Every serving Run is traced: adopt the caller's id or mint one, so
  // logs, flight events, /statusz and error messages all correlate.
  exec::QueryContext traced = ctx;
  if (traced.trace_id() == 0) traced.set_trace_id(exec::MintTraceId());
  const std::string query = QueryName(id);
  const std::string engine_label = FlavorName(impl_->config.flavor);

  const std::uint64_t t0 = MonotonicNanos();
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    telemetry::ActiveQueryGuard guard(traced.trace_id(), query,
                                      engine_label,
                                      traced.deadline_nanos());
    return impl_->TryRun(id, traced);
  }();
  const std::uint64_t wall = MonotonicNanos() - t0;
  exec::RecordQueryOutcome(result.status());

  telemetry::QueryCompletion completion;
  completion.trace_id = traced.trace_id();
  completion.query = query;
  completion.engine = engine_label;
  completion.wall_nanos = wall;
  if (result.ok()) {
    QueryResult& r = result.value();
    r.trace_id = traced.trace_id();
    r.wall_nanos = wall;
    completion.cache_hit = r.plan_cache_hit;
    completion.morsels = r.morsels;
    if (!r.operator_stats.empty()) {
      completion.explain_json = ExplainToJson(
          MakeExplainMeta(query, engine_label, impl_->config), r);
    }
    telemetry::Diagnostics::Get().RecordCompletion(completion);

    // Feed the drift sentinel: one whole-query window always (wall-based
    // ns/row works without PMU access), plus one window per probe stage
    // when operator stats were collected — probes are the tuned kernel
    // the sentinel's advice can name. The tuned point in the key is what
    // residuals are attributed to.
    const std::uint64_t now = t0 + wall;
    DriftMonitor& drift = DriftMonitor::Get();
    std::uint64_t rows = impl_->db.lineorder.n;
    if (r.chunks_total > 0 && impl_->db.chunked != nullptr) {
      rows = r.chunks_scanned *
             static_cast<std::uint64_t>(impl_->db.chunked->chunk_rows());
    }
    DriftObservation obs;
    obs.nanos = now;
    obs.rows = rows;
    obs.wall_nanos = wall;
    drift.Observe(
        DriftKey{query, "query", impl_->config.ProbeConfig().ToString()},
        obs);
    const std::string probe_point =
        impl_->config.ProbeConfig().ToString();
    const std::string gather_point =
        impl_->config.GatherConfig().ToString();
    for (const OperatorStats& s : r.operator_stats) {
      const bool probe = s.name.rfind("probe.", 0) == 0;
      const bool gather = s.name.rfind("filter.", 0) == 0;
      if (!probe && !gather) continue;
      DriftObservation op_obs;
      op_obs.nanos = now;
      op_obs.rows = s.rows_in;
      op_obs.wall_nanos = s.wall_nanos;
      op_obs.pmu_valid = s.perf.valid;
      op_obs.instructions = s.perf.instructions;
      op_obs.cycles = s.perf.cycles;
      op_obs.llc_misses = s.perf.llc_misses;
      drift.Observe(DriftKey{query, probe ? "probe" : "gather",
                             probe ? probe_point : gather_point},
                    op_obs);
    }
    return result;
  }
  completion.status_code =
      static_cast<std::uint16_t>(result.status().code());
  completion.status_message = result.status().message();
  telemetry::Diagnostics::Get().RecordCompletion(completion);
  // Errors carry the trace id so a client-side log line alone is enough
  // to find the query in /tracez or a flight dump.
  return Status(result.status().code(),
                result.status().message() + " [trace=" +
                    telemetry::FormatTraceId(traced.trace_id()) + "]");
}

}  // namespace hef
