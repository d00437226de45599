// Execution flavours of the SSB pipelines.
//
// The paper compares four implementations of every query: purely scalar,
// purely SIMD (the VIP-style vectorized pipeline), HEF hybrid, and Voila.
// The first three share one pipeline structure ("we adopt the same
// [operator, pipeline, materialization] configuration for queries
// implemented with HEF") and differ only in the kernels' (v, s, p)
// coordinates; Voila is a separate engine (src/voila).

#ifndef HEF_ENGINE_FLAVOR_H_
#define HEF_ENGINE_FLAVOR_H_

#include <string>

#include "common/status.h"
#include "hybrid/hybrid_config.h"

namespace hef {

enum class Flavor {
  kScalar,  // every kernel at v0 s1 p1
  kSimd,    // every kernel at v1 s0 p1
  kHybrid,  // kernels at the tuned (v, s, p) coordinates
};

const char* FlavorName(Flavor flavor);
Result<Flavor> FlavorByName(const std::string& name);

// Serving-path admission: OK when this host can actually run `flavor`,
// Unsupported when it cannot (simd/hybrid need an AVX2-or-better
// lowering; scalar always admits). The kernels would otherwise degrade
// to their scalar paths silently — acceptable for exploratory CLI use,
// wrong for a server that advertised a SIMD flavour.
Status CheckFlavorSupported(Flavor flavor);

// Parses a --flavor flag for serving binaries: "auto" resolves to the
// best flavour the host admits (hybrid with any vector ISA, scalar
// otherwise); a named flavour must pass CheckFlavorSupported. Errors are
// InvalidArgument (unknown name) or Unsupported (host cannot run it).
Result<Flavor> ResolveFlavorFlag(const std::string& name);

// Per-engine configuration. The hybrid kernel coordinates default to the
// paper's SSB optimum (one SIMD + one scalar statement, pack of three,
// §V-B); the tuner can override them per host.
struct EngineConfig {
  Flavor flavor = Flavor::kSimd;
  // Coordinates used when flavor == kHybrid.
  HybridConfig probe_cfg{1, 1, 3};
  HybridConfig gather_cfg{1, 1, 3};
  // Rows per pipeline block (the vectorized engine's vector size).
  int block_size = 4096;
  // Evaluate multi-predicate WHERE clauses as bitmap scans + conjunction
  // (Zhou & Ross selection scans) instead of compacting after every
  // predicate. Pays when individual predicates are unselective but their
  // conjunction is (the Q1.x pattern).
  bool fused_filters = false;
  // Run the group-by accumulate as gather-add-scatter with AVX-512CD
  // conflict detection instead of the scalar loop (related work [18]/[31]
  // style). Scalar-flavour engines ignore this.
  bool vectorized_agg = false;
  // Collect per-operator statistics (wall time, row counts, selectivity)
  // into QueryResult::operator_stats. Adds two clock reads per operator
  // per block, so it is off by default and benchmark timings should keep
  // it off.
  bool collect_stats = false;
  // Additionally attribute PMU deltas (instructions / cycles / LLC
  // misses) to each operator via one group read(2) per operator boundary.
  // Only meaningful with collect_stats; silently degrades to wall-clock
  // stats when the PMU is unavailable.
  bool collect_pmu = false;
  // Worker threads for the fact scan (morsel parallelism over blocks,
  // dispatched dynamically from the persistent exec::TaskPool with work
  // stealing). 0 means "auto": one worker per hardware thread. Results
  // are bit-identical for any thread count (group sums are commutative).
  // The paper measures per-core behaviour, so the paper-exhibit
  // benchmarks pin this to 1.
  int threads = 0;
  // Reuse built plans (filtered dimension hash tables + key filters)
  // across repeated Run() calls on the same engine, keyed by QueryId.
  // Serving workloads want this on; paper-exhibit benchmarks that report
  // end-to-end per-query time (build included) turn it off.
  bool plan_cache = true;
  // Scan the fact table through the chunked, per-chunk-encoded shadow
  // (ssb::EnsureChunked) instead of the flat columns, decoding each
  // pipeline block on first touch. Requires db.chunked to be built with
  // chunk_rows a multiple of block_size; Run() rejects the query
  // otherwise.
  bool chunked_scan = false;
  // With chunked_scan: evaluate every chunk's zone map + histogram
  // against the plan's range filters and join key ranges at plan build,
  // and skip chunks proven empty before morsel dispatch. Results are
  // bit-identical with pruning on or off.
  bool scan_pruning = false;
  // Coordinates of the chunk-decode kernels (bit-unpack, FoR-add,
  // dictionary gather) when flavor == kHybrid. Defaults to the SIMD
  // point: the unpack kernel is gather-bound, and a scalar statement
  // beside it only slows it down — on an AVX-512 Xeon, 0.51 ns/value at
  // v1 s0 p1 vs 0.75 at v1 s1 p3 for a full block, and fastest for the
  // short selections late materialisation decodes (EXPERIMENTS.md).
  HybridConfig decode_cfg{1, 0, 1};

  // The kernel coordinate this engine flavour runs at.
  HybridConfig ProbeConfig() const {
    switch (flavor) {
      case Flavor::kScalar:
        return HybridConfig::PureScalar();
      case Flavor::kSimd:
        return HybridConfig::PureSimd();
      case Flavor::kHybrid:
        return probe_cfg;
    }
    return HybridConfig::PureSimd();
  }
  HybridConfig GatherConfig() const {
    switch (flavor) {
      case Flavor::kScalar:
        return HybridConfig::PureScalar();
      case Flavor::kSimd:
        return HybridConfig::PureSimd();
      case Flavor::kHybrid:
        return gather_cfg;
    }
    return HybridConfig::PureSimd();
  }
  HybridConfig DecodeConfig() const {
    switch (flavor) {
      case Flavor::kScalar:
        return HybridConfig::PureScalar();
      case Flavor::kSimd:
        return HybridConfig::PureSimd();
      case Flavor::kHybrid:
        return decode_cfg;
    }
    return HybridConfig::PureSimd();
  }
};

}  // namespace hef

#endif  // HEF_ENGINE_FLAVOR_H_
