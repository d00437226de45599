// SsbEngine — the VIP-style vectorized pipeline engine executing the 13
// SSB queries in scalar / SIMD / hybrid flavours.
//
// Every query is a star plan: range filters on fact columns, a chain of
// hash-join probes against filtered dimension tables (most selective
// first), and a direct-array group-by aggregation. The pipeline processes
// the fact table in blocks, materializing compacted row-id and payload
// vectors between operators (the VIP materialization strategy the paper
// adopts, §V-B). The three flavours share this structure and differ only
// in the (v, s, p) coordinates of the gather and probe kernels — purely
// scalar (v0 s1 p1), purely SIMD (v1 s0 p1) or the tuned hybrid point.

#ifndef HEF_ENGINE_ENGINE_H_
#define HEF_ENGINE_ENGINE_H_

#include <memory>

#include "common/status.h"
#include "engine/flavor.h"
#include "engine/query_id.h"
#include "engine/result.h"
#include "exec/query_context.h"
#include "ssb/database.h"

namespace hef {

class SsbEngine {
 public:
  // The database must outlive the engine.
  SsbEngine(const ssb::SsbDatabase& db, EngineConfig config);
  ~SsbEngine();

  SsbEngine(const SsbEngine&) = delete;
  SsbEngine& operator=(const SsbEngine&) = delete;

  // Executes one SSB query end to end (dimension hash-table build + fact
  // pipeline) and returns its result rows sorted by group keys. With
  // config.plan_cache (the default) the build phase — filtered dimension
  // hash tables plus their key filters — runs once per QueryId and is reused
  // by every later Run of the same query.
  //
  // This form aborts on any failure (tests and paper-exhibit benches use
  // it; nothing there is expected to fail). Serving callers use the
  // fallible overload below.
  QueryResult Run(QueryId id);

  // The serving-path form. Honours `ctx` cooperatively: cancellation and
  // deadline are checked before the build, at every morsel claim, and at
  // every pipeline block, so the call returns Cancelled /
  // DeadlineExceeded within roughly one block of work after the stop
  // condition arises (partial accumulators are discarded, the plan cache
  // stays consistent). Admission-checks config.flavor on the host
  // (Unsupported when the flavour cannot run here), and converts
  // execution-time exceptions — including injected faults — to
  // Status::Internal instead of terminating; the TaskPool threads survive
  // and later Runs proceed. Every outcome is counted via
  // exec::RecordQueryOutcome.
  Result<QueryResult> Run(QueryId id, const exec::QueryContext& ctx);

  // Drops all cached plans; the next Run of each query rebuilds from the
  // database. Call after mutating the database the engine was bound to.
  void InvalidatePlanCache();

  const EngineConfig& config() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hef

#endif  // HEF_ENGINE_ENGINE_H_
