// Everything the workloads share and pin: the fixed scale, encoding and
// kernel points, the one place EngineConfig / ServeConfig are built, the
// database build, the workload table and the result hefbench prints.

#ifndef PERFBENCH_HARNESS_SETUP_H_
#define PERFBENCH_HARNESS_SETUP_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/spans.h"
#include "engine/flavor.h"
#include "engine/query_id.h"
#include "engine/result.h"
#include "serve/serve_server.h"
#include "ssb/database.h"

namespace perfbench {

// Pinned settings (also recorded in BENCHMARK.json and the README).
inline constexpr double kScaleFactor = 0.2;       // 1,200,000 lineorder rows
inline constexpr std::size_t kChunkRows = 65536;  // rows per fact chunk
inline constexpr int kBlockSize = 4096;           // rows per pipeline block
inline constexpr int kSetupRepeats = 3;           // setup_s is their median
inline constexpr double kTailQuantile = 0.99;
// goodput_qps counts queries answered correctly within this limit; it is
// a stall guard, well above every query's p99.
inline constexpr double kLatencyLimitMs = 100;
// The traced run's serve probe: open-loop rate, client connections and
// executors.
inline constexpr double kServeRate = 100;
inline constexpr int kServeConnections = 4;
inline constexpr int kServeExecutors = 2;

// Every workload runs its engine(s) with one thread per query; the
// traced run's probes add a two-thread engine for the exec layer.
inline constexpr int kEngineThreads = 1;

struct WorkloadSpec {
  std::string name;
  std::vector<hef::QueryId> queries;
  // Whether the traced run also serves the mix through ServeServer.
  bool serve_probe = false;
};

// The workload table; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

// The single place engine configurations are built: hybrid flavour at the
// paper's v1 s1 p3 points for probe, gather and decode, 4096-row blocks,
// chunked `auto` storage with zone-map pruning. `flavor`, `threads` and
// `collect_stats` are the only things the layer probes vary.
hef::EngineConfig MakeEngineConfig(int threads, bool collect_stats = false,
                                   hef::Flavor flavor = hef::Flavor::kHybrid);
hef::serve::ServeConfig MakeServeConfig();

// Generates the database for `seed` and builds its chunked `auto`
// encoding, recording "SsbDatabase::Generate" and "ssb::EnsureChunked"
// spans. The database is heap-held because the chunked shadow refers to
// its fact columns by address: it must not move once encoded.
struct BuiltDatabase {
  std::unique_ptr<hef::ssb::SsbDatabase> db;
  double generate_s = 0;
  double encode_s = 0;
  double storage_ratio = 0;  // encoded / plain fact bytes
};
BuiltDatabase BuildDatabase(std::uint64_t seed, SpanLog& spans);

// Reference answers for `queries` (RunReferenceQuery on `db`).
std::map<hef::QueryId, hef::QueryResult> ReferenceAnswers(
    const hef::ssb::SsbDatabase& db, const std::vector<hef::QueryId>& queries);

// Current value of a process-wide registry counter; false when the
// counter is not registered (a removed counter reads as absent).
bool ReadRegistryCounter(const std::string& name, double* value);

// What one run reports.
struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // name -> (value, unit), in print order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  // Host evidence, printed on its own line (not gated).
  std::vector<std::pair<std::string, double>> host;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  // Counts one operation; a failure also clears `correct` when `wrong`.
  void Count(bool ok, bool wrong = false) {
    ++attempted;
    if (!ok) ++failed;
    if (wrong) correct = false;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SETUP_H_
