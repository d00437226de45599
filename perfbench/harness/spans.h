// In-memory span log for the traced benchmark run.
//
// Spans are recorded by the benchmark's own code around each call into a
// layer's public functions (and, for per-operator engine statistics and
// serve queue/exec times, as synthetic child spans built from what the
// call returned). Spans of one query share its trace id. The log is kept
// in memory and written out once, at exit, as a Chrome trace.
//
// A span's self time is its duration minus the part of its interval that
// its child spans cover (the union of the children's intervals, clipped
// to the parent), so the self times of one span tree add up to the root's
// duration exactly.

#ifndef PERFBENCH_HARNESS_SPANS_H_
#define PERFBENCH_HARNESS_SPANS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Nanoseconds on the steady clock.
std::uint64_t NowNanos();

struct Span {
  std::string name;
  std::uint64_t trace_id = 0;
  std::uint32_t parent = 0;  // id of the enclosing span; 0 for a root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  std::uint64_t Duration() const {
    return end_ns > start_ns ? end_ns - start_ns : 0;
  }
};

// Thread-safe append-only span store. Span ids are 1-based indices into
// spans(); 0 means "no span". A disabled log records nothing and hands out
// id 0, so call sites need no tracing branches of their own.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  // Records a span once its interval is known. Spans are added after the
  // call they time returns (a query's trace id is only known then), so a
  // parent is added before its children and its id handed to them.
  std::uint32_t Add(const std::string& name, std::uint32_t parent,
                    std::uint64_t start_ns, std::uint64_t end_ns,
                    std::uint64_t trace_id = 0);

  // Snapshot of every span recorded so far.
  std::vector<Span> spans() const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// Self time of every span, indexed like `spans`.
std::vector<std::uint64_t> SelfTimes(const std::vector<Span>& spans);

// Writes the spans as Chrome trace JSON (complete "X" events, times in
// microseconds, trace id and parent in args). Returns false on I/O error.
bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SPANS_H_
