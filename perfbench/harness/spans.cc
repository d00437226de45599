#include "harness/spans.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace perfbench {

std::uint64_t NowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint32_t SpanLog::Add(const std::string& name, std::uint32_t parent,
                           std::uint64_t start_ns, std::uint64_t end_ns,
                           std::uint64_t trace_id) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, trace_id, parent, start_ns, end_ns});
  return static_cast<std::uint32_t>(spans_.size());
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<std::uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0 || s.parent > spans.size()) continue;
    const Span& p = spans[s.parent - 1];
    const std::uint64_t lo = std::max(s.start_ns, p.start_ns);
    const std::uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[s.parent - 1].emplace_back(lo, hi);
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t run_lo = 0;
    std::uint64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = spans[i].Duration() - std::min(covered, spans[i].Duration());
  }
  return self;
}

bool WriteChromeTrace(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::uint64_t origin =
      spans.empty() ? 0
                    : std::min_element(spans.begin(), spans.end(),
                                       [](const Span& a, const Span& b) {
                                         return a.start_ns < b.start_ns;
                                       })
                          ->start_ns;
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Names are fixed identifiers from the benchmark (no quoting needed).
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%u,\"trace_id\":\"%016" PRIx64 "\"}}",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.Duration()) * 1e-3, i + 1, s.parent,
                 s.trace_id);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
