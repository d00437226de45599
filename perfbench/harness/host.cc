#include "harness/host.h"

#include <sys/resource.h>

#include <cstdio>
#include <numeric>
#include <sstream>
#include <vector>

#include "harness/spans.h"

namespace perfbench {

CpuTimes ParseCpuLine(const std::string& line) {
  CpuTimes t;
  std::istringstream in(line);
  std::string label;
  in >> label;
  if (label != "cpu") return t;
  std::vector<std::uint64_t> fields;
  std::uint64_t v = 0;
  while (in >> v) fields.push_back(v);
  // user nice system idle iowait irq softirq steal [guest guest_nice];
  // guest time is already counted in user/nice.
  if (fields.size() < 8) return t;
  t.total = std::accumulate(fields.begin(), fields.begin() + 8,
                            std::uint64_t{0});
  t.steal = fields[7];
  t.ok = true;
  return t;
}

CpuTimes ReadCpuTimes() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {};
  char buf[512];
  const bool got = std::fgets(buf, sizeof(buf), f) != nullptr;
  std::fclose(f);
  return got ? ParseCpuLine(buf) : CpuTimes{};
}

double StealFraction(const CpuTimes& before, const CpuTimes& after) {
  if (!before.ok || !after.ok || after.total <= before.total) return 0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double CalibrationMs() {
  constexpr std::size_t kSlots = std::size_t{1} << 20;  // 8 MiB of indices
  constexpr int kHashRounds = 4'000'000;
  constexpr int kChaseSteps = 1'000'000;
  // A single cycle through all slots (odd stride modulo a power of two),
  // scrambled so the hardware prefetcher cannot follow it.
  std::vector<std::uint32_t> next(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) {
    next[(i * 0x9E3779B1u) & (kSlots - 1)] =
        static_cast<std::uint32_t>(((i + 1) * 0x9E3779B1u) & (kSlots - 1));
  }
  const std::uint64_t t0 = NowNanos();
  std::uint64_t h = 0x2545F4914F6CDD1DULL;
  for (int i = 0; i < kHashRounds; ++i) {
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
  }
  std::uint32_t at = 0;
  for (int i = 0; i < kChaseSteps; ++i) at = next[at];
  const std::uint64_t t1 = NowNanos();
  volatile std::uint64_t sink = h + at;
  (void)sink;
  return static_cast<double>(t1 - t0) * 1e-6;
}

double PeakRssMib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
