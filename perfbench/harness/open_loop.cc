#include "harness/open_loop.h"

#include <random>

namespace perfbench {

std::vector<std::uint64_t> FixedRateSchedule(double rate_per_s, double seconds,
                                             std::uint64_t seed) {
  std::vector<std::uint64_t> due;
  if (rate_per_s <= 0 || seconds <= 0) return due;
  // mt19937_64's output sequence is fixed by the standard, unlike the
  // library distributions, so the schedule is the same on every platform.
  std::mt19937_64 gen(seed);
  const double period_ns = 1e9 / rate_per_s;
  const auto count = static_cast<std::uint64_t>(seconds * rate_per_s);
  for (std::uint64_t i = 0; i < count; ++i) {
    const double u = static_cast<double>(gen() >> 11) * 0x1.0p-53;  // [0,1)
    due.push_back(static_cast<std::uint64_t>(
        (static_cast<double>(i) + 0.25 + 0.5 * u) * period_ns));
  }
  return due;
}

}  // namespace perfbench
