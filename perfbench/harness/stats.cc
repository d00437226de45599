#include "harness/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::size_t NearestRank(std::size_t n, double p) {
  if (n == 0) return 0;
  // The epsilon keeps exact products (0.99 * 1000) from rounding up a rank.
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

std::size_t SamplesBeyond(std::size_t n, double p) {
  return n - NearestRank(n, p);
}

std::size_t MinSamplesForTail(double p) {
  std::size_t n = kMinBeyondTail;
  while (SamplesBeyond(n, p) < kMinBeyondTail) ++n;
  return n;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const std::size_t k = NearestRank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

std::vector<std::pair<std::size_t, std::size_t>> WindowBounds(
    std::size_t n, std::size_t window) {
  const std::size_t count =
      window == 0 ? 1 : std::max<std::size_t>(1, n / window);
  std::vector<std::pair<std::size_t, std::size_t>> bounds;
  for (std::size_t w = 0; w < count; ++w) {
    bounds.emplace_back(w * window, w + 1 == count ? n : (w + 1) * window);
  }
  return bounds;
}

double MedianOfWindowPercentiles(const std::vector<double>& ordered,
                                 std::size_t window, double p) {
  std::vector<double> per_window;
  for (const auto& [begin, end] : WindowBounds(ordered.size(), window)) {
    const auto first = ordered.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto last = ordered.begin() + static_cast<std::ptrdiff_t>(end);
    per_window.push_back(Percentile(std::vector<double>(first, last), p));
  }
  return Median(per_window);
}

}  // namespace perfbench
