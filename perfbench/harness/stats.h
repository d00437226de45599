// Order statistics for benchmark samples.
//
// Percentiles use the nearest-rank definition: the p-quantile of n sorted
// samples is sample ceil(p * n) (1-based), so every reported value is a
// measured sample. A tail percentile is only reported when at least
// kMinBeyondTail samples lie strictly above its rank (the p99 of a run
// therefore needs >= 1000 samples).

#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyondTail = 10;

// 1-based nearest rank of quantile p (0 < p <= 1) among n samples.
std::size_t NearestRank(std::size_t n, double p);

// Samples that rank above the p-quantile: n - NearestRank(n, p).
std::size_t SamplesBeyond(std::size_t n, double p);

// Smallest sample count with at least kMinBeyondTail samples beyond p.
std::size_t MinSamplesForTail(double p);

// Nearest-rank p-quantile of `samples` (copied and sorted); 0 when empty.
double Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);

// Splits n time-ordered samples into consecutive [begin, end) windows of
// `window` samples; the last window absorbs the remainder, so each holds
// at least `window` samples. One window when n < 2 * window.
std::vector<std::pair<std::size_t, std::size_t>> WindowBounds(
    std::size_t n, std::size_t window);

// Median over WindowBounds windows of each window's p-quantile: a run's
// typical tail, not one dominated by a single host hiccup.
double MedianOfWindowPercentiles(const std::vector<double>& ordered,
                                 std::size_t window, double p);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
