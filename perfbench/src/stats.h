// Arithmetic the benchmark reports with: nearest-rank percentiles, the rule
// that a percentile needs at least ten samples beyond it, the geometric mean
// of per-statement medians, and the guarded ratios the per-layer metrics are
// built from. Header-only so the benchmark
// and its self-test compile the same code.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples a reported percentile must have strictly beyond it.
inline constexpr size_t kMinBeyond = 10;

/// Index (0-based, into the sorted samples) of the nearest-rank p-th
/// percentile: the smallest sample with at least p% of samples at or
/// below it. `p` is in (0, 100]; `n` must be positive.
inline size_t RankIndex(size_t n, double p) {
  double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  size_t r = rank < 1 ? 1 : static_cast<size_t>(rank);
  return std::min(r, n) - 1;
}

/// Number of samples strictly beyond the nearest-rank p-th percentile.
inline size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - 1 - RankIndex(n, p);
}

/// Nearest-rank p-th percentile of `v` (copied and sorted); 0 when empty.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  size_t i = RankIndex(v.size(), p);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i),
                   v.end());
  return v[i];
}

inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50);
}

/// The highest percentile, at most `target`, that `n` samples support with
/// kMinBeyond samples beyond it, taken from a fixed ladder so a run reports
/// a named percentile. 0 when not even the median is supported.
inline double SupportedPercentile(size_t n, double target) {
  static constexpr double kLadder[] = {99.9, 99.5, 99, 98, 95, 90, 75, 50};
  for (double p : kLadder) {
    if (p <= target && SamplesBeyond(n, p) >= kMinBeyond) return p;
  }
  return 0;
}

/// Geometric mean of positive values; 0 when empty or when any value is
/// not positive. Each value weighs the same whatever its size, so a
/// statement's relative change moves the mean equally for cheap and
/// expensive statements.
inline double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) {
    if (!(x > 0)) return 0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// num / den, or 0 when nothing was counted in the denominator.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Difference of two monotone counter readings, as a double.
inline double Delta(uint64_t before, uint64_t after) {
  return after >= before ? static_cast<double>(after - before) : 0;
}

/// Relative cost of tracing: how much longer a traced operation took than
/// an untraced one, in percent, from the two runs' operation rates.
inline double OverheadPct(double untraced_ops_s, double traced_ops_s) {
  if (untraced_ops_s <= 0 || traced_ops_s <= 0) return 0;
  return (untraced_ops_s / traced_ops_s - 1.0) * 100.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
