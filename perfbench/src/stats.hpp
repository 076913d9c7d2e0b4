// Order statistics and span arithmetic for the benchmark's reports.
//
// Everything here is a pure function of its inputs so the unit tests in
// tests/stats_test.cpp pin the exact definitions the reports rely on.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples:
/// ceil(p/100 * n), clamped to [1, n].
inline std::size_t nearest_rank_index(double p, std::size_t n) {
  if (n == 0) throw std::invalid_argument("percentile of no samples");
  // Round away float noise (99/100 * 100 = 99.00000000000001) before ceil.
  const double scaled = std::round(p / 100.0 * static_cast<double>(n) * 1e6) / 1e6;
  const auto rank = static_cast<std::size_t>(std::ceil(scaled));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Nearest-rank percentile: the smallest sample such that at least p% of
/// the samples are <= it. Reorders `v` (nth_element), never copies.
template <typename T>
T nearest_rank(std::vector<T>& v, double p) {
  const std::size_t k = nearest_rank_index(p, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
inline std::size_t samples_beyond(double p, std::size_t n) {
  return n - nearest_rank_index(p, n);
}

/// The highest percentile of the ladder 50, 90, 99, 99.9, ... (up to
/// 99.9999) that leaves at least `min_beyond` samples beyond it, so a tail
/// figure always rests on real samples. nullopt when even the median
/// does not (fewer than 2 * min_beyond samples).
inline std::optional<double> tail_percentile(std::size_t n,
                                             std::size_t min_beyond = 10) {
  static constexpr double kLadder[] = {99.9999, 99.999, 99.99, 99.9,
                                       99.0,    90.0,   50.0};
  if (n == 0) return std::nullopt;
  for (const double p : kLadder) {
    if (samples_beyond(p, n) >= min_beyond) return p;
  }
  return std::nullopt;
}

/// Median (mean of the two middle values for an even count).
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no values");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// The wall-time rate reported from per-slice (or per-run) rates of equal
/// work: their nearest-rank 90th percentile. Other work on a shared host
/// only ever slows a slice down, so the fast tail is the program's own
/// speed while the median follows the host's load.
inline double fast_rate(std::vector<double> rates) {
  return nearest_rank(rates, 90.0);
}

struct Quartiles {
  double q1 = 0;
  double q2 = 0;
  double q3 = 0;
  /// Inter-quartile distance as a share of the median (the spread the
  /// run-to-run stability check uses).
  [[nodiscard]] double relative_spread() const {
    return q2 != 0 ? (q3 - q1) / q2 : 0.0;
  }
};

/// Quartiles with the "exclusive" method of Python's
/// statistics.quantiles(values, n=4), so numbers computed here and by a
/// script over run results agree. Needs at least two values.
inline Quartiles quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need 2 values");
  std::sort(v.begin(), v.end());
  const auto ld = static_cast<std::ptrdiff_t>(v.size());
  const std::ptrdiff_t m = ld + 1;
  double q[3] = {0, 0, 0};
  for (std::ptrdiff_t i = 1; i <= 3; ++i) {
    const std::ptrdiff_t j = std::clamp<std::ptrdiff_t>(i * m / 4, 1, ld - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    q[i - 1] = (v[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
                v[static_cast<std::size_t>(j)] * delta) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

/// A closed-open time interval [start, end).
struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Self time of a span: its duration minus the part of it that its child
/// spans cover. Children may overlap one another or spill past the
/// parent; only their union inside the parent counts.
inline std::int64_t self_time(Interval parent, std::vector<Interval> children) {
  const std::int64_t dur = std::max<std::int64_t>(0, parent.end - parent.start);
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  std::int64_t covered = 0;
  std::int64_t cursor = parent.start;  // covered up to here already
  for (const Interval& c : children) {
    const std::int64_t lo = std::max(c.start, cursor);
    const std::int64_t hi = std::min(c.end, parent.end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return dur - covered;
}

}  // namespace perfbench
