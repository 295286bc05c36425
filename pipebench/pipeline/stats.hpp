// Order statistics shared by bench_pipeline and bench_compare.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace pipebench {

struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;

  /// Interquartile range as a share of the median (0 for a zero median).
  double spread() const noexcept {
    return median != 0.0 ? (q3 - q1) / (median < 0.0 ? -median : median)
                         : 0.0;
  }
};

/// Median and quartiles, with the quartiles computed exactly as Python's
/// statistics.quantiles(values, n=4) (the default "exclusive" method), so
/// spreads printed here match the ones a script computes from the same
/// numbers.  One value gives median = q1 = q3.
inline Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t ld = values.size();
  s.median = ld % 2 == 1 ? values[ld / 2]
                         : (values[ld / 2 - 1] + values[ld / 2]) / 2.0;
  if (ld == 1) {
    s.q1 = s.q3 = values[0];
    return s;
  }
  const auto quartile = [&](std::size_t i) {
    const std::size_t m = ld + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

}  // namespace pipebench
