#include "harness/percentiles.h"

#include <algorithm>
#include <cmath>

namespace wallbench {

std::optional<double> ExactPercentile(const std::vector<double>& sorted,
                                      double p) {
  const size_t n = sorted.size();
  if (n == 0 || !(p > 0.0 && p <= 1.0)) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  return sorted[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace wallbench
