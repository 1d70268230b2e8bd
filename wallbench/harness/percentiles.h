#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace wallbench {

// A percentile is only reported when at least this many samples lie above
// its rank; below that, one outlier decides the value.
inline constexpr size_t kMinSamplesBeyond = 10;

// Exact nearest-rank percentile over raw samples: the value at 1-based rank
// ceil(p * n) of the sorted samples. Returns nullopt when p is outside
// (0, 1], when there are no samples, or when fewer than kMinSamplesBeyond
// samples rank above the result.
std::optional<double> ExactPercentile(const std::vector<double>& sorted,
                                      double p);

// Median of unsorted values (mean of the two middle values for even n);
// 0 for an empty input.
double Median(std::vector<double> values);

// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& values);

}  // namespace wallbench
