// Small helpers shared by the live run and the traced run: named metric
// lists and order statistics.

#ifndef E2EBENCH_METRICS_H_
#define E2EBENCH_METRICS_H_

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

namespace e2ebench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using MetricList = std::vector<Metric>;

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace e2ebench

#endif  // E2EBENCH_METRICS_H_
