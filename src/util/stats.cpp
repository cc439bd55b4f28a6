#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace snd::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stdev() const { return std::sqrt(variance()); }

double RunningStats::sem() const {
  return n_ > 1 ? stdev() / std::sqrt(static_cast<double>(n_)) : 0.0;
}

std::string RunningStats::summary(int precision) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f ± %.*f", precision, mean(), precision, stdev());
  return buf;
}

double Series::mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Series::stdev() const {
  if (values_.size() < 2) return 0.0;
  const double m = mean();
  double m2 = 0.0;
  for (double v : values_) m2 += (v - m) * (v - m);
  return std::sqrt(m2 / static_cast<double>(values_.size() - 1));
}

double Series::percentile(double p) const {
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace snd::util
