// Small statistics toolkit used by the bench harnesses: running moments,
// percentiles, and multi-seed aggregation.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace snd::util {

/// Streaming mean/variance via Welford's algorithm; O(1) space.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stdev() const;
  /// Standard error of the mean.
  [[nodiscard]] double sem() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }
  /// The samples added up in insertion order (exact for integer samples
  /// below 2^53).
  [[nodiscard]] double sum() const { return sum_; }

  /// "mean ± stdev" with the given precision, for table cells.
  [[nodiscard]] std::string summary(int precision = 3) const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Sample container with order statistics (stores all values).
class Series {
 public:
  void add(double x) { values_.push_back(x); }
  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stdev() const;
  /// Linear-interpolated percentile, p in [0, 100]. Requires non-empty.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

}  // namespace snd::util
