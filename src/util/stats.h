// Statistics helpers used by monitors, predictors, and the experiment
// harness (means, confidence intervals, percentiles, exponential smoothing).
#pragma once

#include <cstddef>
#include <vector>

namespace spectra::util {

// Welford-style online accumulator for mean/variance.
class OnlineStats {
 public:
  void add(double x);
  void reset();

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const;  // sample variance (n-1 denominator)
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }

  // Half-width of the two-sided confidence interval around the mean using a
  // Student-t critical value (the paper reports 90% CIs over 5 trials).
  double confidence_halfwidth(double confidence = 0.90) const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Exponentially-weighted moving average; the smoothing primitive behind the
// CPU and network monitors' availability estimates.
class Ewma {
 public:
  // `alpha` is the weight of a new sample: next = alpha*x + (1-alpha)*prev.
  explicit Ewma(double alpha);

  void add(double x);
  void reset();

  bool empty() const { return !initialized_; }
  double value() const;
  double alpha() const { return alpha_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

// Recency-weighted mean with exponential decay per sample. Unlike Ewma it
// exposes the total weight, which the binned predictors use to decide whether
// a bin has enough history to be trusted.
class DecayingMean {
 public:
  explicit DecayingMean(double decay = 0.9);

  void add(double x);
  void reset();

  double weight() const { return weight_; }
  bool empty() const { return weight_ <= 0.0; }
  double value() const;

 private:
  double decay_;
  double weighted_sum_ = 0.0;
  double weight_ = 0.0;
};

// Percentile of `x` within `samples` (inclusive rank, 0..100). Used by the
// Fig-8 "accuracy" metric: the percentile of Spectra's chosen alternative
// when all alternatives are ranked by achieved utility.
double percentile_rank(const std::vector<double>& samples, double x);

// Value at percentile p (0..100) using linear interpolation.
double percentile_value(std::vector<double> samples, double p);

double mean_of(const std::vector<double>& xs);

// Quantile (inverse CDF) of the standard normal distribution at p in (0,1).
double normal_quantile(double p);

// Student-t critical value for a two-sided interval at the given confidence
// with `dof` degrees of freedom. Tabulated for dof <= 30 at the confidences
// the harness uses (0.90/0.95/0.99); other confidences at small dof are
// interpolated between the tabulated columns (or scaled from them beyond the
// table's range) so the heavy tails are respected — the value is monotone
// decreasing in dof and increasing in confidence. dof > 30 uses the normal
// approximation.
double student_t_critical(double confidence, std::size_t dof);

}  // namespace spectra::util
