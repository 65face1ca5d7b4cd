#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace spectra::util {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::reset() { *this = OnlineStats{}; }

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::confidence_halfwidth(double confidence) const {
  if (n_ < 2) return 0.0;
  const double t = student_t_critical(confidence, n_ - 1);
  return t * stddev() / std::sqrt(static_cast<double>(n_));
}

Ewma::Ewma(double alpha) : alpha_(alpha) {
  SPECTRA_REQUIRE(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
}

void Ewma::add(double x) {
  if (!initialized_) {
    value_ = x;
    initialized_ = true;
  } else {
    value_ = alpha_ * x + (1.0 - alpha_) * value_;
  }
}

void Ewma::reset() { initialized_ = false; value_ = 0.0; }

double Ewma::value() const {
  SPECTRA_REQUIRE(initialized_, "Ewma::value on empty estimator");
  return value_;
}

DecayingMean::DecayingMean(double decay) : decay_(decay) {
  SPECTRA_REQUIRE(decay > 0.0 && decay <= 1.0, "decay must be in (0,1]");
}

void DecayingMean::add(double x) {
  weighted_sum_ = decay_ * weighted_sum_ + x;
  weight_ = decay_ * weight_ + 1.0;
}

void DecayingMean::reset() {
  weighted_sum_ = 0.0;
  weight_ = 0.0;
}

double DecayingMean::value() const {
  SPECTRA_REQUIRE(weight_ > 0.0, "DecayingMean::value on empty estimator");
  return weighted_sum_ / weight_;
}

double percentile_rank(const std::vector<double>& samples, double x) {
  SPECTRA_REQUIRE(!samples.empty(), "percentile_rank of empty sample set");
  std::size_t below = 0;
  std::size_t equal = 0;
  for (double s : samples) {
    if (s < x) ++below;
    else if (s == x) ++equal;
  }
  // Mid-rank convention so ties share a percentile.
  const double rank = static_cast<double>(below) + static_cast<double>(equal) / 2.0;
  return 100.0 * rank / static_cast<double>(samples.size());
}

double percentile_value(std::vector<double> samples, double p) {
  SPECTRA_REQUIRE(!samples.empty(), "percentile_value of empty sample set");
  SPECTRA_REQUIRE(p >= 0.0 && p <= 100.0, "percentile must be in [0,100]");
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) return samples.front();
  const double idx = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const auto hi = std::min(lo + 1, samples.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

double mean_of(const std::vector<double>& xs) {
  OnlineStats s;
  for (double x : xs) s.add(x);
  return s.mean();
}

double normal_quantile(double p) {
  SPECTRA_REQUIRE(p > 0.0 && p < 1.0, "probability must be in (0,1)");
  // Rational approximation of the probit function (Beasley-Springer-Moro).
  const double a[] = {2.50662823884, -18.61500062529, 41.39119773534,
                      -25.44106049637};
  const double b[] = {-8.47351093090, 23.08336743743, -21.06224101826,
                      3.13082909833};
  const double c[] = {0.3374754822726147, 0.9761690190917186,
                      0.1607979714918209, 0.0276438810333863,
                      0.0038405729373609, 0.0003951896511919,
                      0.0000321767881768, 0.0000002888167364,
                      0.0000003960315187};
  const double y = p - 0.5;
  if (std::abs(y) < 0.42) {
    const double r = y * y;
    return y * (((a[3] * r + a[2]) * r + a[1]) * r + a[0]) /
           ((((b[3] * r + b[2]) * r + b[1]) * r + b[0]) * r + 1.0);
  }
  double r = p > 0.5 ? 1.0 - p : p;
  r = std::log(-std::log(r));
  double x = c[0];
  double rk = 1.0;
  for (int i = 1; i < 9; ++i) {
    rk *= r;
    x += c[i] * rk;
  }
  return p > 0.5 ? x : -x;
}

double student_t_critical(double confidence, std::size_t dof) {
  SPECTRA_REQUIRE(confidence > 0.0 && confidence < 1.0,
                  "confidence must be in (0,1)");
  SPECTRA_REQUIRE(dof >= 1, "dof must be >= 1");
  // Two-sided critical values for the confidences the harness uses.
  struct Row {
    double t90, t95, t99;
  };
  // dof 1..30 (rows 0..29).
  static constexpr Row kTable[] = {
      {6.314, 12.706, 63.657}, {2.920, 4.303, 9.925},  {2.353, 3.182, 5.841},
      {2.132, 2.776, 4.604},   {2.015, 2.571, 4.032},  {1.943, 2.447, 3.707},
      {1.895, 2.365, 3.499},   {1.860, 2.306, 3.355},  {1.833, 2.262, 3.250},
      {1.812, 2.228, 3.169},   {1.796, 2.201, 3.106},  {1.782, 2.179, 3.055},
      {1.771, 2.160, 3.012},   {1.761, 2.145, 2.977},  {1.753, 2.131, 2.947},
      {1.746, 2.120, 2.921},   {1.740, 2.110, 2.898},  {1.734, 2.101, 2.878},
      {1.729, 2.093, 2.861},   {1.725, 2.086, 2.845},  {1.721, 2.080, 2.831},
      {1.717, 2.074, 2.819},   {1.714, 2.069, 2.807},  {1.711, 2.064, 2.797},
      {1.708, 2.060, 2.787},   {1.706, 2.056, 2.779},  {1.703, 2.052, 2.771},
      {1.701, 2.048, 2.763},   {1.699, 2.045, 2.756},  {1.697, 2.042, 2.750}};
  auto pick = [&](const Row& row) -> double {
    if (std::abs(confidence - 0.90) < 1e-9) return row.t90;
    if (std::abs(confidence - 0.95) < 1e-9) return row.t95;
    if (std::abs(confidence - 0.99) < 1e-9) return row.t99;
    return -1.0;
  };
  if (dof <= 30) {
    const Row& row = kTable[dof - 1];
    const double t = pick(row);
    if (t > 0.0) return t;
    // Non-tabulated confidence at small dof. A dof-independent normal
    // fallback here would badly understate heavy small-dof tails (t(2) at
    // 92% is ~3.5, the normal value ~1.75), so anchor to the tabulated
    // columns of this dof's row instead: interpolate between neighbouring
    // columns inside the table's range, scale by the normal quantile ratio
    // outside it. Continuous at the column boundaries, monotone in both
    // dof and confidence.
    if (confidence <= 0.90) {
      return row.t90 * normal_quantile(1.0 - (1.0 - confidence) / 2.0) /
             normal_quantile(0.95);
    }
    if (confidence <= 0.95) {
      const double frac = (confidence - 0.90) / 0.05;
      return row.t90 + frac * (row.t95 - row.t90);
    }
    if (confidence <= 0.99) {
      const double frac = (confidence - 0.95) / 0.04;
      return row.t95 + frac * (row.t99 - row.t95);
    }
    return row.t99 * normal_quantile(1.0 - (1.0 - confidence) / 2.0) /
           normal_quantile(0.995);
  }
  static constexpr Row kInf = {1.645, 1.960, 2.576};
  const double t = pick(kInf);
  if (t > 0.0) return t;
  // Large dof: the normal approximation is accurate.
  return normal_quantile(1.0 - (1.0 - confidence) / 2.0);
}

}  // namespace spectra::util
