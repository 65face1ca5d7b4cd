#include "predict/linear.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace spectra::predict {

RecencyLinear::RecencyLinear(double decay) : decay_(decay) {
  SPECTRA_REQUIRE(decay > 0.0 && decay <= 1.0, "decay must be in (0,1]");
}

void RecencyLinear::to_x(const FeatureMap& continuous,
                         std::vector<double>& x) const {
  x.assign(names_.size() + 1, 0.0);
  x[0] = 1.0;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    // A missing feature contributes zero; this lets callers predict with a
    // subset of the features seen in training.
    const double* v = continuous.find(names_[i]);
    x[i + 1] = v != nullptr ? *v : 0.0;
  }
}

void RecencyLinear::add(const FeatureMap& continuous, double y) {
  if (xtx_.empty()) {
    xtx_.assign(1, std::vector<double>(1, 0.0));
    xty_.assign(1, 0.0);
  }
  // Samples may carry different feature subsets (a missing feature means
  // zero); grow the sufficient statistics when a new feature appears —
  // zero-padding is exact because every earlier sample had value 0 for it.
  // Iteration is in name order, so names_ keeps the same first-seen order
  // as with the old std::map representation.
  for (const auto& e : continuous) {
    if (std::find(names_.begin(), names_.end(), e.name) == names_.end()) {
      names_.push_back(e.name);
      for (auto& row : xtx_) row.push_back(0.0);
      xtx_.push_back(std::vector<double>(names_.size() + 1, 0.0));
      xty_.push_back(0.0);
    }
  }
  std::vector<double> x;
  to_x(continuous, x);
  const std::size_t d = x.size();
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      xtx_[i][j] = decay_ * xtx_[i][j] + x[i] * x[j];
    }
    xty_[i] = decay_ * xty_[i] + x[i] * y;
  }
  weight_ = decay_ * weight_ + 1.0;
  ++samples_;
  mean_num_ = decay_ * mean_num_ + y;
  solve_cache_ = SolveCache::kStale;
}

bool RecencyLinear::solve(std::vector<double>& beta) const {
  const std::size_t d = names_.size() + 1;
  // Require one sample beyond exact identification before trusting slopes:
  // a line through two noisy points extrapolates wildly, and the weighted
  // mean is the better predictor until another sample arrives.
  if (samples_ < d + 1) return false;
  // Gaussian elimination with ridge regularization scaled to the trace so
  // that collinear histories (e.g. every sample at the same parameter
  // value) degrade gracefully instead of exploding. `a` is xtx_ copied
  // row-major into a flat buffer reused across solves on this thread.
  thread_local std::vector<double> flat;
  flat.resize(d * d);
  for (std::size_t i = 0; i < d; ++i) {
    std::copy(xtx_[i].begin(), xtx_[i].end(), flat.begin() + i * d);
  }
  const auto a = [&](std::size_t r, std::size_t c) -> double& {
    return flat[r * d + c];
  };
  double trace = 0.0;
  for (std::size_t i = 0; i < d; ++i) trace += a(i, i);
  const double ridge = 1e-8 * std::max(trace, 1.0);
  for (std::size_t i = 0; i < d; ++i) a(i, i) += ridge;

  beta = xty_;
  for (std::size_t col = 0; col < d; ++col) {
    // Partial pivoting.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < d; ++r) {
      if (std::abs(a(r, col)) > std::abs(a(pivot, col))) pivot = r;
    }
    if (std::abs(a(pivot, col)) < 1e-12) return false;
    if (pivot != col) {
      std::swap_ranges(flat.begin() + col * d, flat.begin() + (col + 1) * d,
                       flat.begin() + pivot * d);
    }
    std::swap(beta[col], beta[pivot]);
    for (std::size_t r = 0; r < d; ++r) {
      if (r == col) continue;
      const double f = a(r, col) / a(col, col);
      for (std::size_t c = col; c < d; ++c) a(r, c) -= f * a(col, c);
      beta[r] -= f * beta[col];
    }
  }
  for (std::size_t i = 0; i < d; ++i) beta[i] /= a(i, i);
  return true;
}

bool RecencyLinear::solved_beta(const std::vector<double>** beta) const {
  if (solve_cache_ == SolveCache::kStale) {
    solve_cache_ = solve(beta_) ? SolveCache::kSolved : SolveCache::kFailed;
  }
  *beta = &beta_;
  return solve_cache_ == SolveCache::kSolved;
}

double RecencyLinear::predict(const FeatureMap& continuous) const {
  SPECTRA_REQUIRE(!empty(), "predict on an untrained model");
  const std::vector<double>* beta = nullptr;
  if (!names_.empty() && solved_beta(&beta)) {
    // y = β₀·1 + Σ βᵢ·xᵢ over x = [1, features in names_ order], summed in
    // that order; a feature absent from `continuous` contributes βᵢ·0.
    double y = 0.0;
    y += (*beta)[0] * 1.0;
    for (std::size_t i = 0; i < names_.size(); ++i) {
      const double* v = continuous.find(names_[i]);
      y += (*beta)[i + 1] * (v != nullptr ? *v : 0.0);
    }
    if (std::isfinite(y)) return std::max(0.0, y);
  }
  return std::max(0.0, mean_num_ / weight_);
}

}  // namespace spectra::predict
