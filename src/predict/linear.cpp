#include "predict/linear.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/assert.h"

namespace spectra::predict {

RecencyLinear::RecencyLinear(double decay, std::size_t responses)
    : decay_(decay),
      responses_(responses),
      xtx_(1, 0.0),
      xty_(responses, 0.0),
      mean_num_(responses, 0.0) {
  SPECTRA_REQUIRE(decay > 0.0 && decay <= 1.0, "decay must be in (0,1]");
  SPECTRA_REQUIRE(responses > 0, "a model needs at least one response");
}

void RecencyLinear::add(const FeatureSlots& continuous, const double* y) {
  // Samples may carry different feature subsets (a missing feature means
  // zero); grow the sufficient statistics when a new feature appears —
  // zero-padding is exact because every earlier sample had value 0 for it.
  // A sample's new slots join in ascending slot order, which is name order.
  std::uint64_t fresh = continuous.present() & ~seen_;
  if (fresh != 0) {
    const std::size_t old_d = dim();
    seen_ |= fresh;
    for (; fresh != 0; fresh &= fresh - 1) {
      cols_.push_back(static_cast<std::uint8_t>(std::countr_zero(fresh)));
    }
    const std::size_t d = dim();
    std::vector<double> xtx(d * d, 0.0);
    for (std::size_t i = 0; i < old_d; ++i) {
      std::copy_n(xtx_.begin() + i * old_d, old_d, xtx.begin() + i * d);
    }
    xtx_.swap(xtx);
    xty_.resize(d * responses_, 0.0);  // new rows last, as in x
  }
  // x = [1, features in column order]; a feature absent from this sample
  // reads 0.
  const std::size_t d = dim();
  const std::size_t k_count = responses_;
  thread_local std::vector<double> x;
  x.resize(d);
  x[0] = 1.0;
  for (std::size_t i = 0; i < cols_.size(); ++i) {
    x[i + 1] = continuous[cols_[i]];
  }
  for (std::size_t i = 0; i < d; ++i) {
    double* row = &xtx_[i * d];
    for (std::size_t j = 0; j < d; ++j) {
      row[j] = decay_ * row[j] + x[i] * x[j];
    }
    double* xty = &xty_[i * k_count];
    for (std::size_t k = 0; k < k_count; ++k) {
      xty[k] = decay_ * xty[k] + x[i] * y[k];
    }
  }
  weight_ = decay_ * weight_ + 1.0;
  ++samples_;
  for (std::size_t k = 0; k < k_count; ++k) {
    mean_num_[k] = decay_ * mean_num_[k] + y[k];
  }
  solve_cache_ = SolveCache::kStale;
}

bool RecencyLinear::solve(std::vector<double>& beta) const {
  const std::size_t d = dim();
  const std::size_t k_count = responses_;
  // Require one sample beyond exact identification before trusting slopes:
  // a line through two noisy points extrapolates wildly, and the weighted
  // mean is the better predictor until another sample arrives.
  if (samples_ < d + 1) return false;
  // Gaussian elimination with ridge regularization scaled to the trace so
  // that collinear histories (e.g. every sample at the same parameter
  // value) degrade gracefully instead of exploding: X'X plus the ridge is
  // positive definite, so a finite history has no zero pivot. `a` is a
  // copy of xtx_ in a flat buffer reused across solves on this thread. The
  // pivots and row multipliers depend on X'X alone, so each response's
  // right-hand side sees exactly the operations of a single-response solve.
  thread_local std::vector<double> flat;
  flat.assign(xtx_.begin(), xtx_.end());
  const auto a = [&](std::size_t r, std::size_t c) -> double& {
    return flat[r * d + c];
  };
  double trace = 0.0;
  for (std::size_t i = 0; i < d; ++i) trace += a(i, i);
  const double ridge = 1e-8 * std::max(trace, 1.0);
  for (std::size_t i = 0; i < d; ++i) a(i, i) += ridge;

  beta = xty_;
  const auto b = [&](std::size_t r) { return &beta[r * k_count]; };
  for (std::size_t col = 0; col < d; ++col) {
    // Partial pivoting.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < d; ++r) {
      if (std::abs(a(r, col)) > std::abs(a(pivot, col))) pivot = r;
    }
    if (pivot != col) {
      std::swap_ranges(flat.begin() + col * d, flat.begin() + (col + 1) * d,
                       flat.begin() + pivot * d);
      std::swap_ranges(b(col), b(col) + k_count, b(pivot));
    }
    for (std::size_t r = 0; r < d; ++r) {
      if (r == col) continue;
      const double f = a(r, col) / a(col, col);
      for (std::size_t c = col; c < d; ++c) a(r, c) -= f * a(col, c);
      for (std::size_t k = 0; k < k_count; ++k) b(r)[k] -= f * b(col)[k];
    }
  }
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t k = 0; k < k_count; ++k) b(i)[k] /= a(i, i);
  }
  return true;
}

bool RecencyLinear::solved_beta(const std::vector<double>** beta) const {
  if (solve_cache_ == SolveCache::kStale) {
    solve_cache_ = solve(beta_) ? SolveCache::kSolved : SolveCache::kFailed;
  }
  *beta = &beta_;
  return solve_cache_ == SolveCache::kSolved;
}

void RecencyLinear::predict(const FeatureSlots& continuous,
                            double* out) const {
  SPECTRA_REQUIRE(!empty(), "predict on an untrained model");
  const std::size_t k_count = responses_;
  const std::vector<double>* beta = nullptr;
  const bool fitted = !cols_.empty() && solved_beta(&beta);
  if (fitted) {
    // y = β₀·1 + Σ βᵢ·xᵢ over x = [1, features in column order], summed in
    // that order per response; a feature absent from `continuous`
    // contributes βᵢ·0.
    const double* b = beta->data();
    for (std::size_t k = 0; k < k_count; ++k) {
      out[k] = 0.0;
      out[k] += b[k] * 1.0;
    }
    for (std::size_t i = 0; i < cols_.size(); ++i) {
      const double xi = continuous[cols_[i]];
      const double* bi = b + (i + 1) * k_count;
      for (std::size_t k = 0; k < k_count; ++k) out[k] += bi[k] * xi;
    }
  }
  for (std::size_t k = 0; k < k_count; ++k) {
    out[k] = fitted && std::isfinite(out[k])
                 ? std::max(0.0, out[k])
                 : std::max(0.0, mean_num_[k] / weight_);
  }
}

}  // namespace spectra::predict
