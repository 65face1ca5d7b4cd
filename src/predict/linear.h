// Recency-weighted linear regression (§3.4).
//
// The default numeric predictor: fits y = β₀ + Σ βᵢ·xᵢ over the continuous
// features, giving recent samples greater weight via exponential decay of
// the sufficient statistics. With no continuous features (or insufficient
// data to identify the slopes) it degrades to a recency-weighted mean,
// which is exactly the paper's behaviour for parameter-free operations.
#pragma once

#include <vector>

#include "predict/features.h"
#include "util/interner.h"

namespace spectra::predict {

class RecencyLinear {
 public:
  // `decay` is the per-sample weight multiplier applied to history.
  explicit RecencyLinear(double decay = 0.95);

  void add(const FeatureMap& continuous, double y);

  // Prediction for the given continuous features; falls back to the
  // weighted mean when the regression is not identifiable. Clamped to >= 0
  // (resource demands are non-negative). Allocates nothing once the
  // coefficients are solved.
  double predict(const FeatureMap& continuous) const;

  double total_weight() const { return weight_; }
  bool empty() const { return weight_ <= 0.0; }

  // True when enough samples exist to identify the regression slopes (or
  // the model has no continuous features, so the mean is the full answer).
  bool identifiable() const {
    return !empty() && samples_ >= names_.size() + 2;
  }

 private:
  void to_x(const FeatureMap& continuous, std::vector<double>& x) const;
  // Eliminates on one flat per-thread buffer, never on model-owned scratch:
  // every World clone copies the models, so scratch kept here would be
  // paid for by every parked session.
  bool solve(std::vector<double>& beta) const;
  // solve() is a pure function of the sufficient statistics, which change
  // only in add() — memoize the solved coefficients across the many
  // predictions between samples (the decision hot path re-predicts demand
  // per candidate).
  bool solved_beta(const std::vector<double>** beta) const;

  double decay_;
  std::vector<util::Symbol> names_;  // fixed at first sample, name order
  // Sufficient statistics over x = [1, features...]:
  std::vector<std::vector<double>> xtx_;  // Σ w·x·xᵀ
  std::vector<double> xty_;               // Σ w·x·y
  double weight_ = 0.0;
  std::size_t samples_ = 0;
  double mean_num_ = 0.0;  // Σ w·y, for the fallback mean

  enum class SolveCache { kStale, kSolved, kFailed };
  mutable SolveCache solve_cache_ = SolveCache::kStale;
  mutable std::vector<double> beta_;
};

}  // namespace spectra::predict
