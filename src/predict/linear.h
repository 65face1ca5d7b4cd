// Recency-weighted linear regression (§3.4).
//
// The default numeric predictor: fits y = β₀ + Σ βᵢ·xᵢ over the continuous
// features, giving recent samples greater weight via exponential decay of
// the sufficient statistics. With no continuous features (or insufficient
// data to identify the slopes) it degrades to a recency-weighted mean,
// which is exactly the paper's behaviour for parameter-free operations.
//
// One model may fit K responses that always arrive together on the same
// features (an operation's local and remote cycles, say). They share X'X,
// the sample weights and the elimination; each keeps its own X'y and
// fallback mean, and is solved and summed in the same order as a model of
// its own, so its predictions are bit-equal to that model's.
#pragma once

#include <cstdint>
#include <vector>

#include "predict/features.h"

namespace spectra::predict {

class RecencyLinear {
 public:
  // `decay` is the per-sample weight multiplier applied to history;
  // `responses` the number of values each sample carries.
  explicit RecencyLinear(double decay = 0.95, std::size_t responses = 1);

  // One sample: `y` holds responses() values.
  void add(const FeatureSlots& continuous, const double* y);

  // Prediction for the given continuous features, one value per response
  // written to `out`; a response falls back to its weighted mean when the
  // regression is not identifiable. Clamped to >= 0 (resource demands are
  // non-negative). Allocates nothing once the coefficients are solved.
  void predict(const FeatureSlots& continuous, double* out) const;

  std::size_t responses() const { return responses_; }
  double total_weight() const { return weight_; }
  bool empty() const { return weight_ <= 0.0; }

  // True when enough samples exist to identify the regression slopes (or
  // the model has no continuous features, so the mean is the full answer).
  bool identifiable() const {
    return !empty() && samples_ >= cols_.size() + 2;
  }

 private:
  std::size_t dim() const { return cols_.size() + 1; }
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
  std::size_t responses_;
  // The slot of each column, in the order the features first appeared (a
  // sample's new ones in slot order), and the mask of those slots.
  std::vector<std::uint8_t> cols_;
  std::uint64_t seen_ = 0;
  // Sufficient statistics over x = [1, features...], d = dim():
  std::vector<double> xtx_;  // Σ w·x·xᵀ, d×d row-major
  std::vector<double> xty_;  // Σ w·x·y, d×K row-major (K responses)
  double weight_ = 0.0;
  std::size_t samples_ = 0;
  std::vector<double> mean_num_;  // Σ w·y per response, for the fallback mean

  enum class SolveCache { kStale, kSolved, kFailed };
  mutable SolveCache solve_cache_ = SolveCache::kStale;
  mutable std::vector<double> beta_;  // d×K, laid out like xty_
};

}  // namespace spectra::predict
