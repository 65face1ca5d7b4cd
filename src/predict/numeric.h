// The paper's default numeric demand predictor (§3.4):
//
//   * binning over discrete features — one recency-weighted linear model per
//     observed discrete combination (plan × discrete fidelities), plus a
//     generic combination-independent model used until a specific bin has
//     accumulated enough history;
//   * linear regression over continuous features within each bin;
//   * data-specific models — an LRU cache of per-data-object model sets
//     (e.g. per Latex document), consulted before the data-independent set.
//
// A predictor may carry K responses that always arrive together (one
// sample stream): every bin, LRU entry and elimination is then shared, and
// each response's predictions are bit-equal to those of a predictor of its
// own fed the same stream.
#pragma once

#include <memory>
#include <unordered_map>

#include "predict/features.h"
#include "predict/linear.h"
#include "predict/lru.h"

namespace spectra::predict {

struct NumericPredictorConfig {
  double decay = 0.95;
  // A discrete bin (or data-specific model set) is trusted once its
  // accumulated sample weight reaches this threshold (two samples at the
  // default decay accumulate ~1.95).
  double min_bin_weight = 1.5;
  std::size_t data_lru_capacity = 8;
};

class NumericPredictor {
 public:
  explicit NumericPredictor(NumericPredictorConfig config = {},
                            std::size_t responses = 1);

  // One sample: `y` holds responses() values.
  void add(const FeatureVector& f, const double* y);

  // Predict demand for the given features, one value per response written
  // to `out`. Resolution order: data-specific bin -> data-specific generic
  // -> global bin -> global generic.
  void predict(const FeatureVector& f, double* out) const;

  std::size_t responses() const { return global_.generic.responses(); }

  // True once any model has at least one sample.
  bool trained() const { return global_.generic_weight() > 0.0; }

  // True when a trusted model exists for this exact discrete combination
  // (used by tests to verify binning behaviour).
  bool has_bin(const FeatureVector& f) const;

 private:
  struct ModelSet {
    ModelSet(double decay_in, double min_weight_in, std::size_t responses)
        : decay(decay_in),
          min_weight(min_weight_in),
          generic(decay_in, responses) {}

    void add(const FeatureVector& f, const double* y);
    // nullopt when this set cannot answer confidently.
    const RecencyLinear* lookup(const FeatureVector& f) const;
    double generic_weight() const {
      return generic.empty() ? 0.0 : generic.total_weight();
    }

    double decay;
    double min_weight;
    // Keyed by the discrete feature combination itself, mask and values.
    std::unordered_map<FeatureSlots, RecencyLinear, FeatureSlotsHash> bins;
    RecencyLinear generic;
  };

  NumericPredictorConfig config_;
  ModelSet global_;
  LruMap<ModelSet> per_data_;
};

}  // namespace spectra::predict
