#include "predict/numeric.h"

#include "util/assert.h"

namespace spectra::predict {

NumericPredictor::NumericPredictor(NumericPredictorConfig config,
                                   std::size_t responses)
    : config_(config),
      global_(config.decay, config.min_bin_weight, responses),
      per_data_(config.data_lru_capacity) {}

void NumericPredictor::ModelSet::add(const FeatureVector& f,
                                     const double* y) {
  if (!f.discrete.empty()) {
    bins.try_emplace(f.discrete, decay, generic.responses())
        .first->second.add(f.continuous, y);
  }
  generic.add(f.continuous, y);
}

const RecencyLinear* NumericPredictor::ModelSet::lookup(
    const FeatureVector& f) const {
  if (!f.discrete.empty()) {
    auto it = bins.find(f.discrete);
    if (it != bins.end() && it->second.total_weight() >= min_weight) {
      // Use the bin unless its regression is under-identified while the
      // generic model's is not — a generic model whose slopes are fitted
      // beats a bin that can only answer with its mean.
      if (it->second.identifiable() || !generic.identifiable()) {
        return &it->second;
      }
    }
  }
  if (!generic.empty() && generic.total_weight() >= min_weight) {
    return &generic;
  }
  return nullptr;
}

void NumericPredictor::add(const FeatureVector& f, const double* y) {
  global_.add(f, y);
  if (!f.data_tag.empty()) {
    ModelSet& set = per_data_.get_or_create(f.data_tag, [this] {
      return ModelSet(config_.decay, config_.min_bin_weight, responses());
    });
    set.add(f, y);
  }
}

void NumericPredictor::predict(const FeatureVector& f, double* out) const {
  SPECTRA_REQUIRE(trained(), "predict on an untrained model");
  const RecencyLinear* m = nullptr;
  if (!f.data_tag.empty()) {
    if (const ModelSet* set = per_data_.find(f.data_tag)) {
      m = set->lookup(f);
    }
  }
  if (m == nullptr) m = global_.lookup(f);
  // Sparse history: fall back to whatever the generic model has.
  if (m == nullptr) m = &global_.generic;
  m->predict(f.continuous, out);
}

bool NumericPredictor::has_bin(const FeatureVector& f) const {
  auto it = global_.bins.find(f.discrete);
  return it != global_.bins.end() &&
         it->second.total_weight() >= config_.min_bin_weight;
}

}  // namespace spectra::predict
