#include "predict/features.h"

#include <algorithm>
#include <bit>
#include <functional>

#include "util/assert.h"
#include "util/fnv.h"

namespace spectra::predict {

std::size_t FeatureSlots::hash() const {
  // FNV-style over the mask and the value bits, one multiply per word.
  std::uint64_t h = (util::kFingerprintSeed ^ present_) * util::kFnvPrime;
  for (const double v : values_) {
    h = (h ^ std::bit_cast<std::uint64_t>(v)) * util::kFnvPrime;
  }
  return static_cast<std::size_t>(h);
}

std::size_t FeatureVector::hash() const {
  std::uint64_t h = discrete.hash();
  h = (h ^ continuous.hash()) * util::kFnvPrime;
  h = (h ^ data_tag.id()) * util::kFnvPrime;
  return static_cast<std::size_t>(h);
}

void check_feature_names(const std::vector<std::string>& names,
                         std::string_view op) {
  SPECTRA_REQUIRE(names.size() <= kMaxFeatureSlots &&
                      std::adjacent_find(names.begin(), names.end(),
                                         std::greater_equal<>()) ==
                          names.end(),
                  std::string(op) + " declares a name list that is not " +
                      "strictly ascending or holds more than " +
                      std::to_string(kMaxFeatureSlots) + " names");
}

NamedFeatures to_named(const std::vector<std::string>& names,
                       const FeatureSlots& slots) {
  NamedFeatures out;
  out.reserve(static_cast<std::size_t>(std::popcount(slots.present())));
  for (std::size_t slot = 0; slot < names.size(); ++slot) {
    if (slots.has(slot)) out.emplace_back(names[slot], slots[slot]);
  }
  return out;
}

}  // namespace spectra::predict
