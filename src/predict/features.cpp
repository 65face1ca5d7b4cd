#include "predict/features.h"

#include <cstring>

#include "util/assert.h"
#include "util/fnv.h"

namespace spectra::predict {

double& FeatureMap::find_or_insert(util::Symbol name) {
  // Binary search by name view: entries stay in name order so iteration
  // (and everything serialized from it) matches the old std::map bytes.
  std::size_t lo = 0, hi = entries_.size();
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (entries_[mid].name == name) return entries_[mid].value;
    if (entries_[mid].name.view() < name.view()) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return entries_.insert(entries_.begin() + lo, {name, 0.0})->value;
}

double FeatureMap::at(util::Symbol name) const {
  const double* v = find(name);
  SPECTRA_REQUIRE(v != nullptr,
                  "feature absent: " + std::string(name.view()));
  return *v;
}

std::size_t FeatureMap::hash() const {
  if (!hash_valid_) {
    // FNV-style over ids and bits, one multiply per 64-bit word.
    std::uint64_t h = util::kFingerprintSeed;
    for (const auto& e : entries_) {
      h = (h ^ e.name.id()) * util::kFnvPrime;
      std::uint64_t bits;
      static_assert(sizeof(bits) == sizeof(e.value));
      std::memcpy(&bits, &e.value, sizeof(bits));
      h = (h ^ bits) * util::kFnvPrime;
    }
    hash_ = static_cast<std::size_t>(h);
    hash_valid_ = true;
  }
  return hash_;
}

std::size_t FeatureVector::hash() const {
  std::uint64_t h = discrete.hash();
  h = (h ^ continuous.hash()) * util::kFnvPrime;
  h = (h ^ data_tag.id()) * util::kFnvPrime;
  return static_cast<std::size_t>(h);
}

}  // namespace spectra::predict
