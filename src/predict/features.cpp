#include "predict/features.h"

#include <cstring>
#include <sstream>

#include "util/assert.h"

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
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a over ids and bits
    for (const auto& e : entries_) {
      h = (h ^ e.name.id()) * 1099511628211ull;
      std::uint64_t bits;
      static_assert(sizeof(bits) == sizeof(e.value));
      std::memcpy(&bits, &e.value, sizeof(bits));
      h = (h ^ bits) * 1099511628211ull;
    }
    hash_ = static_cast<std::size_t>(h);
    hash_valid_ = true;
  }
  return hash_;
}

std::string FeatureVector::bin_key() const {
  std::ostringstream os;
  bool first = true;
  for (const auto& e : discrete) {  // name order: deterministic
    if (!first) os << ';';
    os << e.name << '=' << e.value;
    first = false;
  }
  return os.str();
}

std::size_t FeatureVector::hash() const {
  std::uint64_t h = discrete.hash();
  h = (h ^ continuous.hash()) * 1099511628211ull;
  h = (h ^ data_tag.id()) * 1099511628211ull;
  return static_cast<std::size_t>(h);
}

}  // namespace spectra::predict
