// Feature description of one operation execution, used to key and fit the
// demand models (§3.4).
//
//   * discrete features — execution plan, discrete fidelities (e.g. vocabulary
//     choice). The default predictor *bins* on these: one model per observed
//     combination plus a generic combination-independent fallback.
//   * continuous features — input parameters and continuous fidelities (e.g.
//     utterance length). The default predictor fits a recency-weighted
//     linear regression over these within each bin.
//   * data tag — optional name of the data object the operation runs on
//     (e.g. the Latex document); enables data-specific models kept in an
//     LRU cache.
//
// An operation declares its feature names once, when it registers: one
// strictly ascending list per kind (a FeatureSchema). From then on a
// feature is a slot, its index in that list, and names are read again only
// at the usage log's boundary. Since slots ascend with names, slot order is
// the name order every float sum and every serialized byte follows.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/assert.h"
#include "util/interner.h"

namespace spectra::predict {

// A kind of feature has at most this many slots, one bit each of a mask.
inline constexpr std::size_t kMaxFeatureSlots = 64;

// The values of one kind of feature, by slot. The presence mask tells an
// absent feature from one set to 0; an absent slot holds exactly 0.0, so
// equal (mask, values) pairs are equal features.
class FeatureSlots {
 public:
  // Every one of `slots` slots absent. Keeps the storage, so a vector
  // refilled per candidate allocates nothing once it has held its schema.
  void reset(std::size_t slots) {
    present_ = 0;
    values_.assign(slots, 0.0);
  }
  void set(std::size_t slot, double value) {
    present_ |= std::uint64_t{1} << slot;
    values_[slot] = value;
  }

  bool has(std::size_t slot) const { return ((present_ >> slot) & 1u) != 0; }
  // The slot's value; 0.0 when absent.
  double operator[](std::size_t slot) const { return values_[slot]; }
  std::uint64_t present() const { return present_; }
  bool empty() const { return present_ == 0; }

  friend bool operator==(const FeatureSlots&, const FeatureSlots&) = default;

  // Content hash over the mask and the values' bits (the bin key).
  std::size_t hash() const;

 private:
  std::uint64_t present_ = 0;
  std::vector<double> values_;
};

struct FeatureSlotsHash {
  std::size_t operator()(const FeatureSlots& s) const { return s.hash(); }
};

struct FeatureVector {
  FeatureSlots discrete;
  FeatureSlots continuous;
  util::Symbol data_tag;

  friend bool operator==(const FeatureVector&,
                         const FeatureVector&) = default;

  // Combined hash of all three parts (the per-solve demand-cache key).
  std::size_t hash() const;
};

// The feature names of one operation: slot i of a kind is its list's
// entry i.
struct FeatureSchema {
  std::vector<std::string> discrete;
  std::vector<std::string> continuous;
};

// Refuses (ContractError) a name list of operation `op` that is not
// strictly ascending or holds more than kMaxFeatureSlots names.
void check_feature_names(const std::vector<std::string>& names,
                         std::string_view op);

// Features by name: (name, value) pairs in name order.
using NamedFeatures = std::vector<std::pair<std::string, double>>;

// The (name, value) pairs of `named` by slot of `names`. Refuses
// (ContractError) a name the list does not declare, as a `kind` operation
// `op` lacks.
template <typename Named = std::map<std::string, double>>
FeatureSlots to_slots(const std::vector<std::string>& names,
                      const Named& named, std::string_view op,
                      std::string_view kind) {
  FeatureSlots out;
  out.reset(names.size());
  for (const auto& [name, value] : named) {
    const auto it = std::lower_bound(names.begin(), names.end(), name);
    SPECTRA_REQUIRE(it != names.end() && *it == name,
                    std::string(op) + " declares no " + std::string(kind) +
                        " '" + name + "'");
    out.set(static_cast<std::size_t>(it - names.begin()), value);
  }
  return out;
}

// The present slots of `slots`, by their names in `names`.
NamedFeatures to_named(const std::vector<std::string>& names,
                       const FeatureSlots& slots);

}  // namespace spectra::predict
