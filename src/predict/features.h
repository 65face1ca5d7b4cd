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
// Feature maps are flat vectors of (interned name, value) pairs kept in
// name order — iteration order is byte-identical to the std::map
// representation they replaced, while lookups compare integer ids and the
// map's hash is memoized so predictor bins key on integers, not strings.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/interner.h"

namespace spectra::predict {

// Flat name-sorted feature map. Small (a handful of entries), so id
// lookups scan linearly. An insert of a name that sorts after every entry
// appends after one compare; any other name binary-searches the views.
class FeatureMap {
 public:
  struct Entry {
    util::Symbol name;
    double value = 0.0;
  };

  FeatureMap() = default;
  FeatureMap(std::initializer_list<std::pair<std::string_view, double>> init) {
    for (const auto& [name, value] : init) (*this)[util::Symbol(name)] = value;
  }
  // Interns every name of `m` (once, so later copies compare ids only).
  explicit FeatureMap(const std::map<std::string, double>& m) { *this = m; }
  FeatureMap& operator=(const std::map<std::string, double>& m) {
    entries_.clear();
    entries_.reserve(m.size());
    for (const auto& [name, value] : m) {  // already name-sorted
      entries_.push_back({util::Symbol(name), value});
    }
    hash_valid_ = false;
    return *this;
  }

  // Insert-or-find, keeping name order. Invalidates the memoized hash —
  // callers write through the returned reference immediately. A hook that
  // emits its features in name order never searches.
  double& operator[](util::Symbol name) {
    hash_valid_ = false;
    if (entries_.empty() || entries_.back().name.view() < name.view()) {
      return entries_.emplace_back(Entry{name, 0.0}).value;
    }
    return find_or_insert(name);
  }

  // Lookup by id; null when absent.
  const double* find(util::Symbol name) const {
    for (const auto& e : entries_) {
      if (e.name == name) return &e.value;
    }
    return nullptr;
  }
  double at(util::Symbol name) const;
  std::size_t count(util::Symbol name) const {
    return find(name) != nullptr ? 1u : 0u;
  }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  // Drop every entry but keep the storage, so a map refilled per candidate
  // allocates nothing once it has held its largest feature set.
  void clear() {
    entries_.clear();
    hash_valid_ = false;
  }
  // Iteration is in name order (run-stable); ids must never drive order.
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

  // Structural equality: same names (ids) and values in the same order.
  friend bool operator==(const FeatureMap& a, const FeatureMap& b) {
    if (a.entries_.size() != b.entries_.size()) return false;
    for (std::size_t i = 0; i < a.entries_.size(); ++i) {
      if (a.entries_[i].name != b.entries_[i].name ||
          a.entries_[i].value != b.entries_[i].value) {
        return false;
      }
    }
    return true;
  }
  friend bool operator!=(const FeatureMap& a, const FeatureMap& b) {
    return !(a == b);
  }

  // Memoized content hash over (id, value) pairs — the integer bin key.
  // Not stable across runs (ids are first-use-ordered); in-memory only.
  std::size_t hash() const;

 private:
  double& find_or_insert(util::Symbol name);

  std::vector<Entry> entries_;
  mutable std::size_t hash_ = 0;
  mutable bool hash_valid_ = false;
};

struct FeatureMapHash {
  std::size_t operator()(const FeatureMap& m) const { return m.hash(); }
};

struct FeatureVector {
  FeatureMap discrete;
  FeatureMap continuous;
  util::Symbol data_tag;

  friend bool operator==(const FeatureVector& a, const FeatureVector& b) {
    return a.data_tag == b.data_tag && a.discrete == b.discrete &&
           a.continuous == b.continuous;
  }

  // Combined hash of all three parts (the per-solve demand-cache key).
  std::size_t hash() const;
};

struct FeatureVectorHash {
  std::size_t operator()(const FeatureVector& f) const { return f.hash(); }
};

}  // namespace spectra::predict
