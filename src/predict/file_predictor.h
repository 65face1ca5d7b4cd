// File-access predictor (§3.5).
//
// Builds on the numeric predictor: for every file an operation has ever
// touched, a recency-weighted estimate of *access likelihood* is maintained
// by feeding 1 when the file was accessed by an execution and 0 when it was
// not. Likelihoods are kept per discrete bin (plan × fidelity — the full
// vocabulary's language model is only touched by full-fidelity speech
// recognition) with a generic fallback, and per data object with an LRU
// (the 123-page document never touches the 14-page document's figure
// files, which is what lets Spectra skip reintegration in the paper's
// reintegrate scenario).
//
// Spectra uses the resulting ⟨file, size, likelihood⟩ list to estimate
// cache-miss cost (expected bytes to fetch / fetch rate) and to decide
// which dirty volumes must be reintegrated before remote execution.
//
// Paths are interned symbols and each bin's file table is a flat vector
// kept in path order, so training updates are a single sorted merge and
// render order (which feeds floating-point sums downstream) is the same
// path-lexicographic order as the std::map representation it replaced.
#pragma once

#include <string>
#include <vector>

#include "fs/coda.h"
#include "predict/features.h"
#include "predict/lru.h"
#include "util/interner.h"
#include "util/stats.h"
#include "util/units.h"

namespace spectra::predict {

struct FilePrediction {
  util::Symbol path;
  util::Bytes size = 0.0;
  double likelihood = 0.0;
};

struct FilePredictorConfig {
  double decay = 0.9;
  double min_bin_updates = 2.0;
  std::size_t data_lru_capacity = 8;
  // Predictions below this likelihood are dropped from the output.
  double min_likelihood = 0.01;
};

class FileAccessPredictor {
 public:
  explicit FileAccessPredictor(FilePredictorConfig config = {});

  // Record the files one execution accessed, `local` then `remote`; a path
  // accessed more than once counts once, at its first access's size.
  void add(const FeatureVector& f, const std::vector<fs::Access>& local,
           const std::vector<fs::Access>& remote = {});

  // Files the next execution with these features is likely to access,
  // written over `out` (its storage is reused).
  void predict(const FeatureVector& f, std::vector<FilePrediction>& out) const;

  // Likelihood for one specific file (0 when unknown).
  double likelihood(const FeatureVector& f, util::Symbol path) const;

 private:
  struct FileStat {
    explicit FileStat(double decay = 0.9) : likelihood(decay) {}
    util::DecayingMean likelihood;
    util::Bytes last_size = 0.0;
  };
  struct FileEntry {
    util::Symbol path;
    FileStat stat;
  };
  struct Bin {
    std::vector<FileEntry> files;  // sorted by path name
    double updates = 0.0;
  };
  struct BinSet {
    std::unordered_map<FeatureSlots, Bin, FeatureSlotsHash> bins;
    Bin generic;
  };

  void update_bin(Bin& bin,
                  const std::vector<std::pair<util::Symbol, util::Bytes>>&
                      accessed);
  const Bin* lookup(const FeatureVector& f) const;
  void render(const Bin& bin, std::vector<FilePrediction>& out) const;

  FilePredictorConfig config_;
  BinSet global_;
  LruMap<BinSet> per_data_;
};

}  // namespace spectra::predict
