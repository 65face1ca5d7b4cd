#include "predict/file_predictor.h"

#include <algorithm>

namespace spectra::predict {

FileAccessPredictor::FileAccessPredictor(FilePredictorConfig config)
    : config_(config), per_data_(config.data_lru_capacity) {}

void FileAccessPredictor::update_bin(
    Bin& bin,
    const std::vector<std::pair<util::Symbol, util::Bytes>>& accessed) {
  // Every file the bin knows about gets a 1/0 sample; files seen for the
  // first time join the universe with their first sample. Both sides are
  // sorted by path name, so this is one merge pass.
  std::vector<FileEntry> merged;
  merged.reserve(bin.files.size() + accessed.size());
  std::size_t i = 0, j = 0;
  while (i < bin.files.size() || j < accessed.size()) {
    if (j >= accessed.size() ||
        (i < bin.files.size() &&
         bin.files[i].path.view() < accessed[j].first.view())) {
      bin.files[i].stat.likelihood.add(0.0);
      merged.push_back(std::move(bin.files[i]));
      ++i;
    } else if (i >= bin.files.size() ||
               accessed[j].first.view() < bin.files[i].path.view()) {
      FileEntry e{accessed[j].first, FileStat(config_.decay)};
      e.stat.likelihood.add(1.0);
      e.stat.last_size = accessed[j].second;
      merged.push_back(std::move(e));
      ++j;
    } else {
      bin.files[i].stat.likelihood.add(1.0);
      bin.files[i].stat.last_size = accessed[j].second;
      merged.push_back(std::move(bin.files[i]));
      ++i;
      ++j;
    }
  }
  bin.files = std::move(merged);
  bin.updates += 1.0;
}

void FileAccessPredictor::add(const FeatureVector& f,
                              const std::vector<fs::Access>& local,
                              const std::vector<fs::Access>& remote) {
  // Sorted by path name (the merge order), first access of each path kept.
  std::vector<std::pair<util::Symbol, util::Bytes>> accessed;
  accessed.reserve(local.size() + remote.size());
  for (const auto* list : {&local, &remote}) {
    for (const auto& a : *list) {
      accessed.emplace_back(util::Symbol(a.path), a.size);
    }
  }
  std::stable_sort(accessed.begin(), accessed.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.view() < b.first.view();
                   });
  accessed.erase(std::unique(accessed.begin(), accessed.end(),
                             [](const auto& a, const auto& b) {
                               return a.first == b.first;
                             }),
                 accessed.end());
  auto touch = [&](BinSet& set) {
    update_bin(set.bins[f.discrete], accessed);
    update_bin(set.generic, accessed);
  };
  touch(global_);
  if (!f.data_tag.empty()) {
    touch(per_data_.get_or_create(f.data_tag, [] { return BinSet{}; }));
  }
}

const FileAccessPredictor::Bin* FileAccessPredictor::lookup(
    const FeatureVector& f) const {
  auto pick = [&](const BinSet& set) -> const Bin* {
    auto it = set.bins.find(f.discrete);
    if (it != set.bins.end() && it->second.updates >= config_.min_bin_updates) {
      return &it->second;
    }
    if (set.generic.updates > 0.0) return &set.generic;
    return nullptr;
  };
  if (!f.data_tag.empty()) {
    if (const BinSet* set = per_data_.find(f.data_tag)) {
      if (const Bin* bin = pick(*set)) return bin;
    }
  }
  return pick(global_);
}

void FileAccessPredictor::render(const Bin& bin,
                                 std::vector<FilePrediction>& out) const {
  out.reserve(bin.files.size());
  for (const auto& e : bin.files) {  // path order: deterministic
    const double p = e.stat.likelihood.empty() ? 0.0 : e.stat.likelihood.value();
    if (p < config_.min_likelihood) continue;
    out.push_back(FilePrediction{e.path, e.stat.last_size, p});
  }
}

void FileAccessPredictor::predict(const FeatureVector& f,
                                  std::vector<FilePrediction>& out) const {
  out.clear();
  if (const Bin* bin = lookup(f)) render(*bin, out);
}

double FileAccessPredictor::likelihood(const FeatureVector& f,
                                       util::Symbol path) const {
  const Bin* bin = lookup(f);
  if (bin == nullptr) return 0.0;
  for (const auto& e : bin->files) {
    if (e.path == path) {
      return e.stat.likelihood.empty() ? 0.0 : e.stat.likelihood.value();
    }
  }
  return 0.0;
}

}  // namespace spectra::predict
