// Shared helpers for the figure-reproduction benches.
#pragma once

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "scenario/batch.h"
#include "scenario/sweep.h"
#include "util/assert.h"
#include "util/stats.h"
#include "util/table.h"

namespace spectra::bench {

// Worker count for a bench target: `--jobs=N` on the command line beats the
// SPECTRA_JOBS environment variable; 0 means one worker per hardware
// thread; default 1 (sequential). Table output is bit-identical for any N —
// runs are scheduled across workers but aggregated in a fixed order. A
// refused count prints `<bench>: <reason>` and exits 2 before any work.
inline std::size_t jobs_from_args(int argc, char** argv) {
  std::optional<std::string> requested;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--jobs=", 0) == 0) requested = arg.substr(7);
  }
  try {
    return scenario::resolve_jobs(requested);
  } catch (const util::ContractError& err) {
    const std::string self = argc > 0 ? argv[0] : "bench";
    std::cerr << self.substr(self.find_last_of('/') + 1) << ": "
              << err.what() << "\n";
    std::exit(2);
  }
}

// Number of trials per data point (the paper uses 5 with 90% confidence
// intervals). Override with SPECTRA_TRIALS for quick runs.
inline int trial_count() {
  if (const char* env = std::getenv("SPECTRA_TRIALS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 5;
}

// Seeds of the figure trials: 1000, 1017, 1034, ...
inline std::vector<std::uint64_t> trial_seeds() {
  return scenario::trial_seeds(1000, static_cast<std::size_t>(trial_count()));
}

// The paper's five Pangloss test sentences (§4.3), in words: the three
// smallest should keep all engines, the two largest should drop the
// glossary.
inline const std::vector<int>& pangloss_test_sentences() {
  static const std::vector<int> kWords = {6, 10, 14, 38, 44};
  return kWords;
}

// The figure tables mark Spectra's modal choice with this.
inline constexpr const char* kFigureMarker = "<-- S (Spectra's choice)";

// One figure cell: sweep over trial_seeds(), with `configure` setting the
// cell's own fields of an otherwise default Experiment::Config.
template <typename Experiment, typename Configure>
scenario::SweepResult figure_sweep(scenario::BatchRunner& batch,
                                   Configure&& configure) {
  return scenario::sweep<Experiment>(
      batch, nullptr, trial_seeds(),
      [&configure](std::uint64_t seed, obs::Observability* trial_obs) {
        typename Experiment::Config cfg;
        configure(cfg);
        cfg.seed = seed;
        cfg.obs = trial_obs;
        return cfg;
      });
}

}  // namespace spectra::bench
