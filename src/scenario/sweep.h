// The alternative sweep: the paper's measurement method (§4) as one driver,
// with the reductions and renderers every figure and CLI run table uses.
//
// For each trial seed, build one experiment, measure every alternative from
// its identical trained state, then let Spectra choose. Trials fan out
// across the batch runner, and each trial fans its alternatives out in turn
// (nested map_runs). Observability shards merge in index order — within a
// trial the alternatives, then the Spectra run; then trials — and
// reductions walk trials in order, so output is identical for any --jobs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "scenario/batch.h"
#include "scenario/experiment.h"
#include "util/stats.h"

namespace spectra::scenario {

// Seeds of `trials` trials starting at `base`: base, base+17, base+34, ...
std::vector<std::uint64_t> trial_seeds(std::uint64_t base,
                                       std::size_t trials);

struct SweepTrial {
  std::vector<MeasuredRun> runs;  // one per alternative, in order
  MeasuredRun spectra;            // Spectra's choice, overhead included
  std::string spectra_label;      // Experiment::label of that choice
};

struct SweepResult {
  std::vector<solver::Alternative> alternatives;  // Experiment::alternatives()
  std::vector<std::string> labels;                // one per alternative
  std::vector<SweepTrial> trials;                 // in seed order
};

// Builds one trial's experiment configuration. `trial_obs` is the trial's
// observability shard (null without a session); the factory stores it in
// Config::obs.
template <typename Experiment>
using ConfigFactory = std::function<typename Experiment::Config(
    std::uint64_t seed, obs::Observability* trial_obs)>;

template <typename Experiment>
SweepResult sweep(BatchRunner& batch, obs::Observability* session,
                  const std::vector<std::uint64_t>& seeds,
                  const ConfigFactory<Experiment>& make_config) {
  SweepResult result;
  result.alternatives = Experiment::alternatives();
  for (const auto& alt : result.alternatives) {
    result.labels.push_back(Experiment::label(alt));
  }
  const auto& alts = result.alternatives;
  result.trials = batch.map_runs(
      session, seeds.size(),
      [&](std::size_t t, obs::Observability* trial_obs) {
        const Experiment experiment(make_config(seeds[t], trial_obs));
        SweepTrial trial;
        trial.runs = batch.map_runs(
            trial_obs, alts.size(),
            [&](std::size_t a, obs::Observability* run_obs) {
              return experiment.measure(alts[a], run_obs);
            });
        trial.spectra = experiment.run_spectra(trial_obs);
        trial.spectra_label =
            Experiment::label(trial.spectra.choice.alternative);
        return trial;
      });
  return result;
}

// ------------------------------------------------------------- reductions

// One table cell: mean ± 90% confidence interval over trials. A cell with
// an infeasible run, or with no runs, reads "unavailable".
struct Aggregate {
  util::OnlineStats stats;
  bool any_infeasible = false;

  bool available() const { return !any_infeasible && stats.count() > 0; }
  std::string cell(int precision = 2) const;
};

using Metric = double (*)(const MeasuredRun&);
double run_time(const MeasuredRun& run);
double run_energy(const MeasuredRun& run);

// The label Spectra chose most often: the first with the highest count in
// lexicographic label order ("" with no trials).
std::string modal_choice(const SweepResult& result);

// Pangloss scores per trial (Figs 8 and 9). Each alternative's achieved
// utility is priced as listed; Spectra's as it chose.
struct PanglossScores {
  // Percentile of Spectra's choice among all alternatives ranked by
  // achieved utility (99 = the best choice).
  Aggregate percentile;
  // Spectra's achieved utility / the best alternative's (zero-overhead
  // oracle).
  Aggregate relative_utility;
};
PanglossScores pangloss_scores(const SweepResult& result);

// -------------------------------------------------------------- renderers

struct TableColumn {
  std::string header;
  Metric metric;
};

// One row per alternative with a cell per column, `marker` on the modal
// Spectra choice, then Spectra's own row. An unavailable alternative reads
// "unavailable" in the first column and "-" in the rest.
std::string alternatives_table(const SweepResult& result,
                               const std::string& title,
                               const std::vector<TableColumn>& columns,
                               const std::string& marker);

// The `spectra pangloss` summary: Spectra's modal choice and the mean
// Fig 8 / Fig 9 scores.
std::string pangloss_table(const SweepResult& result,
                           const std::string& title);

}  // namespace spectra::scenario
