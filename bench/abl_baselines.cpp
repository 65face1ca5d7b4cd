// Ablation: Spectra vs related-work policies (§5).
//
// Compares achieved utility (fidelity/latency, plus energy where the
// scenario is battery powered) across the speech scenarios for:
//   * Spectra (full self-tuning system),
//   * RPF-style history policy (Rudenko et al.): local-vs-remote from past
//     time+energy only, remote only when BOTH improve, no resource
//     monitoring,
//   * static local and static remote,
//   * the zero-overhead oracle.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "baseline/policies.h"
#include "bench_util.h"
#include "scenario/experiment.h"

using namespace spectra;           // NOLINT
using namespace spectra::scenario; // NOLINT

namespace {

using apps::JanusApp;

double utility_of(const MeasuredRun& run, const solver::Alternative& alt,
                  double c) {
  if (!run.feasible) return 0.0;
  const double fid = alt.fidelity[JanusApp::kVocab] >= 1.0 ? 1.0 : 0.5;
  double u = fid / run.time;
  if (c > 0.0) u *= std::pow(1.0 / std::max(run.energy, 1e-6), c);
  return u;
}

}  // namespace

int main(int argc, char** argv) {
  scenario::BatchRunner batch(bench::jobs_from_args(argc, argv));
  std::cout << "Ablation: Spectra vs RPF-style history policy vs static "
               "placement (speech testbed)\n"
            << "cells: achieved utility relative to the zero-overhead "
               "oracle (1.00 = optimal; 0 = infeasible)\n\n";

  util::Table table;
  table.set_header(
      {"scenario", "Spectra", "RPF-style", "always-local", "always-remote"});

  const std::vector<SpeechScenario> scenarios = {
      SpeechScenario::kBaseline, SpeechScenario::kEnergy,
      SpeechScenario::kNetwork, SpeechScenario::kCpu,
      SpeechScenario::kFileCache};
  // One sweep trial (seed 1000) per scenario: every alternative measured
  // from the trained state, then Spectra's choice. Rows follow scenario
  // order, so the table is identical for any --jobs.
  const auto sweeps = batch.map(scenarios.size(), [&](std::size_t i) {
    return sweep<SpeechExperiment>(
        batch, nullptr, {1000},
        [&](std::uint64_t seed, obs::Observability* trial_obs) {
          SpeechExperiment::Config cfg;
          cfg.scenario = scenarios[i];
          cfg.seed = seed;
          cfg.obs = trial_obs;
          return cfg;
        });
  });
  const auto run_of = [](const SweepResult& result,
                         const solver::Alternative& alt) -> const MeasuredRun& {
    const auto& labels = result.labels;
    const auto at = std::find(labels.begin(), labels.end(),
                              SpeechExperiment::label(alt));
    return result.trials[0].runs[static_cast<std::size_t>(at - labels.begin())];
  };

  // RPF arbitrates local-full vs remote-full from the history it would
  // have accumulated under baseline conditions, never monitoring
  // resources — so every scenario is judged with baseline-era statistics.
  const auto local_alt = JanusApp::alternative(JanusApp::kPlanLocal, 1.0);
  const auto remote_alt =
      JanusApp::alternative(JanusApp::kPlanRemote, 1.0, kServerT20);
  baseline::RpfPolicy rpf(local_alt, remote_alt);
  for (const bool remote : {false, true}) {
    const MeasuredRun& r = run_of(sweeps[0], remote ? remote_alt : local_alt);
    rpf.observe(remote, {r.time, r.energy, r.feasible});
  }
  const auto& rpf_choice = rpf.choose();

  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const SweepResult& result = sweeps[i];
    const SweepTrial& trial = result.trials[0];
    // Use a soft energy weight in the battery scenario so energy matters
    // to the scoreboard the way it matters to the user.
    const double c = scenarios[i] == SpeechScenario::kEnergy ? 0.5 : 0.0;

    baseline::OraclePolicy oracle(
        [&](const solver::Alternative& alt, const baseline::Outcome& o) {
          MeasuredRun r;
          r.feasible = o.feasible;
          r.time = o.time;
          r.energy = o.energy;
          return utility_of(r, alt, c);
        });
    for (std::size_t a = 0; a < result.alternatives.size(); ++a) {
      const MeasuredRun& run = trial.runs[a];
      oracle.add_measurement(result.alternatives[a],
                             {run.time, run.energy, run.feasible});
    }
    const double best = oracle.best_utility();
    const auto cell = [&](const MeasuredRun& run,
                          const solver::Alternative& alt) {
      return util::Table::num(utility_of(run, alt, c) / best, 2);
    };
    const auto placed = [&](const solver::Alternative& alt) {
      return cell(run_of(result, alt), alt);
    };
    table.add_row({name(scenarios[i]),
                   cell(trial.spectra, trial.spectra.choice.alternative),
                   placed(rpf_choice), placed(local_alt), placed(remote_alt)});
  }
  std::cout << table.to_string();
  std::cout << "\nRPF tracks Spectra only while the environment matches its "
               "history; it cannot react to\nresource changes it has not "
               "yet suffered through, never trades energy against time,\n"
               "and cannot adjust fidelity.\n";
  return 0;
}
