// Ablation: adaptation lag.
//
// Spectra's knowledge of the environment comes from periodic status polls
// (5 s), the passive network log, and run-queue smoothing — so there is a
// window after an environment change in which decisions still reflect the
// old world. This bench measures it: apply a change, wait `settle` seconds,
// and record Spectra's choice. The paper's scenarios implicitly grant the
// monitors time to observe; this quantifies how much they need.
#include <iostream>

#include "bench_util.h"
#include "scenario/experiment.h"

using namespace spectra;           // NOLINT
using namespace spectra::scenario; // NOLINT

namespace {

std::string choice_after(SpeechScenario scenario, double settle) {
  SpeechExperiment::Config cfg;
  cfg.seed = 1000;
  cfg.scenario = SpeechScenario::kBaseline;  // train on baseline
  const SpeechExperiment exp(cfg);
  auto world = exp.trained_world();
  apply(*world, scenario);  // the change happens NOW
  world->settle(settle);
  return SpeechExperiment::label(exp.run_spectra_on(*world).choice.alternative);
}

}  // namespace

int main(int argc, char** argv) {
  scenario::BatchRunner batch(bench::jobs_from_args(argc, argv));
  std::cout << "Ablation: adaptation lag — Spectra's choice as a function "
               "of time since the\nenvironment changed (speech testbed; "
               "status polls every 5 s).\n\n";

  struct Case {
    SpeechScenario scenario;
    const char* eventual;  // the correct post-change choice
  };
  const Case cases[] = {
      {SpeechScenario::kCpu, "remote-full"},
      {SpeechScenario::kFileCache, "local-reduced"},
  };

  for (const auto& c : cases) {
    util::Table table("Change: " + name(c.scenario) +
                      " (correct choice after adaptation: " +
                      std::string(c.eventual) + ")");
    table.set_header({"seconds since change", "Spectra's choice", ""});
    const std::vector<double> settles = {0.0, 1.0, 2.0, 5.0, 10.0, 20.0};
    const auto choices = batch.map(settles.size(), [&](std::size_t i) {
      return choice_after(c.scenario, settles[i]);
    });
    for (std::size_t i = 0; i < settles.size(); ++i) {
      table.add_row({util::Table::num(settles[i], 0), choices[i],
                     choices[i] == c.eventual ? "adapted" : "stale"});
    }
    std::cout << table.to_string() << "\n";
  }
  std::cout << "Partitions are detected at the first failed poll; load "
               "changes need the run-queue\nsmoothing and a status poll to "
               "propagate — one polling period in practice.\n";
  return 0;
}
