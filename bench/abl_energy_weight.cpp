// Ablation: the energy weighting (1/E)^(k·c) (§3.6).
//
// Sweeps the importance of energy conservation c (and the constant k,
// paper value 10) on the speech energy scenario and reports which
// alternative Spectra picks. The paper's qualitative claim: with energy
// unimportant Spectra chases latency (hybrid); as c rises it shifts to the
// lowest-energy plan (remote) without sacrificing fidelity until energy
// pressure is extreme.
#include <iostream>

#include "bench_util.h"
#include "scenario/experiment.h"

using namespace spectra;           // NOLINT
using namespace spectra::scenario; // NOLINT

namespace {

// Spectra's choice for a 2 s utterance on battery with c pinned (k is
// fixed at registration).
std::string choice_at(double c) {
  SpeechExperiment::Config cfg;
  cfg.seed = 1000;
  const SpeechExperiment exp(cfg);
  auto world = exp.trained_world();
  world->client_machine().set_on_battery(true);
  pin_energy_importance(*world, c);
  return SpeechExperiment::label(exp.run_spectra_on(*world).choice.alternative);
}

}  // namespace

int main(int argc, char** argv) {
  scenario::BatchRunner batch(bench::jobs_from_args(argc, argv));
  std::cout << "Ablation: energy-conservation importance sweep "
               "(speech testbed, k = 10)\n\n";
  util::Table table;
  table.set_header({"c", "Spectra's choice"});
  const std::vector<double> cs = {0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0};
  const auto choices = batch.map(
      cs.size(), [&](std::size_t i) { return choice_at(cs[i]); });
  for (std::size_t i = 0; i < cs.size(); ++i) {
    table.add_row({util::Table::num(cs[i], 1), choices[i]});
  }
  std::cout << table.to_string();
  std::cout << "\nAt c=0 the latency-optimal hybrid plan wins; rising c "
               "shifts execution to the\nremote plan, which drains the "
               "handheld least. Fidelity is only surrendered when\nthe "
               "energy term dwarfs everything else.\n";
  return 0;
}
