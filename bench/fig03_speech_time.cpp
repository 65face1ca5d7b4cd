// Figure 3: Speech recognition execution time.
//
// Five scenarios (baseline, energy, network, CPU, file cache); in each, the
// execution time of every (plan, fidelity) alternative, the alternative
// Spectra selects ("S"), and the execution time when Spectra chooses —
// which includes Spectra's decision overhead ("Spectra (w/ overhead)").
// Mean of 5 trials with 90% confidence intervals, as in the paper.
#include "bench_util.h"

using namespace spectra;            // NOLINT
using namespace spectra::scenario;  // NOLINT

int main(int argc, char** argv) {
  BatchRunner batch(bench::jobs_from_args(argc, argv));
  std::cout << "Figure 3: Speech recognition execution time (seconds)\n"
               "Client: Itsy v2.2 (206 MHz SA-1100, software FP); server: "
               "IBM T20 (700 MHz PIII); serial link.\n\n";
  for (const auto sc : kSpeechScenarios) {
    const SweepResult result = bench::figure_sweep<SpeechExperiment>(
        batch, [sc](SpeechExperiment::Config& cfg) { cfg.scenario = sc; });
    std::cout << alternatives_table(result, "Scenario: " + name(sc),
                                    {{"time (s)", run_time}},
                                    bench::kFigureMarker)
              << '\n';
  }
  return 0;
}
