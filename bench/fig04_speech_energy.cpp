// Figure 4: Speech recognition energy usage (client Joules per utterance).
//
// Same scenarios and alternatives as Figure 3; the metric is the energy
// drawn from the Itsy's battery as reported by its SmartBattery chip. The
// paper's shape: local execution costs an order of magnitude more energy
// than the distributed plans (software-FP search on the SA-1100), and
// remote costs less than hybrid because hybrid keeps the front-end/prescan
// computation on the client.
#include "bench_util.h"

using namespace spectra;            // NOLINT
using namespace spectra::scenario;  // NOLINT

int main(int argc, char** argv) {
  BatchRunner batch(bench::jobs_from_args(argc, argv));
  std::cout << "Figure 4: Speech recognition energy usage (Joules)\n\n";
  for (const auto sc : kSpeechScenarios) {
    const SweepResult result = bench::figure_sweep<SpeechExperiment>(
        batch, [sc](SpeechExperiment::Config& cfg) { cfg.scenario = sc; });
    std::cout << alternatives_table(result, "Scenario: " + name(sc),
                                    {{"energy (J)", run_energy}},
                                    bench::kFigureMarker)
              << '\n';
  }
  return 0;
}
