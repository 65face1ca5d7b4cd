// Figure 5: Latex execution time for the small (14-page) document.
//
// Scenarios: baseline (all caches warm), file-cache (server B cold),
// reintegrate (70 KB top-level input modified on the client), energy
// (reintegrate + battery power + very aggressive lifetime goal).
// Alternatives: local (233 MHz 560X), server A (400 MHz), server B
// (933 MHz), over shared 2 Mb/s wireless.
#include "bench_util.h"

using namespace spectra;            // NOLINT
using namespace spectra::scenario;  // NOLINT

int main(int argc, char** argv) {
  BatchRunner batch(bench::jobs_from_args(argc, argv));
  std::cout << "Figure 5: Small document (14 pages) execution time (seconds)\n\n";
  for (const auto sc : kLatexScenarios) {
    const SweepResult result = bench::figure_sweep<LatexExperiment>(
        batch, [sc](LatexExperiment::Config& cfg) {
          cfg.scenario = sc;
          cfg.doc = "small";
        });
    std::cout << alternatives_table(
                     result, "Scenario: " + name(sc) + " — small document",
                     {{"time (s)", run_time}}, bench::kFigureMarker)
              << '\n';
  }
  return 0;
}
