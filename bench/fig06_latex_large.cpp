// Figure 6: Latex execution time for the large (123-page) document.
// Scenarios and alternatives as in Figure 5. The paper's shape: server B
// wins the baseline and reintegrate scenarios (the predicted file set of
// the large document does not include the modified small-document input,
// so no reintegration is forced); a cold server B loses to server A.
#include "bench_util.h"

using namespace spectra;            // NOLINT
using namespace spectra::scenario;  // NOLINT

int main(int argc, char** argv) {
  BatchRunner batch(bench::jobs_from_args(argc, argv));
  std::cout << "Figure 6: Large document (123 pages) execution time (seconds)\n\n";
  for (const auto sc : kLatexScenarios) {
    const SweepResult result = bench::figure_sweep<LatexExperiment>(
        batch, [sc](LatexExperiment::Config& cfg) {
          cfg.scenario = sc;
          cfg.doc = "large";
        });
    std::cout << alternatives_table(
                     result, "Scenario: " + name(sc) + " — large document",
                     {{"time (s)", run_time}}, bench::kFigureMarker)
              << '\n';
  }
  return 0;
}
