// Figure 8: Accuracy for Pangloss-Lite.
//
// For each scenario and test sentence, every one of the ~97 combinations of
// location and fidelity is measured; alternatives are ranked by the utility
// they achieved, and the bar shows the percentile into which Spectra's
// chosen alternative falls (99 = the best possible choice).
#include "bench_util.h"

using namespace spectra;           // NOLINT
using namespace spectra::scenario; // NOLINT

int main(int argc, char** argv) {
  BatchRunner batch(bench::jobs_from_args(argc, argv));
  std::cout << "Figure 8: Accuracy for Pangloss-Lite\n"
            << "(percentile of Spectra's chosen alternative, ranked by "
               "achieved utility; "
            << PanglossExperiment::alternatives().size()
            << " alternatives)\n\n";

  for (const auto sc : kPanglossScenarios) {
    util::Table table("Scenario: " + name(sc));
    table.set_header({"sentence (words)", "percentile", "Spectra chose"});
    for (const int words : bench::pangloss_test_sentences()) {
      const SweepResult result = bench::figure_sweep<PanglossExperiment>(
          batch, [&](PanglossExperiment::Config& cfg) {
            cfg.scenario = sc;
            cfg.test_words = words;
          });
      table.add_row({std::to_string(words),
                     pangloss_scores(result).percentile.cell(1),
                     modal_choice(result)});
    }
    std::cout << table.to_string() << '\n';
  }
  return 0;
}
