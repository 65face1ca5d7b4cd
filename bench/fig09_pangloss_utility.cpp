// Figure 9: Relative utility for Pangloss-Lite.
//
// Utility achieved by Spectra's choice (decision overhead included)
// compared against an oracle with no overhead that always picks the
// best-measured alternative. The paper reports an average of 91% of the
// best utility across scenarios.
#include "bench_util.h"

using namespace spectra;           // NOLINT
using namespace spectra::scenario; // NOLINT

int main(int argc, char** argv) {
  BatchRunner batch(bench::jobs_from_args(argc, argv));
  std::cout << "Figure 9: Relative utility for Pangloss-Lite\n"
            << "(Spectra's achieved utility / zero-overhead oracle's best)\n\n";

  util::OnlineStats overall;
  for (const auto sc : kPanglossScenarios) {
    util::Table table("Scenario: " + name(sc));
    table.set_header({"sentence (words)", "relative utility"});
    for (const int words : bench::pangloss_test_sentences()) {
      const SweepResult result = bench::figure_sweep<PanglossExperiment>(
          batch, [&](PanglossExperiment::Config& cfg) {
            cfg.scenario = sc;
            cfg.test_words = words;
          });
      const Aggregate relative = pangloss_scores(result).relative_utility;
      table.add_row({std::to_string(words), relative.cell(3)});
      overall.add(relative.stats.mean());
    }
    std::cout << table.to_string() << '\n';
  }
  std::cout << "Average relative utility across scenarios and sentences: "
            << util::Table::num(100.0 * overall.mean(), 1)
            << "% (paper: 91%)\n";
  return 0;
}
