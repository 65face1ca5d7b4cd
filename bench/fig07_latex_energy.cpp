// Figure 7: Latex energy usage (client Joules), small and large documents.
//
// The paper's key observation sits in the energy scenario: for the small
// document, execution on server B draws slightly less client energy than
// every other option (the client idles while B computes and the
// reintegration cost is common to all remote plans), so Spectra picks B
// even though local execution would be faster. For the large document B
// saves both time and energy.
#include "bench_util.h"

using namespace spectra;            // NOLINT
using namespace spectra::scenario;  // NOLINT

int main(int argc, char** argv) {
  BatchRunner batch(bench::jobs_from_args(argc, argv));
  const std::pair<const char*, std::string> parts[] = {
      {"Figure 7(a): Small document energy usage (Joules)", "small"},
      {"Figure 7(b): Large document energy usage (Joules)", "large"}};
  for (const auto& [title, doc] : parts) {
    std::cout << title << "\n\n";
    for (const auto sc : kLatexScenarios) {
      const SweepResult result = bench::figure_sweep<LatexExperiment>(
          batch, [&](LatexExperiment::Config& cfg) {
            cfg.scenario = sc;
            cfg.doc = doc;
          });
      std::cout << alternatives_table(
                       result, "Scenario: " + name(sc) + " — " + doc +
                                   " document",
                       {{"energy (J)", run_energy}}, bench::kFigureMarker)
                << '\n';
    }
  }
  return 0;
}
