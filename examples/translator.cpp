// Natural-language translation with fidelity adaptation.
//
// Pangloss-Lite combines up to three translation engines (EBMT, glossary,
// dictionary) plus a language modeler, each placeable locally or on a
// remote server — the paper's ~100 combinations of location and fidelity.
// This example translates sentences of growing length and shows Spectra
// trading translation quality (which engines run) against the 0.5 s / 5 s
// latency window, then reacting when server B loses the 12 MB EBMT corpus.
//
// Build & run:  ./build/examples/translator
#include <iostream>

#include "scenario/experiment.h"
#include "util/table.h"

using namespace spectra;           // NOLINT: example brevity
using namespace spectra::scenario; // NOLINT

namespace {

void translate(World& world, int words) {
  auto& spectra = world.spectra();
  const auto choice = spectra.begin_fidelity_op(
      apps::PanglossApp::kOperation,
      {{"words", static_cast<double>(words)}});
  world.pangloss().execute(spectra, words);
  const auto usage = spectra.end_fidelity_op();
  const double fidelity = apps::PanglossApp::fidelity_desirability(
      world.pangloss().config(), choice.alternative.fidelity);
  std::cout << "  " << words << "-word sentence -> "
            << PanglossExperiment::label(choice.alternative)
            << "  (fidelity " << fidelity << ", "
            << util::Table::num(usage.elapsed, 2) << " s)\n";
}

}  // namespace

int main() {
  std::cout << "Pangloss-Lite Spanish->English translation, 233 MHz client "
               "+ servers A (400 MHz) and B (933 MHz).\n"
            << "Engines: EBMT (fidelity 0.5), glossary (0.3), dictionary "
               "(0.2); deadline window 0.5-5 s.\n\n";

  PanglossExperiment::Config cfg;
  cfg.seed = 3;
  std::cout << "All data files cached everywhere:\n";
  {
    auto world = PanglossExperiment(cfg).trained_world();
    for (int words : {6, 12, 20, 32, 44}) translate(*world, words);
  }

  std::cout << "\nServer B loses the 12 MB EBMT corpus from its cache:\n";
  {
    PanglossExperiment::Config c = cfg;
    c.scenario = PanglossScenario::kFileCache;
    auto world = PanglossExperiment(c).trained_world();
    for (int words : {6, 12, 20, 32, 44}) translate(*world, words);
  }

  std::cout << "\nNote how short sentences keep every engine while long "
               "ones shed the costliest marginal\nengine, and how EBMT "
               "migrates away from server B once its corpus is gone.\n";
  return 0;
}
