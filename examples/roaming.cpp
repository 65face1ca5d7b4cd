// Roaming through pervasive-computing environments.
//
// The paper's vision (§1): "Some well-conditioned environments may provide
// plentiful wireless bandwidth and powerful compute servers. Other
// locations may be resource-impoverished." This example keeps ONE running
// Spectra client and walks it through a day of changing conditions,
// printing how the same recognition request lands in different places —
// including goal-directed energy adaptation raising the importance of
// conservation (c) as the battery outlook worsens.
//
// Build & run:  ./build/examples/roaming
#include <iostream>

#include "monitor/battery_monitor.h"
#include "scenario/experiment.h"
#include "util/table.h"

using namespace spectra;           // NOLINT: example brevity
using namespace spectra::scenario; // NOLINT

namespace {

void recognize(World& world, double seconds) {
  auto& spectra = world.spectra();
  const auto choice = spectra.begin_fidelity_op(
      apps::JanusApp::kOperation, {{"utt_len", seconds}});
  world.janus().execute(spectra, seconds);
  const auto usage = spectra.end_fidelity_op();
  static const char* kPlans[] = {"local", "hybrid", "remote"};
  std::cout << "    recognize(" << seconds
            << "s): " << kPlans[choice.alternative.plan] << "/"
            << (choice.alternative.fidelity[apps::JanusApp::kVocab] >= 1.0
                    ? "full"
                    : "reduced")
            << "  time=" << util::Table::num(usage.elapsed, 2)
            << "s  energy=" << util::Table::num(usage.energy, 2)
            << "J  c=" << util::Table::num(
                   world.spectra().energy_importance(), 2)
            << "\n";
}

}  // namespace

int main() {
  std::cout << "A day of roaming with one self-tuning Spectra client.\n\n";

  SpeechExperiment::Config cfg;
  cfg.seed = 21;
  auto world = SpeechExperiment(cfg).trained_world();
  auto& w = *world;

  std::cout << "09:00 — docked at the desk (wall power, clean link):\n";
  recognize(w, 2.0);
  recognize(w, 2.0);

  std::cout << "\n11:00 — unplugged; goal: survive until tomorrow morning "
               "(goal-directed adaptation active):\n";
  w.client_machine().set_on_battery(true);
  w.spectra().set_battery_lifetime_goal(20.0 * 3600);
  w.settle(60.0);  // adaptation ticks observe the demand rate
  recognize(w, 2.0);
  std::cout << "    ... heavy use drains the battery; c keeps rising ...\n";
  // Burn through the battery with sustained recognition.
  for (int i = 0; i < 12; ++i) {
    w.spectra().begin_fidelity_op(apps::JanusApp::kOperation,
                                  {{"utt_len", 2.0}});
    w.janus().execute(w.spectra(), 2.0);
    w.spectra().end_fidelity_op();
    w.settle(5.0);
  }
  recognize(w, 2.0);

  std::cout << "\n14:00 — lecture hall: serial link saturated by others "
               "(bandwidth halved):\n";
  w.network().set_link_bandwidth(kClient, kServerT20, 5750.0);
  w.settle(15.0);
  recognize(w, 2.0);

  std::cout << "\n16:00 — walking between buildings: compute server out of "
               "range entirely:\n";
  w.network().set_link_up(kClient, kServerT20, false);
  w.spectra().server_db().poll_all();
  w.settle(10.0);
  recognize(w, 2.0);

  std::cout << "\n17:00 — back in coverage, plugged in:\n";
  w.network().set_link_up(kClient, kServerT20, true);
  w.network().set_link_bandwidth(kClient, kServerT20, 11500.0);
  w.client_machine().set_on_battery(false);
  w.settle(15.0);
  recognize(w, 2.0);

  std::cout << "\nSame application, same API calls — placement and fidelity "
               "followed the environment.\n";
  return 0;
}
