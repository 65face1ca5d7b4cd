// Speech assistant on a handheld: the paper's flagship workload.
//
// Runs the Janus speech recognizer on the simulated Itsy v2.2 + IBM T20
// testbed and narrates Spectra's placement/fidelity decisions as the user
// roams through the paper's five environments: well-conditioned, battery
// critical, congested network, busy handheld, and a network partition with
// a cold file cache.
//
// Build & run:  ./build/examples/speech_assistant
#include <iostream>

#include "scenario/experiment.h"
#include "util/table.h"
#include "scenario/scenarios.h"

using namespace spectra;           // NOLINT: example brevity
using namespace spectra::scenario; // NOLINT

namespace {

const char* plan_name(int plan) {
  static const char* kNames[] = {"local", "hybrid", "remote"};
  return kNames[plan];
}

void recognize(World& world, double seconds) {
  auto& spectra = world.spectra();
  const auto choice = spectra.begin_fidelity_op(
      apps::JanusApp::kOperation, {{"utt_len", seconds}});
  world.janus().execute(spectra, seconds);
  const auto usage = spectra.end_fidelity_op();
  std::cout << "  \"" << seconds << "s utterance\" -> "
            << plan_name(choice.alternative.plan) << " plan, "
            << (choice.alternative.fidelity[apps::JanusApp::kVocab] >= 1.0
                    ? "full"
                    : "reduced")
            << " vocabulary: " << util::Table::num(usage.elapsed, 2)
            << " s, " << util::Table::num(usage.energy, 2) << " J\n";
}

}  // namespace

int main() {
  std::cout << "Speech assistant on the Itsy v2.2 (206 MHz, software FP), "
               "IBM T20 compute server over a serial link.\n\n";

  SpeechExperiment::Config cfg;
  cfg.seed = 7;
  SpeechExperiment experiment(cfg);

  // One trained world per environment so each decision starts from the
  // same learned state (as in the paper's evaluation).
  struct Env {
    SpeechScenario scenario;
    const char* story;
  };
  const Env envs[] = {
      {SpeechScenario::kBaseline,
       "In the office: wall power, idle handheld, clean serial link."},
      {SpeechScenario::kEnergy,
       "On the road: battery powered, 10-hour lifetime goal."},
      {SpeechScenario::kNetwork,
       "Congested link: bandwidth to the server halved."},
      {SpeechScenario::kCpu,
       "Busy handheld: a CPU-bound job is running locally."},
      {SpeechScenario::kFileCache,
       "Partitioned: compute server unreachable, full-vocabulary language "
       "model not cached."},
  };

  for (const auto& env : envs) {
    std::cout << env.story << "\n";
    SpeechExperiment::Config c = cfg;
    c.scenario = env.scenario;
    auto world = SpeechExperiment(c).trained_world();
    for (double len : {1.5, 2.0, 3.0}) recognize(*world, len);
    std::cout << "\n";
  }

  std::cout << "Every decision above came from begin_fidelity_op: learned "
               "demand models matched\nagainst monitored CPU, network, "
               "battery, and file-cache availability.\n";
  return 0;
}
