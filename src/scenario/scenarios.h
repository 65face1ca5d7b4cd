// The paper's evaluation scenarios (§4).
//
// Each scenario is a mutation applied to a trained world, varying the
// availability of a single resource exactly as the paper does. Training
// always happens under baseline conditions; the scenario is applied
// afterwards, followed by a settling period during which Spectra's monitors
// observe the changed environment (status polls, passive network samples,
// run-queue smoothing, goal-directed adaptation).
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

#include "scenario/world.h"
#include "util/assert.h"

namespace spectra::scenario {

enum class SpeechScenario { kBaseline, kEnergy, kNetwork, kCpu, kFileCache };
enum class LatexScenario { kBaseline, kFileCache, kReintegrate, kEnergy };
enum class PanglossScenario { kBaseline, kFileCache, kCpu };

std::string name(SpeechScenario s);
std::string name(LatexScenario s);
std::string name(PanglossScenario s);

// Every scenario of each application, in the paper's order.
inline constexpr SpeechScenario kSpeechScenarios[] = {
    SpeechScenario::kBaseline, SpeechScenario::kEnergy,
    SpeechScenario::kNetwork, SpeechScenario::kCpu,
    SpeechScenario::kFileCache};
inline constexpr LatexScenario kLatexScenarios[] = {
    LatexScenario::kBaseline, LatexScenario::kFileCache,
    LatexScenario::kReintegrate, LatexScenario::kEnergy};
inline constexpr PanglossScenario kPanglossScenarios[] = {
    PanglossScenario::kBaseline, PanglossScenario::kFileCache,
    PanglossScenario::kCpu};

// The scenario in `all` named `text`; throws util::ContractError on an
// unknown name.
template <typename S, std::size_t N>
S parse_scenario(const std::string& text, const S (&all)[N]) {
  for (const S s : all) {
    if (name(s) == text) return s;
  }
  SPECTRA_REQUIRE(false, "unknown scenario: " + text);
  throw std::logic_error("unreachable");
}

// Energy-conservation importance pinned in the battery scenarios. The
// paper's c comes from goal-directed adaptation and is not reported; these
// values correspond to its "ambitious" (10-hour Itsy) and "very aggressive"
// (560X) lifetime goals. The adaptation loop itself is exercised by tests
// and examples.
inline constexpr double kSpeechEnergyImportance = 0.5;
inline constexpr double kLatexEnergyImportance = 0.8;

void apply(World& world, SpeechScenario s);
void apply(World& world, LatexScenario s);
void apply(World& world, PanglossScenario s);

// Pin c on the client's battery monitor (used by apply; exposed for tests).
void pin_energy_importance(World& world, double c);

}  // namespace spectra::scenario
