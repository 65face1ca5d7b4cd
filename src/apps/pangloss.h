// Pangloss-Lite natural language translator (§3.7.3).
//
// One operation — translate a sentence — built from three translation
// engines (EBMT, glossary, dictionary) plus a language modeler that combines
// their outputs. Fidelity is additive: EBMT 0.5, glossary 0.3, dictionary
// 0.2 (all engines = 1.0, no engines = infeasible). Execution plans place
// each component (the three engines and the language modeler) locally or on
// the chosen remote server — 16 placement masks; with the fidelity subsets
// and two candidate servers this yields the paper's ~10² combinations of
// location and fidelity. Components execute sequentially (the paper's
// execution model; parallel plans are future work).
//
// Latency desirability is the paper's piecewise form: 1 below 0.5 s, 0
// above 5 s, linear in between (descending — the published formula ascends,
// an obvious typo).
//
// Pangloss demonstrates the application-specific predictor hook: demand is
// compositional, so its feature mapping exposes per-component placement ×
// sentence-length features to the linear predictor instead of opaque
// (plan, server) bins — 129 training sentences identify the per-engine
// costs, which bin-per-combination models could not.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/server.h"
#include "solver/types.h"
#include "util/rng.h"
#include "util/units.h"

namespace spectra::apps {

struct PanglossComponentCost {
  std::string name;
  util::Cycles cycles_per_word = 0.0;
  util::Cycles base_cycles = 0.0;
  std::string file_path;  // data file read wherever the component runs
  util::Bytes file_size = 0.0;
  double fidelity = 0.0;  // 0 for the language modeler
};

struct PanglossConfig {
  // Calibrated so that the glossary engine is the marginal one for long
  // sentences (the paper's Spectra keeps all engines for the three smallest
  // test sentences and drops the glossary for the two largest).
  std::array<PanglossComponentCost, 4> components{{
      {"ebmt", 28e6, 80e6, "pangloss/ebmt.corpus", 12.0 * 1024 * 1024, 0.5},
      {"gloss", 30e6, 40e6, "pangloss/glossary", 2.0 * 1024 * 1024, 0.3},
      {"dict", 1.2e6, 4e6, "pangloss/dict", 512.0 * 1024, 0.2},
      {"lm", 4e6, 15e6, "pangloss/lm", 1.0 * 1024 * 1024, 0.0},
  }};
  std::string volume = "pangloss";
  util::Bytes request_bytes_per_word = 10.0;
  util::Bytes response_bytes_per_word = 60.0;
  util::Bytes fixed_bytes = 64.0;
  util::Seconds deadline_lo = 0.5;
  util::Seconds deadline_hi = 5.0;
  double noise_cv = 0.03;
};

class PanglossApp {
 public:
  static constexpr const char* kOperation = "pangloss.translate";
  // Component indices / plan-mask bit positions.
  static constexpr int kEbmt = 0;
  static constexpr int kGloss = 1;
  static constexpr int kDict = 2;
  static constexpr int kLm = 3;
  static constexpr int kPlanCount = 16;  // placement masks

  explicit PanglossApp(PanglossConfig config = {}) : config_(config) {}

  const PanglossConfig& config() const { return config_; }

  void install_files(fs::FileServer& server) const;
  void install_services(core::SpectraServer& server, util::Rng rng) const;
  void register_op(core::SpectraClient& client) const;

  // Build an alternative: `remote_mask` bit i places component i on
  // `server`; engine flags enable EBMT/glossary/dictionary, and the
  // fidelity setting holds them at kEbmt, kGloss, kDict.
  static solver::Alternative alternative(int remote_mask, bool ebmt,
                                         bool gloss, bool dict,
                                         hw::MachineId server = -1);

  // Fidelity desirability: the enabled engines' fidelities, summed (the
  // registered fidelity function and the experiments' achieved utility).
  static double fidelity_desirability(const PanglossConfig& cfg,
                                      const std::vector<double>& fidelity);

  // Zero the placement bits of disabled engines, collapsing behaviourally
  // identical alternatives (used to dedupe oracle enumeration).
  static solver::Alternative canonical(const solver::Alternative& alt);

  // The paper's application-specific feature mapping (see file comment):
  // its feature names and its core::FeatureHook fill over `words`.
  static predict::FeatureSchema feature_schema();
  static void features(const solver::Alternative& alt,
                       const predict::FeatureSlots& params,
                       predict::FeatureVector& out);

  void execute(core::SpectraClient& client, int words) const;
  monitor::OperationUsage run_forced(core::SpectraClient& client, int words,
                                     const solver::Alternative& alt) const;

  // Copy the ground-truth noise streams from the same app in another world.
  void copy_state_from(const PanglossApp& src);

 private:
  static bool component_enabled(const solver::Alternative& alt, int c);
  static bool component_remote(const solver::Alternative& alt, int c);

  PanglossConfig config_;
  // One noise stream per install_services call, in install order.
  mutable std::vector<std::shared_ptr<util::Rng>> noise_;
};

}  // namespace spectra::apps
