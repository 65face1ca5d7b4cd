// Measurement harness reproducing the paper's methodology (§4):
//
//   "For each scenario, we measured application latency and energy usage
//    for each possible combination of fidelity, execution plan, and remote
//    server. We also asked Spectra to choose one of the possible
//    alternatives for application execution."
//
// Every measurement starts from an identical, deterministic starting state:
// a fresh world (same seed), caches warmed, fetch-rate probes run, models
// trained under baseline conditions, the scenario applied, and the
// environment allowed to settle so the monitors observe it. Forced runs
// (the per-alternative bars) carry no decision overhead; the Spectra run
// exercises the full begin_fidelity_op path, overhead included.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/decision_service.h"
#include "fault/fault_plan.h"
#include "obs/obs.h"
#include "scenario/batch.h"
#include "scenario/scenarios.h"
#include "scenario/world.h"
#include "solver/types.h"

namespace spectra::scenario {

struct MeasuredRun {
  bool feasible = false;
  util::Seconds time = 0.0;
  util::Joules energy = 0.0;
  core::OperationChoice choice;
  monitor::OperationUsage usage;
};

// Each application is a traits type stating only what is its own: testbed,
// scenarios, training loop, alternatives and labels, an Input whose
// constructor is the one range check, and one begin / execute / run_forced
// of its operation, which Experiment<App> below, the chaos soak, the daemon
// sessions and `spectra explain` all call.

// ------------------------------------------------------------------ speech

// Janus recognizing one utterance on the Itsy testbed (Figures 3 and 4).
struct Speech {
  using Scenario = SpeechScenario;
  static constexpr const char* kName = "speech";
  static constexpr const char* kOperation = apps::JanusApp::kOperation;
  static constexpr Testbed kTestbed = Testbed::kItsy;
  static constexpr const auto& kScenarios = kSpeechScenarios;
  // The paper trains on 15 phrases; we use 18 so deterministic
  // round-robin training covers each of the 6 alternatives 3 times,
  // enough to fit the per-bin utterance-length regressions.
  static constexpr int kTrainingRuns = 18;
  // Longest utterance accepted, in seconds (the paper's are <= 3.5 s).
  static constexpr double kMaxUtterance = 600.0;

  // One utterance of utt_len seconds, in (0, kMaxUtterance].
  struct Input {
    explicit Input(double utt_len);
    double utt_len;
  };
  // Experiment<Speech>::Config's input field.
  struct InputConfig {
    double test_utterance_s = 2.0;
    Input input() const { return Input(test_utterance_s); }
  };
  // A begin request's input: its utt_len parameter, or the experiments'
  // default (2 s) when absent.
  static Input input(const core::ServiceBeginRequest& request);

  // The six alternatives of Figure 3/4: {local, hybrid, remote} x
  // {reduced, full}.
  static std::vector<solver::Alternative> alternatives();
  static std::string label(const solver::Alternative& alt);
  // The alternative a forced run of `alt` executes.
  static solver::Alternative canonical(const solver::Alternative& alt) {
    return alt;
  }

  static void train(World& world, std::uint64_t seed, int runs);
  static core::OperationChoice begin(World& world, const Input& input);
  static void execute(World& world, const Input& input);
  static monitor::OperationUsage run_forced(World& world, const Input& input,
                                            const solver::Alternative& alt);
};

// ------------------------------------------------------------------- latex

// Latex building one document on the ThinkPad testbed (Figures 5-7).
struct Latex {
  using Scenario = LatexScenario;
  static constexpr const char* kName = "latex";
  static constexpr const char* kOperation = apps::LatexApp::kOperation;
  static constexpr Testbed kTestbed = Testbed::kThinkpad;
  static constexpr const auto& kScenarios = kLatexScenarios;
  // "we first executed Latex 20 times"
  static constexpr int kTrainingRuns = 20;

  // One of the paper's two documents: small or large.
  struct Input {
    explicit Input(std::string doc);
    std::string doc;
  };
  struct InputConfig {
    std::string doc = "small";
    Input input() const { return Input(doc); }
  };
  // A begin request's input: its data tag, or the experiments' default
  // (small) when empty.
  static Input input(const core::ServiceBeginRequest& request);

  // local, remote on server A, remote on server B.
  static std::vector<solver::Alternative> alternatives();
  static std::string label(const solver::Alternative& alt);
  static solver::Alternative canonical(const solver::Alternative& alt) {
    return alt;
  }

  static void train(World& world, std::uint64_t seed, int runs);
  static core::OperationChoice begin(World& world, const Input& input);
  static void execute(World& world, const Input& input);
  static monitor::OperationUsage run_forced(World& world, const Input& input,
                                            const solver::Alternative& alt);
};

// ---------------------------------------------------------------- pangloss

// Pangloss-Lite translating one sentence on the ThinkPad testbed
// (Figures 8 and 9).
struct Pangloss {
  using Scenario = PanglossScenario;
  static constexpr const char* kName = "pangloss";
  static constexpr const char* kOperation = apps::PanglossApp::kOperation;
  static constexpr Testbed kTestbed = Testbed::kThinkpad;
  static constexpr const auto& kScenarios = kPanglossScenarios;
  // "we first translated a set of 129 sentences"
  static constexpr int kTrainingRuns = 129;
  // Longest sentence accepted, in words (the paper's are <= 44).
  static constexpr double kMaxWords = 10000;

  // One sentence of `words` words. The constructor checks
  // 1 <= words <= kMaxWords before truncating to a whole count.
  struct Input {
    explicit Input(double words);
    int words;
  };
  struct InputConfig {
    int test_words = 10;
    Input input() const { return Input(test_words); }
  };
  // A begin request's input: its words parameter, or the experiments'
  // default (10) when absent.
  static Input input(const core::ServiceBeginRequest& request);

  // All distinct combinations of location and fidelity (~97, the paper's
  // "100 different combinations").
  static std::vector<solver::Alternative> alternatives();
  static std::string label(const solver::Alternative& alt);
  // Disabled engines' placement bits zeroed.
  static solver::Alternative canonical(const solver::Alternative& alt) {
    return apps::PanglossApp::canonical(alt);
  }

  // Achieved utility of a measured run of `alt` (all Pangloss scenarios are
  // wall-powered, so c = 0 and energy does not contribute).
  static double achieved_utility(const MeasuredRun& run,
                                 const solver::Alternative& alt);

  static void train(World& world, std::uint64_t seed, int runs);
  static core::OperationChoice begin(World& world, const Input& input);
  static void execute(World& world, const Input& input);
  static monitor::OperationUsage run_forced(World& world, const Input& input,
                                            const solver::Alternative& alt);
};

// -------------------------------------------------------------- experiment

// One application's measurement harness. The app's static members
// (alternatives, label, and Pangloss's achieved_utility) are the
// experiment's own.
template <typename App>
class Experiment : public App {
 public:
  struct Config : App::InputConfig {
    typename App::Scenario scenario = App::Scenario::kBaseline;
    std::uint64_t seed = 1;
    int training_runs = App::kTrainingRuns;
    util::Seconds settle_time = 12.0;
    // Optional hook to adjust the Spectra client configuration of the
    // worlds this experiment builds (e.g. enable decision tracing).
    std::function<void(core::SpectraClientConfig&)> spectra_overrides;
    // Optional fault plan, armed after training and settling so event
    // times are offsets from the start of the measured run.
    std::optional<fault::FaultPlan> fault_plan;
    // Observability sink threaded into the world's Spectra client and the
    // experiment's phase timers. Non-owning; null disables.
    obs::Observability* obs = nullptr;
    // Train/settle one template world, then deep-copy it (World::clone)
    // for every measured run instead of retraining from scratch. Clones
    // are bit-identical to fresh retrains; default from SPECTRA_REUSE.
    bool reuse_trained_world = default_reuse_trained_world();
  };

  // Range-checks the configured input (util::ContractError) before any
  // world is built.
  explicit Experiment(Config config)
      : config_(std::move(config)), input_(config_.input()) {}

  MeasuredRun measure(const solver::Alternative& alt) const {
    return measure(alt, config_.obs);
  }
  MeasuredRun run_spectra() const { return run_spectra(config_.obs); }
  // Variants with an explicit observability sink for this one run: batch
  // runs hand every measured run a private shard (BatchRunner::map_runs)
  // and merge afterwards. May be called concurrently from pool workers.
  MeasuredRun measure(const solver::Alternative& alt,
                      obs::Observability* run_obs) const;
  MeasuredRun run_spectra(obs::Observability* run_obs) const;
  // One Spectra-chosen operation on the configured input (begin, execute,
  // end) in a world the caller built, e.g. one an ablation has altered.
  MeasuredRun run_spectra_on(World& world) const;

  // Fresh trained world under this experiment's scenario (exposed for
  // integration tests and ablations).
  std::unique_ptr<World> trained_world() const {
    return trained_world(config_.obs);
  }
  std::unique_ptr<World> trained_world(obs::Observability* obs) const;

  // Trained world for one daemon session (scenario::app_service_factory):
  // a clone of the shared template when reuse is on, a fresh retrain
  // otherwise — exactly what each measured run gets.
  std::unique_ptr<World> session_world() const {
    return measurement_world(nullptr);
  }

  // The trained template measured runs clone: shared process-wide through
  // TrainedWorldCache (with the chaos soak and the daemon too) unless the
  // config has observability, overrides or a fault plan, in which case it
  // is trained once per instance. Never mutate it.
  std::shared_ptr<const World> template_world() const;

 private:
  std::unique_ptr<World> measurement_world(obs::Observability* run_obs) const;

  Config config_;
  typename App::Input input_;
  mutable std::once_flag template_once_;
  mutable std::shared_ptr<const World> template_;
};

extern template class Experiment<Speech>;
extern template class Experiment<Latex>;
extern template class Experiment<Pangloss>;

using SpeechExperiment = Experiment<Speech>;
using LatexExperiment = Experiment<Latex>;
using PanglossExperiment = Experiment<Pangloss>;

// --------------------------------------------------------------- overhead

// The Fig 10 null operation (also the daemon's nullop sessions and
// micro_decision's testbed): a service answering 64 bytes, and an
// operation with local/remote plans, one binary fidelity and one optional
// input parameter, `x`.
inline constexpr const char* kNullOp = "null.op";
// Install the null service on every server and on the client's local
// server. World::clone copies no RPC handlers, so clones need this too.
void install_null_services(World& world);
core::OperationDesc null_op_desc();

// The null operation in the traits shape (for the daemon's nullop sessions
// and micro_decision). It always executes locally, whatever the chosen
// plan: only the decision cost is being measured.
struct NullOp {
  static constexpr const char* kName = "nullop";
  static constexpr const char* kOperation = kNullOp;
  struct Input {
    std::map<std::string, double> params;
  };
  static Input input(const core::ServiceBeginRequest& request) {
    return {request.params};
  }
  static core::OperationChoice begin(World& world, const Input& input);
  static void execute(World& world, const Input& input = {});
};

// Fig 10: cost of a null operation under 0 / 1 / 5 candidate servers.
struct OverheadReport {
  std::size_t servers = 0;
  // Mean real wall-clock milliseconds per phase.
  double register_ms = 0.0;
  double begin_ms = 0.0;
  double cache_prediction_ms = 0.0;
  double choosing_ms = 0.0;
  double begin_other_ms = 0.0;
  double do_local_ms = 0.0;
  double end_ms = 0.0;
  double total_ms = 0.0;
  // Cache prediction with a deliberately full client cache (the paper's
  // 359.6 ms pathological case).
  double cache_prediction_full_ms = 0.0;
  // Modeled virtual-time decision cost (what simulated experiments charge).
  double virtual_decision_ms = 0.0;
};

class OverheadExperiment {
 public:
  struct Config {
    std::size_t servers = 0;
    std::uint64_t seed = 1;
    int measured_runs = 200;
    std::size_t full_cache_files = 800;
    // When set, the world's Spectra client is instrumented — used by the
    // fig10 bench to measure tracing overhead against the plain path.
    obs::Observability* obs = nullptr;
  };

  explicit OverheadExperiment(Config config) : config_(config) {}

  OverheadReport run() const;

 private:
  Config config_;
};

}  // namespace spectra::scenario
