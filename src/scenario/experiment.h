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

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/client.h"
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

// ------------------------------------------------------------------ speech

class SpeechExperiment {
 public:
  struct Config {
    SpeechScenario scenario = SpeechScenario::kBaseline;
    std::uint64_t seed = 1;
    double test_utterance_s = 2.0;
    // The paper trains on 15 phrases; we use 18 so deterministic
    // round-robin training covers each of the 6 alternatives 3 times,
    // enough to fit the per-bin utterance-length regressions.
    int training_runs = 18;
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

  explicit SpeechExperiment(Config config) : config_(config) {}

  // The six alternatives of Figure 3/4: {local, hybrid, remote} x
  // {reduced, full}.
  static std::vector<solver::Alternative> alternatives();
  static std::string label(const solver::Alternative& alt);

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

 private:
  std::unique_ptr<World> measurement_world(obs::Observability* run_obs) const;
  std::shared_ptr<const World> template_world() const;

  Config config_;
  mutable std::once_flag template_once_;
  mutable std::shared_ptr<const World> template_;
};

// ------------------------------------------------------------------- latex

class LatexExperiment {
 public:
  struct Config {
    LatexScenario scenario = LatexScenario::kBaseline;
    std::string doc = "small";
    std::uint64_t seed = 1;
    int training_runs = 20;  // "we first executed Latex 20 times"
    util::Seconds settle_time = 12.0;
    std::function<void(core::SpectraClientConfig&)> spectra_overrides;
    std::optional<fault::FaultPlan> fault_plan;
    obs::Observability* obs = nullptr;
    bool reuse_trained_world = default_reuse_trained_world();
  };

  explicit LatexExperiment(Config config) : config_(config) {}

  // local, remote on server A, remote on server B.
  static std::vector<solver::Alternative> alternatives();
  static std::string label(const solver::Alternative& alt);

  MeasuredRun measure(const solver::Alternative& alt) const {
    return measure(alt, config_.obs);
  }
  MeasuredRun run_spectra() const { return run_spectra(config_.obs); }
  MeasuredRun measure(const solver::Alternative& alt,
                      obs::Observability* run_obs) const;
  MeasuredRun run_spectra(obs::Observability* run_obs) const;
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

 private:
  std::unique_ptr<World> measurement_world(obs::Observability* run_obs) const;
  std::shared_ptr<const World> template_world() const;

  Config config_;
  mutable std::once_flag template_once_;
  mutable std::shared_ptr<const World> template_;
};

// ---------------------------------------------------------------- pangloss

class PanglossExperiment {
 public:
  struct Config {
    PanglossScenario scenario = PanglossScenario::kBaseline;
    std::uint64_t seed = 1;
    int test_words = 10;
    int training_runs = 129;  // "we first translated a set of 129 sentences"
    util::Seconds settle_time = 12.0;
    std::function<void(core::SpectraClientConfig&)> spectra_overrides;
    std::optional<fault::FaultPlan> fault_plan;
    obs::Observability* obs = nullptr;
    bool reuse_trained_world = default_reuse_trained_world();
  };

  explicit PanglossExperiment(Config config) : config_(config) {}

  // All distinct combinations of location and fidelity (~97, the paper's
  // "100 different combinations").
  static std::vector<solver::Alternative> alternatives();
  static std::string label(const solver::Alternative& alt);

  MeasuredRun measure(const solver::Alternative& alt) const {
    return measure(alt, config_.obs);
  }
  MeasuredRun run_spectra() const { return run_spectra(config_.obs); }
  MeasuredRun measure(const solver::Alternative& alt,
                      obs::Observability* run_obs) const;
  MeasuredRun run_spectra(obs::Observability* run_obs) const;
  std::unique_ptr<World> trained_world() const {
    return trained_world(config_.obs);
  }
  std::unique_ptr<World> trained_world(obs::Observability* obs) const;

  // Achieved utility of a measured run of `alt` (all Pangloss scenarios are
  // wall-powered, so c = 0 and energy does not contribute).
  static double achieved_utility(const MeasuredRun& run,
                                 const solver::Alternative& alt);

  // See SpeechExperiment::session_world.
  std::unique_ptr<World> session_world() const {
    return measurement_world(nullptr);
  }

 private:
  std::unique_ptr<World> measurement_world(obs::Observability* run_obs) const;
  std::shared_ptr<const World> template_world() const;

  Config config_;
  mutable std::once_flag template_once_;
  mutable std::shared_ptr<const World> template_;
};

// --------------------------------------------------------------- overhead

// The Fig 10 null operation (also the daemon's nullop sessions and
// micro_decision's testbed): a service answering 64 bytes, and an
// operation with local/remote plans and one binary fidelity.
inline constexpr const char* kNullOp = "null.op";
// Install the null service on every server and on the client's local
// server. World::clone copies no RPC handlers, so clones need this too.
void install_null_services(World& world);
core::OperationDesc null_op_desc();

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
