#include "scenario/app_service.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/janus.h"
#include "apps/latex.h"
#include "apps/pangloss.h"
#include "scenario/batch.h"
#include "scenario/experiment.h"
#include "scenario/scenarios.h"
#include "scenario/world.h"
#include "solver/utility.h"
#include "util/assert.h"

namespace spectra::scenario {
namespace {

enum class ServiceApp { kNullop, kSpeech, kLatex, kPangloss };

// ---- nullop world (the Fig-10 overhead testbed as a service) -------------

std::vector<solver::Alternative> nullop_alternatives(const World& world) {
  std::vector<solver::Alternative> alts;
  for (double level : {1.0, 0.0}) {
    solver::Alternative local;
    local.plan = 0;
    local.fidelity["level"] = level;
    alts.push_back(local);
    for (MachineId id : world.server_ids()) {
      solver::Alternative remote;
      remote.plan = 1;
      remote.server = id;
      remote.fidelity["level"] = level;
      alts.push_back(remote);
    }
  }
  return alts;
}

// Out-of-constructor setup for the kOverhead testbed: install the null
// RPC service everywhere and register the operation. Needed both when
// building a world and when cloning one — World::clone copies neither
// RPC handlers nor operation registrations into the fresh world.
void prepare_nullop_world(World& world) {
  install_null_services(world);
  world.spectra().register_fidelity(null_op_desc());
}

std::unique_ptr<World> build_nullop_world(std::size_t servers,
                                          std::uint64_t seed) {
  WorldConfig wc;
  wc.testbed = Testbed::kOverhead;
  wc.seed = seed;
  wc.overhead_servers = servers;
  auto world = std::make_unique<World>(wc);
  prepare_nullop_world(*world);
  world->settle(6.0);

  // Round-robin forced training over the whole alternative space so the
  // served decisions come from a model that has seen every placement.
  const auto alts = nullop_alternatives(*world);
  const int runs = static_cast<int>(alts.size()) * 3;
  for (int i = 0; i < runs; ++i) {
    world->spectra().begin_fidelity_op_forced(
        kNullOp, {}, "", alts[static_cast<std::size_t>(i) % alts.size()]);
    rpc::Request req;
    req.op_type = kNullOp;
    req.payload = 64.0;
    world->spectra().do_local_op(kNullOp, req);
    world->spectra().end_fidelity_op();
  }
  world->settle(2.0);
  return world;
}

std::size_t nullop_servers(const std::string& scenario) {
  if (scenario.empty() || scenario == "baseline") return 1;
  // "<N>srv" selects the server count of the overhead testbed.
  const auto pos = scenario.find("srv");
  if (pos != std::string::npos && pos + 3 == scenario.size() && pos > 0) {
    // Overhead servers take machine ids 1..N, which must stay below the
    // file server's id (the bound `spectra overhead --servers` uses).
    constexpr std::size_t kMaxServers = kFileServer - 1;
    std::size_t n = 0;
    for (char c : scenario.substr(0, pos)) {
      SPECTRA_REQUIRE(c >= '0' && c <= '9',
                      "unknown nullop scenario: " + scenario);
      // Saturate, so that a long digit string cannot wrap into range.
      n = std::min(n * 10 + static_cast<std::size_t>(c - '0'),
                   kMaxServers + 1);
    }
    SPECTRA_REQUIRE(n >= 1 && n <= kMaxServers,
                    "nullop scenario " + scenario +
                        ": server count must be in [1, " +
                        std::to_string(kMaxServers) + "]");
    return n;
  }
  SPECTRA_REQUIRE(false, "unknown nullop scenario: " + scenario +
                             " (use baseline or <N>srv)");
  return 1;
}

std::unique_ptr<World> nullop_session_world(const std::string& scenario,
                                            std::uint64_t seed) {
  const std::size_t servers = nullop_servers(scenario);
  if (!default_reuse_trained_world()) {
    return build_nullop_world(servers, seed);
  }
  std::ostringstream key;
  key << "nullop|" << servers << '|' << seed;
  const auto tmpl = TrainedWorldCache::instance().get(
      key.str(), [&] { return build_nullop_world(servers, seed); });
  return tmpl->clone(nullptr,
                     [](World& w) { prepare_nullop_world(w); });
}

// ---- the session ---------------------------------------------------------

class WorldDecisionService : public core::DecisionService {
 public:
  WorldDecisionService(ServiceApp app, std::string app_name,
                       std::string scenario, std::uint64_t seed,
                       std::unique_ptr<World> world)
      : app_(app),
        app_name_(std::move(app_name)),
        scenario_(std::move(scenario)),
        seed_(seed),
        world_(std::move(world)) {}

  core::ServiceStatus status() const override {
    core::ServiceStatus s;
    s.app = app_name_;
    s.scenario = scenario_;
    s.seed = seed_;
    s.op = op_name();
    s.ops_begun = ops_begun_;
    s.ops_completed = ops_completed_;
    s.op_in_progress = world_->spectra().op_in_progress();
    s.virtual_now = world_->engine().now();
    return s;
  }

  core::ServiceDecision begin_op(
      const core::ServiceBeginRequest& request) override {
    SPECTRA_REQUIRE(!world_->spectra().op_in_progress(),
                    "operation already in progress in this session");
    SPECTRA_REQUIRE(request.op.empty() || request.op == op_name(),
                    "session serves operation " + std::string(op_name()) +
                        ", not " + request.op);
    core::SpectraClient& spectra = world_->spectra();
    core::OperationChoice choice;
    switch (app_) {
      case ServiceApp::kNullop: {
        choice = spectra.begin_fidelity_op(kNullOp, request.params);
        pending_ = [this] {
          rpc::Request req;
          req.op_type = kNullOp;
          req.payload = 64.0;
          world_->spectra().do_local_op(kNullOp, req);
        };
        break;
      }
      case ServiceApp::kSpeech: {
        const double utt = param_or(request, "utt_len", 2.0);
        choice = spectra.begin_fidelity_op(apps::JanusApp::kOperation,
                                           {{"utt_len", utt}});
        pending_ = [this, utt] {
          world_->janus().execute(world_->spectra(), utt);
        };
        break;
      }
      case ServiceApp::kLatex: {
        const std::string doc =
            request.data_tag.empty() ? "small" : request.data_tag;
        SPECTRA_REQUIRE(doc == "small" || doc == "large",
                        "latex data tag must be small or large, got: " + doc);
        choice = spectra.begin_fidelity_op(apps::LatexApp::kOperation, {}, doc);
        pending_ = [this, doc] {
          world_->latex().execute(world_->spectra(), doc);
        };
        break;
      }
      case ServiceApp::kPangloss: {
        const int words =
            static_cast<int>(param_or(request, "words", 10.0));
        SPECTRA_REQUIRE(words >= 1, "pangloss needs words >= 1");
        choice = spectra.begin_fidelity_op(
            apps::PanglossApp::kOperation,
            {{"words", static_cast<double>(words)}});
        pending_ = [this, words] {
          world_->pangloss().execute(world_->spectra(), words);
        };
        break;
      }
    }
    SPECTRA_REQUIRE(choice.ok, "no feasible alternative for " +
                                   std::string(op_name()));
    ++ops_begun_;

    const auto& desc = spectra.operation_desc(op_name());
    core::ServiceDecision d;
    d.ok = true;
    d.from_model = choice.from_model;
    d.plan = desc.plans[static_cast<std::size_t>(choice.alternative.plan)].name;
    d.placement = choice.alternative.server < 0
                      ? "local"
                      : "s" + std::to_string(choice.alternative.server);
    d.fidelity = choice.alternative.fidelity;
    d.predicted_time_s = choice.predicted.time;
    d.predicted_energy_j = choice.predicted.energy;
    d.log_utility = choice.log_utility;
    d.t = world_->engine().now();
    return d;
  }

  core::ServiceOpResult end_op() override {
    SPECTRA_REQUIRE(world_->spectra().op_in_progress() && pending_,
                    "no operation in progress in this session");
    auto run = std::move(pending_);
    pending_ = nullptr;
    try {
      run();
    } catch (...) {
      // Abort the in-flight fidelity op so the session returns to a usable
      // idle state; otherwise op_in_progress stays true with pending_ gone
      // and every later begin_op/end_op on this session fails forever.
      try {
        if (world_->spectra().op_in_progress()) {
          world_->spectra().end_fidelity_op();
        }
      } catch (...) {
        // Best effort — surface the original execution failure.
      }
      throw;
    }
    const monitor::OperationUsage usage = world_->spectra().end_fidelity_op();
    ++ops_completed_;
    core::ServiceOpResult r;
    r.ok = true;
    r.seq = ops_completed_;
    r.time_s = usage.elapsed;
    r.energy_j = usage.energy;
    r.t = world_->engine().now();
    return r;
  }

 private:
  const char* op_name() const {
    switch (app_) {
      case ServiceApp::kNullop:
        return kNullOp;
      case ServiceApp::kSpeech:
        return apps::JanusApp::kOperation;
      case ServiceApp::kLatex:
        return apps::LatexApp::kOperation;
      case ServiceApp::kPangloss:
        return apps::PanglossApp::kOperation;
    }
    return "";
  }

  static double param_or(const core::ServiceBeginRequest& request,
                         const std::string& name, double def) {
    auto it = request.params.find(name);
    return it == request.params.end() ? def : it->second;
  }

  ServiceApp app_;
  std::string app_name_;
  std::string scenario_;
  std::uint64_t seed_;
  std::unique_ptr<World> world_;
  std::function<void()> pending_;
  std::uint64_t ops_begun_ = 0;
  std::uint64_t ops_completed_ = 0;
};

std::unique_ptr<core::DecisionService> make_session(const std::string& app,
                                                    const std::string& scenario,
                                                    std::uint64_t seed) {
  const std::string scenario_name = scenario.empty() ? "baseline" : scenario;
  if (app == "nullop" || app.empty()) {
    return std::make_unique<WorldDecisionService>(
        ServiceApp::kNullop, "nullop", scenario_name, seed,
        nullop_session_world(scenario, seed));
  }
  if (app == "speech") {
    SpeechExperiment::Config cfg;
    cfg.scenario = parse_scenario(scenario_name, kSpeechScenarios);
    cfg.seed = seed;
    return std::make_unique<WorldDecisionService>(
        ServiceApp::kSpeech, "speech", name(cfg.scenario), seed,
        SpeechExperiment(cfg).session_world());
  }
  if (app == "latex") {
    LatexExperiment::Config cfg;
    cfg.scenario = parse_scenario(scenario_name, kLatexScenarios);
    cfg.seed = seed;
    return std::make_unique<WorldDecisionService>(
        ServiceApp::kLatex, "latex", name(cfg.scenario), seed,
        LatexExperiment(cfg).session_world());
  }
  if (app == "pangloss") {
    PanglossExperiment::Config cfg;
    cfg.scenario = parse_scenario(scenario_name, kPanglossScenarios);
    cfg.seed = seed;
    return std::make_unique<WorldDecisionService>(
        ServiceApp::kPangloss, "pangloss", name(cfg.scenario), seed,
        PanglossExperiment(cfg).session_world());
  }
  SPECTRA_REQUIRE(false, "unknown app: " + app +
                             " (use nullop, speech, latex, or pangloss)");
  return nullptr;
}

}  // namespace

core::ServiceFactory app_service_factory() {
  return [](const std::string& app, const std::string& scenario,
            std::uint64_t seed) { return make_session(app, scenario, seed); };
}

}  // namespace spectra::scenario
