#include "scenario/app_service.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "scenario/batch.h"
#include "scenario/experiment.h"
#include "scenario/scenarios.h"
#include "scenario/world.h"
#include "util/assert.h"

namespace spectra::scenario {
namespace {

// ---- nullop world (the Fig-10 overhead testbed as a service) -------------

std::vector<solver::Alternative> nullop_alternatives(const World& world) {
  std::vector<solver::Alternative> alts;
  for (double level : {1.0, 0.0}) {
    alts.push_back({0, -1, {level}});
    for (MachineId id : world.server_ids()) alts.push_back({1, id, {level}});
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
    NullOp::execute(*world);
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

// A trained world serving App's operation, one operation at a time. The
// request's input is range-checked (App::input) before any decision.
template <typename App>
class Session : public core::DecisionService {
 public:
  Session(std::string scenario, std::uint64_t seed,
          std::unique_ptr<World> world)
      : scenario_(std::move(scenario)), seed_(seed), world_(std::move(world)) {}

  core::ServiceStatus status() const override {
    core::ServiceStatus s;
    s.app = App::kName;
    s.scenario = scenario_;
    s.seed = seed_;
    s.op = App::kOperation;
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
    SPECTRA_REQUIRE(request.op.empty() || request.op == App::kOperation,
                    "session serves operation " + std::string(App::kOperation) +
                        ", not " + request.op);
    typename App::Input input = App::input(request);
    const core::OperationChoice choice = App::begin(*world_, input);
    SPECTRA_REQUIRE(choice.ok, "no feasible alternative for " +
                                   std::string(App::kOperation));
    pending_ = std::move(input);
    ++ops_begun_;

    const auto& desc = world_->spectra().operation_desc(App::kOperation);
    core::ServiceDecision d;
    d.ok = true;
    d.from_model = choice.from_model;
    d.plan = desc.plans[static_cast<std::size_t>(choice.alternative.plan)].name;
    d.placement = choice.alternative.server < 0
                      ? "local"
                      : "s" + std::to_string(choice.alternative.server);
    d.fidelity = world_->spectra().fidelity_map(App::kOperation,
                                                choice.alternative.fidelity);
    d.predicted_time_s = choice.predicted.time;
    d.predicted_energy_j = choice.predicted.energy;
    d.log_utility = choice.log_utility;
    d.t = world_->engine().now();
    return d;
  }

  core::ServiceOpResult end_op() override {
    SPECTRA_REQUIRE(world_->spectra().op_in_progress() && pending_,
                    "no operation in progress in this session");
    const typename App::Input input = std::move(*pending_);
    pending_.reset();
    try {
      App::execute(*world_, input);
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
  std::string scenario_;
  std::uint64_t seed_;
  std::unique_ptr<World> world_;
  std::optional<typename App::Input> pending_;  // begun, not yet executed
  std::uint64_t ops_begun_ = 0;
  std::uint64_t ops_completed_ = 0;
};

// A session of App under `scenario`, on the world each of its experiment's
// measured runs gets.
template <typename App>
std::unique_ptr<core::DecisionService> app_session(const std::string& scenario,
                                                   std::uint64_t seed) {
  typename Experiment<App>::Config cfg;
  cfg.scenario = parse_scenario(scenario, App::kScenarios);
  cfg.seed = seed;
  return std::make_unique<Session<App>>(name(cfg.scenario), seed,
                                        Experiment<App>(cfg).session_world());
}

std::unique_ptr<core::DecisionService> make_session(const std::string& app,
                                                    const std::string& scenario,
                                                    std::uint64_t seed) {
  const std::string scenario_name = scenario.empty() ? "baseline" : scenario;
  if (app == NullOp::kName || app.empty()) {
    return std::make_unique<Session<NullOp>>(
        scenario_name, seed, nullop_session_world(scenario, seed));
  }
  if (app == Speech::kName) return app_session<Speech>(scenario_name, seed);
  if (app == Latex::kName) return app_session<Latex>(scenario_name, seed);
  if (app == Pangloss::kName) return app_session<Pangloss>(scenario_name, seed);
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
