#include "scenario/soak.h"

#include <sstream>

#include "obs/trace.h"
#include "scenario/experiment.h"
#include "util/assert.h"
#include "util/fnv.h"
#include "util/rng.h"

namespace spectra::scenario {

namespace {

// FNV-1a over the plan's observable outcome. Anything that could diverge
// between a run and its replay — op results, fault firing order, final
// virtual time — gets folded in, so equal fingerprints mean bit-identical
// execution.
class Fingerprint {
 public:
  void add_u64(std::uint64_t v) { h_ = util::fnv_mix(h_, v); }
  void add_double(double d) { h_ = util::fnv_mix(h_, d); }
  void add_string(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= util::kFnvPrime;
    }
    add_u64(s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = util::kFnvOffsetBasis;
};

// The one dispatch from a SoakApp to its traits type: returns fn(App{}).
template <typename Fn>
auto with_app(SoakApp app, Fn&& fn) {
  switch (app) {
    case SoakApp::kSpeech: return fn(Speech{});
    case SoakApp::kLatex: return fn(Latex{});
    case SoakApp::kPangloss: return fn(Pangloss{});
  }
  throw util::ContractError("unknown soak app");
}

// Each operation's input, drawn from the plan's operation stream.
Speech::Input draw_input(Speech, util::Rng& rng) {
  return Speech::Input(rng.uniform(1.0, 3.0));
}
Latex::Input draw_input(Latex, util::Rng& rng) {
  return Latex::Input(rng.bernoulli(0.5) ? "large" : "small");
}
Pangloss::Input draw_input(Pangloss, util::Rng& rng) {
  return Pangloss::Input(static_cast<double>(rng.uniform_int(4, 30)));
}

// One full Spectra operation (begin / execute / end) on `input`. A
// util::ContractError mid-operation — the file server partitioning during
// a fetch, say — aborts the op; the client's op state is finalized so the
// next operation starts clean.
template <typename App>
SoakOpOutcome drive_op(World& world, const typename App::Input& input,
                       Fingerprint& fp, std::vector<std::string>& violations) {
  core::SpectraClient& client = world.spectra();
  const util::Seconds before = world.engine().now();
  SoakOpOutcome outcome = SoakOpOutcome::kAborted;
  try {
    const core::OperationChoice choice = App::begin(world, input);
    if (!choice.ok) {
      outcome = SoakOpOutcome::kNoChoice;
    } else {
      App::execute(world, input);
      const monitor::OperationUsage usage = client.end_fidelity_op();
      outcome = SoakOpOutcome::kCompleted;
      fp.add_double(usage.elapsed);
      fp.add_double(usage.energy_valid ? usage.energy : -1.0);
      fp.add_u64(static_cast<std::uint64_t>(choice.alternative.plan));
      fp.add_u64(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(choice.alternative.server)));
    }
  } catch (const util::ContractError&) {
    outcome = SoakOpOutcome::kAborted;
    if (client.op_in_progress()) {
      try {
        (void)client.end_fidelity_op();
      } catch (const util::ContractError&) {
        violations.push_back("aborted operation could not be finalized");
      }
    }
  }
  if (world.engine().now() < before) {
    violations.push_back("virtual time went backwards across an operation");
  }
  if (client.op_in_progress()) {
    violations.push_back("operation left in progress");
  }
  fp.add_u64(static_cast<std::uint64_t>(outcome));
  fp.add_double(world.engine().now());
  return outcome;
}

template <typename App>
SoakPlanResult run_plan(const SoakConfig& config, const World& tmpl,
                        std::uint64_t chaos_seed,
                        obs::Observability* run_obs) {
  SoakPlanResult result;
  result.chaos_seed = chaos_seed;
  const fault::FaultPlan plan =
      fault::make_chaos_plan(chaos_seed, soak_topology(config.app),
                             config.chaos);

  std::unique_ptr<World> world = tmpl.clone(run_obs);
  sim::Engine& engine = world->engine();
  const util::Seconds start = engine.now();
  world->arm_faults(plan);

  // Operation parameters flow from the chaos seed, independent of the
  // world's own randomness, so run and replay draw identically.
  util::Rng op_rng(chaos_seed * 0x2545f4914f6cdd1dULL +
                   0x9e3779b97f4a7c15ULL);
  Fingerprint fp;

  const util::Seconds gap =
      config.chaos.horizon / static_cast<double>(config.ops_per_plan + 1);
  for (int k = 0; k < config.ops_per_plan; ++k) {
    world->settle(gap);
    switch (drive_op<App>(*world, draw_input(App{}, op_rng), fp,
                          result.violations)) {
      case SoakOpOutcome::kCompleted: ++result.completed; break;
      case SoakOpOutcome::kNoChoice: ++result.no_choice; break;
      case SoakOpOutcome::kAborted: ++result.aborted; break;
    }
  }

  // Fault-free tail: run past the horizon so every bounded fault heals,
  // then give the healed world a moment to converge before the final
  // consistency sweep.
  const util::Seconds elapsed = engine.now() - start;
  if (elapsed < config.chaos.horizon) {
    world->settle(config.chaos.horizon - elapsed);
  }
  world->settle(5.0);

  if (engine.now() <= start) {
    result.violations.push_back("virtual time did not advance");
  }
  if (world->spectra().op_in_progress()) {
    result.violations.push_back("operation in progress after final settle");
  }
  std::vector<MachineId> coda_hosts{kClient};
  for (MachineId id : world->server_ids()) coda_hosts.push_back(id);
  for (MachineId id : coda_hosts) {
    for (const std::string& v : world->coda(id).check_invariants()) {
      result.violations.push_back("coda@" + std::to_string(id) + ": " + v);
    }
  }

  fp.add_string(world->fault_injector().trace_string());
  fp.add_double(engine.now());
  result.fingerprint = fp.value();
  result.virtual_end = engine.now();
  return result;
}

int sum_over(const std::vector<SoakPlanResult>& plans,
             int SoakPlanResult::*count) {
  int n = 0;
  for (const auto& p : plans) n += p.*count;
  return n;
}

}  // namespace

const char* to_string(SoakApp app) {
  return with_app(app, [](auto a) { return decltype(a)::kName; });
}

fault::ChaosTopology soak_topology(SoakApp app) {
  fault::ChaosTopology topo;
  if (with_app(app, [](auto a) { return decltype(a)::kTestbed; }) ==
      Testbed::kItsy) {
    // kItsy: client 0, T20 server 1, file server 9.
    topo.links = {{kClient, kServerT20},
                  {kClient, kFileServer},
                  {kServerT20, kFileServer}};
    topo.servers = {kServerT20};
  } else {
    // kThinkpad: client 0, servers A/B, file server 9.
    topo.links = {{kClient, kServerA},   {kClient, kServerB},
                  {kClient, kFileServer}, {kServerA, kServerB},
                  {kServerA, kFileServer}, {kServerB, kFileServer}};
    topo.servers = {kServerA, kServerB};
  }
  return topo;
}

int SoakReport::total_completed() const {
  return sum_over(plans, &SoakPlanResult::completed);
}

int SoakReport::total_aborted() const {
  return sum_over(plans, &SoakPlanResult::aborted);
}

int SoakReport::total_no_choice() const {
  return sum_over(plans, &SoakPlanResult::no_choice);
}

std::vector<std::string> SoakReport::all_violations() const {
  std::vector<std::string> out;
  for (const auto& p : plans) {
    for (const auto& v : p.violations) {
      out.push_back("seed " + std::to_string(p.chaos_seed) + ": " + v);
    }
  }
  return out;
}

std::string SoakReport::to_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"app\": " << obs::json_quote(to_string(config.app)) << ",\n";
  os << "  \"plans\": " << config.plans << ",\n";
  os << "  \"ops_per_plan\": " << config.ops_per_plan << ",\n";
  os << "  \"base_seed\": " << config.base_seed << ",\n";
  os << "  \"horizon_s\": " << config.chaos.horizon << ",\n";
  os << "  \"intensity\": " << config.chaos.intensity << ",\n";
  os << "  \"replay_check\": " << (config.replay_check ? "true" : "false")
     << ",\n";
  os << "  \"completed\": " << total_completed() << ",\n";
  os << "  \"aborted\": " << total_aborted() << ",\n";
  os << "  \"no_choice\": " << total_no_choice() << ",\n";
  const auto violations = all_violations();
  os << "  \"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) os << ", ";
    os << obs::json_quote(violations[i]);
  }
  os << "],\n";
  os << "  \"clean\": " << (violations.empty() ? "true" : "false") << ",\n";
  os << "  \"plan_results\": [\n";
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const SoakPlanResult& p = plans[i];
    std::ostringstream hex;
    hex << std::hex << p.fingerprint;
    os << "    {\"seed\": " << p.chaos_seed
       << ", \"completed\": " << p.completed
       << ", \"aborted\": " << p.aborted
       << ", \"no_choice\": " << p.no_choice << ", \"fingerprint\": \"0x"
       << hex.str() << "\", \"replay_identical\": "
       << (p.replay_identical ? "true" : "false")
       << ", \"virtual_end_s\": " << p.virtual_end
       << ", \"violations\": " << p.violations.size() << "}"
       << (i + 1 < plans.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

std::string SoakReport::summary() const {
  std::ostringstream os;
  os << to_string(config.app) << " soak: " << plans.size() << " plans, "
     << total_completed() << " ops completed, " << total_aborted()
     << " aborted, " << total_no_choice() << " infeasible";
  const auto violations = all_violations();
  if (violations.empty()) {
    os << ", 0 invariant violations";
  } else {
    os << ", " << violations.size() << " INVARIANT VIOLATIONS";
  }
  if (config.replay_check) {
    int mismatches = 0;
    for (const auto& p : plans) {
      if (!p.replay_identical) ++mismatches;
    }
    os << (mismatches == 0 ? ", replay bit-identical"
                           : ", REPLAY MISMATCHES: " +
                                 std::to_string(mismatches));
  }
  return os.str();
}

SoakReport run_soak(const SoakConfig& config, BatchRunner& runner,
                    obs::Observability* session) {
  SPECTRA_REQUIRE(config.plans > 0, "soak needs at least one plan");
  SPECTRA_REQUIRE(config.ops_per_plan > 0,
                  "soak needs at least one op per plan");
  SoakReport report;
  report.config = config;
  report.plans = with_app(config.app, [&](auto app) {
    using App = decltype(app);
    // Fetch the app's default trained template before fanning out, so
    // workers clone instead of racing to train. It is the experiments'
    // cached template, shared with ordinary scenario runs in the process.
    typename Experiment<App>::Config ec;
    ec.seed = config.world_seed;
    const std::shared_ptr<const World> tmpl =
        Experiment<App>(ec).template_world();
    return runner.map_runs(
        session, static_cast<std::size_t>(config.plans),
        [&](std::size_t i, obs::Observability* run_obs) {
          const std::uint64_t seed =
              config.base_seed + static_cast<std::uint64_t>(i) * 7919;
          SoakPlanResult result =
              run_plan<App>(config, *tmpl, seed, run_obs);
          if (config.replay_check) {
            const SoakPlanResult replay =
                run_plan<App>(config, *tmpl, seed, nullptr);
            result.replay_identical =
                replay.fingerprint == result.fingerprint;
            if (!result.replay_identical) {
              result.violations.push_back(
                  "replay fingerprint mismatch (run vs replay clone)");
            }
          }
          return result;
        });
  });
  return report;
}

}  // namespace spectra::scenario
