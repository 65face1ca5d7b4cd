// Recovery bench: what does losing the chosen server mid-operation cost?
//
// The old failure ladder walked a fixed fallback order with no probing: it
// committed the full retry policy (max_attempts x per-attempt timeout) to
// every rung, dead or alive. Health-aware failover (the default since the
// resilience PR) re-runs the solver over surviving candidates and
// pre-flight-pings the winner, so an additional dead server costs one
// failed round trip instead of the whole retry budget.
//
// Two scenarios on the ThinkPad latex testbed, crash fired right after the
// placement decision:
//   one-down  — only the chosen server crashes; the other remote survives.
//               Both policies route to the survivor; this is the parity
//               check (failover must not be slower than the ladder).
//   two-down  — both remote servers crash; local execution is the only way
//               out. The ladder burns the retry budget on each dead rung;
//               failover pings the second corpse and fails fast.
#include <fstream>
#include <iostream>

#include "apps/latex.h"
#include "bench_util.h"
#include "fault/fault_plan.h"
#include "scenario/experiment.h"
#include "scenario/world.h"
#include "util/table.h"

using namespace spectra;            // NOLINT
using namespace spectra::scenario;  // NOLINT

namespace {

struct PolicyResult {
  Aggregate recovery;   // elapsed of the interrupted op
  Aggregate follow_up;  // elapsed of the next op after the crash
  int local_fallbacks = 0;  // interrupted ops that collapsed to local
};

struct Trial {
  double recovery_s = 0.0;
  double follow_up_s = 0.0;
  bool fell_back_local = false;
};

Trial run_trial(std::uint64_t seed, bool health_aware, bool crash_both) {
  LatexExperiment::Config cfg;
  cfg.seed = seed;
  if (!health_aware) {
    cfg.spectra_overrides = [](core::SpectraClientConfig& c) {
      c.resolve_on_failover = false;
      c.health.enabled = false;
    };
  }
  const LatexExperiment exp(cfg);
  auto w = exp.trained_world();
  auto& spectra = w->spectra();

  const Latex::Input doc("small");
  const auto choice = Latex::begin(*w, doc);
  if (!choice.ok || choice.alternative.server < 0) return {};
  fault::FaultPlan plan;
  for (MachineId sid : {kServerA, kServerB}) {
    if (!crash_both && sid != choice.alternative.server) continue;
    fault::FaultEvent crash;
    crash.at = 0.0;
    crash.kind = fault::FaultKind::kServerCrash;
    crash.a = sid;
    crash.duration = 3600.0;  // outlives both operations
    plan.scheduled.push_back(crash);
  }
  w->arm_faults(plan);

  Trial t;
  const double t0 = w->engine().now();
  Latex::execute(*w, doc);
  // Degrading adopts the co-located server under the client's own id.
  t.fell_back_local = spectra.current_choice().alternative.server <= kClient;
  spectra.end_fidelity_op();
  t.recovery_s = w->engine().now() - t0;

  const double t1 = w->engine().now();
  exp.run_spectra_on(*w);
  t.follow_up_s = w->engine().now() - t1;
  return t;
}

PolicyResult run_policy(const std::vector<std::uint64_t>& seeds,
                        BatchRunner& batch, bool health_aware,
                        bool crash_both) {
  const auto trials = batch.map(seeds.size(), [&](std::size_t i) {
    return run_trial(seeds[i], health_aware, crash_both);
  });
  PolicyResult r;
  for (const auto& t : trials) {
    r.recovery.stats.add(t.recovery_s);
    r.follow_up.stats.add(t.follow_up_s);
    if (t.fell_back_local) ++r.local_fallbacks;
  }
  return r;
}

std::string policy_json(const PolicyResult& r) {
  std::ostringstream os;
  os << "{\"recovery_s\": " << r.recovery.stats.mean()
     << ", \"follow_up_s\": " << r.follow_up.stats.mean()
     << ", \"local_fallbacks\": " << r.local_fallbacks << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  BatchRunner batch(bench::jobs_from_args(argc, argv));
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
  }

  const auto seeds = bench::trial_seeds();
  std::cout << "Recovery cost when servers crash mid-operation (ThinkPad "
               "latex, small\ndocument, "
            << seeds.size() << " trials, 90% CI).\n\n";

  struct Scenario {
    const char* name;
    bool crash_both;
  };
  const Scenario scenarios[] = {{"one-down", false}, {"two-down", true}};

  util::Table table;
  table.set_header({"scenario", "policy", "interrupted op (s)",
                    "next op (s)", "local fallbacks"});
  std::string rows_json;
  bool failover_wins = true;
  for (const auto& sc : scenarios) {
    const PolicyResult ladder = run_policy(seeds, batch, false,
                                           sc.crash_both);
    const PolicyResult failover = run_policy(seeds, batch, true,
                                             sc.crash_both);
    table.add_row({sc.name, "legacy ladder", ladder.recovery.cell(),
                   ladder.follow_up.cell(),
                   std::to_string(ladder.local_fallbacks)});
    table.add_row({sc.name, "health-aware failover",
                   failover.recovery.cell(), failover.follow_up.cell(),
                   std::to_string(failover.local_fallbacks)});
    table.add_separator();
    const double lr = ladder.recovery.stats.mean();
    const double fr = failover.recovery.stats.mean();
    std::cout << sc.name << " interrupted-op speedup: "
              << util::Table::num(lr / fr, 2) << "x\n";
    // Parity on one-down, a clear win on two-down; 5% tolerance covers
    // the re-decision overhead failover charges.
    if (fr > lr * 1.05) failover_wins = false;
    if (!rows_json.empty()) rows_json += ",\n";
    rows_json += std::string("    {\"scenario\": \"") + sc.name +
                 "\", \"ladder\": " + policy_json(ladder) +
                 ", \"failover\": " + policy_json(failover) +
                 ", \"recovery_speedup\": " + util::Table::num(lr / fr, 4) +
                 "}";
  }
  std::cout << "\n" << table.to_string() << "\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"trials\": " << seeds.size() << ",\n  \"scenarios\": [\n"
        << rows_json << "\n  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  // The whole point of the resilience work: failover must never be slower
  // than the ladder it replaced, and must win when several servers die.
  return failover_wins ? 0 : 1;
}
