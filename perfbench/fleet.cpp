// fleet_100k: fleet_scale's 100k rung (100k clients, 800 servers, 120 s
// horizon, weighted-fair admission, automatic islands, mixed workload) at
// two pool workers plus the helping caller.
//
// The work runs in rounds: generate the scenario and build the world (both
// timed as set-up, so set-up is sampled across the whole run), then step the
// world barrier by barrier to the horizon. Every round must end in the
// rung's state fingerprint, so the simulated metrics are exact however many
// rounds fit.
//
// The scenario seed is the rung's 42 whatever --seed says. FleetScenario
// draws its one 6x flash crowd uniformly over 10-80% of the horizon, so the
// scenario seed decides whether the crowd meets the diurnal peak or trough:
// across seeds 1-6 that moved peak RSS by 20%, simulated latency by 16% and
// the p99 super-step by 3x. Another scenario seed is another workload, not
// another sample of this one.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/admission.h"
#include "exec/thread_pool.h"
#include "harness.h"
#include "scenario/fleet.h"

namespace perfbench {
namespace {

using namespace spectra;  // NOLINT

constexpr std::uint64_t kScenarioSeed = 42;
constexpr std::uint64_t kFingerprint = 0xb98c59e653fef8b2ULL;
constexpr std::size_t kJobs = 2;

scenario::FleetConfig fleet_config() {
  scenario::FleetConfig cfg;
  cfg.clients = 100'000;
  cfg.servers = 800;
  cfg.seed = kScenarioSeed;
  cfg.horizon = 120.0;
  cfg.admission.policy = core::AdmissionPolicy::kWeightedFair;
  cfg.workload = scenario::FleetWorkload::kMixed;
  return cfg;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

struct Round {
  scenario::FleetReport report;
  double generate_s = 0.0;
  double build_s = 0.0;
  double run_s = 0.0;  // steps plus finish
  double finish_s = 0.0;
  std::vector<double> step_us;
};

// Generates the scenario, builds a world on it and runs it to the horizon
// one lookahead barrier at a time; `pool` null runs islands inline
// (--jobs=1).
Round run_round(exec::ThreadPool* pool, SpanLog* trace, std::uint64_t round) {
  Round r;
  const auto g0 = Clock::now();
  const auto sc =
      std::make_shared<const scenario::FleetScenario>(fleet_config());
  const auto b0 = Clock::now();
  scenario::FleetWorld world(sc, nullptr);
  const auto b1 = Clock::now();
  r.generate_s = seconds_between(g0, b0);
  r.build_s = seconds_between(b0, b1);
  const double horizon = sc->config().horizon;
  const double h = world.plan().lookahead;
  SpanLog::Id root = SpanLog::kRoot;
  if (trace != nullptr) {
    root = trace->open(pool != nullptr ? "fleet.round" : "fleet.round_jobs1",
                       round, SpanLog::kRoot, g0);
    trace->add("scenario.generate", round, root, g0, b0);
    trace->add("scenario.world_build", round, root, b0, b1);
  }
  const auto r0 = Clock::now();
  while (world.now() < horizon) {
    const double next =
        std::min(horizon, (std::floor(world.now() / h) + 1) * h);
    const auto s0 = Clock::now();
    world.run_until(next, pool);
    const auto s1 = Clock::now();
    r.step_us.push_back(micros_between(s0, s1));
    if (trace != nullptr) trace->add("sim.step", round, root, s0, s1);
  }
  const auto f0 = Clock::now();
  r.report = world.finish(pool);
  const auto f1 = Clock::now();
  r.finish_s = seconds_between(f0, f1);
  r.run_s = seconds_between(r0, f1);
  if (trace != nullptr) {
    trace->add("scenario.finish", round, root, f0, f1);
    trace->close(root, f1);
  }
  return r;
}

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

PhaseResult run_fleet(const Options& /*options*/, double seconds,
                      SpanLog* trace) {
  PhaseResult out;
  exec::ThreadPool pool(kJobs);
  std::vector<double> setup_s, generate_s, build_s, finish_s, round_rate,
      step_us, step_sum_us;
  scenario::FleetReport first;
  Clock::time_point deadline{};
  // Round 0 warms the allocator and the pool; it is checked but not timed.
  for (std::uint64_t round = 0; round == 0 || Clock::now() < deadline;
       ++round) {
    const Round r = run_round(&pool, trace, round);
    const scenario::FleetReport& rep = r.report;
    const std::uint64_t events = rep.decisions + rep.ops_completed;
    out.attempted += events;
    const std::string tag = "round " + std::to_string(round) + ": ";
    if (rep.ops_completed != rep.ops_local + rep.ops_remote) {
      out.fail(events, tag + "ops_completed != ops_local + ops_remote");
    } else if (rep.decisions < rep.ops_completed) {
      out.fail(events, tag + "decisions < ops_completed");
    } else if (rep.fingerprint != kFingerprint) {
      out.fail(events, tag + "fingerprint " + hex(rep.fingerprint) + " != " +
                           hex(kFingerprint));
    }
    setup_s.push_back(r.generate_s + r.build_s);
    generate_s.push_back(r.generate_s);
    build_s.push_back(r.build_s);
    if (round == 0) {
      first = rep;
      deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
      continue;
    }
    finish_s.push_back(r.finish_s);
    round_rate.push_back(static_cast<double>(events) / r.run_s);
    step_us.insert(step_us.end(), r.step_us.begin(), r.step_us.end());
    double sum = 0.0;
    for (const double s : r.step_us) sum += s;
    step_sum_us.push_back(sum);
  }

  const std::size_t rounds = round_rate.size();
  out.setup_s = {median(setup_s), setup_s.size(),
                 "median of per-round scenario generation + world build"};
  out.ops_per_s = {median(round_rate), rounds,
                   "events (decisions + completions) per second, median over " +
                       std::to_string(rounds) + " rounds to the horizon"};
  out.p50_us = {median(step_us), step_us.size(),
                "wall time of one lookahead super-step, p50 over all steps"};
  out.p99_us = {util::percentile_value(step_us, 99.0), step_us.size(),
                "wall time of one lookahead super-step, p99 over all steps"};
  out.sim_op_s = {first.latency_mean_s, first.ops_completed,
                  "FleetReport latency_mean_s (every round equal)"};
  out.sim_energy_j = {
      first.aggregate_energy_j / static_cast<double>(first.ops_completed),
      first.ops_completed,
      "aggregate client+server energy per completed op (every round equal)"};

  if (trace != nullptr) {
    // One extra round with islands inline gives the pool's speed-up.
    const Round inline_round = run_round(nullptr, trace, 1'000'000);
    out.attempted +=
        inline_round.report.decisions + inline_round.report.ops_completed;
    if (inline_round.report.fingerprint != kFingerprint) {
      out.fail(inline_round.report.decisions +
                   inline_round.report.ops_completed,
               "--jobs=1 round fingerprint differs from --jobs=2");
    }
    double inline_sum = 0.0;
    for (const double s : inline_round.step_us) inline_sum += s;
    const double p_hi = highest_supported_percentile(step_us.size());
    const std::string pct = std::to_string(static_cast<int>(p_hi));
    out.layers = {
        median_metric("scenario.generate_s", "s", generate_s,
                      "FleetScenario constructor, median over rounds"),
        median_metric("scenario.world_build_s", "s", build_s,
                      "FleetWorld constructor, median over rounds"),
        median_metric("sim.step_us.p50", "us", step_us,
                      "FleetWorld::run_until(next barrier), p50"),
        {"sim.step_us.p_hi", "us",
         {util::percentile_value(step_us, p_hi), step_us.size(),
          "FleetWorld::run_until(next barrier), p" + pct +
              " (highest with ten samples beyond)"}},
        median_metric("scenario.finish_s", "s", finish_s,
                      "FleetWorld::finish after the last barrier, median"),
        {"exec.jobs2_speedup", "ratio",
         {inline_sum / median(step_sum_us), step_sum_us.size(),
          "step time at --jobs=1 / median step time at --jobs=2"}},
        {"fleet.remote_share", "share",
         {share(first.ops_remote, first.ops_completed), 1,
          "ops_remote / ops_completed (exact)"}},
        {"fleet.cross_island_share", "share",
         {share(first.ops_cross_island, first.decisions), 1,
          "ops_cross_island / decisions (exact)"}},
        {"fleet.reject_share", "share",
         {share(first.ops_rejected, first.decisions), 1,
          "ops_rejected / decisions (exact)"}},
    };
  }
  return out;
}

}  // namespace perfbench
