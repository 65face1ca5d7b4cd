// micro_decision: decision hot-path microbenchmark.
//
// Measures the real wall-clock cost of begin_fidelity_op — the snapshot →
// demand prediction → solver search → utility evaluation pipeline — on
// three trained worlds of increasing decision-space size:
//
//   * nullop_1srv — the fig10 overhead testbed with one candidate server
//     (2 plans x 2 fidelity levels); this is the number scripts/check.sh's
//     perf smoke guards against regression.
//   * speech     — the trained Janus world (6 alternatives, 1 server).
//   * pangloss   — the trained Pangloss world (~97 alternatives, 2
//     servers), the space that dominates the fig08/fig09 benches.
//
// Per scenario: decisions/sec, p50/p95/mean decision latency, and the
// per-stage breakdown the client reports (file-cache prediction, choosing
// the alternative, remaining snapshot/bookkeeping time). Means are
// best-of-`reps` to shed scheduler noise, which only ever adds time;
// latency percentiles come from the best rep's samples.
//
// Also best-of-`reps`: the model updates no decision stage isolates, the
// numeric predictor's add and query and OperationModel::observe.
//
// Usage: micro_decision [--json=FILE] [--decisions=N] [--reps=N]
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.h"
#include "predict/numeric.h"
#include "predict/operation_model.h"
#include "scenario/experiment.h"
#include "scenario/world.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

using namespace spectra;            // NOLINT
using namespace spectra::scenario;  // NOLINT

namespace {

double wall_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One measured decision cycle: time begin_fidelity_op, then run the
// operation and close it so the world stays in a valid steady state.
struct DecisionSample {
  double begin_ms = 0.0;
  double cache_ms = 0.0;
  double choose_ms = 0.0;
  std::size_t evaluations = 0;
  std::size_t memo_hits = 0;
  std::size_t candidate_servers = 0;
};

struct RepResult {
  std::vector<double> latencies_ms;  // one per decision
  double mean_ms = 0.0;
  double cache_ms = 0.0;   // mean per decision
  double choose_ms = 0.0;  // mean per decision
  double other_ms = 0.0;
  double evaluations = 0.0;  // mean per decision
  double memo_hits = 0.0;
  std::size_t candidate_servers = 0;
};

struct ScenarioResult {
  std::string name;
  std::size_t decisions = 0;
  RepResult best;  // rep with the smallest mean latency
  double decisions_per_sec = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
};

template <typename DecideFn>
ScenarioResult run_scenario(const std::string& name, int decisions, int reps,
                            DecideFn&& decide) {
  ScenarioResult out;
  out.name = name;
  out.decisions = static_cast<std::size_t>(decisions);
  // Warm-up: fault in lazily-built state (allocator arenas, model bins).
  for (int i = 0; i < 8; ++i) decide();
  for (int rep = 0; rep < reps; ++rep) {
    RepResult r;
    r.latencies_ms.reserve(decisions);
    double cache = 0, choose = 0, evals = 0, hits = 0;
    for (int i = 0; i < decisions; ++i) {
      const DecisionSample s = decide();
      r.latencies_ms.push_back(s.begin_ms);
      cache += s.cache_ms;
      choose += s.choose_ms;
      evals += static_cast<double>(s.evaluations);
      hits += static_cast<double>(s.memo_hits);
      r.candidate_servers = s.candidate_servers;
    }
    const double n = static_cast<double>(decisions);
    r.mean_ms = std::accumulate(r.latencies_ms.begin(), r.latencies_ms.end(),
                                0.0) /
                n;
    r.cache_ms = cache / n;
    r.choose_ms = choose / n;
    r.other_ms = r.mean_ms - r.cache_ms - r.choose_ms;
    r.evaluations = evals / n;
    r.memo_hits = hits / n;
    if (rep == 0 || r.mean_ms < out.best.mean_ms) out.best = std::move(r);
  }
  out.decisions_per_sec =
      out.best.mean_ms > 0.0 ? 1000.0 / out.best.mean_ms : 0.0;
  out.p50_ms = util::percentile_value(out.best.latencies_ms, 50.0);
  out.p95_ms = util::percentile_value(out.best.latencies_ms, 95.0);
  return out;
}

// ---------------------------------------------------------------- nullop

std::unique_ptr<World> nullop_world(std::size_t servers) {
  WorldConfig wc;
  wc.testbed = Testbed::kOverhead;
  wc.seed = 1;
  wc.overhead_servers = servers;
  auto world = std::make_unique<World>(wc);
  install_null_services(*world);
  world->spectra().register_fidelity(null_op_desc());
  world->settle(6.0);
  // Train past the exploration phase so measured decisions run the full
  // model + solver path.
  for (int i = 0; i < 16; ++i) {
    solver::Alternative local;
    local.plan = 0;
    local.fidelity = {1.0};  // level
    world->spectra().begin_fidelity_op_forced(kNullOp, {}, "", local);
    NullOp::execute(*world);
    world->spectra().end_fidelity_op();
  }
  return world;
}

// The trained world of App's default experiment at seed 1.
template <typename App>
std::unique_ptr<World> trained_world() {
  typename Experiment<App>::Config cfg;
  cfg.seed = 1;
  return Experiment<App>(cfg).trained_world();
}

DecisionSample sample_from(const core::OperationChoice& choice, double t0,
                           double t1) {
  DecisionSample s;
  s.begin_ms = t1 - t0;
  s.cache_ms = choice.wall_cache_prediction * 1000.0;
  s.choose_ms = choice.wall_choosing * 1000.0;
  s.evaluations = choice.evaluations;
  s.memo_hits = choice.memo_hits;
  s.candidate_servers = choice.candidate_servers;
  return s;
}

// `name`: decisions of App's operation on `input` in `world`, each timed
// around begin; the operation then executes and ends untimed.
template <typename App>
ScenarioResult decide(const std::string& name, World& world,
                      const typename App::Input& input, int decisions,
                      int reps) {
  return run_scenario(name, decisions, reps, [&] {
    const double t0 = wall_ms();
    const auto choice = App::begin(world, input);
    const double t1 = wall_ms();
    App::execute(world, input);
    world.spectra().end_fidelity_op();
    return sample_from(choice, t0, t1);
  });
}

// ------------------------------------------------------ model components

struct ComponentResult {
  std::string name;
  double ops_per_sec = 0.0;
  double mean_us = 0.0;
};

// Best-of-`reps` cost of `ops` calls of op(i).
template <typename OpFn>
ComponentResult time_component(const std::string& name, int ops, int reps,
                               OpFn&& op) {
  for (int i = 0; i < 8; ++i) op(i);
  double best_ms = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = wall_ms();
    for (int i = 0; i < ops; ++i) op(i);
    const double ms = wall_ms() - t0;
    if (rep == 0 || ms < best_ms) best_ms = ms;
  }
  return {name, best_ms > 0.0 ? 1000.0 * ops / best_ms : 0.0,
          1000.0 * best_ms / ops};
}

// Discrete {plan, vocab} and continuous {len}, by slot.
predict::FeatureVector component_features(int plan, double len) {
  predict::FeatureVector f;
  f.discrete.reset(2);
  f.discrete.set(0, plan);
  f.discrete.set(1, plan % 2);
  f.continuous.reset(1);
  f.continuous.set(0, len);
  return f;
}

std::vector<ComponentResult> run_components(int reps) {
  constexpr int kOps = 10000;
  predict::NumericPredictor predictor;
  util::Rng rng(1);
  const predict::FeatureVector query = component_features(1, 2.0);
  volatile double sink = 0.0;  // keeps the queries from being dropped
  predict::OperationModel model;
  monitor::OperationUsage usage;
  usage.local_cycles = 1e8;
  usage.remote_cycles = 2e8;
  usage.bytes_sent = 4096;
  usage.energy = 3.0;
  usage.local_file_accesses.push_back({"f1", 1000.0, false, false});
  // Braced initializers run in order: the queries hit a trained predictor.
  return {
      time_component("predictor_add", kOps, reps,
                     [&](int i) {
                       const double y = rng.uniform(0, 1e9);
                       predictor.add(
                           component_features(i % 3, rng.uniform(1.0, 4.0)),
                           &y);
                     }),
      time_component("predictor_query", kOps, reps,
                     [&](int) {
                       double y = 0.0;
                       predictor.predict(query, &y);
                       sink = y;
                     }),
      time_component("operation_model_observe", kOps, reps, [&](int i) {
        model.observe(component_features(i % 3, 1.0 + (i % 5)), usage);
      })};
}

// ----------------------------------------------------------------- main

std::string json_scenario(const ScenarioResult& r) {
  std::ostringstream os;
  os.precision(6);
  os << "    {\"name\": \"" << r.name << "\", "
     << "\"decisions\": " << r.decisions << ", "
     << "\"decisions_per_sec\": " << r.decisions_per_sec << ", "
     << "\"mean_ms\": " << r.best.mean_ms << ", "
     << "\"p50_ms\": " << r.p50_ms << ", "
     << "\"p95_ms\": " << r.p95_ms << ", "
     << "\"stages_ms\": {\"cache_prediction\": " << r.best.cache_ms
     << ", \"choosing\": " << r.best.choose_ms
     << ", \"snapshot_other\": " << r.best.other_ms << "}, "
     << "\"solver\": {\"evaluations\": " << r.best.evaluations
     << ", \"memo_hits\": " << r.best.memo_hits
     << ", \"candidate_servers\": " << r.best.candidate_servers << "}}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  int decisions = 300;
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) json_path = arg.substr(7);
    if (arg.rfind("--decisions=", 0) == 0)
      decisions = std::atoi(arg.c_str() + 12);
    if (arg.rfind("--reps=", 0) == 0) reps = std::atoi(arg.c_str() + 7);
  }
  std::vector<ScenarioResult> results;
  results.push_back(
      decide<NullOp>("nullop_1srv", *nullop_world(1), {}, decisions, reps));
  results.push_back(decide<Speech>("speech", *trained_world<Speech>(),
                                   Speech::Input(2.0), decisions, reps));
  results.push_back(decide<Pangloss>("pangloss", *trained_world<Pangloss>(),
                                     Pangloss::Input(12), decisions, reps));

  util::Table table("micro_decision: begin_fidelity_op hot path (wall-clock)");
  table.set_header({"scenario", "decisions/s", "mean ms", "p50 ms", "p95 ms",
                    "cache ms", "choose ms", "other ms", "evals", "memo"});
  for (const auto& r : results) {
    table.add_row({r.name, util::Table::num(r.decisions_per_sec, 0),
                   util::Table::num(r.best.mean_ms, 4),
                   util::Table::num(r.p50_ms, 4),
                   util::Table::num(r.p95_ms, 4),
                   util::Table::num(r.best.cache_ms, 4),
                   util::Table::num(r.best.choose_ms, 4),
                   util::Table::num(r.best.other_ms, 4),
                   util::Table::num(r.best.evaluations, 1),
                   util::Table::num(r.best.memo_hits, 1)});
  }
  std::cout << table.to_string();

  const std::vector<ComponentResult> components = run_components(reps);
  util::Table ctable("micro_decision: model components (wall-clock)");
  ctable.set_header({"component", "ops/s", "mean us"});
  for (const auto& c : components) {
    ctable.add_row({c.name, util::Table::num(c.ops_per_sec, 0),
                    util::Table::num(c.mean_us, 3)});
  }
  std::cout << ctable.to_string();

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::trunc);
    out << "{\n  \"harness\": \"bench/micro_decision\",\n"
        << "  \"decisions\": " << decisions << ",\n  \"reps\": " << reps
        << ",\n  \"scenarios\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      out << json_scenario(results[i]) << (i + 1 < results.size() ? "," : "")
          << "\n";
    }
    out << "  ],\n  \"components\": [\n";
    for (std::size_t i = 0; i < components.size(); ++i) {
      const ComponentResult& c = components[i];
      out << "    {\"name\": \"" << c.name
          << "\", \"ops_per_sec\": " << c.ops_per_sec
          << ", \"mean_us\": " << c.mean_us << "}"
          << (i + 1 < components.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
