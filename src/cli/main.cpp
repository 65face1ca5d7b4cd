// spectra — command-line driver for the Spectra reproduction testbeds.
//
//   spectra speech   [--scenario=S] [--utterance=SECS] [--trials=N] [--seed=N]
//   spectra latex    [--scenario=S] [--doc=small|large] [--trials=N] [--seed=N]
//   spectra pangloss [--scenario=S] [--words=N] [--trials=N] [--seed=N]
//   spectra overhead [--servers=N] [--runs=N]
//   spectra explain (speech|latex|pangloss) [--scenario=S] [...]
//   spectra scenarios
//
// `run` commands print the paper-style table for one scenario: every
// alternative measured from an identical trained state, plus Spectra's
// choice. `explain` prints the decision trace — what Spectra predicted for
// every alternative and why the winner won. Use --verbose for component
// logs (or set SPECTRA_LOG=info|debug).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>

#include "cli/args.h"
#include "cli/flags.h"
#include "fault/fault_plan.h"
#include "obs/obs.h"
#include "scenario/app_service.h"
#include "scenario/batch.h"
#include "scenario/experiment.h"
#include "scenario/fleet.h"
#include "scenario/soak.h"
#include "scenario/sweep.h"
#include "serve/loadgen.h"
#include "serve/replay.h"
#include "serve/server.h"
#include "util/assert.h"
#include "util/log.h"
#include "util/shutdown.h"
#include "util/table.h"

namespace spectra::cli {
namespace {

using namespace spectra::scenario;  // NOLINT: CLI brevity

int usage() {
  std::cout <<
      R"(spectra — self-tuning remote execution (ICDCS 2002 reproduction)

usage:
  spectra speech   [--scenario=S] [--utterance=SECS] [--trials=N] [--seed=N]
                   [--jobs=N] [--fault-plan=FILE] [--health=on|off]
                   [--failover=resolve|ladder] [--trace=FILE] [--metrics=FILE]
  spectra latex    [--scenario=S] [--doc=small|large] [--trials=N] [--seed=N]
                   [--jobs=N] [--fault-plan=FILE] [--health=on|off]
                   [--failover=resolve|ladder] [--trace=FILE] [--metrics=FILE]
  spectra pangloss [--scenario=S] [--words=N] [--trials=N] [--seed=N]
                   [--jobs=N] [--fault-plan=FILE] [--health=on|off]
                   [--failover=resolve|ladder] [--trace=FILE] [--metrics=FILE]
  spectra overhead [--servers=N] [--runs=N] [--metrics=FILE]
  spectra chaos    [--app=speech|latex|pangloss|all] [--plans=N] [--ops=N]
                   [--seed=N] [--intensity=X] [--horizon=SECS] [--jobs=N]
                   [--no-replay] [--json=FILE] [--trace=FILE] [--metrics=FILE]
  spectra explain (speech|latex|pangloss) [--scenario=S] [--utterance=SECS]
                  [--doc=D] [--words=N] [--seed=N] [--trace=FILE]
                  [--metrics=FILE]
  spectra fleet    [--clients=N] [--servers=N] [--seed=N] [--horizon=SECS]
                   [--policy=fifo|wfq] [--queue-bound=N] [--slots=N]
                   [--islands=N] [--lookahead=SECS] [--workload=mixed|speech]
                   [--jobs=N] [--fault-plan=FILE] [--json=FILE]
                   [--trace=FILE] [--metrics=FILE]
  spectra faults   --plan=FILE   (validate a fault plan, print canonical form)
  spectra serve    [--port=N] [--host=ADDR] [--record=FILE [--resume]]
                   [--max-conns=N] [--max-sessions=N] [--idle-timeout=SECS]
                   [--frame-timeout=SECS] [--stats-json=FILE]
  spectra replay   <record> [--host=ADDR] [--port=N]
  spectra loadgen  --port=N [--host=ADDR] [--clients=N] [--ops=N]
                   [--app=nullop|speech|latex|pangloss] [--scenario=S]
                   [--seed=N] [--chaos=X] [--chaos-seed=N] [--json=FILE]
  spectra scenarios

flags: --verbose (component logs; SPECTRA_LOG=debug for more)
parallelism: --jobs=N fans measured runs across N worker threads, N in
  [0, 256] (0 = one per hardware thread; default 1, or SPECTRA_JOBS, which
  must be in the same range). Results, traces, and
  metrics are merged in deterministic run order, so output is bit-identical
  for any N. SPECTRA_REUSE=0 disables trained-world reuse (retrain per run).
observability: --trace=FILE writes one JSONL event per decision, operation
  end, reintegration, degradation, fault, and phase (virtual-time keyed;
  bit-identical across replays of a seed). --metrics=FILE writes the final
  counter/histogram registry (CSV when FILE ends in .csv, JSONL otherwise).
fault plans (--fault-plan): text files of scheduled and probabilistic fault
  events (link partitions/flaps, server crashes, latency spikes, battery
  cliffs) armed after training; see DESIGN.md "Fault injection".
failure handling: --health=off disables server health tracking (suspicion
  penalties and circuit breakers); --failover=ladder reverts mid-operation
  recovery to the fixed degradation ladder instead of re-running the solver
  over surviving servers. Defaults: on / resolve. See DESIGN.md "Failure
  handling".
fleet worlds (`spectra fleet`): instantiates N clients (heterogeneous device
  mix, diurnal arrival waves, flash crowds) against a shared server pool
  with admission control (--policy=fifo|wfq), and reports fleet metrics:
  p50/p99 op latency, server utilization, aggregate energy, Jain's fairness
  index. The stdout table and any trace/metrics are byte-identical for any
  --jobs; wall-clock throughput lives only in the --json report.
  Large worlds shard into islands (--islands=N, 0 = auto from the
  client/server counts) that advance in parallel under --jobs and exchange
  cross-island effects at a conservative lookahead barrier (--lookahead=SECS,
  default: the 5 s status-poll interval). --workload=speech swaps the op mix
  for heavier recognition-shaped work. Sharding changes results (islands
  price cross-island placement conservatively) but never varies with --jobs.
chaos soak (`spectra chaos`): runs N seeded random fault plans per app on
  cloned trained worlds, asserts liveness/consistency invariants, and
  replays every plan to confirm bit-identical outcomes. Exit status is
  non-zero on any violation. --json=FILE writes a machine-readable report.
daemon (`spectra serve`): a non-blocking loopback socket server driving the
  decision pipeline for remote clients (hello, register_app, begin/end
  fidelity op, resume, status, shutdown over a length-prefixed binary
  protocol). --port=0 picks an ephemeral port (printed on stdout).
  --record=FILE appends every decision/result as deterministic JSONL and
  doubles as a write-ahead log: after a crash, --record=FILE --resume replays
  that log, refuses it unless it replays byte-for-byte, rebuilds every
  session, and keeps appending to it. `spectra replay` re-runs a record
  (in-process, or against a daemon with --port) and exits non-zero unless
  decisions match byte-for-byte. Self-protection: --max-sessions /
  --max-conns shed excess load with a retryable error, --idle-timeout /
  --frame-timeout close stalled or slowloris connections (0 disables).
  `spectra loadgen` floods a daemon with concurrent loopback clients that
  reconnect, resume their sessions, and re-issue idempotently, and reports
  throughput/latency; --chaos=X makes them inject seeded wire faults
  (delays, fragmented frames, stalls, corrupt headers, RST aborts; X scales
  the fault rate). SIGINT/SIGTERM shut the daemon down cleanly (record
  flushed).
scenarios:
  speech:   baseline energy network cpu file-cache
  latex:    baseline file-cache reintegrate energy
  pangloss: baseline file-cache cpu
)";
  return 0;
}

// Worker count for batch commands: --jobs, else SPECTRA_JOBS, else 1.
// 0 means one worker per hardware thread.
std::size_t jobs_arg(const Args& args) {
  return resolve_jobs(args.option("jobs"));
}

// --health / --failover knobs for the run commands. Returns an empty
// function when both keep their defaults, so experiments stay eligible for
// the process-wide trained-world cache (overrides force a private train).
std::function<void(core::SpectraClientConfig&)> resilience_overrides(
    const Args& args) {
  const std::string health = args.get("health", "on");
  SPECTRA_REQUIRE(health == "on" || health == "off",
                  "--health must be on or off");
  const std::string failover = args.get("failover", "resolve");
  SPECTRA_REQUIRE(failover == "resolve" || failover == "ladder",
                  "--failover must be resolve or ladder");
  if (health == "on" && failover == "resolve") return {};
  return [health, failover](core::SpectraClientConfig& c) {
    if (health == "off") c.health.enabled = false;
    if (failover == "ladder") c.resolve_on_failover = false;
  };
}

std::optional<fault::FaultPlan> fault_plan_arg(const Args& args) {
  const std::string path = args.get("fault-plan", "");
  if (path.empty()) return std::nullopt;
  return fault::FaultPlan::load(path);
}

// Observability requested on the command line: a shared bundle when
// --trace and/or --metrics is present, otherwise disabled (null ptr()).
struct CliObs {
  std::unique_ptr<obs::Observability> bundle;
  std::string metrics_path;

  obs::Observability* ptr() { return bundle.get(); }

  // Write the metrics file (if requested) once the command is done.
  void finish() {
    if (bundle != nullptr && !metrics_path.empty()) {
      bundle->metrics().export_to_file(metrics_path);
    }
  }
};

CliObs obs_args(const Args& args) {
  CliObs out;
  const std::string trace_path = args.get("trace", "");
  out.metrics_path = args.get("metrics", "");
  if (trace_path.empty() && out.metrics_path.empty()) return out;
  out.bundle = std::make_unique<obs::Observability>();
  if (!trace_path.empty()) out.bundle->trace_to_file(trace_path);
  return out;
}

// Trials per run command: each one trains and measures a whole world, so
// the cap only stops a typo from asking for millions.
constexpr long kMaxTrials = 1000;

void set_input(const Args& args, SpeechExperiment::Config& cfg) {
  cfg.test_utterance_s = args.get_double("utterance", 2.0);
}

void set_input(const Args& args, LatexExperiment::Config& cfg) {
  cfg.doc = args.get("doc", "small");
}

void set_input(const Args& args, PanglossExperiment::Config& cfg) {
  // Checked before --words narrows to int.
  cfg.test_words =
      Pangloss::Input(static_cast<double>(args.get_int("words", 10))).words;
}

// A run or explain command's configuration: --scenario and the app's input.
template <typename App>
typename Experiment<App>::Config app_config(const Args& args) {
  typename Experiment<App>::Config cfg;
  cfg.scenario =
      parse_scenario(args.get("scenario", "baseline"), App::kScenarios);
  set_input(args, cfg);
  (void)cfg.input();  // range-check before any work
  return cfg;
}

// Sweep `cfg` over --trials seeds from --seed, with the shared
// --fault-plan / --health / --failover settings.
template <typename App>
SweepResult run_sweep(const Args& args, long default_trials,
                      obs::Observability* session,
                      typename Experiment<App>::Config cfg) {
  const auto seeds =
      trial_seeds(static_cast<std::uint64_t>(args.get_int("seed", 1000)),
                  args.get_count("trials", default_trials, kMaxTrials));
  cfg.fault_plan = fault_plan_arg(args);
  cfg.spectra_overrides = resilience_overrides(args);
  BatchRunner batch(jobs_arg(args));
  return sweep<Experiment<App>>(
      batch, session, seeds,
      [&](std::uint64_t seed, obs::Observability* trial_obs) {
        auto trial = cfg;
        trial.seed = seed;
        trial.obs = trial_obs;
        return trial;
      });
}

// The run commands' table: time and energy of every alternative, then
// Spectra's choice.
void print_time_energy_table(const SweepResult& result,
                             const std::string& title) {
  std::cout << alternatives_table(
      result, title, {{"time (s)", run_time}, {"energy (J)", run_energy}},
      "<== Spectra");
}

int cmd_speech(const Args& args) {
  const auto cfg = app_config<Speech>(args);
  CliObs obs = obs_args(args);
  print_time_energy_table(run_sweep<Speech>(args, 3, obs.ptr(), cfg),
                          "Speech recognition — scenario: " +
                              name(cfg.scenario));
  obs.finish();
  return 0;
}

int cmd_latex(const Args& args) {
  const auto cfg = app_config<Latex>(args);
  CliObs obs = obs_args(args);
  print_time_energy_table(run_sweep<Latex>(args, 3, obs.ptr(), cfg),
                          "Latex (" + cfg.doc + " document) — scenario: " +
                              name(cfg.scenario));
  obs.finish();
  return 0;
}

int cmd_pangloss(const Args& args) {
  const auto cfg = app_config<Pangloss>(args);
  CliObs obs = obs_args(args);
  std::cout << pangloss_table(run_sweep<Pangloss>(args, 1, obs.ptr(), cfg),
                              "Pangloss-Lite (" +
                                  std::to_string(cfg.test_words) +
                                  " words) — scenario: " + name(cfg.scenario));
  obs.finish();
  return 0;
}

int cmd_overhead(const Args& args) {
  CliObs obs = obs_args(args);
  OverheadExperiment::Config cfg;
  // Overhead servers take machine ids 1..N, which must stay below the file
  // server's id.
  cfg.servers = args.get_bounded("servers", 1, 0,
                                 static_cast<long>(kFileServer) - 1);
  cfg.measured_runs =
      static_cast<int>(args.get_count("runs", 200, 1'000'000));
  cfg.obs = obs.ptr();
  const auto r = OverheadExperiment(cfg).run();
  util::Table table("Null-operation overhead, " +
                    std::to_string(cfg.servers) + " server(s)");
  table.set_header({"activity", "wall ms"});
  table.add_row({"register_fidelity", util::Table::num(r.register_ms, 4)});
  table.add_row({"begin_fidelity_op", util::Table::num(r.begin_ms, 4)});
  table.add_row({"  file cache prediction",
                 util::Table::num(r.cache_prediction_ms, 4)});
  table.add_row({"  choosing alternative",
                 util::Table::num(r.choosing_ms, 4)});
  table.add_row({"do_local_op", util::Table::num(r.do_local_ms, 4)});
  table.add_row({"end_fidelity_op", util::Table::num(r.end_ms, 4)});
  table.add_row({"total", util::Table::num(r.total_ms, 4)});
  table.add_row({"virtual decision cost (ms, simulated)",
                 util::Table::num(r.virtual_decision_ms, 2)});
  std::cout << table.to_string();
  obs.finish();
  return 0;
}

// Train App's world, run one Spectra operation on the flags' input, and
// print its decision trace.
template <typename App>
void explain(const Args& args, obs::Observability* obs) {
  auto cfg = app_config<App>(args);
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1000));
  cfg.obs = obs;
  cfg.spectra_overrides = [](core::SpectraClientConfig& c) {
    c.trace_decisions = true;
  };
  const Experiment<App> experiment(cfg);
  const auto world = experiment.trained_world();
  experiment.run_spectra_on(*world);
  const auto* trace = world->spectra().last_decision_trace();
  SPECTRA_REQUIRE(trace != nullptr, "no decision trace captured");
  std::cout << trace->to_string();
}

int cmd_explain(const Args& args) {
  SPECTRA_REQUIRE(!args.positionals().empty(),
                  "explain needs an application: speech|latex|pangloss");
  const std::string app = args.positionals()[0];
  CliObs obs = obs_args(args);
  if (app == Speech::kName) {
    explain<Speech>(args, obs.ptr());
  } else if (app == Latex::kName) {
    explain<Latex>(args, obs.ptr());
  } else if (app == Pangloss::kName) {
    explain<Pangloss>(args, obs.ptr());
  } else {
    SPECTRA_REQUIRE(false, "unknown application: " + app);
  }
  obs.finish();
  return 0;
}

int cmd_chaos(const Args& args) {
  const std::string app_arg = args.get("app", "all");
  std::vector<SoakApp> apps_to_soak;
  for (SoakApp app : {SoakApp::kSpeech, SoakApp::kLatex, SoakApp::kPangloss}) {
    if (app_arg == "all" || app_arg == to_string(app)) {
      apps_to_soak.push_back(app);
    }
  }
  SPECTRA_REQUIRE(!apps_to_soak.empty(),
                  "--app must be speech, latex, pangloss, or all");

  CliObs obs = obs_args(args);
  BatchRunner batch(jobs_arg(args));
  const std::string json_path = args.get("json", "");

  bool clean = true;
  std::ostringstream json;
  json << "[\n";
  for (std::size_t i = 0; i < apps_to_soak.size(); ++i) {
    if (util::shutdown_requested()) break;  // flush what we have so far
    if (i > 0) json << ",\n";
    SoakConfig cfg;
    cfg.app = apps_to_soak[i];
    cfg.plans = static_cast<int>(args.get_int("plans", 25));
    cfg.ops_per_plan = static_cast<int>(args.get_int("ops", 4));
    cfg.base_seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    cfg.chaos.intensity = args.get_double("intensity", 1.0);
    cfg.chaos.horizon = args.get_double("horizon", 60.0);
    cfg.replay_check = !args.has_flag("no-replay");
    const SoakReport report = run_soak(cfg, batch, obs.ptr());
    std::cout << report.summary() << "\n";
    for (const std::string& v : report.all_violations()) {
      std::cout << "  violation: " << v << "\n";
    }
    // A replay mismatch is one of the report's violations.
    clean = clean && report.clean();
    json << report.to_json();
  }
  json << "]\n";
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    SPECTRA_REQUIRE(out.good(), "cannot write " + json_path);
    out << json.str();
  }
  obs.finish();
  return clean ? 0 : 1;
}

// Per-server admission sizes: every server reserves its queue and slots up
// front, so the caps stop a typo from exhausting memory.
constexpr long kMaxQueueBound = 4096;
constexpr long kMaxSlots = 64;

int cmd_fleet(const Args& args) {
  FleetConfig cfg;
  cfg.clients = args.get_count("clients", 1000, 1'000'000);
  cfg.servers = args.get_count("servers", 8, 10'000);
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  cfg.horizon = args.get_double("horizon", 300.0);
  const std::string policy = args.get("policy", "wfq");
  SPECTRA_REQUIRE(policy == "fifo" || policy == "wfq",
                  "--policy must be fifo or wfq");
  cfg.admission.policy = policy == "fifo" ? core::AdmissionPolicy::kFifo
                                          : core::AdmissionPolicy::kWeightedFair;
  cfg.admission.queue_bound =
      args.get_bounded("queue-bound", 64, 0, kMaxQueueBound);
  cfg.admission.service_slots = args.get_count("slots", 4, kMaxSlots);
  cfg.islands = static_cast<std::size_t>(args.get_int("islands", 0));
  cfg.lookahead = args.get_double("lookahead", 0.0);
  const std::string workload = args.get("workload", "mixed");
  SPECTRA_REQUIRE(workload == "mixed" || workload == "speech",
                  "--workload must be mixed or speech");
  cfg.workload = workload == "speech" ? FleetWorkload::kSpeech
                                      : FleetWorkload::kMixed;
  cfg.fault_plan = fault_plan_arg(args);

  CliObs obs = obs_args(args);
  const FleetReport r = run_fleet(cfg, jobs_arg(args), obs.ptr());

  // Deterministic table only — no jobs count, no wall numbers — so stdout
  // is byte-identical for any --jobs (the determinism tests diff it).
  util::Table table("fleet: " + std::to_string(r.clients) + " clients, " +
                    std::to_string(r.servers) + " servers, policy=" +
                    core::to_string(r.policy));
  table.set_header({"metric", "value"});
  table.add_row({"islands", std::to_string(r.islands)});
  table.add_row({"decisions", std::to_string(r.decisions)});
  table.add_row({"ops completed", std::to_string(r.ops_completed)});
  table.add_row({"ops local", std::to_string(r.ops_local)});
  table.add_row({"ops remote", std::to_string(r.ops_remote)});
  table.add_row({"ops cross-island", std::to_string(r.ops_cross_island)});
  table.add_row({"admission rejections", std::to_string(r.ops_rejected)});
  table.add_row({"crash reruns", std::to_string(r.ops_aborted)});
  table.add_row({"battery cliffs", std::to_string(r.battery_cliffs)});
  table.add_row({"p50 latency (s)", util::Table::num(r.latency_p50_s, 3)});
  table.add_row({"p99 latency (s)", util::Table::num(r.latency_p99_s, 3)});
  table.add_row(
      {"server utilization", util::Table::num(r.server_utilization_mean, 3)});
  table.add_row(
      {"aggregate energy (kJ)", util::Table::num(r.aggregate_energy_j / 1e3, 2)});
  table.add_row({"Jain fairness", util::Table::num(r.jain_fairness, 4)});
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(r.fingerprint));
  table.add_row({"fingerprint", fp});
  std::cout << table.to_string();

  const std::string json_path = args.get("json", "");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    SPECTRA_REQUIRE(out.good(), "cannot write " + json_path);
    out << r.to_json();
  }
  obs.finish();
  return 0;
}

int cmd_faults(const Args& args) {
  const std::string path = args.get("plan", args.get("fault-plan", ""));
  SPECTRA_REQUIRE(!path.empty(), "faults needs --plan=FILE");
  const auto plan = fault::FaultPlan::load(path);
  util::Table table("Fault plan: " + path);
  table.set_header({"property", "value"});
  table.add_row({"seed", std::to_string(plan.seed)});
  table.add_row({"horizon (s)", util::Table::num(plan.horizon, 1)});
  table.add_row({"scheduled events", std::to_string(plan.scheduled.size())});
  table.add_row({"probabilistic faults",
                 std::to_string(plan.probabilistic.size())});
  std::cout << table.to_string();
  std::cout << "\ncanonical form:\n" << plan.to_string();
  return 0;
}

int cmd_serve(const Args& args) {
  serve::ServeConfig cfg;
  cfg.host = args.get("host", "127.0.0.1");
  const long port = args.get_int("port", 0);
  SPECTRA_REQUIRE(port >= 0 && port <= 65535, "--port must be 0..65535");
  cfg.port = static_cast<std::uint16_t>(port);
  cfg.record_path = args.get("record", "");
  // --resume continues the --record log in place. A separate resume file
  // would leave a record whose sessions begin mid-history, which no replay
  // accepts; a resume without a record would recover nothing.
  SPECTRA_REQUIRE(!args.option("resume"),
                  "--resume takes no file: it recovers the --record log");
  cfg.resume = args.has_flag("resume");
  SPECTRA_REQUIRE(!cfg.resume || !cfg.record_path.empty(),
                  "--resume needs --record=FILE, the log it recovers");
  cfg.max_connections = args.get_count("max-conns", 256, 65536);
  cfg.max_sessions = args.get_count("max-sessions", 256, 65536);
  cfg.idle_timeout_s = args.get_double("idle-timeout", cfg.idle_timeout_s);
  cfg.frame_timeout_s = args.get_double("frame-timeout", cfg.frame_timeout_s);
  SPECTRA_REQUIRE(cfg.idle_timeout_s >= 0.0 && cfg.frame_timeout_s >= 0.0,
                  "timeouts must be >= 0 (0 disables)");

  serve::Server server(cfg, app_service_factory());
  const std::uint16_t bound = server.bind();
  // Parsed by scripts and tests; keep the format stable.
  std::cout << "spectra serve: listening on " << cfg.host << ":" << bound
            << "\n"
            << std::flush;
  if (cfg.resume) {
    const serve::Server::Stats& s = server.stats();
    std::cout << "spectra serve: recovered " << s.wal_sessions
              << " session(s), " << s.wal_ops << " op(s) from WAL";
    if (s.wal_truncated_bytes > 0) {
      std::cout << " (" << s.wal_truncated_bytes
                << " partial tail byte(s) discarded)";
    }
    std::cout << "\n" << std::flush;
  }
  const serve::Server::Stats stats = server.run();
  std::cout << "spectra serve: shut down ("
            << (stats.shutdown_frame ? "shutdown frame" : "signal") << "), "
            << stats.connections << " connection(s), " << stats.ops
            << " op(s) served\n";
  // The ledger: every refused/closed/dropped unit of work is accounted
  // here (and mirrored as serve.* trace lines).
  std::cout << "spectra serve:";
  for (const auto& [key, counter] : serve::kStatsCounters) {
    std::cout << " " << key << "=" << stats.*counter;
  }
  std::cout << "\n";

  const std::string json_path = args.get("stats-json", "");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    SPECTRA_REQUIRE(out.good(), "cannot write " + json_path);
    const char* sep = "{\n";
    for (const auto& [key, counter] : serve::kStatsCounters) {
      out << sep << "  \"" << key << "\": " << stats.*counter;
      sep = ",\n";
    }
    out << "\n}\n";
  }
  return 0;
}

int cmd_replay(const Args& args) {
  SPECTRA_REQUIRE(!args.positionals().empty(),
                  "replay needs a record file: spectra replay <record>");
  serve::ReplayConfig cfg;
  cfg.record_path = args.positionals()[0];
  cfg.host = args.get("host", "127.0.0.1");
  cfg.port = static_cast<int>(args.get_int("port", -1));
  const serve::ReplayResult r = serve::run_replay(cfg, app_service_factory());

  util::Table table("replay: " + cfg.record_path);
  table.set_header({"metric", "value"});
  table.add_row({"mode", cfg.port < 0 ? "in-process"
                                      : cfg.host + ":" +
                                            std::to_string(cfg.port)});
  table.add_row({"sessions", std::to_string(r.sessions)});
  table.add_row({"operations", std::to_string(r.ops)});
  table.add_row({"decisions identical", r.identical ? "yes" : "NO"});
  std::cout << table.to_string();
  if (!r.identical) {
    std::cout << "first divergence (canonical line " << r.mismatch_line
              << "):\n  recorded: " << r.expected_line
              << "\n  replayed: " << r.actual_line << "\n";
  }
  return r.identical ? 0 : 1;
}

int cmd_loadgen(const Args& args) {
  serve::LoadgenConfig cfg;
  cfg.host = args.get("host", "127.0.0.1");
  const long port = args.get_int("port", 0);
  SPECTRA_REQUIRE(port >= 1 && port <= 65535,
                  "loadgen needs --port=N of a running daemon");
  cfg.port = static_cast<std::uint16_t>(port);
  // One thread per client: cap well below anything that could exhaust the
  // host if a huge (or wrapped-negative) value slips in.
  cfg.clients = args.get_count("clients", 8, 4096);
  cfg.ops_per_client = args.get_count("ops", 16, 1'000'000);
  cfg.app = args.get("app", "nullop");
  cfg.scenario = args.get("scenario", "");
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  cfg.chaos_intensity = args.get_double("chaos", 0.0);
  SPECTRA_REQUIRE(cfg.chaos_intensity >= 0.0, "--chaos must be >= 0");
  cfg.chaos_seed = static_cast<std::uint64_t>(args.get_int("chaos-seed", 0));

  const serve::LoadgenStats s = serve::run_loadgen(cfg);
  util::Table table("loadgen: " + std::to_string(cfg.clients) +
                    " client(s) x " + std::to_string(cfg.ops_per_client) +
                    " op(s), app=" + cfg.app);
  table.set_header({"metric", "value"});
  table.add_row({"ops completed", std::to_string(s.ops)});
  table.add_row({"client errors", std::to_string(s.errors)});
  table.add_row({"wall (s)", util::Table::num(s.wall_s, 3)});
  table.add_row({"requests/sec", util::Table::num(s.rps, 1)});
  table.add_row({"p50 latency (ms)", util::Table::num(s.p50_ms, 3)});
  table.add_row({"p99 latency (ms)", util::Table::num(s.p99_ms, 3)});
  table.add_row({"faults injected", std::to_string(s.faults_injected)});
  table.add_row({"reconnects", std::to_string(s.reconnects)});
  table.add_row({"session resumes", std::to_string(s.resumes)});
  table.add_row({"re-issued requests", std::to_string(s.reissues)});
  table.add_row({"backoff waits", std::to_string(s.retries)});
  std::cout << table.to_string();
  if (s.errors > 0) {
    std::cerr << "loadgen: first error: " << s.first_error << "\n";
  }

  const std::string json_path = args.get("json", "");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    SPECTRA_REQUIRE(out.good(), "cannot write " + json_path);
    out << "{\n"
        << "  \"clients\": " << cfg.clients << ",\n"
        << "  \"ops_per_client\": " << cfg.ops_per_client << ",\n"
        << "  \"app\": \"" << cfg.app << "\",\n"
        << "  \"ops\": " << s.ops << ",\n"
        << "  \"errors\": " << s.errors << ",\n"
        << "  \"wall_s\": " << s.wall_s << ",\n"
        << "  \"requests_per_sec\": " << s.rps << ",\n"
        << "  \"p50_ms\": " << s.p50_ms << ",\n"
        << "  \"p99_ms\": " << s.p99_ms << ",\n"
        << "  \"chaos_intensity\": " << cfg.chaos_intensity << ",\n"
        << "  \"faults_injected\": " << s.faults_injected << ",\n"
        << "  \"reconnects\": " << s.reconnects << ",\n"
        << "  \"resumes\": " << s.resumes << ",\n"
        << "  \"reissues\": " << s.reissues << ",\n"
        << "  \"retries\": " << s.retries << "\n"
        << "}\n";
  }
  return s.errors == 0 ? 0 : 1;
}

int cmd_scenarios() {
  util::Table table("Scenarios (from the paper's evaluation, §4)");
  table.set_header({"application", "scenario", "varies"});
  table.add_row({"speech", "baseline", "nothing (wall power, warm caches)"});
  table.add_row({"speech", "energy", "battery + 10 h lifetime goal"});
  table.add_row({"speech", "network", "client-server bandwidth halved"});
  table.add_row({"speech", "cpu", "CPU-bound job on the client"});
  table.add_row({"speech", "file-cache",
                 "server partitioned + 277 KB LM flushed"});
  table.add_row({"latex", "baseline", "nothing"});
  table.add_row({"latex", "file-cache", "server B cache cold"});
  table.add_row({"latex", "reintegrate", "70 KB input modified on client"});
  table.add_row({"latex", "energy", "reintegrate + battery + aggressive goal"});
  table.add_row({"pangloss", "baseline", "nothing"});
  table.add_row({"pangloss", "file-cache", "12 MB EBMT corpus evicted from B"});
  table.add_row({"pangloss", "cpu", "file-cache + 2 jobs on server A"});
  std::cout << table.to_string();
  return 0;
}

int run(int argc, const char* const* argv) {
  const Args args = Args::parse(argc, argv);
  const std::string& cmd = args.command();
  // A misspelled option used to be silently ignored (a default-policy run
  // looked exactly like the requested one); reject it up front.
  if (const auto bad = unknown_flag(cmd, args)) {
    std::cerr << "unknown option for '" << cmd << "': --" << *bad << "\n\n";
    usage();
    return 2;
  }
  if (args.has_flag("verbose")) {
    util::Logger::instance().set_level(util::LogLevel::kInfo);
  }
  // Every command flushes sinks through normal unwind; the handler only
  // flags the request so long-running loops can break between work units.
  util::install_signal_handlers();
  if (cmd.empty() || cmd == "help") return usage();
  if (cmd == "speech") return cmd_speech(args);
  if (cmd == "latex") return cmd_latex(args);
  if (cmd == "pangloss") return cmd_pangloss(args);
  if (cmd == "overhead") return cmd_overhead(args);
  if (cmd == "explain") return cmd_explain(args);
  if (cmd == "chaos") return cmd_chaos(args);
  if (cmd == "fleet") return cmd_fleet(args);
  if (cmd == "faults") return cmd_faults(args);
  if (cmd == "serve") return cmd_serve(args);
  if (cmd == "replay") return cmd_replay(args);
  if (cmd == "loadgen") return cmd_loadgen(args);
  if (cmd == "scenarios") return cmd_scenarios();
  std::cerr << "unknown command: " << cmd << "\n\n";
  usage();
  return 2;
}

}  // namespace
}  // namespace spectra::cli

int main(int argc, char** argv) {
  try {
    const int rc = spectra::cli::run(argc, argv);
    // By the time a signal-interrupted command returns here its sinks are
    // flushed (normal unwind); report the interruption in the exit status.
    if (spectra::util::shutdown_requested()) {
      std::cerr << "spectra: interrupted, partial results flushed\n";
      return 130;
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
