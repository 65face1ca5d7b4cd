// fleet_scale: fleet-world scaling bench.
//
// Runs the FleetScenario/FleetWorld stack at increasing client counts
// against a shared server pool and reports, per scale:
//
//   * deterministic outcomes — ops completed, remote share, rejections,
//     p50/p99 end-to-end latency (virtual time), mean server utilization,
//     aggregate energy, Jain's fairness index, and the state fingerprint
//     (the stdout table carries only these, so its bytes are identical for
//     any --jobs);
//   * wall-clock throughput — run seconds, decisions/sec and events/sec,
//     reported only in the --json output's "wall" sections;
//   * memory — peak RSS and allocator high-water, reported only in the
//     --json output's "mem" section (bytes-per-client is meaningful when a
//     single scale runs per process, which is how scripts/bench.sh drives
//     the ladder for BENCH_fleet.json).
//
// Usage: fleet_scale [--json=FILE] [--jobs=N] [--clients=N] [--servers=N]
//                    [--policy=fifo|wfq] [--islands=N] [--lookahead=SECS]
//                    [--workload=mixed|speech]
//        fleet_scale --detect-concurrency
//
// --clients=N runs a single scale of N clients (servers default to N/125,
// min 2; override with --servers) instead of the default ladder
// 64/256/1000/10k/100k. Options are validated against the fleet_scale
// entry in cli/flags.cpp — an unknown flag, a zero/negative count, an
// absurd scale, or a --jobs outside [0, 256] prints usage and exits 2
// before any work starts.
// --islands/--lookahead/--workload forward to FleetConfig (islands=0 =
// auto shard; the scaling-curve stage of scripts/bench.sh sweeps --jobs at
// fixed islands and reads the events_per_sec field from the JSON).
// --detect-concurrency prints the hardware concurrency the thread pool
// actually sees (used by scripts/bench.sh to annotate results honestly on
// constrained hosts).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli/args.h"
#include "cli/flags.h"
#include "core/admission.h"
#include "exec/thread_pool.h"
#include "obs/memaudit.h"
#include "obs/trace.h"
#include "scenario/batch.h"
#include "scenario/fleet.h"
#include "util/assert.h"
#include "util/table.h"

using namespace spectra;            // NOLINT
using namespace spectra::scenario;  // NOLINT

namespace {

// Largest fleet the bench will attempt: past this the world would not fit
// commodity memory and a typo (--clients=10000000) should fail fast, not
// OOM the host.
constexpr long kMaxClients = 2'000'000;
constexpr long kMaxServers = 50'000;
constexpr long kMaxIslands = 4'096;

struct Scale {
  std::size_t clients;
  std::size_t servers;
};

struct Knobs {
  std::size_t islands = 0;
  double lookahead = 0.0;
  FleetWorkload workload = FleetWorkload::kMixed;
};

FleetConfig config_for(const Scale& scale, core::AdmissionPolicy policy,
                       const Knobs& knobs) {
  FleetConfig cfg;
  cfg.clients = scale.clients;
  cfg.servers = scale.servers;
  cfg.seed = 42;
  cfg.horizon = 120.0;
  cfg.admission.policy = policy;
  cfg.islands = knobs.islands;
  cfg.lookahead = knobs.lookahead;
  cfg.workload = knobs.workload;
  return cfg;
}

int usage(std::ostream& out) {
  out << "usage: fleet_scale [--json=FILE] [--jobs=N] [--clients=N]\n"
         "                   [--servers=N] [--policy=fifo|wfq] [--islands=N]\n"
         "                   [--lookahead=SECS] [--workload=mixed|speech]\n"
         "       fleet_scale --detect-concurrency\n"
         "  --clients: 1.." << kMaxClients
      << " (runs one scale instead of the ladder)\n"
         "  --servers: 1.." << kMaxServers
      << " (requires --clients; default clients/125, min 2)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::size_t single_clients = 0;
  std::size_t single_servers = 0;
  core::AdmissionPolicy policy = core::AdmissionPolicy::kWeightedFair;
  Knobs knobs;
  std::size_t jobs = 1;
  try {
    // Parse as the "fleet_scale" command so the shared per-command flag
    // table rejects unknown options the same way the spectra CLI does.
    std::vector<std::string> tokens = {"fleet_scale"};
    for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
    const cli::Args args = cli::Args::parse(tokens);
    if (const auto bad = cli::unknown_flag("fleet_scale", args)) {
      std::cerr << "fleet_scale: unknown option --" << *bad << "\n";
      return usage(std::cerr);
    }
    if (args.has_flag("detect-concurrency")) {
      // What the pool would actually use for --jobs=0: one worker per
      // hardware thread (floor 1). bench.sh records both numbers.
      const std::size_t hw = exec::ThreadPool::hardware_concurrency();
      exec::ThreadPool pool(scenario::resolve_jobs("0"));
      std::cout << "hardware_concurrency " << hw << "\n"
                << "pool_workers " << pool.size() << "\n";
      return 0;
    }
    json_path = args.get("json", "");
    if (args.option("clients")) {
      single_clients = args.get_count("clients", 0, kMaxClients);
    }
    if (args.option("servers")) {
      SPECTRA_REQUIRE(single_clients > 0, "--servers requires --clients");
      single_servers = args.get_count("servers", 0, kMaxServers);
    }
    const std::string pol = args.get("policy", "wfq");
    SPECTRA_REQUIRE(pol == "fifo" || pol == "wfq",
                    "--policy must be fifo or wfq, got " + pol);
    if (pol == "fifo") policy = core::AdmissionPolicy::kFifo;
    knobs.islands = args.get_bounded("islands", 0, 0, kMaxIslands);
    knobs.lookahead = args.get_double("lookahead", 0.0);
    SPECTRA_REQUIRE(knobs.lookahead >= 0.0, "--lookahead must be >= 0");
    const std::string wl = args.get("workload", "mixed");
    SPECTRA_REQUIRE(wl == "mixed" || wl == "speech",
                    "--workload must be mixed or speech, got " + wl);
    if (wl == "speech") knobs.workload = FleetWorkload::kSpeech;
    jobs = scenario::resolve_jobs(args.option("jobs"));
  } catch (const util::ContractError& err) {
    std::cerr << "fleet_scale: " << err.what() << "\n";
    return usage(std::cerr);
  }

  std::vector<Scale> scales;
  if (single_clients > 0) {
    const std::size_t servers =
        single_servers > 0 ? single_servers
                           : std::max<std::size_t>(2, single_clients / 125);
    scales.push_back({single_clients, servers});
  } else {
    scales = {{64, 2}, {256, 4}, {1000, 8}, {10'000, 80}, {100'000, 800}};
  }

  util::Table table("fleet scaling (policy=" +
                    std::string(core::to_string(policy)) +
                    ", jobs=" + std::to_string(jobs) + ")");
  table.set_header({"clients", "servers", "isl", "ops", "remote%", "xisl",
                    "rejected", "p50 s", "p99 s", "util", "energy kJ",
                    "jain", "fingerprint"});

  std::vector<FleetReport> reports;
  for (const Scale& scale : scales) {
    const FleetConfig cfg = config_for(scale, policy, knobs);
    const FleetReport r = run_fleet(cfg, jobs, nullptr);
    reports.push_back(r);
    const double remote_pct =
        r.ops_completed > 0
            ? 100.0 * static_cast<double>(r.ops_remote) /
                  static_cast<double>(r.ops_completed)
            : 0.0;
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(r.fingerprint));
    table.add_row({std::to_string(r.clients), std::to_string(r.servers),
                   std::to_string(r.islands),
                   std::to_string(r.ops_completed),
                   util::Table::num(remote_pct, 1),
                   std::to_string(r.ops_cross_island),
                   std::to_string(r.ops_rejected),
                   util::Table::num(r.latency_p50_s, 3),
                   util::Table::num(r.latency_p99_s, 3),
                   util::Table::num(r.server_utilization_mean, 3),
                   util::Table::num(r.aggregate_energy_j / 1e3, 2),
                   util::Table::num(r.jain_fairness, 4), fp});
  }
  table.render(std::cout);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "cannot open " << json_path << "\n";
      return 1;
    }
    out << "{\n  \"bench\": \"fleet_scale\",\n";
    out << "  \"policy\": \"" << core::to_string(policy) << "\",\n";
    out << "  \"jobs\": " << jobs << ",\n";
    // Memory is process-wide (peak RSS and allocator high-water are
    // monotonic), so bytes_per_client divides by the largest scale this
    // process ran. bench.sh runs one scale per process, which makes the
    // number exact per ladder rung.
    std::size_t max_clients = 0;
    for (const Scale& s : scales) max_clients = std::max(max_clients,
                                                         s.clients);
    const std::uint64_t rss = obs::peak_rss_bytes();
    out << "  \"mem\": {\n";
    out << "    \"memaudit\": " << (obs::memaudit_enabled() ? "true"
                                                            : "false")
        << ",\n";
    out << "    \"peak_rss_bytes\": " << rss << ",\n";
    out << "    \"peak_live_bytes\": " << obs::memaudit_peak_live_bytes()
        << ",\n";
    out << "    \"max_clients\": " << max_clients << ",\n";
    out << "    \"bytes_per_client\": "
        << (max_clients > 0 ? rss / max_clients : 0) << "\n";
    out << "  },\n";
    out << "  \"scales\": [\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
      // FleetReport::to_json is a pretty-printed object; indent it into
      // the array.
      std::string body = reports[i].to_json();
      std::string indented = "    ";
      for (char c : body) {
        indented.push_back(c);
        if (c == '\n') indented += "    ";
      }
      while (!indented.empty() &&
             (indented.back() == ' ' || indented.back() == '\n')) {
        indented.pop_back();
      }
      out << indented << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }
  return 0;
}
