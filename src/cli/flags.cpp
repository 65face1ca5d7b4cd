#include "cli/flags.h"

#include <map>

namespace spectra::cli {
namespace {

const std::map<std::string, std::set<std::string>>& command_table() {
  // --verbose is global; every command accepts it.
  static const std::map<std::string, std::set<std::string>> table = {
      {"speech",
       {"scenario", "utterance", "trials", "seed", "jobs", "fault-plan",
        "health", "failover", "trace", "metrics", "verbose"}},
      {"latex",
       {"scenario", "doc", "trials", "seed", "jobs", "fault-plan", "health",
        "failover", "trace", "metrics", "verbose"}},
      {"pangloss",
       {"scenario", "words", "trials", "seed", "jobs", "fault-plan", "health",
        "failover", "trace", "metrics", "verbose"}},
      {"overhead", {"servers", "runs", "trace", "metrics", "verbose"}},
      {"explain",
       {"scenario", "utterance", "doc", "words", "seed", "trace", "metrics",
        "verbose"}},
      {"chaos",
       {"app", "plans", "ops", "seed", "intensity", "horizon", "jobs",
        "no-replay", "json", "trace", "metrics", "verbose"}},
      {"fleet",
       {"clients", "servers", "seed", "horizon", "policy", "queue-bound",
        "slots", "islands", "lookahead", "workload", "jobs", "fault-plan",
        "json", "trace", "metrics", "verbose"}},
      // Shared with the bench/fleet_scale binary, which parses itself as
      // this command so scale typos die with usage instead of OOMing.
      {"fleet_scale",
       {"json", "jobs", "clients", "servers", "policy", "islands",
        "lookahead", "workload", "detect-concurrency", "verbose"}},
      {"faults", {"plan", "fault-plan", "verbose"}},
      {"scenarios", {"verbose"}},
      {"serve",
       {"host", "port", "record", "resume", "max-conns", "max-sessions",
        "idle-timeout", "frame-timeout", "stats-json", "verbose"}},
      {"replay", {"host", "port", "verbose"}},
      {"loadgen",
       {"host", "port", "clients", "ops", "app", "scenario", "seed", "chaos",
        "chaos-seed", "json", "verbose"}},
      {"help", {"verbose"}},
  };
  return table;
}

}  // namespace

const std::set<std::string>* allowed_flags(const std::string& command) {
  const auto& table = command_table();
  const auto it = table.find(command);
  return it == table.end() ? nullptr : &it->second;
}

std::optional<std::string> unknown_flag(const std::string& command,
                                        const Args& args) {
  const std::set<std::string>* allowed = allowed_flags(command);
  if (allowed == nullptr) return std::nullopt;
  for (const std::string& name : args.given()) {
    if (!allowed->count(name)) return name;
  }
  return std::nullopt;
}

}  // namespace spectra::cli
