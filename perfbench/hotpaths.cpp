// hotpaths: the benchmark program behind perfbench/run.py.
//
// Usage: hotpaths --workload NAME --seed N --seconds S --trace 0|1
//                 [--out DIR]
//
// Workloads: decide_pangloss, fleet_100k, serve_nullop (see README.md in
// this directory for why each exists and what it stresses).
//
// --trace 0 runs the workload for S seconds and reports the end-to-end
// metrics. --trace 1 spends the S seconds in four parts: the workload
// untraced, the workload traced, and the two other workloads traced, so
// one traced run reports every per-layer metric and the tracing overhead
// (traced minus untraced p50_us and ops_per_s on this workload and seed).
// Spans go to DIR/spans_<workload>.jsonl.
//
// Human-readable lines come first; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exit status is 0
// when a result was printed, 1 on a usage error or a run that could not
// produce finite figures.
#include <charconv>
#include <cmath>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"

namespace {

using namespace perfbench;  // NOLINT

using Runner = PhaseResult (*)(const Options&, double, SpanLog*);

struct Workload {
  const char* name;
  Runner run;
};

constexpr Workload kWorkloads[] = {
    {"decide_pangloss", run_decide},
    {"fleet_100k", run_fleet},
    {"serve_nullop", run_serve},
};

int usage(const std::string& why) {
  std::cerr << "hotpaths: " << why
            << "\nusage: hotpaths --workload decide_pangloss|fleet_100k|"
               "serve_nullop --seed N --seconds S --trace 0|1 [--out DIR]\n";
  return 1;
}

// Shortest text that reads back as the same double.
std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  const Workload* selected = nullptr;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--out") {
        options.out_dir = value;
      } else {
        return usage("unknown option " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) selected = &w;
  }
  if (selected == nullptr) {
    return usage("unknown workload '" + options.workload + "'");
  }
  if (!(options.seconds > 0.0 && options.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }

  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  auto tally = [&](const PhaseResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    problems.insert(problems.end(), r.problems.begin(), r.problems.end());
  };
  try {
    if (!options.trace) {
      const PhaseResult r = selected->run(options, options.seconds, nullptr);
      tally(r);
      metrics = {
          {"setup_s", "s", r.setup_s},
          {"ops_per_s", "1/s", r.ops_per_s},
          {"p50_us", "us", r.p50_us},
          {"p99_us", "us", r.p99_us},
          {"peak_rss_mb", "MiB",
           {peak_rss_mib(), 1, "VmHWM of the process at exit"}},
          {"sim_op_s", "virtual_s", r.sim_op_s},
          {"sim_energy_j", "virtual_J", r.sim_energy_j},
      };
    } else {
      const double part = options.seconds / 4.0;
      const PhaseResult untraced = selected->run(options, part, nullptr);
      tally(untraced);
      SpanLog spans;
      const PhaseResult traced = selected->run(options, part, &spans);
      tally(traced);
      metrics = traced.layers;
      for (const Workload& w : kWorkloads) {
        if (&w == selected) continue;
        const PhaseResult other = w.run(options, part, &spans);
        tally(other);
        metrics.insert(metrics.end(), other.layers.begin(), other.layers.end());
      }
      const std::string basis = "traced minus untraced, same workload and seed";
      metrics.push_back(
          {"trace.overhead_p50_us", "us",
           {traced.p50_us.value - untraced.p50_us.value, traced.p50_us.samples,
            basis}});
      metrics.push_back(
          {"trace.overhead_ops_per_s", "1/s",
           {traced.ops_per_s.value - untraced.ops_per_s.value,
            traced.ops_per_s.samples, basis}});
      const std::string path =
          options.out_dir + "/spans_" + options.workload + ".jsonl";
      spans.write_jsonl(path);
      std::cout << "spans " << spans.size() << " written to " << path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "hotpaths: " << options.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  std::cout << "workload " << options.workload << " seed " << options.seed
            << " seconds " << options.seconds << " trace "
            << (options.trace ? 1 : 0) << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << json_number(m.figure.value) << " "
              << m.unit << "  [n=" << m.figure.samples << "; "
              << m.figure.basis << "]\n";
  }
  std::cout << "ops attempted " << attempted << " failed " << failed << "\n";
  for (const std::string& p : problems) {
    std::cerr << "check failed: " << p << "\n";
  }

  std::ostringstream json;
  json << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.figure.value)) {
      std::cerr << "hotpaths: metric " << m.name << " is not finite\n";
      return 1;
    }
    json << (i == 0 ? "" : ", ") << "\"" << m.name
         << "\": {\"value\": " << json_number(m.figure.value)
         << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
