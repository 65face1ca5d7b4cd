// Shared pieces of the hot-path benchmark: options, clocks, order
// statistics, the in-memory span log of the traced run, and the figures
// each workload phase hands back to main().
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 30.0;
  bool trace = false;
  std::string out_dir = ".";
};

// Empty input throws; main() then exits 1 without a result.
inline double median(std::vector<double> xs) {
  return spectra::util::percentile_value(std::move(xs), 50.0);
}
// The run-level figure of a timing taken per block of ops: its 5th
// percentile over the run's blocks (the 95th for a rate). Other tenants of
// the host slow a share of a run's blocks, and that share changes from run
// to run; the least-slowed blocks repeat best across runs (README.md,
// "Noise"). A figure with too few blocks to leave ten beyond the 5th
// percentile names a higher one.
inline double quiet_time(std::vector<double> xs, double percentile = 5.0) {
  return spectra::util::percentile_value(std::move(xs), percentile);
}
inline double quiet_rate(std::vector<double> xs) {
  return spectra::util::percentile_value(std::move(xs), 95.0);
}
// The highest of p99/p95/p90/p75/p50 with at least ten samples beyond it,
// as a percentage (the reporting rule for tail percentiles).
double highest_supported_percentile(std::size_t samples);

// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mib();

// Moves the calling thread from CPU to CPU between samples of a
// single-threaded loop, and restores its affinity when destroyed. On a
// shared host each vCPU's speed drifts on its own (the same set-up ran 1.8x
// slower on one vCPU than on another), so a run that the scheduler happens
// to keep on a slow one would read slow throughout.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Runs the thread on the i-th (mod count) CPU it was allowed at
  // construction. A host that refuses the change leaves it where it was.
  void pin(std::size_t i);

 private:
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
};

// One figure a phase reports: its value, how many samples it summarizes,
// and what it is a statistic of.
struct Figure {
  double value = 0.0;
  std::size_t samples = 0;
  std::string basis;
};

struct Metric {
  std::string name;
  std::string unit;
  Figure figure;
};

// What one timed phase of a workload produced. Timing figures are filled
// by every phase; `layers` only by traced phases.
struct PhaseResult {
  Figure setup_s;
  Figure ops_per_s;
  Figure p50_us;
  Figure p99_us;
  Figure sim_op_s;
  Figure sim_energy_j;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // first few check failures, for stderr
  std::vector<Metric> layers;

  void fail(std::uint64_t ops, std::string what);
};

// Spans recorded in memory by the traced run and written as JSONL at exit.
// Each span names the layer call it timed, the span that contains it (-1
// for a root), and the operation it belongs to. Single-threaded: threads
// that trace keep their own log and merge() it afterwards.
class SpanLog {
 public:
  using Id = std::int32_t;
  static constexpr Id kRoot = -1;

  Id add(const char* name, std::uint64_t op, Id parent, Clock::time_point start,
         Clock::time_point end);
  // Opens a span whose end is set later with close(); for parents whose
  // children are recorded first.
  Id open(const char* name, std::uint64_t op, Id parent,
          Clock::time_point start);
  void close(Id id, Clock::time_point end);
  void merge(const SpanLog& other);

  // Durations of every span called `name`, in microseconds.
  std::vector<double> durations_us(std::string_view name) const;
  std::size_t size() const { return spans_.size(); }

  // One line per span, with its self time: its duration minus the part of
  // it that child spans cover.
  void write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t op;
    Id parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<double> self_times_us() const;

  std::vector<Span> spans_;
};

// The metric `name` as the median of `samples`.
Metric median_metric(std::string name, std::string unit,
                         const std::vector<double>& samples,
                         std::string basis);

// The workloads. Each phase builds its own state (timed as set-up), runs
// for `seconds` of measurement and checks its outputs; with a span log it
// also records spans and fills the per-layer metrics of its layers.
PhaseResult run_decide(const Options& options, double seconds, SpanLog* trace);
PhaseResult run_fleet(const Options& options, double seconds, SpanLog* trace);
PhaseResult run_serve(const Options& options, double seconds, SpanLog* trace);

}  // namespace perfbench
