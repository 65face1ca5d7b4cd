// Figure 10: Spectra overhead.
//
// Cost of a null operation (a service that returns immediately) under 0, 1,
// and 5 candidate servers, decomposed into the paper's rows. Two kinds of
// numbers are reported:
//
//   * real wall-clock milliseconds of this implementation's API calls —
//     absolute values reflect 2026 hardware, but the paper's shape should
//     hold: overhead grows with the number of servers, dominated by
//     choosing the alternative, and file-cache prediction becomes the
//     pathological term when the client cache is full (the paper's
//     5.2 ms -> 359.6 ms blowup caused by Coda's dump-everything
//     interface);
//   * the modeled virtual-time decision cost that simulated experiments
//     charge to the client, calibrated against the paper's measurements.
#include <iostream>
#include <sstream>

#include "bench_util.h"
#include "obs/obs.h"
#include "scenario/experiment.h"

using namespace spectra;           // NOLINT
using namespace spectra::scenario; // NOLINT

int main(int argc, char** argv) {
  // --jobs is accepted for harness uniformity, but this bench measures real
  // wall-clock phase latencies — concurrent runs would contend for cores
  // and distort every number, so it always executes sequentially.
  (void)bench::jobs_from_args(argc, argv);
  std::vector<OverheadReport> reports;
  for (std::size_t servers : {0u, 1u, 5u}) {
    OverheadExperiment::Config cfg;
    cfg.servers = servers;
    reports.push_back(OverheadExperiment(cfg).run());
  }

  util::Table table(
      "Figure 10: Spectra overhead — null operation (wall-clock ms)");
  table.set_header({"activity", "no servers", "1 server", "5 servers"});
  auto row = [&](const std::string& label, auto getter, int precision = 4) {
    std::vector<std::string> cells{label};
    for (const auto& r : reports) {
      cells.push_back(util::Table::num(getter(r), precision));
    }
    table.add_row(cells);
  };
  row("register_fidelity", [](const auto& r) { return r.register_ms; });
  row("begin_fidelity_op", [](const auto& r) { return r.begin_ms; });
  row("  file cache prediction",
      [](const auto& r) { return r.cache_prediction_ms; });
  row("  choosing alternative", [](const auto& r) { return r.choosing_ms; });
  row("  other activity", [](const auto& r) { return r.begin_other_ms; });
  row("do_local_op", [](const auto& r) { return r.do_local_ms; });
  row("end_fidelity_op", [](const auto& r) { return r.end_ms; });
  table.add_separator();
  row("total", [](const auto& r) { return r.total_ms; });
  table.add_separator();
  row("file cache prediction, full cache",
      [](const auto& r) { return r.cache_prediction_full_ms; });
  row("modeled virtual decision cost",
      [](const auto& r) { return r.virtual_decision_ms; }, 2);
  std::cout << table.to_string();
  std::cout << "\nPaper (233 MHz-era hardware): total 18.4 / 21.4 / 74.0 ms; "
               "choosing 0.4 / 1.0 / 43.4 ms;\nfile cache prediction 5.2 ms "
               "(empty) to 359.6 ms (full cache).\n";

  // Observability overhead: the same 1-server null-op experiment with a
  // live trace sink plus metrics registry attached, against the plain run
  // above. Budget: tracing adds < 5% to the decision latency.
  OverheadExperiment::Config cfg;
  cfg.servers = 1;
  cfg.measured_runs = 1000;
  // The null op costs ~50 us, so scheduler/frequency noise swamps any
  // single measurement; take the best of three 1000-run means per config
  // (min is robust against noise spikes, which only ever add time).
  obs::Observability obs;
  std::ostringstream sink;
  obs.trace_to(sink);
  const auto one = [&cfg](obs::Observability* o) {
    cfg.obs = o;
    return OverheadExperiment(cfg).run();
  };
  obs::Observability metrics_only;
  (void)one(nullptr);  // warm caches/allocator
  // Interleave configs within each rep so slow drift (frequency scaling)
  // hits all three equally; min-of-reps is robust against noise spikes,
  // which only ever add time.
  OverheadReport off_r, mid_r, on_r;
  for (int rep = 0; rep < 5; ++rep) {
    const OverheadReport o = one(nullptr);
    const OverheadReport m = one(&metrics_only);
    const OverheadReport t = one(&obs);
    if (rep == 0 || o.begin_ms < off_r.begin_ms) off_r = o;
    if (rep == 0 || m.begin_ms < mid_r.begin_ms) mid_r = m;
    if (rep == 0 || t.begin_ms < on_r.begin_ms) on_r = t;
  }
  // The budget tracks decision latency — begin_fidelity_op, the phase
  // that snapshots, solves, and (when tracing) writes the decision explain
  // record. end_fidelity_op's record is charged to end, not here.
  constexpr double kBudgetPct = 5.0;
  const auto pct = [&](const OverheadReport& r) {
    return off_r.begin_ms > 0.0
               ? 100.0 * (r.begin_ms - off_r.begin_ms) / off_r.begin_ms
               : 0.0;
  };
  std::cout << "\nObservability overhead, decision latency (1 server): "
            << util::Table::num(off_r.begin_ms, 4) << " ms off; "
            << util::Table::num(mid_r.begin_ms, 4) << " ms --metrics ("
            << util::Table::num(pct(mid_r), 1) << "%); "
            << util::Table::num(on_r.begin_ms, 4)
            << " ms --trace + --metrics (" << util::Table::num(pct(on_r), 1)
            << "%).\nTracing budget < " << util::Table::num(kBudgetPct, 0)
            << "% of decision latency: "
            << (pct(on_r) < kBudgetPct ? "met" : "NOT met")
            << ".\nWhole null op with trace + metrics: "
            << util::Table::num(off_r.total_ms, 4) << " ms -> "
            << util::Table::num(on_r.total_ms, 4) << " ms; "
            << obs.trace()->events() << " trace events, "
            << obs.metrics().size() << " metrics.\n";
  return 0;
}
