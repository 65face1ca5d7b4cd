// Golden-trace bit-identity regression (decision hot-path overhaul).
//
// The decision-path optimizations (feature interning, packed memo keys,
// per-solve demand caching, allocation-free candidate evaluation) are pure
// mechanical sympathy: they must not move a single bit of observable
// output. This suite locks that down against committed golden files:
//
//   * a seeded speech, latex and pangloss run, traced (--trace-style
//     JSONL decision explain records) and metered (metrics CSV), compared
//     byte-for-byte against tests/golden/*.golden;
//   * the same workload fanned out through the BatchRunner with --jobs=8,
//     whose merged trace must equal the sequential one byte-for-byte.
//
// Regenerate the goldens (e.g. after an intentional behavior change) with
//   SPECTRA_UPDATE_GOLDEN=1 ./build/tests/golden_trace_test
// and commit the diff — the point of the file is that regeneration is a
// reviewed event, not an accident.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/janus.h"
#include "apps/latex.h"
#include "apps/pangloss.h"
#include "obs/obs.h"
#include "scenario/batch.h"
#include "scenario/experiment.h"
#include "scenario/fleet.h"
#include "scenario/sweep.h"

namespace spectra {
namespace {

using scenario::BatchRunner;
using scenario::LatexExperiment;
using scenario::PanglossExperiment;
using scenario::SpeechExperiment;
using scenario::SweepResult;

#ifndef SPECTRA_GOLDEN_DIR
#error "SPECTRA_GOLDEN_DIR must be defined by the build"
#endif

std::string golden_path(const std::string& name) {
  return std::string(SPECTRA_GOLDEN_DIR) + "/" + name;
}

bool update_mode() {
  const char* v = std::getenv("SPECTRA_UPDATE_GOLDEN");
  return v != nullptr && std::string(v) == "1";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path
                         << " (regenerate with SPECTRA_UPDATE_GOLDEN=1)";
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write golden file: " << path;
  out << content;
}

// Real wall-clock metrics (*.wall_ms) are inherently run-to-run noise;
// everything else in the registry (decision counts, solver evaluations,
// virtual-time histograms, byte counters) is seeded-deterministic. Strip
// the wall rows so the golden compares only the deterministic ones.
std::string drop_wall_rows(const std::string& csv) {
  std::istringstream in(csv);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    const auto comma = line.find(',');
    const std::string name = line.substr(0, comma);
    if (name.size() >= 8 &&
        name.compare(name.size() - 8, 8, ".wall_ms") == 0) {
      continue;
    }
    out << line << '\n';
  }
  return out.str();
}

// Compare against the committed golden, or rewrite it in update mode.
void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (update_mode()) {
    write_file(path, actual);
    return;
  }
  const std::string expected = read_file(path);
  // Byte-for-byte: a mismatch means the "optimization" changed behavior.
  EXPECT_EQ(expected, actual) << "golden mismatch for " << name;
}

// --------------------------------------------------------------- speech

// One seeded speech run: train, then a fixed op sequence with tracing and
// metrics on. Returns {trace JSONL, metrics CSV}.
std::pair<std::string, std::string> speech_run(std::uint64_t seed,
                                               obs::Observability* obs) {
  std::ostringstream trace;
  obs->trace_to(trace);
  SpeechExperiment::Config cfg;
  cfg.seed = seed;
  cfg.obs = obs;
  SpeechExperiment exp(cfg);
  auto world = exp.trained_world(obs);
  for (int i = 0; i < 4; ++i) {
    const double utt = 1.0 + 0.5 * static_cast<double>(i);
    const auto choice = world->spectra().begin_fidelity_op(
        apps::JanusApp::kOperation, {{"utt_len", utt}});
    EXPECT_TRUE(choice.ok);
    world->janus().execute(world->spectra(), utt);
    world->spectra().end_fidelity_op();
  }
  std::ostringstream csv;
  obs->metrics().export_csv(csv);
  return {trace.str(), drop_wall_rows(csv.str())};
}

TEST(GoldenTraceTest, SpeechDecisionTraceAndMetricsAreByteIdentical) {
  obs::Observability obs;
  const auto [trace, csv] = speech_run(7, &obs);
  EXPECT_FALSE(trace.empty());
  expect_golden("speech_trace.jsonl.golden", trace);
  expect_golden("speech_metrics.csv.golden", csv);
}

// ---------------------------------------------------------------- latex

std::pair<std::string, std::string> latex_run(std::uint64_t seed,
                                              obs::Observability* obs) {
  std::ostringstream trace;
  obs->trace_to(trace);
  LatexExperiment::Config cfg;
  cfg.seed = seed;
  cfg.doc = "small";
  cfg.obs = obs;
  LatexExperiment exp(cfg);
  auto world = exp.trained_world(obs);
  for (int i = 0; i < 3; ++i) {
    const auto choice = world->spectra().begin_fidelity_op(
        apps::LatexApp::kOperation, {}, "small");
    EXPECT_TRUE(choice.ok);
    world->latex().execute(world->spectra(), "small");
    world->spectra().end_fidelity_op();
  }
  std::ostringstream csv;
  obs->metrics().export_csv(csv);
  return {trace.str(), drop_wall_rows(csv.str())};
}

TEST(GoldenTraceTest, LatexDecisionTraceAndMetricsAreByteIdentical) {
  obs::Observability obs;
  const auto [trace, csv] = latex_run(11, &obs);
  EXPECT_FALSE(trace.empty());
  expect_golden("latex_trace.jsonl.golden", trace);
  expect_golden("latex_metrics.csv.golden", csv);
}

// ------------------------------------------------------------- pangloss

// The paper's five Pangloss test sentences (§4.3), each decided over the
// largest space (~97 alternatives x 2 servers) by the heuristic solver.
// Pangloss is the one application with its own feature hook, so this locks
// hook -> per-solve demand cache -> estimator -> utility: the decision
// explain records carry plan, fidelity, per-term log-utility and predicted
// time for every sentence.
std::pair<std::string, std::string> pangloss_run(std::uint64_t seed,
                                                 obs::Observability* obs) {
  std::ostringstream trace;
  obs->trace_to(trace);
  PanglossExperiment::Config cfg;
  cfg.seed = seed;
  cfg.obs = obs;
  PanglossExperiment exp(cfg);
  auto world = exp.trained_world(obs);
  for (const int words : {6, 10, 14, 38, 44}) {
    const auto choice = world->spectra().begin_fidelity_op(
        apps::PanglossApp::kOperation,
        {{"words", static_cast<double>(words)}});
    EXPECT_TRUE(choice.ok);
    EXPECT_TRUE(choice.from_model);
    world->pangloss().execute(world->spectra(), words);
    world->spectra().end_fidelity_op();
  }
  std::ostringstream csv;
  obs->metrics().export_csv(csv);
  return {trace.str(), drop_wall_rows(csv.str())};
}

TEST(GoldenTraceTest, PanglossDecisionTraceAndMetricsAreByteIdentical) {
  obs::Observability obs;
  const auto [trace, csv] = pangloss_run(3, &obs);
  EXPECT_NE(trace.find("\"lu_fidelity\""), std::string::npos);
  expect_golden("pangloss_trace.jsonl.golden", trace);
  expect_golden("pangloss_metrics.csv.golden", csv);
}

// ------------------------------------------------- figure CSV (batch runs)

// A miniature fig03-style cell: sweep every speech alternative plus the
// Spectra run for a few seeds, and render the numbers the figures are built
// from into a CSV. The sweep fans out through the BatchRunner, so the same
// bytes must come out at any --jobs.
std::string speech_figure_csv(BatchRunner& batch) {
  const std::vector<std::uint64_t> seeds = {1, 2, 3};
  const SweepResult result = scenario::sweep<SpeechExperiment>(
      batch, nullptr, seeds,
      [](std::uint64_t seed, obs::Observability* trial_obs) {
        SpeechExperiment::Config cfg;
        cfg.seed = seed;
        cfg.scenario = scenario::SpeechScenario::kNetwork;
        cfg.obs = trial_obs;
        return cfg;
      });
  std::ostringstream csv;
  csv.precision(17);
  csv << "seed,alternative,time_s\n";
  for (std::size_t t = 0; t < result.trials.size(); ++t) {
    const scenario::SweepTrial& trial = result.trials[t];
    for (std::size_t a = 0; a < result.labels.size(); ++a) {
      csv << seeds[t] << ',' << result.labels[a] << ',' << trial.runs[a].time
          << '\n';
    }
    csv << seeds[t] << ",spectra:" << trial.spectra_label << ','
        << trial.spectra.time << '\n';
  }
  return csv.str();
}

TEST(GoldenTraceTest, FigureCsvIsByteIdenticalAcrossJobs) {
  BatchRunner seq(1);
  const std::string csv1 = speech_figure_csv(seq);
  expect_golden("speech_figure.csv.golden", csv1);

  BatchRunner par(8);
  const std::string csv8 = speech_figure_csv(par);
  EXPECT_EQ(csv1, csv8) << "--jobs=8 changed figure bytes";
}

// ------------------------------------------------- CLI run-command tables

// The tables `spectra speech|latex|pangloss --trials=2` print (default seed
// 1000), rebuilt through the same sweep and renderers the commands call.
// The speech file-cache scenario covers the "unavailable" rows.
TEST(GoldenTraceTest, CliSweepTablesAreByteIdentical) {
  BatchRunner batch(1);
  const auto seeds = scenario::trial_seeds(1000, 2);
  const std::vector<scenario::TableColumn> columns = {
      {"time (s)", scenario::run_time}, {"energy (J)", scenario::run_energy}};

  const SweepResult speech = scenario::sweep<SpeechExperiment>(
      batch, nullptr, seeds,
      [](std::uint64_t seed, obs::Observability* trial_obs) {
        SpeechExperiment::Config cfg;
        cfg.scenario = scenario::SpeechScenario::kFileCache;
        cfg.seed = seed;
        cfg.obs = trial_obs;
        return cfg;
      });
  expect_golden("cli_speech_table.txt.golden",
                scenario::alternatives_table(
                    speech, "Speech recognition — scenario: file-cache",
                    columns, "<== Spectra"));

  const SweepResult latex = scenario::sweep<LatexExperiment>(
      batch, nullptr, seeds,
      [](std::uint64_t seed, obs::Observability* trial_obs) {
        LatexExperiment::Config cfg;
        cfg.scenario = scenario::LatexScenario::kReintegrate;
        cfg.doc = "large";
        cfg.seed = seed;
        cfg.obs = trial_obs;
        return cfg;
      });
  expect_golden("cli_latex_table.txt.golden",
                scenario::alternatives_table(
                    latex, "Latex (large document) — scenario: reintegrate",
                    columns, "<== Spectra"));

  const SweepResult pangloss = scenario::sweep<PanglossExperiment>(
      batch, nullptr, seeds,
      [](std::uint64_t seed, obs::Observability* trial_obs) {
        PanglossExperiment::Config cfg;
        cfg.scenario = scenario::PanglossScenario::kCpu;
        cfg.seed = seed;
        cfg.test_words = 38;
        cfg.obs = trial_obs;
        return cfg;
      });
  expect_golden("cli_pangloss_table.txt.golden",
                scenario::pangloss_table(
                    pangloss, "Pangloss-Lite (38 words) — scenario: cpu"));
}

// Traced batch fan-out: shard-per-run traces merged in index order must be
// byte-identical for any worker count.
std::string traced_batch(std::size_t jobs) {
  obs::Observability session;
  std::ostringstream trace;
  session.trace_to(trace);
  BatchRunner batch(jobs);
  batch.map_runs(&session, 6, [&](std::size_t i, obs::Observability* run) {
    SpeechExperiment::Config cfg;
    cfg.seed = 20 + i;
    cfg.obs = run;
    SpeechExperiment exp(cfg);
    return exp.run_spectra(run).time;
  });
  return trace.str();
}

TEST(GoldenTraceTest, BatchTraceIsByteIdenticalAcrossJobs) {
  const std::string t1 = traced_batch(1);
  EXPECT_FALSE(t1.empty());
  const std::string t8 = traced_batch(8);
  EXPECT_EQ(t1, t8) << "--jobs=8 changed merged trace bytes";
  expect_golden("speech_batch_trace.jsonl.golden", t1);
}

// ----------------------------------------------------------------- fleet

// A small traced fleet (12 clients, 2 servers, weighted-fair admission):
// decision trace plus fleet metrics CSV, locked against goldens, and the
// same bytes must come out of a --jobs=8 run.
std::pair<std::string, std::string> fleet_run(std::size_t jobs) {
  std::ostringstream trace;
  obs::Observability session;
  session.trace_to(trace);
  scenario::FleetConfig cfg;
  cfg.clients = 12;
  cfg.servers = 2;
  cfg.seed = 5;
  cfg.horizon = 40.0;
  cfg.ops_per_client_hz = 0.1;
  cfg.admission.policy = core::AdmissionPolicy::kWeightedFair;
  scenario::run_fleet(cfg, jobs, &session);
  std::ostringstream csv;
  session.metrics().export_csv(csv);
  return {trace.str(), drop_wall_rows(csv.str())};
}

TEST(GoldenTraceTest, FleetTraceAndMetricsAreByteIdentical) {
  const auto [trace, csv] = fleet_run(1);
  EXPECT_FALSE(trace.empty());
  expect_golden("fleet_trace.jsonl.golden", trace);
  expect_golden("fleet_metrics.csv.golden", csv);

  const auto [trace8, csv8] = fleet_run(8);
  EXPECT_EQ(trace, trace8) << "--jobs=8 changed fleet trace bytes";
  EXPECT_EQ(csv, csv8) << "--jobs=8 changed fleet metrics bytes";
}

// A sharded fleet (120 clients across 2 islands of 2 servers each): the
// island pipeline's merged trace — fleet_islands header, per-island fault
// shards, per-client shards, summary — locked against goldens, and the
// same bytes must come out of a --jobs=8 run.
std::pair<std::string, std::string> island_fleet_run(std::size_t jobs) {
  std::ostringstream trace;
  obs::Observability session;
  session.trace_to(trace);
  scenario::FleetConfig cfg;
  cfg.clients = 120;
  cfg.servers = 4;
  cfg.islands = 2;
  cfg.seed = 9;
  cfg.horizon = 40.0;
  cfg.ops_per_client_hz = 0.1;
  cfg.admission.policy = core::AdmissionPolicy::kWeightedFair;
  scenario::run_fleet(cfg, jobs, &session);
  std::ostringstream csv;
  session.metrics().export_csv(csv);
  return {trace.str(), drop_wall_rows(csv.str())};
}

TEST(GoldenTraceTest, IslandFleetTraceAndMetricsAreByteIdentical) {
  const auto [trace, csv] = island_fleet_run(1);
  EXPECT_FALSE(trace.empty());
  EXPECT_NE(trace.find("\"type\":\"fleet_islands\""), std::string::npos);
  expect_golden("island_fleet_trace.jsonl.golden", trace);
  expect_golden("island_fleet_metrics.csv.golden", csv);

  const auto [trace8, csv8] = island_fleet_run(8);
  EXPECT_EQ(trace, trace8) << "--jobs=8 changed island fleet trace bytes";
  EXPECT_EQ(csv, csv8) << "--jobs=8 changed island fleet metrics bytes";
}

}  // namespace
}  // namespace spectra
