// Property-based suites: invariants that must hold across parameter sweeps
// rather than at hand-picked points.
#include <gtest/gtest.h>

#include <cmath>

#include "monitor/types.h"
#include "predict/numeric.h"
#include "scenario/experiment.h"
#include "solver/estimator.h"
#include "solver/solver.h"
#include "solver/utility.h"
#include "util/rng.h"
#include "util/stats.h"

namespace spectra {
namespace {

// ---------------------------------------------------------- sim invariants

// Virtual time is monotone and energy non-decreasing through arbitrary
// interleavings of machine work, transfers, and file operations.
class WorldActivityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorldActivityTest, TimeAndEnergyMonotone) {
  scenario::WorldConfig wc;
  wc.testbed = scenario::Testbed::kThinkpad;
  wc.seed = GetParam();
  scenario::World w(wc);
  w.warm_all_caches();
  util::Rng rng(GetParam() * 13 + 1);
  double last_t = w.engine().now();
  double last_e = w.client_machine().meter().total_consumed();
  for (int i = 0; i < 60; ++i) {
    switch (rng.uniform_int(0, 3)) {
      case 0:
        w.machine(scenario::kClient).run_cycles(rng.uniform(1e6, 5e8));
        break;
      case 1:
        w.network().transfer(scenario::kClient, scenario::kServerA,
                             rng.uniform(100.0, 2e5));
        break;
      case 2: {
        auto& coda = w.coda(scenario::kClient);
        coda.read("pangloss/dict");
        break;
      }
      case 3:
        w.settle(rng.uniform(0.1, 5.0));
        break;
    }
    EXPECT_GE(w.engine().now(), last_t);
    EXPECT_GE(w.client_machine().meter().total_consumed(), last_e - 1e-9);
    last_t = w.engine().now();
    last_e = w.client_machine().meter().total_consumed();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorldActivityTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ------------------------------------------------------ usage conservation

// For every plan, measured operation usage satisfies basic conservation:
// elapsed time is at least local CPU time + reported remote CPU time.
class SpeechUsageTest : public ::testing::TestWithParam<int> {};

TEST_P(SpeechUsageTest, ElapsedCoversCpuComponents) {
  scenario::SpeechExperiment::Config cfg;
  cfg.seed = 77;
  scenario::SpeechExperiment exp(cfg);
  const auto alts = scenario::SpeechExperiment::alternatives();
  const auto& alt = alts[static_cast<std::size_t>(GetParam())];
  const auto run = exp.measure(alt);
  ASSERT_TRUE(run.feasible);
  // Local cycles ran at full speed (unloaded client).
  const double local_cpu_s = run.usage.local_cycles / 206e6;
  const double remote_cpu_s = run.usage.remote_cycles / 700e6;
  EXPECT_GE(run.time + 1e-6, local_cpu_s);
  EXPECT_GE(run.time + 1e-6, remote_cpu_s);
  EXPECT_GE(run.time + 1e-6, 0.95 * (local_cpu_s + remote_cpu_s));
  // Energy is bounded by max power x elapsed.
  EXPECT_LE(run.energy, 2.1 * run.time + 1.0);
  // Usage was actually attributed: something ran somewhere.
  EXPECT_GT(run.usage.local_cycles + run.usage.remote_cycles, 1e8);
}

INSTANTIATE_TEST_SUITE_P(Alternatives, SpeechUsageTest,
                         ::testing::Range(0, 6));

// ------------------------------------------------ prediction interpolation

// Across the input-parameter range, the learned models interpolate well
// enough that Spectra's predicted elapsed time for its chosen alternative
// is within 25% of the measured outcome, and the baseline choice stays
// hybrid-full (the training covered lengths 1.0-3.5 s).
class SpeechLengthSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(SpeechLengthSweepTest, PredictionTracksMeasurement) {
  const double utt = GetParam();
  scenario::SpeechExperiment::Config cfg;
  cfg.seed = 1000;
  cfg.test_utterance_s = utt;
  scenario::SpeechExperiment exp(cfg);
  const auto s = exp.run_spectra();
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(scenario::SpeechExperiment::label(s.choice.alternative),
            "hybrid-full");
  ASSERT_GT(s.choice.predicted.time, 0.0);
  EXPECT_NEAR(s.choice.predicted.time, s.time, 0.25 * s.time);
}

INSTANTIATE_TEST_SUITE_P(Lengths, SpeechLengthSweepTest,
                         ::testing::Values(1.0, 1.5, 2.0, 2.5, 3.0, 3.4));

// ------------------------------------------------------ estimator monotone

// Predicted time is monotone in demand: more cycles, more bytes, or more
// files never reduce the estimate.
class EstimatorMonotoneTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EstimatorMonotoneTest, MonotoneInDemand) {
  util::Rng rng(GetParam());
  monitor::ResourceSnapshot snap;
  snap.local_cpu_hz = rng.uniform(1e8, 1e9);
  snap.local_fetch_rate = rng.uniform(1e4, 1e6);
  monitor::ServerAvailability sa;
  sa.id = 1;
  sa.reachable = true;
  sa.cpu_hz = rng.uniform(1e8, 1e9);
  sa.bandwidth = rng.uniform(1e4, 1e6);
  sa.latency = rng.uniform(0.001, 0.05);
  sa.fetch_rate = rng.uniform(1e4, 1e6);
  snap.servers.emplace(1, sa);

  solver::AlternativeSpace space;
  space.plans = {{"local", false}, {"remote", true}};
  space.servers = {1};
  solver::Alternative remote;
  remote.plan = 1;
  remote.server = 1;

  solver::EstimatorInputs in;
  in.snapshot = &snap;

  predict::DemandEstimate base;
  base.local_cycles = rng.uniform(0.0, 1e9);
  base.remote_cycles = rng.uniform(0.0, 1e9);
  base.bytes_sent = rng.uniform(0.0, 1e6);
  base.rpcs = rng.uniform(0.0, 5.0);
  base.files = {{"missing", rng.uniform(1e3, 1e6), rng.uniform(0.0, 1.0)}};

  solver::ExecutionEstimator est;
  solver::UserMetrics t0;
  ASSERT_TRUE(est.estimate(in, space, remote, base, t0));
  for (int i = 0; i < 10; ++i) {
    predict::DemandEstimate more = base;
    more.local_cycles += rng.uniform(0.0, 1e9);
    more.remote_cycles += rng.uniform(0.0, 1e9);
    more.bytes_sent += rng.uniform(0.0, 1e6);
    more.bytes_received += rng.uniform(0.0, 1e6);
    more.rpcs += rng.uniform(0.0, 5.0);
    more.files.push_back(
        {"missing2", rng.uniform(1e3, 1e6), rng.uniform(0.0, 1.0)});
    solver::UserMetrics t1;
    ASSERT_TRUE(est.estimate(in, space, remote, more, t1));
    EXPECT_GE(t1.time + 1e-12, t0.time);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatorMonotoneTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// ------------------------------------------------------- utility invariants

// For any metrics, utility is monotone: faster, cheaper, higher-fidelity
// outcomes never have lower utility.
class UtilityMonotoneTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UtilityMonotoneTest, MonotoneInEachMetric) {
  util::Rng rng(GetParam());
  solver::DefaultUtility u(
      solver::inverse_latency(),
      [](const std::vector<double>& f) { return f.at(0); });
  for (int i = 0; i < 50; ++i) {
    solver::UserMetrics m;
    m.time = rng.uniform(0.1, 20.0);
    m.energy = rng.uniform(0.1, 100.0);
    m.has_energy = true;
    m.fidelity = {rng.uniform(0.1, 1.0)};
    const double c = rng.uniform(0.0, 1.0);
    const double base = u.log_utility(m, c);

    solver::UserMetrics faster = m;
    faster.time *= 0.5;
    EXPECT_GE(u.log_utility(faster, c), base);

    solver::UserMetrics cheaper = m;
    cheaper.energy *= 0.5;
    EXPECT_GE(u.log_utility(cheaper, c), base);

    solver::UserMetrics better = m;
    better.fidelity = {std::min(1.0, m.fidelity[0] * 1.5)};
    EXPECT_GE(u.log_utility(better, c), base);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UtilityMonotoneTest,
                         ::testing::Range<std::uint64_t>(1, 7));

// -------------------------------------------------- predictor convergence

// With stationary behaviour, predictions converge to the true mean for any
// (decay, noise) combination.
struct ConvergenceParam {
  double decay;
  double cv;
};

class PredictorConvergenceTest
    : public ::testing::TestWithParam<ConvergenceParam> {};

TEST_P(PredictorConvergenceTest, ConvergesToTruth) {
  const auto [decay, cv] = GetParam();
  predict::NumericPredictorConfig cfg;
  cfg.decay = decay;
  predict::NumericPredictor p(cfg);
  util::Rng rng(99);
  predict::FeatureVector f;
  f.discrete = predict::to_slots({"plan"}, {{"plan", 1.0}}, "test", "feature");
  for (int i = 0; i < 300; ++i) {
    const double y = 1000.0 * rng.noise_factor(cv);
    p.add(f, &y);
  }
  double predicted = 0.0;
  p.predict(f, &predicted);
  EXPECT_NEAR(predicted, 1000.0, 1000.0 * (cv + 0.05));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PredictorConvergenceTest,
    ::testing::Values(ConvergenceParam{0.9, 0.0}, ConvergenceParam{0.9, 0.1},
                      ConvergenceParam{0.95, 0.05},
                      ConvergenceParam{0.99, 0.2},
                      ConvergenceParam{1.0, 0.1}));

// --------------------------------------------------- solver never worsens

// Raising the evaluation budget never produces a worse answer (memoized
// hill climbing with fixed seeds is monotone in budget).
class SolverBudgetTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverBudgetTest, MoreBudgetNeverHurts) {
  solver::AlternativeSpace space;
  for (int i = 0; i < 12; ++i) {
    space.plans.push_back({"p", i != 0});
  }
  space.servers = {1, 2, 3};
  space.fidelities = {{"a", {0.0, 1.0}}, {"b", {0.0, 0.5, 1.0}}};
  util::Rng wrng(GetParam());
  const double wp = wrng.uniform(-1.0, 1.0);
  const double wa = wrng.uniform(-1.0, 2.0);
  const auto eval = [&](const solver::Alternative& a) {
    return wp * a.plan + wa * a.fidelity.at(0) + 0.3 * a.server -
           a.fidelity.at(1);
  };
  double prev = -1e300;
  for (const std::size_t budget : {16u, 64u, 256u, 1024u}) {
    solver::HeuristicSolverConfig cfg;
    cfg.exhaustive_threshold = 0;
    cfg.max_evaluations = budget;
    solver::HeuristicSolver s(util::Rng(GetParam() + 7), cfg);
    const auto r = s.solve(space, eval);
    ASSERT_TRUE(r.found);
    EXPECT_GE(r.log_utility, prev);
    prev = r.log_utility;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverBudgetTest,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace spectra
