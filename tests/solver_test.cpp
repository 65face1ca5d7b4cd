#include <gtest/gtest.h>

#include <cmath>

#include "monitor/types.h"
#include "solver/estimator.h"
#include "solver/solver.h"
#include "solver/types.h"
#include "solver/utility.h"
#include "util/assert.h"
#include "util/rng.h"

namespace spectra::solver {
namespace {

// ------------------------------------------------------------------- space

AlternativeSpace small_space() {
  AlternativeSpace s;
  s.plans = {{"local", false}, {"remote", true}};
  s.servers = {1, 2};
  s.fidelities = {{"vocab", {0.0, 1.0}}};
  return s;
}

TEST(SpaceTest, EnumerateCountsLocalAndRemote) {
  const auto alts = small_space().enumerate();
  // local plan x 2 fidelities + remote plan x 2 servers x 2 fidelities.
  EXPECT_EQ(alts.size(), 2u + 4u);
}

TEST(SpaceTest, LocalPlansHaveNoServer) {
  for (const auto& a : small_space().enumerate()) {
    if (a.plan == 0) {
      EXPECT_EQ(a.server, -1);
    } else {
      EXPECT_GE(a.server, 1);
    }
  }
}

TEST(SpaceTest, NoServersYieldsOnlyLocalPlans) {
  AlternativeSpace s = small_space();
  s.servers.clear();
  const auto alts = s.enumerate();
  EXPECT_EQ(alts.size(), 2u);
  for (const auto& a : alts) EXPECT_EQ(a.plan, 0);
}

TEST(SpaceTest, MultipleFidelityDimensionsCross) {
  AlternativeSpace s;
  s.plans = {{"p", false}};
  s.fidelities = {{"a", {0, 1}}, {"b", {0, 1, 2}}};
  EXPECT_EQ(s.count(), 6u);
}

TEST(SpaceTest, EmptyPlansThrows) {
  AlternativeSpace s;
  EXPECT_THROW(s.enumerate(), util::ContractError);
}

TEST(SpaceTest, EmptyFidelityValuesThrows) {
  AlternativeSpace s;
  s.plans = {{"p", false}};
  s.fidelities = {{"a", {}}};
  EXPECT_THROW(s.enumerate(), util::ContractError);
}

TEST(AlternativeTest, DescribeAndEquality) {
  Alternative a;
  a.plan = 1;
  a.server = 2;
  a.fidelity = {1.0};
  Alternative b = a;
  EXPECT_TRUE(a == b);
  b.fidelity = {0.0};
  EXPECT_FALSE(a == b);
  const FidelityNames names({{"v", {0.0, 1.0}}});
  EXPECT_NE(a.describe(names).find("plan=1"), std::string::npos);
  EXPECT_NE(a.describe(names).find("server=2"), std::string::npos);
}

// ----------------------------------------------------------------- utility

TEST(UtilityTest, InverseLatency) {
  auto f = inverse_latency();
  EXPECT_DOUBLE_EQ(f(2.0), 0.5);
  EXPECT_DOUBLE_EQ(f(0.5), 2.0);
}

TEST(UtilityTest, DeadlineLatencyShape) {
  auto f = deadline_latency(0.5, 5.0);
  EXPECT_DOUBLE_EQ(f(0.1), 1.0);
  EXPECT_DOUBLE_EQ(f(0.5), 1.0);
  EXPECT_DOUBLE_EQ(f(5.0), 0.0);
  EXPECT_DOUBLE_EQ(f(10.0), 0.0);
  EXPECT_NEAR(f(2.75), 0.5, 1e-9);  // midpoint
}

TEST(UtilityTest, DeadlineLatencyValidation) {
  EXPECT_THROW(deadline_latency(5.0, 0.5), util::ContractError);
  EXPECT_THROW(deadline_latency(-1.0, 5.0), util::ContractError);
}

DefaultUtility make_utility(double k = 10.0) {
  DefaultUtilityConfig cfg;
  cfg.energy_k = k;
  return DefaultUtility(
      inverse_latency(),
      [](const std::vector<double>& f) { return f.empty() ? 1.0 : f[0]; },
      cfg);
}

UserMetrics metrics(double t, double e, double fid, bool has_energy = true) {
  UserMetrics m;
  m.time = t;
  m.energy = e;
  m.has_energy = has_energy;
  m.fidelity = {fid};
  return m;
}

TEST(UtilityTest, FasterIsBetter) {
  auto u = make_utility();
  EXPECT_GT(u.log_utility(metrics(1.0, 1.0, 1.0), 0.0),
            u.log_utility(metrics(2.0, 1.0, 1.0), 0.0));
}

TEST(UtilityTest, HalfTimeDoublesUtility) {
  auto u = make_utility();
  const double lu1 = u.log_utility(metrics(2.0, 1.0, 1.0), 0.0);
  const double lu2 = u.log_utility(metrics(1.0, 1.0, 1.0), 0.0);
  EXPECT_NEAR(lu2 - lu1, std::log(2.0), 1e-9);
}

TEST(UtilityTest, EnergyIgnoredWhenImportanceZero) {
  auto u = make_utility();
  EXPECT_DOUBLE_EQ(u.log_utility(metrics(1.0, 1.0, 1.0), 0.0),
                   u.log_utility(metrics(1.0, 100.0, 1.0), 0.0));
}

TEST(UtilityTest, EnergyWeightedByImportance) {
  // log(1/E)^(kc) = -k c log E: with k=10, c=1, E ratio 2 -> 10 log 2.
  auto u = make_utility();
  const double lu1 = u.log_utility(metrics(1.0, 2.0, 1.0), 1.0);
  const double lu2 = u.log_utility(metrics(1.0, 4.0, 1.0), 1.0);
  EXPECT_NEAR(lu1 - lu2, 10.0 * std::log(2.0), 1e-9);
}

TEST(UtilityTest, EnergyTermScalesWithC) {
  auto u = make_utility();
  const double d_half =
      u.log_utility(metrics(1.0, 2.0, 1.0), 0.5) -
      u.log_utility(metrics(1.0, 4.0, 1.0), 0.5);
  EXPECT_NEAR(d_half, 5.0 * std::log(2.0), 1e-9);
}

TEST(UtilityTest, MissingEnergyModelNeutral) {
  auto u = make_utility();
  EXPECT_DOUBLE_EQ(
      u.log_utility(metrics(1.0, 0.0, 1.0, /*has_energy=*/false), 1.0),
      u.log_utility(metrics(1.0, 50.0, 1.0, /*has_energy=*/false), 1.0));
}

TEST(UtilityTest, ZeroFidelityIsInfeasible) {
  auto u = make_utility();
  EXPECT_EQ(u.log_utility(metrics(1.0, 1.0, 0.0), 0.0), kInfeasible);
}

TEST(UtilityTest, ZeroLatencyDesirabilityIsInfeasible) {
  DefaultUtility u(deadline_latency(0.5, 5.0),
                   [](const std::vector<double>&) { return 1.0; });
  EXPECT_EQ(u.log_utility(metrics(6.0, 1.0, 1.0), 0.0), kInfeasible);
}

TEST(UtilityTest, LinearUtilityMatchesExpOfLog) {
  auto u = make_utility();
  const auto m = metrics(2.0, 3.0, 0.8);
  EXPECT_NEAR(u.utility(m, 0.1),
              std::exp(u.log_utility(m, 0.1)), 1e-12);
}

TEST(UtilityTest, NoUnderflowAtPaperScale) {
  // (1/E)^(k c) with E=1000 J, k=10, c=1 underflows doubles in linear
  // space; the log-domain comparison must still rank correctly.
  auto u = make_utility();
  const double a = u.log_utility(metrics(1.0, 1000.0, 1.0), 1.0);
  const double b = u.log_utility(metrics(1.0, 1001.0, 1.0), 1.0);
  EXPECT_TRUE(std::isfinite(a));
  EXPECT_GT(a, b);
}

TEST(UtilityTest, InvalidImportanceRejected) {
  auto u = make_utility();
  EXPECT_THROW(u.log_utility(metrics(1, 1, 1), -0.1), util::ContractError);
  EXPECT_THROW(u.log_utility(metrics(1, 1, 1), 1.1), util::ContractError);
}

// log_utility_terms() is the exact decomposition of log_utility(): on
// seeded realistic inputs their sums agree bit for bit, and both refuse
// the same infeasible outcome.
TEST(DefaultUtilityTest, TermsTotalIsLogUtility) {
  const auto u = make_utility();
  util::Rng rng(21);
  int mismatches = 0;
  for (int i = 0; i < 10000; ++i) {
    const double t = rng.uniform(0.01, 10.0);
    const double e = rng.uniform(0.1, 100.0);
    const double fid = rng.uniform(0.1, 1.0);
    const double c = rng.uniform(0.0, 1.0);
    const UserMetrics m = metrics(t, e, fid);
    const UtilityTerms terms = u.log_utility_terms(m, c);
    ASSERT_TRUE(terms.feasible);
    if (terms.total() != u.log_utility(m, c)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
  const UserMetrics zero = metrics(1.0, 1.0, 0.0);
  EXPECT_FALSE(u.log_utility_terms(zero, 0.5).feasible);
  EXPECT_EQ(u.log_utility(zero, 0.5), kInfeasible);
}

TEST(UtilityTest, MissingFunctionsRejected) {
  EXPECT_THROW(DefaultUtility(nullptr, [](const auto&) { return 1.0; }),
               util::ContractError);
  EXPECT_THROW(DefaultUtility(inverse_latency(), nullptr),
               util::ContractError);
}

// --------------------------------------------------------------- estimator

monitor::ResourceSnapshot snapshot_with_server() {
  monitor::ResourceSnapshot snap;
  snap.local_cpu_hz = 200e6;
  snap.local_fetch_rate = 50000.0;
  auto local_files = std::make_shared<monitor::CachedFileView>();
  (*local_files)["cached_local"] = 1000.0;
  snap.local_cached_files = local_files;
  monitor::ServerAvailability sa;
  sa.id = 1;
  sa.reachable = true;
  sa.cpu_hz = 800e6;
  sa.bandwidth = 100000.0;
  sa.latency = 0.01;
  sa.fetch_rate = 200000.0;
  auto remote_files = std::make_shared<monitor::CachedFileView>();
  (*remote_files)[util::Symbol("cached_remote")] = 1000.0;
  sa.cached_files = std::move(remote_files);
  snap.servers.emplace(1, sa);
  return snap;
}

AlternativeSpace estimator_space() {
  AlternativeSpace s;
  s.plans = {{"local", false}, {"remote", true}};
  s.servers = {1};
  return s;
}

Alternative local_alt() {
  Alternative a;
  a.plan = 0;
  return a;
}

Alternative remote_alt() {
  Alternative a;
  a.plan = 1;
  a.server = 1;
  return a;
}

TEST(EstimatorTest, LocalPlanTimeIsCpuOnly) {
  auto snap = snapshot_with_server();
  EstimatorInputs in;
  in.snapshot = &snap;
  predict::DemandEstimate d;
  d.local_cycles = 400e6;
  ExecutionEstimator est;
  TimeBreakdown tb;
  UserMetrics m;
  ASSERT_TRUE(est.estimate(in, estimator_space(), local_alt(), d, m, &tb));
  EXPECT_DOUBLE_EQ(m.time, 2.0);
  EXPECT_DOUBLE_EQ(tb.local_cpu, 2.0);
  EXPECT_DOUBLE_EQ(tb.network, 0.0);
}

TEST(EstimatorTest, RemotePlanSumsAllComponents) {
  auto snap = snapshot_with_server();
  EstimatorInputs in;
  in.snapshot = &snap;
  predict::DemandEstimate d;
  d.local_cycles = 200e6;   // 1 s locally
  d.remote_cycles = 800e6;  // 1 s remotely
  d.bytes_sent = 50000.0;
  d.bytes_received = 50000.0;  // 1 s transfer total
  d.rpcs = 2.0;                // 2 x 2 x 0.01 = 0.04 s
  ExecutionEstimator est;
  TimeBreakdown tb;
  UserMetrics m;
  ASSERT_TRUE(est.estimate(in, estimator_space(), remote_alt(), d, m, &tb));
  EXPECT_NEAR(tb.local_cpu, 1.0, 1e-9);
  EXPECT_NEAR(tb.remote_cpu, 1.0, 1e-9);
  EXPECT_NEAR(tb.network, 1.04, 1e-9);
  EXPECT_NEAR(m.time, 3.04, 1e-9);
}

TEST(EstimatorTest, CacheMissChargedAgainstExecutingMachine) {
  auto snap = snapshot_with_server();
  EstimatorInputs in;
  in.snapshot = &snap;
  predict::DemandEstimate d;
  d.files = {{"missing", 100000.0, 1.0}};  // 100 KB, certain access
  ExecutionEstimator est;
  TimeBreakdown tb_local, tb_remote;
  UserMetrics m;
  est.estimate(in, estimator_space(), local_alt(), d, m, &tb_local);
  est.estimate(in, estimator_space(), remote_alt(), d, m, &tb_remote);
  EXPECT_NEAR(tb_local.cache_miss, 2.0, 1e-9);   // 100 KB at 50 KB/s
  EXPECT_NEAR(tb_remote.cache_miss, 0.5, 1e-9);  // 100 KB at 200 KB/s
}

TEST(EstimatorTest, CachedFilesCostNothing) {
  auto snap = snapshot_with_server();
  EstimatorInputs in;
  in.snapshot = &snap;
  predict::DemandEstimate d;
  d.files = {{"cached_local", 100000.0, 1.0}};
  ExecutionEstimator est;
  TimeBreakdown tb;
  UserMetrics m;
  est.estimate(in, estimator_space(), local_alt(), d, m, &tb);
  EXPECT_DOUBLE_EQ(tb.cache_miss, 0.0);
}

TEST(EstimatorTest, LikelihoodScalesExpectedMissCost) {
  auto snap = snapshot_with_server();
  EstimatorInputs in;
  in.snapshot = &snap;
  predict::DemandEstimate d;
  d.files = {{"missing", 100000.0, 0.25}};
  ExecutionEstimator est;
  TimeBreakdown tb;
  UserMetrics m;
  est.estimate(in, estimator_space(), local_alt(), d, m, &tb);
  EXPECT_NEAR(tb.cache_miss, 0.5, 1e-9);  // 25% of 2 s
}

TEST(EstimatorTest, ConsistencyCostForDirtyPredictedFiles) {
  auto snap = snapshot_with_server();
  EstimatorInputs in;
  in.snapshot = &snap;
  in.dirty_files = {{"doc.tex", 70000.0, "vol"}};
  in.fileserver_bandwidth = 35000.0;
  predict::DemandEstimate d;
  d.files = {{"doc.tex", 70000.0, 0.9}};
  ExecutionEstimator est;
  TimeBreakdown tb;
  UserMetrics m;
  est.estimate(in, estimator_space(), remote_alt(), d, m, &tb);
  EXPECT_NEAR(tb.consistency, 2.0, 1e-9);
  // Local execution needs no reintegration.
  est.estimate(in, estimator_space(), local_alt(), d, m, &tb);
  EXPECT_DOUBLE_EQ(tb.consistency, 0.0);
}

TEST(EstimatorTest, ConsistencyIsVolumeGranular) {
  auto snap = snapshot_with_server();
  EstimatorInputs in;
  in.snapshot = &snap;
  // Two dirty files share a volume; only one is predicted to be read, but
  // the whole volume must be pushed.
  in.dirty_files = {{"a", 50000.0, "vol"}, {"b", 20000.0, "vol"}};
  in.fileserver_bandwidth = 35000.0;
  predict::DemandEstimate d;
  d.files = {{"a", 50000.0, 1.0}};
  ExecutionEstimator est;
  TimeBreakdown tb;
  UserMetrics m;
  est.estimate(in, estimator_space(), remote_alt(), d, m, &tb);
  EXPECT_NEAR(tb.consistency, 2.0, 1e-9);  // (50+20) KB at 35 KB/s
}

TEST(EstimatorTest, LowLikelihoodDirtyFileSkipsReintegration) {
  auto snap = snapshot_with_server();
  EstimatorInputs in;
  in.snapshot = &snap;
  in.dirty_files = {{"a", 50000.0, "vol"}};
  in.fileserver_bandwidth = 35000.0;
  in.reintegration_threshold = 0.02;
  predict::DemandEstimate d;
  d.files = {{"a", 50000.0, 0.001}};  // effectively never read
  ExecutionEstimator est;
  TimeBreakdown tb;
  UserMetrics m;
  est.estimate(in, estimator_space(), remote_alt(), d, m, &tb);
  EXPECT_DOUBLE_EQ(tb.consistency, 0.0);
}

TEST(EstimatorTest, UnreachableServerInfeasible) {
  auto snap = snapshot_with_server();
  snap.servers.at(1).reachable = false;
  EstimatorInputs in;
  in.snapshot = &snap;
  ExecutionEstimator est;
  UserMetrics m;
  EXPECT_FALSE(est.estimate(in, estimator_space(), remote_alt(), {}, m));
}

TEST(EstimatorTest, UnpolledServerInfeasible) {
  auto snap = snapshot_with_server();
  snap.servers.at(1).cpu_hz = 0.0;  // no status yet
  EstimatorInputs in;
  in.snapshot = &snap;
  ExecutionEstimator est;
  UserMetrics m;
  EXPECT_FALSE(est.estimate(in, estimator_space(), remote_alt(), {}, m));
}

TEST(EstimatorTest, UnknownServerInfeasible) {
  auto snap = snapshot_with_server();
  EstimatorInputs in;
  in.snapshot = &snap;
  Alternative a = remote_alt();
  a.server = 42;
  ExecutionEstimator est;
  UserMetrics m;
  EXPECT_FALSE(est.estimate(in, estimator_space(), a, {}, m));
}

TEST(EstimatorTest, EnergyPassedThrough) {
  auto snap = snapshot_with_server();
  EstimatorInputs in;
  in.snapshot = &snap;
  predict::DemandEstimate d;
  d.energy = 7.5;
  d.has_energy = true;
  ExecutionEstimator est;
  UserMetrics m;
  ASSERT_TRUE(est.estimate(in, estimator_space(), local_alt(), d, m));
  EXPECT_DOUBLE_EQ(m.energy, 7.5);
  EXPECT_TRUE(m.has_energy);
}

TEST(EstimatorTest, FidelityCopiedFromAlternative) {
  auto snap = snapshot_with_server();
  EstimatorInputs in;
  in.snapshot = &snap;
  AlternativeSpace space = estimator_space();
  space.fidelities = {{"vocab", {0.0, 1.0}}};
  Alternative a = local_alt();
  a.fidelity = {1.0};
  ExecutionEstimator est;
  // A reused metrics object keeps nothing from the previous candidate.
  UserMetrics m;
  m.fidelity = {5.0, 5.0};
  m.has_energy = true;
  ASSERT_TRUE(est.estimate(in, space, a, {}, m));
  EXPECT_EQ(m.fidelity, a.fidelity);
  EXPECT_FALSE(m.has_energy);
}

TEST(EstimatorTest, PlanIndexValidated) {
  auto snap = snapshot_with_server();
  EstimatorInputs in;
  in.snapshot = &snap;
  Alternative a;
  a.plan = 99;
  ExecutionEstimator est;
  UserMetrics m;
  EXPECT_THROW(est.estimate(in, estimator_space(), a, {}, m),
               util::ContractError);
}

// ------------------------------------------------------------------ solver

TEST(ExhaustiveSolverTest, FindsGlobalMaximum) {
  const auto space = small_space();
  ExhaustiveSolver solver;
  // Utility peaks at plan=1, server=2, vocab=1.
  const auto result = solver.solve(space, [](const Alternative& a) {
    return (a.plan == 1 ? 1.0 : 0.0) + (a.server == 2 ? 1.0 : 0.0) +
           a.fidelity.at(0);
  });
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.best.plan, 1);
  EXPECT_EQ(result.best.server, 2);
  EXPECT_DOUBLE_EQ(result.best.fidelity.at(0), 1.0);
  EXPECT_EQ(result.evaluations, space.count());
}

TEST(ExhaustiveSolverTest, AllInfeasibleReportsNotFound) {
  ExhaustiveSolver solver;
  const auto result = solver.solve(
      small_space(), [](const Alternative&) { return kInfeasible; });
  EXPECT_FALSE(result.found);
}

TEST(HeuristicSolverTest, SmallSpaceSolvedExhaustively) {
  HeuristicSolver solver{util::Rng(1)};
  const auto space = small_space();  // 6 alternatives <= threshold
  const auto result = solver.solve(space, [](const Alternative& a) {
    return a.fidelity.at(0) + (a.plan == 0 ? 0.5 : 0.0);
  });
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.best.plan, 0);
  EXPECT_DOUBLE_EQ(result.best.fidelity.at(0), 1.0);
}

AlternativeSpace big_space() {
  AlternativeSpace s;
  for (int i = 0; i < 16; ++i) {
    s.plans.push_back({"p" + std::to_string(i), i != 0});
  }
  s.servers = {1, 2};
  s.fidelities = {{"a", {0, 1}}, {"b", {0, 1}}, {"c", {0, 1}}};
  return s;
}

TEST(HeuristicSolverTest, RespectsEvaluationBudget) {
  HeuristicSolverConfig cfg;
  cfg.max_evaluations = 50;
  HeuristicSolver solver{util::Rng(1), cfg};
  const auto result = solver.solve(big_space(), [](const Alternative& a) {
    return static_cast<double>(a.plan) + a.fidelity.at(0);
  });
  EXPECT_TRUE(result.found);
  EXPECT_LE(result.evaluations, 50u);
}

TEST(HeuristicSolverTest, FindsNearOptimalOnSmoothLandscape) {
  const auto space = big_space();
  ExhaustiveSolver oracle;
  const auto eval = [](const Alternative& a) {
    // Smooth, separable objective: hill climbing should nail it.
    double u = -std::abs(a.plan - 11.0);
    u += a.server == 2 ? 0.5 : 0.0;
    u += a.fidelity.at(0) + a.fidelity.at(1) + a.fidelity.at(2);
    return u;
  };
  const auto best = oracle.solve(space, eval);
  HeuristicSolver solver{util::Rng(7)};
  const auto got = solver.solve(space, eval);
  EXPECT_TRUE(got.found);
  EXPECT_NEAR(got.log_utility, best.log_utility, 0.51);
}

TEST(HeuristicSolverTest, SkipsInfeasibleRegions) {
  HeuristicSolver solver{util::Rng(3)};
  const auto result = solver.solve(big_space(), [](const Alternative& a) {
    if (a.plan % 2 == 0) return kInfeasible;
    return static_cast<double>(a.plan);
  });
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.best.plan % 2, 1);
}

TEST(HeuristicSolverTest, DeterministicForSameSeed) {
  const auto eval = [](const Alternative& a) {
    return static_cast<double>(a.plan) * 0.1 + a.fidelity.at(0);
  };
  HeuristicSolver s1{util::Rng(5)}, s2{util::Rng(5)};
  const auto r1 = s1.solve(big_space(), eval);
  const auto r2 = s2.solve(big_space(), eval);
  EXPECT_TRUE(r1.best == r2.best);
  EXPECT_EQ(r1.evaluations, r2.evaluations);
}

TEST(HeuristicSolverTest, MemoCountsHitsSeparatelyFromEvaluations) {
  const auto eval = [](const Alternative& a) {
    return static_cast<double>(a.plan) * 0.1 + a.fidelity.at(0);
  };
  HeuristicSolver solver{util::Rng(5)};
  const auto result = solver.solve(big_space(), eval);
  EXPECT_TRUE(result.found);
  // Restarts revisit coordinates; those revisits are memo hits and must
  // not inflate the distinct-evaluation count.
  EXPECT_GT(result.memo_hits, 0u);
  EXPECT_LE(result.evaluations, big_space().count());
  EXPECT_GT(result.evaluations, 0u);
}

TEST(HeuristicSolverTest, MemoHitsDeterministicForSameSeed) {
  const auto eval = [](const Alternative& a) {
    return static_cast<double>(a.plan) * 0.1 + a.fidelity.at(0);
  };
  HeuristicSolver s1{util::Rng(5)}, s2{util::Rng(5)};
  EXPECT_EQ(s1.solve(big_space(), eval).memo_hits,
            s2.solve(big_space(), eval).memo_hits);
}

// Straight port of the pre-packed-memo heuristic solver: std::map keyed by
// the coordinate vector, materialized neighbour lists. The production
// solver must draw the same RNG sequence, evaluate in the same order, and
// hit the memo on exactly the same revisits — so every counter and the
// chosen alternative must match this reference bit for bit.
SolveResult reference_heuristic_solve(util::Rng rng,
                                      const HeuristicSolverConfig& config,
                                      const AlternativeSpace& space,
                                      const EvalFn& eval) {
  if (space.count() <= config.exhaustive_threshold) {
    ExhaustiveSolver exhaustive;
    return exhaustive.solve(space, eval);
  }

  struct Coords {
    int plan = 0;
    int server_idx = -1;
    std::vector<int> fid;
  };
  const auto to_alternative = [&](const Coords& c) {
    Alternative a;
    a.plan = c.plan;
    a.server = c.server_idx >= 0 ? space.servers[c.server_idx] : -1;
    for (std::size_t i = 0; i < space.fidelities.size(); ++i) {
      a.fidelity.push_back(space.fidelities[i].values[c.fid[i]]);
    }
    return a;
  };

  SolveResult result;
  std::map<std::vector<int>, double> memo;
  std::vector<int> key;

  auto evaluate = [&](const Coords& c) {
    key.clear();
    key.push_back(c.plan);
    key.push_back(c.server_idx);
    key.insert(key.end(), c.fid.begin(), c.fid.end());
    auto it = memo.find(key);
    if (it != memo.end()) {
      ++result.memo_hits;
      return it->second;
    }
    Alternative alt = to_alternative(c);
    const double lu = eval(alt);
    ++result.evaluations;
    memo.emplace(key, lu);
    if (lu > kInfeasible && (lu > result.log_utility || !result.found)) {
      result.found = true;
      result.best = std::move(alt);
      result.log_utility = lu;
    }
    return lu;
  };

  auto random_coords = [&] {
    Coords c;
    c.plan = static_cast<int>(
        rng.uniform_int(0, static_cast<int>(space.plans.size()) - 1));
    c.server_idx = space.plans[c.plan].uses_remote && !space.servers.empty()
                       ? static_cast<int>(rng.uniform_int(
                             0, static_cast<int>(space.servers.size()) - 1))
                       : -1;
    for (const auto& dim : space.fidelities) {
      c.fid.push_back(static_cast<int>(
          rng.uniform_int(0, static_cast<int>(dim.values.size()) - 1)));
    }
    return c;
  };

  auto neighbours = [&](const Coords& c) {
    std::vector<Coords> out;
    for (int p = 0; p < static_cast<int>(space.plans.size()); ++p) {
      if (p == c.plan) continue;
      Coords n = c;
      n.plan = p;
      if (!space.plans[p].uses_remote) {
        n.server_idx = -1;
        out.push_back(n);
      } else if (!space.servers.empty()) {
        for (int s = 0; s < static_cast<int>(space.servers.size()); ++s) {
          Coords ns = n;
          ns.server_idx = s;
          out.push_back(ns);
        }
      }
    }
    if (space.plans[c.plan].uses_remote) {
      for (int s = 0; s < static_cast<int>(space.servers.size()); ++s) {
        if (s == c.server_idx) continue;
        Coords n = c;
        n.server_idx = s;
        out.push_back(n);
      }
    }
    for (std::size_t d = 0; d < space.fidelities.size(); ++d) {
      for (int delta : {-1, +1}) {
        const int v = c.fid[d] + delta;
        if (v < 0 || v >= static_cast<int>(space.fidelities[d].values.size()))
          continue;
        Coords n = c;
        n.fid[d] = v;
        out.push_back(n);
      }
    }
    return out;
  };

  for (std::size_t r = 0; r < config.restarts; ++r) {
    Coords current = random_coords();
    double current_lu = evaluate(current);
    bool improved = true;
    while (improved && result.evaluations < config.max_evaluations) {
      improved = false;
      Coords best_neighbour = current;
      double best_lu = current_lu;
      for (const Coords& n : neighbours(current)) {
        if (result.evaluations >= config.max_evaluations) break;
        const double lu = evaluate(n);
        if (lu > best_lu) {
          best_lu = lu;
          best_neighbour = n;
        }
      }
      if (best_lu > current_lu) {
        current = best_neighbour;
        current_lu = best_lu;
        improved = true;
      }
    }
    if (result.evaluations >= config.max_evaluations) break;
  }
  return result;
}

class PackedMemoEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(PackedMemoEquivalenceTest, MatchesReferenceImplementation) {
  const int seed = GetParam();
  util::Rng landscape(static_cast<std::uint64_t>(1000 + seed));
  const double wp = landscape.uniform(-1.0, 1.0);
  const double ws = landscape.uniform(-1.0, 1.0);
  const double wa = landscape.uniform(0.0, 2.0);
  const double wb = landscape.uniform(0.0, 2.0);
  const auto eval = [&](const Alternative& a) {
    if (seed % 3 == 0 && a.plan % 5 == 2) return kInfeasible;
    return wp * a.plan + ws * a.server + wa * a.fidelity.at(0) +
           wb * a.fidelity.at(1) - a.fidelity.at(2);
  };

  const auto space = big_space();
  HeuristicSolverConfig cfg;
  HeuristicSolver solver{util::Rng(static_cast<std::uint64_t>(seed)), cfg};
  const auto got = solver.solve(space, eval);
  const auto want = reference_heuristic_solve(
      util::Rng(static_cast<std::uint64_t>(seed)), cfg, space, eval);

  EXPECT_EQ(got.found, want.found);
  EXPECT_EQ(got.evaluations, want.evaluations);
  EXPECT_EQ(got.memo_hits, want.memo_hits);
  EXPECT_TRUE(got.best == want.best);
  EXPECT_DOUBLE_EQ(got.log_utility, want.log_utility);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackedMemoEquivalenceTest,
                         ::testing::Range(0, 10));

TEST(PackedMemoTest, InsertFindAndGrow) {
  detail::PackedMemo memo;
  memo.reset(4);
  // Force growth well past the initial capacity; keys carry the tag bit
  // like real packed coordinates.
  for (std::uint64_t i = 0; i < 500; ++i) {
    const std::uint64_t key = (1ull << 32) | i;
    EXPECT_EQ(memo.find(key), nullptr);
    memo.insert(key, static_cast<double>(i) * 0.5);
  }
  EXPECT_EQ(memo.size(), 500u);
  for (std::uint64_t i = 0; i < 500; ++i) {
    const std::uint64_t key = (1ull << 32) | i;
    const double* v = memo.find(key);
    ASSERT_NE(v, nullptr);
    EXPECT_DOUBLE_EQ(*v, static_cast<double>(i) * 0.5);
  }
  memo.reset(4);
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_EQ(memo.find((1ull << 32) | 7), nullptr);
}

TEST(AlternativeSpaceTest, CountMatchesEnumerateSize) {
  EXPECT_EQ(small_space().count(), small_space().enumerate().size());
  EXPECT_EQ(big_space().count(), big_space().enumerate().size());
  AlternativeSpace no_servers;
  no_servers.plans = {{"local", false}, {"remote", true}};
  no_servers.fidelities = {{"f", {0.0, 0.5, 1.0}}};
  EXPECT_EQ(no_servers.count(), no_servers.enumerate().size());
}

// The solver's memo packs a candidate's coordinates into 63 bits; a space
// needing more is refused up front (no application comes close: Pangloss,
// the largest, needs 9 bits).
TEST(HeuristicSolverTest, RejectsSpaceTooWideToPack) {
  AlternativeSpace wide;
  wide.plans = {{"local", false}};
  for (int i = 0; i < 32; ++i) {  // 32 dimensions x 2 bits = 64 bits
    wide.fidelities.push_back({"f" + std::to_string(i), {0.0, 0.5, 1.0}});
  }
  HeuristicSolver solver{util::Rng(1), HeuristicSolverConfig{}};
  int evaluations = 0;
  EXPECT_THROW(solver.solve(wide,
                            [&](const Alternative&) {
                              ++evaluations;
                              return 0.0;
                            }),
               util::ContractError);
  EXPECT_EQ(evaluations, 0);

  wide.fidelities.pop_back();  // 62 bits: packs, and solves
  const auto result = solver.solve(wide, [](const Alternative& a) {
    return a.fidelity.at(0);
  });
  EXPECT_TRUE(result.found);
}

TEST(HeuristicSolverTest, ConfigValidation) {
  EXPECT_THROW(HeuristicSolver(util::Rng(1), HeuristicSolverConfig{0, 10, 1}),
               util::ContractError);
  EXPECT_THROW(HeuristicSolver(util::Rng(1), HeuristicSolverConfig{1, 0, 1}),
               util::ContractError);
}

// Property sweep: the heuristic solver achieves a high fraction of the
// exhaustive optimum across random utility landscapes.
class SolverQualityTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverQualityTest, NearOptimalOnRandomLandscapes) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const auto space = big_space();
  // Random but structured utility: random weights per coordinate.
  const double wp = rng.uniform(-1.0, 1.0);
  const double ws = rng.uniform(-1.0, 1.0);
  const double wa = rng.uniform(0.0, 2.0);
  const double wb = rng.uniform(0.0, 2.0);
  const auto eval = [&](const Alternative& a) {
    return wp * a.plan + ws * a.server + wa * a.fidelity.at(0) +
           wb * a.fidelity.at(1) - a.fidelity.at(2);
  };
  ExhaustiveSolver oracle;
  const double best = oracle.solve(space, eval).log_utility;
  HeuristicSolver solver{util::Rng(99 + GetParam())};
  const double got = solver.solve(space, eval).log_utility;
  const double range = std::abs(best) + 1.0;
  EXPECT_GT(got, best - 0.25 * range);
}

INSTANTIATE_TEST_SUITE_P(Landscapes, SolverQualityTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace spectra::solver
