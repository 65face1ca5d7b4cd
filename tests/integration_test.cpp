// End-to-end reproduction checks: for every paper scenario, Spectra's
// choice (made from learned models and monitored resources only) must match
// the choice the paper reports, and its achieved utility must be close to
// the measured optimum. These tests lock in the results the figure benches
// print.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "apps/janus.h"
#include "apps/latex.h"
#include "apps/pangloss.h"
#include "fault/fault_plan.h"
#include "scenario/experiment.h"

namespace spectra::scenario {
namespace {

using apps::JanusApp;
using apps::LatexApp;
using apps::PanglossApp;

constexpr std::uint64_t kSeed = 1000;

// ------------------------------------------------------------------ speech

std::string speech_choice(SpeechScenario sc) {
  SpeechExperiment::Config cfg;
  cfg.scenario = sc;
  cfg.seed = kSeed;
  SpeechExperiment exp(cfg);
  return SpeechExperiment::label(exp.run_spectra().choice.alternative);
}

TEST(SpeechIntegrationTest, BaselinePicksHybridFull) {
  EXPECT_EQ(speech_choice(SpeechScenario::kBaseline), "hybrid-full");
}

TEST(SpeechIntegrationTest, EnergyPicksRemoteFull) {
  EXPECT_EQ(speech_choice(SpeechScenario::kEnergy), "remote-full");
}

TEST(SpeechIntegrationTest, HalvedNetworkPicksHybridFull) {
  EXPECT_EQ(speech_choice(SpeechScenario::kNetwork), "hybrid-full");
}

TEST(SpeechIntegrationTest, LoadedClientPicksRemoteFull) {
  EXPECT_EQ(speech_choice(SpeechScenario::kCpu), "remote-full");
}

TEST(SpeechIntegrationTest, PartitionWithColdCachePicksLocalReduced) {
  EXPECT_EQ(speech_choice(SpeechScenario::kFileCache), "local-reduced");
}

TEST(SpeechIntegrationTest, LocalPlanIs3To9TimesSlower) {
  SpeechExperiment::Config cfg;
  cfg.seed = kSeed;
  SpeechExperiment exp(cfg);
  const auto local = exp.measure(
      JanusApp::alternative(JanusApp::kPlanLocal, 1.0));
  const auto hybrid = exp.measure(
      JanusApp::alternative(JanusApp::kPlanHybrid, 1.0, kServerT20));
  const auto remote = exp.measure(
      JanusApp::alternative(JanusApp::kPlanRemote, 1.0, kServerT20));
  ASSERT_TRUE(local.feasible && hybrid.feasible && remote.feasible);
  EXPECT_GT(local.time / hybrid.time, 3.0);
  EXPECT_LT(local.time / hybrid.time, 9.0);
  EXPECT_GT(local.time / remote.time, 3.0);
  EXPECT_LT(local.time / remote.time, 9.0);
}

TEST(SpeechIntegrationTest, FileCacheScenarioFullIsRoughly3xSlower) {
  SpeechExperiment::Config cfg;
  cfg.scenario = SpeechScenario::kFileCache;
  cfg.seed = kSeed;
  SpeechExperiment exp(cfg);
  const auto full =
      exp.measure(JanusApp::alternative(JanusApp::kPlanLocal, 1.0));
  const auto reduced =
      exp.measure(JanusApp::alternative(JanusApp::kPlanLocal, 0.0));
  ASSERT_TRUE(full.feasible && reduced.feasible);
  EXPECT_NEAR(full.time / reduced.time, 3.0, 1.0);
}

TEST(SpeechIntegrationTest, RemotePlansInfeasibleUnderPartition) {
  SpeechExperiment::Config cfg;
  cfg.scenario = SpeechScenario::kFileCache;
  cfg.seed = kSeed;
  SpeechExperiment exp(cfg);
  EXPECT_FALSE(exp.measure(JanusApp::alternative(JanusApp::kPlanRemote, 1.0,
                                                 kServerT20))
                   .feasible);
}

TEST(SpeechIntegrationTest, SpectraWithinTolerantFactorOfBest) {
  // "its few suboptimal choices are very close to optimal" — the chosen
  // alternative's time is within 25% of the fastest feasible alternative
  // carrying at least its fidelity.
  for (const auto sc :
       {SpeechScenario::kBaseline, SpeechScenario::kNetwork,
        SpeechScenario::kCpu}) {
    SpeechExperiment::Config cfg;
    cfg.scenario = sc;
    cfg.seed = kSeed;
    SpeechExperiment exp(cfg);
    const auto s = exp.run_spectra();
    double best_utility = 0.0;
    double s_utility = 0.0;
    for (const auto& alt : SpeechExperiment::alternatives()) {
      const auto run = exp.measure(alt);
      if (!run.feasible) continue;
      const double fid = alt.fidelity.at(JanusApp::kVocab) >= 1.0 ? 1.0 : 0.5;
      const double u = fid / run.time;
      best_utility = std::max(best_utility, u);
      if (SpeechExperiment::label(alt) ==
          SpeechExperiment::label(s.choice.alternative)) {
        s_utility = u;
      }
    }
    EXPECT_GT(s_utility, 0.75 * best_utility) << name(sc);
  }
}

// ------------------------------------------------------------------- latex

std::string latex_choice(LatexScenario sc, const std::string& doc) {
  LatexExperiment::Config cfg;
  cfg.scenario = sc;
  cfg.doc = doc;
  cfg.seed = kSeed;
  LatexExperiment exp(cfg);
  return LatexExperiment::label(exp.run_spectra().choice.alternative);
}

TEST(LatexIntegrationTest, BaselinePicksFastestServerB) {
  EXPECT_EQ(latex_choice(LatexScenario::kBaseline, "small"), "serverB");
  EXPECT_EQ(latex_choice(LatexScenario::kBaseline, "large"), "serverB");
}

TEST(LatexIntegrationTest, ColdServerBSwitchesToA) {
  EXPECT_EQ(latex_choice(LatexScenario::kFileCache, "small"), "serverA");
  EXPECT_EQ(latex_choice(LatexScenario::kFileCache, "large"), "serverA");
}

TEST(LatexIntegrationTest, ReintegrationKeepsSmallDocumentLocal) {
  EXPECT_EQ(latex_choice(LatexScenario::kReintegrate, "small"), "local");
}

TEST(LatexIntegrationTest, LargeDocumentSkipsIrrelevantReintegration) {
  // The modified file belongs to the small document; Spectra predicts the
  // large document will not read it and picks the fastest plan.
  EXPECT_EQ(latex_choice(LatexScenario::kReintegrate, "large"), "serverB");
}

TEST(LatexIntegrationTest, EnergyScenarioPrefersBOverFasterLocal) {
  EXPECT_EQ(latex_choice(LatexScenario::kEnergy, "small"), "serverB");
  EXPECT_EQ(latex_choice(LatexScenario::kEnergy, "large"), "serverB");
}

TEST(LatexIntegrationTest, EnergyScenarioSmallDocShape) {
  // Fig 7(a): B draws slightly less client energy than local, though it
  // takes longer.
  LatexExperiment::Config cfg;
  cfg.scenario = LatexScenario::kEnergy;
  cfg.doc = "small";
  cfg.seed = kSeed;
  LatexExperiment exp(cfg);
  const auto local = exp.measure(LatexApp::alternative(LatexApp::kPlanLocal));
  const auto b = exp.measure(
      LatexApp::alternative(LatexApp::kPlanRemote, kServerB));
  ASSERT_TRUE(local.feasible && b.feasible);
  EXPECT_LT(b.energy, local.energy);
  EXPECT_GT(b.time, local.time);
}

TEST(LatexIntegrationTest, ReintegrationActuallyHappensForRemoteRuns) {
  LatexExperiment::Config cfg;
  cfg.scenario = LatexScenario::kReintegrate;
  cfg.doc = "small";
  cfg.seed = kSeed;
  LatexExperiment exp(cfg);
  auto world = exp.trained_world();
  ASSERT_TRUE(world->coda(kClient).has_dirty_files());
  world->latex().run_forced(
      world->spectra(), "small",
      LatexApp::alternative(LatexApp::kPlanRemote, kServerB));
  EXPECT_FALSE(world->coda(kClient).has_dirty_files());
  // And the server saw the new version.
  EXPECT_EQ(world->file_server().version("latex/small/main.tex"), 2u);
}

TEST(LatexIntegrationTest, LargeDocRemoteRunLeavesSmallDocDirty) {
  LatexExperiment::Config cfg;
  cfg.scenario = LatexScenario::kReintegrate;
  cfg.doc = "large";
  cfg.seed = kSeed;
  LatexExperiment exp(cfg);
  auto world = exp.trained_world();
  world->latex().run_forced(
      world->spectra(), "large",
      LatexApp::alternative(LatexApp::kPlanRemote, kServerB));
  EXPECT_TRUE(world->coda(kClient).is_dirty("latex/small/main.tex"));
}

// ---------------------------------------------------------------- pangloss

TEST(PanglossIntegrationTest, SmallSentencesUseAllEngines) {
  PanglossExperiment::Config cfg;
  cfg.seed = kSeed;
  cfg.test_words = 10;
  PanglossExperiment exp(cfg);
  const auto s = exp.run_spectra();
  const auto& f = s.choice.alternative.fidelity;
  EXPECT_DOUBLE_EQ(f.at(PanglossApp::kEbmt), 1.0);
  EXPECT_DOUBLE_EQ(f.at(PanglossApp::kGloss), 1.0);
  EXPECT_DOUBLE_EQ(f.at(PanglossApp::kDict), 1.0);
}

TEST(PanglossIntegrationTest, LargeSentencesDropGlossary) {
  PanglossExperiment::Config cfg;
  cfg.seed = kSeed;
  cfg.test_words = 44;
  PanglossExperiment exp(cfg);
  const auto s = exp.run_spectra();
  const auto& f = s.choice.alternative.fidelity;
  EXPECT_DOUBLE_EQ(f.at(PanglossApp::kGloss), 0.0);
  EXPECT_DOUBLE_EQ(f.at(PanglossApp::kEbmt), 1.0);
}

TEST(PanglossIntegrationTest, EvictedCorpusMovesEbmtOffServerB) {
  PanglossExperiment::Config cfg;
  cfg.scenario = PanglossScenario::kFileCache;
  cfg.seed = kSeed;
  cfg.test_words = 10;
  PanglossExperiment exp(cfg);
  const auto s = exp.run_spectra();
  const auto& alt = s.choice.alternative;
  const bool ebmt_on = alt.fidelity.at(PanglossApp::kEbmt) > 0.5;
  const bool ebmt_remote =
      (alt.plan & (1 << PanglossApp::kEbmt)) != 0;
  // EBMT must not run on B (where the 12 MB corpus is gone).
  EXPECT_FALSE(ebmt_on && ebmt_remote && alt.server == kServerB);
}

TEST(PanglossIntegrationTest, HighPercentileAcrossScenarios) {
  for (const auto sc : {PanglossScenario::kBaseline,
                        PanglossScenario::kFileCache}) {
    PanglossExperiment::Config cfg;
    cfg.scenario = sc;
    cfg.seed = kSeed;
    cfg.test_words = 10;
    PanglossExperiment exp(cfg);
    std::vector<double> utilities;
    for (const auto& alt : PanglossExperiment::alternatives()) {
      utilities.push_back(
          PanglossExperiment::achieved_utility(exp.measure(alt), alt));
    }
    const auto s = exp.run_spectra();
    const double su =
        PanglossExperiment::achieved_utility(s, s.choice.alternative);
    EXPECT_GT(util::percentile_rank(utilities, su), 85.0) << name(sc);
  }
}

TEST(PanglossIntegrationTest, AlternativeCountMatchesPaperScale) {
  const auto n = PanglossExperiment::alternatives().size();
  EXPECT_GE(n, 90u);  // "100 different combinations of location and fidelity"
  EXPECT_LE(n, 110u);
}

TEST(PanglossIntegrationTest, DeadlineMakesSlowAlternativesWorthless) {
  PanglossExperiment::Config cfg;
  cfg.seed = kSeed;
  cfg.test_words = 44;
  PanglossExperiment exp(cfg);
  // Everything local on the 233 MHz client blows the 5 s deadline.
  const auto all_local = exp.measure(
      PanglossApp::alternative(0, true, true, true));
  ASSERT_TRUE(all_local.feasible);
  EXPECT_GT(all_local.time, 5.0);
  EXPECT_DOUBLE_EQ(PanglossExperiment::achieved_utility(
                       all_local, PanglossApp::alternative(0, true, true,
                                                           true)),
                   0.0);
}

// ------------------------------------------------- multi-application client

TEST(MultiAppIntegrationTest, InterleavedAppsKeepSeparateModels) {
  // Latex and Pangloss share the ThinkPad client; interleaving their
  // operations must not cross-pollute the per-operation demand models.
  WorldConfig wc;
  wc.testbed = Testbed::kThinkpad;
  wc.seed = 321;
  World w(wc);
  w.warm_all_caches();
  w.probe_fetch_rates();
  w.settle(6.0);

  const auto latex_alt =
      LatexApp::alternative(LatexApp::kPlanRemote, kServerB);
  const auto pangloss_alt =
      PanglossApp::alternative(0b1111, true, true, true, kServerB);
  for (int i = 0; i < 6; ++i) {
    w.latex().run_forced(w.spectra(), "small", latex_alt);
    w.pangloss().run_forced(w.spectra(), 10 + i, pangloss_alt);
  }
  EXPECT_EQ(w.spectra().model(LatexApp::kOperation).observations(), 6u);
  EXPECT_EQ(w.spectra().model(PanglossApp::kOperation).observations(), 6u);

  // Latex's learned remote CPU demand reflects Latex, not translation.
  const auto latex_demand = w.spectra().predict_demand(
      LatexApp::kOperation, {}, "small", latex_alt);
  EXPECT_NEAR(latex_demand.remote_cycles, 710e6, 60e6);
  // Pangloss's learned demand scales with words, untouched by Latex runs.
  const auto pl_demand = w.spectra().predict_demand(
      PanglossApp::kOperation, {{"words", 12.0}}, "", pangloss_alt);
  EXPECT_NEAR(pl_demand.remote_cycles,
              (80e6 + 28e6 * 12) + (40e6 + 30e6 * 12) + (4e6 + 1.2e6 * 12) +
                  (15e6 + 4e6 * 12),
              1.5e8);
  // Both operations' usage went into one shared log, properly attributed.
  EXPECT_EQ(w.spectra().usage_log().for_operation(LatexApp::kOperation)
                .size(),
            6u);
  EXPECT_EQ(w.spectra().usage_log().for_operation(PanglossApp::kOperation)
                .size(),
            6u);
}

TEST(MultiAppIntegrationTest, BackToBackDecisionsAcrossApps) {
  // After interleaved training, each app's Spectra-driven decision stays
  // sensible (B for Latex; a sub-deadline Pangloss configuration).
  LatexExperiment::Config lcfg;
  lcfg.seed = 321;
  auto w = LatexExperiment(lcfg).trained_world();
  // Train pangloss in the same world.
  util::Rng rng(55);
  for (int i = 0; i < 129; ++i) {
    const int words = static_cast<int>(rng.uniform_int(4, 44));
    const int fid = 1 + static_cast<int>(rng.uniform_int(0, 6));
    const int mask = static_cast<int>(rng.uniform_int(0, 15));
    const auto alt = PanglossApp::alternative(
        mask, (fid & 1) != 0, (fid & 2) != 0, (fid & 4) != 0,
        (i % 2 == 0) ? kServerA : kServerB);
    w->pangloss().run_forced(w->spectra(), words, alt);
  }
  const auto latex_choice =
      w->spectra().begin_fidelity_op(LatexApp::kOperation, {}, "small");
  w->latex().execute(w->spectra(), "small");
  w->spectra().end_fidelity_op();
  EXPECT_EQ(latex_choice.alternative.server, kServerB);

  const auto pl_choice = w->spectra().begin_fidelity_op(
      PanglossApp::kOperation, {{"words", 10.0}});
  w->pangloss().execute(w->spectra(), 10);
  const auto usage = w->spectra().end_fidelity_op();
  EXPECT_LT(usage.elapsed, 5.0);  // within the translation deadline
  EXPECT_GT(pl_choice.predicted.fidelity.at(PanglossApp::kEbmt) +
                pl_choice.predicted.fidelity.at(PanglossApp::kGloss) +
                pl_choice.predicted.fidelity.at(PanglossApp::kDict),
            0.5);
}

// ------------------------------------------------------ deterministic replay

TEST(ReplayIntegrationTest, SeededFaultyRunReplaysBitIdentically) {
  // The same seeded world driven through the same seeded fault plan must
  // reproduce every decision, every measured usage number, and every
  // applied fault bit-for-bit — the property that makes a failure found
  // under fault injection debuggable.
  const fault::FaultPlan plan = fault::FaultPlan::parse(
      "seed 7\n"
      "horizon 30\n"
      "at 0.5 link_down 0 1 duration=3\n"
      "at 6 latency_spike 0 9 magnitude=4 duration=5\n"
      "prob server_crash 1 rate=0.05 duration=2\n");
  auto run = [&plan] {
    SpeechExperiment::Config cfg;
    cfg.seed = kSeed;
    cfg.fault_plan = plan;
    cfg.spectra_overrides = [](core::SpectraClientConfig& c) {
      c.trace_decisions = true;
      // Bound crashed-server burns while staying well above the healthy
      // search time (~2 s): the override also applies during training.
      c.remote_retry.timeout = 10.0;
    };
    auto w = SpeechExperiment(cfg).trained_world();
    std::ostringstream decisions;
    decisions.precision(17);
    for (int i = 0; i < 3; ++i) {
      const auto choice = w->spectra().begin_fidelity_op(
          JanusApp::kOperation, {{"utt_len", 2.0}});
      w->janus().execute(w->spectra(), 2.0);
      const bool degraded = w->spectra().current_choice().degraded;
      const auto usage = w->spectra().end_fidelity_op();
      decisions << SpeechExperiment::label(choice.alternative) << ' '
                << degraded << ' '
                << usage.elapsed << ' ' << usage.rpc_failures << '\n';
      if (const auto* trace = w->spectra().last_decision_trace()) {
        decisions << trace->to_string();
      }
      w->settle(5.0);
    }
    return std::pair<std::string, std::string>(
        decisions.str(), w->fault_injector().trace_string());
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  // The plan actually did something in both runs.
  EXPECT_FALSE(first.second.empty());
}

// --------------------------------------------------------------- overhead

// The wall-clock figures are compared by their minimum over five
// interleaved repeats: preemption on a loaded host only ever adds time, so
// one unlucky run cannot flip the order.
TEST(OverheadIntegrationTest, OverheadGrowsWithServers) {
  OverheadExperiment::Config cfg0;
  cfg0.servers = 0;
  cfg0.measured_runs = 50;
  OverheadExperiment::Config cfg5;
  cfg5.servers = 5;
  cfg5.measured_runs = 50;
  std::vector<OverheadReport> r0;
  std::vector<OverheadReport> r5;
  for (int rep = 0; rep < 5; ++rep) {
    r0.push_back(OverheadExperiment(cfg0).run());
    r5.push_back(OverheadExperiment(cfg5).run());
  }
  const auto min_of = [](const std::vector<OverheadReport>& runs,
                         double OverheadReport::*field) {
    double least = runs.front().*field;
    for (const OverheadReport& r : runs) least = std::min(least, r.*field);
    return least;
  };
  EXPECT_GT(min_of(r5, &OverheadReport::total_ms),
            min_of(r0, &OverheadReport::total_ms));
  EXPECT_GT(min_of(r5, &OverheadReport::choosing_ms),
            min_of(r0, &OverheadReport::choosing_ms));
  EXPECT_GT(r5.front().virtual_decision_ms, r0.front().virtual_decision_ms);
}

TEST(OverheadIntegrationTest, FullCacheInflatesCachePrediction) {
  OverheadExperiment::Config cfg;
  cfg.servers = 1;
  cfg.measured_runs = 50;
  const auto r = OverheadExperiment(cfg).run();
  EXPECT_GT(r.cache_prediction_full_ms, 10.0 * r.cache_prediction_ms);
}

}  // namespace
}  // namespace spectra::scenario
