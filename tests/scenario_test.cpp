#include <gtest/gtest.h>

#include "monitor/battery_monitor.h"
#include "scenario/experiment.h"
#include "scenario/scenarios.h"
#include "scenario/world.h"
#include "util/assert.h"

namespace spectra::scenario {
namespace {

std::unique_ptr<World> itsy() {
  WorldConfig wc;
  wc.testbed = Testbed::kItsy;
  auto w = std::make_unique<World>(wc);
  w->warm_all_caches();
  return w;
}

std::unique_ptr<World> thinkpad() {
  WorldConfig wc;
  wc.testbed = Testbed::kThinkpad;
  auto w = std::make_unique<World>(wc);
  w->warm_all_caches();
  return w;
}

TEST(ScenarioTest, NamesAreUnique) {
  EXPECT_EQ(name(SpeechScenario::kBaseline), "baseline");
  EXPECT_EQ(name(SpeechScenario::kFileCache), "file-cache");
  EXPECT_EQ(name(LatexScenario::kReintegrate), "reintegrate");
  EXPECT_EQ(name(PanglossScenario::kCpu), "cpu");
}

TEST(ScenarioTest, SpeechEnergyPinsImportance) {
  auto w = itsy();
  apply(*w, SpeechScenario::kEnergy);
  EXPECT_TRUE(w->client_machine().on_battery());
  EXPECT_DOUBLE_EQ(w->spectra().energy_importance(),
                   kSpeechEnergyImportance);
}

TEST(ScenarioTest, SpeechNetworkHalvesBandwidth) {
  auto w = itsy();
  const auto before =
      w->network().link(kClient, kServerT20).bandwidth;
  apply(*w, SpeechScenario::kNetwork);
  EXPECT_NEAR(w->network().link(kClient, kServerT20).bandwidth,
              before / 2.0, 1.0);
}

TEST(ScenarioTest, SpeechCpuLoadsClient) {
  auto w = itsy();
  apply(*w, SpeechScenario::kCpu);
  EXPECT_DOUBLE_EQ(w->client_machine().background_procs(), 1.0);
}

TEST(ScenarioTest, SpeechFileCachePartitionsAndEvicts) {
  auto w = itsy();
  apply(*w, SpeechScenario::kFileCache);
  EXPECT_FALSE(w->network().reachable(kClient, kServerT20));
  EXPECT_TRUE(w->network().reachable(kClient, kFileServer));
  EXPECT_FALSE(
      w->coda(kClient).is_cached(w->janus().config().lm_full_path));
  EXPECT_TRUE(
      w->coda(kClient).is_cached(w->janus().config().lm_reduced_path));
}

TEST(ScenarioTest, LatexFileCacheEvictsOnlyServerB) {
  auto w = thinkpad();
  apply(*w, LatexScenario::kFileCache);
  EXPECT_FALSE(w->coda(kServerB).is_cached("latex/small/main.tex"));
  EXPECT_TRUE(w->coda(kServerA).is_cached("latex/small/main.tex"));
  EXPECT_TRUE(w->coda(kClient).is_cached("latex/small/main.tex"));
}

TEST(ScenarioTest, LatexReintegrateDirtiesTopLevelInput) {
  auto w = thinkpad();
  apply(*w, LatexScenario::kReintegrate);
  EXPECT_TRUE(w->coda(kClient).is_dirty("latex/small/main.tex"));
  // Only the small document's volume is dirty.
  const auto vols = w->coda(kClient).dirty_volumes();
  ASSERT_EQ(vols.size(), 1u);
  EXPECT_EQ(vols[0], "latex.small");
}

TEST(ScenarioTest, LatexEnergyCombinesKnobs) {
  auto w = thinkpad();
  apply(*w, LatexScenario::kEnergy);
  EXPECT_TRUE(w->coda(kClient).has_dirty_files());
  EXPECT_TRUE(w->client_machine().on_battery());
  EXPECT_DOUBLE_EQ(w->spectra().energy_importance(), kLatexEnergyImportance);
}

TEST(ScenarioTest, PanglossCpuBuildsOnFileCache) {
  auto w = thinkpad();
  apply(*w, PanglossScenario::kCpu);
  EXPECT_FALSE(w->coda(kServerB).is_cached("pangloss/ebmt.corpus"));
  EXPECT_DOUBLE_EQ(w->machine(kServerA).background_procs(), 2.0);
}

TEST(ExperimentTest, SpeechAlternativesCoverPlanFidelityCross) {
  const auto alts = SpeechExperiment::alternatives();
  EXPECT_EQ(alts.size(), 6u);
  std::set<std::string> labels;
  for (const auto& a : alts) labels.insert(SpeechExperiment::label(a));
  EXPECT_EQ(labels.size(), 6u);
  EXPECT_TRUE(labels.count("hybrid-full"));
}

TEST(ExperimentTest, LatexAlternativeLabels) {
  const auto alts = LatexExperiment::alternatives();
  ASSERT_EQ(alts.size(), 3u);
  EXPECT_EQ(LatexExperiment::label(alts[0]), "local");
  EXPECT_EQ(LatexExperiment::label(alts[1]), "serverA");
  EXPECT_EQ(LatexExperiment::label(alts[2]), "serverB");
}

TEST(ExperimentTest, PanglossAlternativesAreDistinct) {
  const auto alts = PanglossExperiment::alternatives();
  const solver::FidelityNames names(
      {{"ebmt", {0.0, 1.0}}, {"gloss", {0.0, 1.0}}, {"dict", {0.0, 1.0}}});
  std::set<std::string> keys;
  for (const auto& a : alts) keys.insert(a.describe(names));
  EXPECT_EQ(keys.size(), alts.size());
}

TEST(ExperimentTest, MeasurementIsDeterministicPerSeed) {
  SpeechExperiment::Config cfg;
  cfg.seed = 5;
  SpeechExperiment e1(cfg), e2(cfg);
  const auto alt = apps::JanusApp::alternative(
      apps::JanusApp::kPlanHybrid, 1.0, kServerT20);
  EXPECT_DOUBLE_EQ(e1.measure(alt).time, e2.measure(alt).time);
}

TEST(ExperimentTest, TrialsVaryAcrossSeeds) {
  SpeechExperiment::Config a;
  a.seed = 5;
  SpeechExperiment::Config b;
  b.seed = 6;
  const auto alt = apps::JanusApp::alternative(
      apps::JanusApp::kPlanHybrid, 1.0, kServerT20);
  EXPECT_NE(SpeechExperiment(a).measure(alt).time,
            SpeechExperiment(b).measure(alt).time);
}

TEST(ExperimentTest, PanglossUtilityRespectsDeadline) {
  MeasuredRun fast;
  fast.feasible = true;
  fast.time = 0.3;
  MeasuredRun slow;
  slow.feasible = true;
  slow.time = 10.0;
  const auto all = apps::PanglossApp::alternative(0, true, true, true);
  EXPECT_DOUBLE_EQ(PanglossExperiment::achieved_utility(fast, all), 1.0);
  EXPECT_DOUBLE_EQ(PanglossExperiment::achieved_utility(slow, all), 0.0);
  MeasuredRun infeasible;
  EXPECT_DOUBLE_EQ(PanglossExperiment::achieved_utility(infeasible, all),
                   0.0);
}

TEST(ExperimentTest, TrainedWorldHasTrainedModels) {
  SpeechExperiment::Config cfg;
  cfg.seed = 5;
  auto world = SpeechExperiment(cfg).trained_world();
  const auto& model =
      world->spectra().model(apps::JanusApp::kOperation);
  EXPECT_TRUE(model.trained());
  EXPECT_EQ(model.observations(), 18u);
}

TEST(OverheadWorldTest, BuildsRequestedServerCount) {
  WorldConfig wc;
  wc.testbed = Testbed::kOverhead;
  wc.overhead_servers = 3;
  World w(wc);
  EXPECT_EQ(w.server_ids().size(), 3u);
}

}  // namespace
}  // namespace spectra::scenario
