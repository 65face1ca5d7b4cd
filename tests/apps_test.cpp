#include <gtest/gtest.h>

#include <array>
#include <map>

#include "apps/janus.h"
#include "apps/latex.h"
#include "apps/pangloss.h"
#include "scenario/world.h"
#include "util/assert.h"

namespace spectra::apps {
namespace {

using scenario::kClient;
using scenario::kServerA;
using scenario::kServerB;
using scenario::kServerT20;
using scenario::Testbed;
using scenario::World;
using scenario::WorldConfig;

std::unique_ptr<World> itsy_world(std::uint64_t seed = 1) {
  WorldConfig wc;
  wc.testbed = Testbed::kItsy;
  wc.seed = seed;
  auto w = std::make_unique<World>(wc);
  w->warm_all_caches();
  return w;
}

std::unique_ptr<World> thinkpad_world(std::uint64_t seed = 1) {
  WorldConfig wc;
  wc.testbed = Testbed::kThinkpad;
  wc.seed = seed;
  auto w = std::make_unique<World>(wc);
  w->warm_all_caches();
  return w;
}

// -------------------------------------------------------------------- Janus

TEST(JanusTest, LocalPlanRunsEntirelyOnClient) {
  auto w = itsy_world();
  const auto usage = w->janus().run_forced(
      w->spectra(), 2.0, JanusApp::alternative(JanusApp::kPlanLocal, 1.0));
  EXPECT_GT(usage.local_cycles, 1e9);  // FP-emulated search
  EXPECT_DOUBLE_EQ(usage.remote_cycles, 0.0);
  EXPECT_EQ(usage.rpcs, 0);
}

TEST(JanusTest, RemotePlanShipsAudioAndComputesRemotely) {
  auto w = itsy_world();
  const auto usage = w->janus().run_forced(
      w->spectra(), 2.0,
      JanusApp::alternative(JanusApp::kPlanRemote, 1.0, kServerT20));
  EXPECT_LT(usage.local_cycles, 1e8);
  EXPECT_GT(usage.remote_cycles, 1e9);
  EXPECT_GT(usage.bytes_sent, 20.0 * 1024);  // compressed audio
  EXPECT_EQ(usage.rpcs, 1);
}

TEST(JanusTest, HybridSplitsComputation) {
  auto w = itsy_world();
  const auto usage = w->janus().run_forced(
      w->spectra(), 2.0,
      JanusApp::alternative(JanusApp::kPlanHybrid, 1.0, kServerT20));
  EXPECT_GT(usage.local_cycles, 2e8);   // front-end + prescan
  EXPECT_GT(usage.remote_cycles, 9e8);  // search
  // Features are much smaller than audio.
  EXPECT_LT(usage.bytes_sent, 6.0 * 1024);
}

TEST(JanusTest, LocalIsMuchSlowerThanDistributedPlans) {
  // The paper's headline: software FP makes local execution 3-9x slower.
  auto w = itsy_world();
  const auto local = w->janus().run_forced(
      w->spectra(), 2.0, JanusApp::alternative(JanusApp::kPlanLocal, 1.0));
  const auto hybrid = w->janus().run_forced(
      w->spectra(), 2.0,
      JanusApp::alternative(JanusApp::kPlanHybrid, 1.0, kServerT20));
  const double ratio = local.elapsed / hybrid.elapsed;
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 9.0);
}

TEST(JanusTest, RemoteUsesLessEnergyThanHybrid) {
  auto w = itsy_world();
  const auto hybrid = w->janus().run_forced(
      w->spectra(), 2.0,
      JanusApp::alternative(JanusApp::kPlanHybrid, 1.0, kServerT20));
  const auto remote = w->janus().run_forced(
      w->spectra(), 2.0,
      JanusApp::alternative(JanusApp::kPlanRemote, 1.0, kServerT20));
  EXPECT_LT(remote.energy, hybrid.energy);
}

TEST(JanusTest, FullVocabularyReadsFullLanguageModel) {
  auto w = itsy_world();
  const auto usage = w->janus().run_forced(
      w->spectra(), 2.0, JanusApp::alternative(JanusApp::kPlanLocal, 1.0));
  ASSERT_FALSE(usage.local_file_accesses.empty());
  bool saw_full = false;
  for (const auto& a : usage.local_file_accesses) {
    if (a.path == w->janus().config().lm_full_path) saw_full = true;
    EXPECT_NE(a.path, w->janus().config().lm_reduced_path);
  }
  EXPECT_TRUE(saw_full);
}

TEST(JanusTest, ReducedVocabularyIsFasterAtSameLocation) {
  auto w = itsy_world();
  const auto full = w->janus().run_forced(
      w->spectra(), 2.0, JanusApp::alternative(JanusApp::kPlanLocal, 1.0));
  const auto reduced = w->janus().run_forced(
      w->spectra(), 2.0, JanusApp::alternative(JanusApp::kPlanLocal, 0.0));
  EXPECT_LT(reduced.elapsed, full.elapsed);
}

TEST(JanusTest, TimeScalesWithUtteranceLength) {
  auto w = itsy_world();
  const auto short_u = w->janus().run_forced(
      w->spectra(), 1.0, JanusApp::alternative(JanusApp::kPlanLocal, 1.0));
  const auto long_u = w->janus().run_forced(
      w->spectra(), 3.0, JanusApp::alternative(JanusApp::kPlanLocal, 1.0));
  EXPECT_GT(long_u.elapsed, 2.0 * short_u.elapsed);
}

TEST(JanusTest, InvalidUtteranceRejected) {
  auto w = itsy_world();
  EXPECT_THROW(w->janus().run_forced(
                   w->spectra(), 0.0,
                   JanusApp::alternative(JanusApp::kPlanLocal, 1.0)),
               util::ContractError);
}

// -------------------------------------------------------------------- Latex

TEST(LatexTest, DefaultConfigHasPaperDocuments) {
  LatexApp app;
  EXPECT_EQ(app.document("small").pages, 14);
  EXPECT_EQ(app.document("large").pages, 123);
  EXPECT_THROW(app.document("medium"), util::ContractError);
  // The small document's top-level input is the paper's 70 KB file.
  EXPECT_DOUBLE_EQ(app.document("small").files.front().size, 70.0 * 1024);
}

TEST(LatexTest, LocalRunReadsInputsLocally) {
  auto w = thinkpad_world();
  const auto usage = w->latex().run_forced(
      w->spectra(), "small", LatexApp::alternative(LatexApp::kPlanLocal));
  EXPECT_EQ(usage.local_file_accesses.size(),
            w->latex().document("small").files.size());
  EXPECT_DOUBLE_EQ(usage.remote_cycles, 0.0);
}

TEST(LatexTest, RemoteRunReadsInputsOnServer) {
  auto w = thinkpad_world();
  const auto usage = w->latex().run_forced(
      w->spectra(), "small",
      LatexApp::alternative(LatexApp::kPlanRemote, kServerB));
  EXPECT_EQ(usage.remote_file_accesses.size(),
            w->latex().document("small").files.size());
  EXPECT_GT(usage.remote_cycles, 5e8);
  // DVI comes back in the response.
  EXPECT_GT(usage.bytes_received, 14 * 2.0 * 1024);
}

TEST(LatexTest, ServerBFasterThanServerAFasterThanLocal) {
  auto w = thinkpad_world();
  const auto local = w->latex().run_forced(
      w->spectra(), "small", LatexApp::alternative(LatexApp::kPlanLocal));
  const auto a = w->latex().run_forced(
      w->spectra(), "small",
      LatexApp::alternative(LatexApp::kPlanRemote, kServerA));
  const auto b = w->latex().run_forced(
      w->spectra(), "small",
      LatexApp::alternative(LatexApp::kPlanRemote, kServerB));
  EXPECT_LT(b.elapsed, a.elapsed);
  EXPECT_LT(a.elapsed, local.elapsed);
}

TEST(LatexTest, LargeDocumentCostsMore) {
  auto w = thinkpad_world();
  const auto small = w->latex().run_forced(
      w->spectra(), "small", LatexApp::alternative(LatexApp::kPlanLocal));
  const auto large = w->latex().run_forced(
      w->spectra(), "large", LatexApp::alternative(LatexApp::kPlanLocal));
  EXPECT_GT(large.elapsed, 5.0 * small.elapsed);
}

TEST(LatexTest, ColdServerCachePaysFetches) {
  auto w1 = thinkpad_world();
  const auto warm = w1->latex().run_forced(
      w1->spectra(), "small",
      LatexApp::alternative(LatexApp::kPlanRemote, kServerB));
  auto w2 = thinkpad_world();
  for (const auto& f : w2->latex().document("small").files) {
    w2->coda(kServerB).evict(f.path);
  }
  const auto cold = w2->latex().run_forced(
      w2->spectra(), "small",
      LatexApp::alternative(LatexApp::kPlanRemote, kServerB));
  EXPECT_GT(cold.elapsed, warm.elapsed + 1.0);
}

TEST(LatexTest, UnknownDocumentFailsService) {
  auto w = thinkpad_world();
  w->spectra().begin_fidelity_op_forced(
      LatexApp::kOperation, {}, "nonexistent",
      LatexApp::alternative(LatexApp::kPlanLocal));
  EXPECT_THROW(w->latex().execute(w->spectra(), "nonexistent"),
               util::ContractError);
}

// ----------------------------------------------------------------- Pangloss

TEST(PanglossTest, AlternativeCanonicalization) {
  // Disabling an engine zeroes its placement bit.
  const auto a = PanglossApp::alternative(0b1111, /*ebmt=*/false,
                                          /*gloss=*/true, /*dict=*/true,
                                          kServerB);
  EXPECT_EQ(a.plan & (1 << PanglossApp::kEbmt), 0);
  EXPECT_NE(a.plan & (1 << PanglossApp::kGloss), 0);
  // All-local placements drop the server.
  const auto b = PanglossApp::alternative(0, true, true, true, kServerB);
  EXPECT_EQ(b.server, -1);
}

TEST(PanglossTest, ExecutesOnlyEnabledEngines) {
  auto w = thinkpad_world();
  const auto usage = w->pangloss().run_forced(
      w->spectra(), 10,
      PanglossApp::alternative(0, /*ebmt=*/false, /*gloss=*/false,
                               /*dict=*/true));
  // dict + lm read their files locally; ebmt/gloss untouched.
  std::set<std::string> paths;
  for (const auto& a : usage.local_file_accesses) paths.insert(a.path);
  EXPECT_TRUE(paths.count("pangloss/dict"));
  EXPECT_TRUE(paths.count("pangloss/lm"));
  EXPECT_FALSE(paths.count("pangloss/ebmt.corpus"));
  EXPECT_FALSE(paths.count("pangloss/glossary"));
}

TEST(PanglossTest, RemoteComponentsUseChosenServer) {
  auto w = thinkpad_world();
  const int mask = (1 << PanglossApp::kEbmt) | (1 << PanglossApp::kLm);
  const auto usage = w->pangloss().run_forced(
      w->spectra(), 10,
      PanglossApp::alternative(mask, true, true, true, kServerB));
  EXPECT_EQ(usage.rpcs, 2);  // ebmt + lm remote
  EXPECT_GT(usage.remote_cycles, 1e8);
  EXPECT_GT(usage.local_cycles, 1e8);  // gloss + dict local
}

TEST(PanglossTest, TimeScalesWithSentenceLength) {
  auto w = thinkpad_world();
  const auto alt = PanglossApp::alternative(0, true, true, true);
  const auto small = w->pangloss().run_forced(w->spectra(), 5, alt);
  const auto large = w->pangloss().run_forced(w->spectra(), 40, alt);
  EXPECT_GT(large.elapsed, 3.0 * small.elapsed);
}

// A sentence of `words` as the hook's parameters (Pangloss declares one
// input parameter, `words`, at slot 0).
predict::FeatureSlots words_param(double words) {
  return predict::to_slots({"words"}, {{"words", words}},
                           PanglossApp::kOperation, "input parameter");
}

// One kind of the hook's features, rendered through its declared names.
std::map<std::string, double> named(const std::vector<std::string>& names,
                                    const predict::FeatureSlots& slots) {
  const predict::NamedFeatures pairs = predict::to_named(names, slots);
  return {pairs.begin(), pairs.end()};
}

// The hook's features of `alt`, written into `f` as the client does: both
// kinds reset to the schema's slots first.
void pangloss_features(const solver::Alternative& alt, double words,
                       predict::FeatureVector& f) {
  const predict::FeatureSchema schema = PanglossApp::feature_schema();
  f.discrete.reset(schema.discrete.size());
  f.continuous.reset(schema.continuous.size());
  PanglossApp::features(alt, words_param(words), f);
}

TEST(PanglossTest, FeatureMappingEncodesPlacement) {
  const auto alt = PanglossApp::alternative(
      1 << PanglossApp::kEbmt, true, true, false, kServerA);
  predict::FeatureVector f;
  pangloss_features(alt, 12.0, f);
  const predict::FeatureSchema schema = PanglossApp::feature_schema();
  const auto continuous = named(schema.continuous, f.continuous);
  const auto discrete = named(schema.discrete, f.discrete);
  EXPECT_DOUBLE_EQ(continuous.at("ebmt_remote_w"), 12.0);
  EXPECT_DOUBLE_EQ(continuous.at("ebmt_remote_i"), 1.0);
  EXPECT_DOUBLE_EQ(continuous.at("gloss_local_w"), 12.0);
  EXPECT_DOUBLE_EQ(continuous.at("lm_local_w"), 12.0);
  EXPECT_EQ(continuous.count("dict_local_w"), 0u);  // disabled
  // Discrete features carry the fidelity subset for the file predictor.
  EXPECT_DOUBLE_EQ(discrete.at("ebmt"), 1.0);
  EXPECT_DOUBLE_EQ(discrete.at("dict"), 0.0);
}

TEST(PanglossTest, EquivalentAlternativesShareFeatures) {
  // Placement bits of disabled engines do not change the features.
  const auto a = PanglossApp::alternative(0b0001, false, true, true, kServerA);
  solver::Alternative raw;
  raw.plan = 0b0001;  // ebmt bit set but ebmt disabled
  raw.server = kServerA;
  raw.fidelity = {0.0, 1.0, 1.0};  // ebmt, gloss, dict
  predict::FeatureVector fa, fraw;
  pangloss_features(a, 5.0, fa);
  pangloss_features(raw, 5.0, fraw);
  EXPECT_EQ(fa.continuous, fraw.continuous);
  EXPECT_EQ(fa.discrete, fraw.discrete);
}

// The feature hook as it was when features were keyed by name: engine
// flags read per use, maps filled ebmt, gloss, dict, lm with `_remote_w`
// before `_remote_i`, every name built per call.
struct NamedFeatures {
  std::map<std::string, double> discrete;
  std::map<std::string, double> continuous;
};

NamedFeatures reference_features(const solver::Alternative& alt,
                                 double words) {
  const std::array<const char*, 4> names = {"ebmt", "gloss", "dict", "lm"};
  NamedFeatures f;
  for (int c = 0; c < PanglossApp::kLm; ++c) {
    f.discrete[names[c]] = alt.fidelity.at(c);
  }
  for (int c = 0; c <= PanglossApp::kLm; ++c) {
    if (c != PanglossApp::kLm && !(alt.fidelity.at(c) > 0.5)) continue;
    const std::string name = names[c];
    if ((alt.plan & (1 << c)) != 0) {
      f.continuous[name + "_remote_w"] = words;
      f.continuous[name + "_remote_i"] = 1.0;
    } else {
      f.continuous[name + "_local_w"] = words;
    }
  }
  return f;
}

TEST(PanglossTest, FeatureHookMatchesReference) {
  // Every placement mask x engine subset (canonical or not, as the solver
  // enumerates them) on both servers, for the five test sentences. The
  // hook's output vector is reused across calls, as the client does, and
  // its slots are rendered through the declared schema.
  const predict::FeatureSchema schema = PanglossApp::feature_schema();
  predict::FeatureVector got;
  const solver::FidelityNames names(
      {{"ebmt", {0.0, 1.0}}, {"gloss", {0.0, 1.0}}, {"dict", {0.0, 1.0}}});
  int compared = 0;
  for (const int words : {6, 10, 14, 38, 44}) {
    for (const hw::MachineId server : {kServerA, kServerB}) {
      for (int mask = 0; mask < PanglossApp::kPlanCount; ++mask) {
        for (int engines = 0; engines < 8; ++engines) {
          solver::Alternative alt;
          alt.plan = mask;
          alt.server = mask != 0 ? server : -1;
          alt.fidelity = {(engines & 1) != 0 ? 1.0 : 0.0,   // ebmt
                          (engines & 2) != 0 ? 1.0 : 0.0,   // gloss
                          (engines & 4) != 0 ? 1.0 : 0.0};  // dict
          pangloss_features(alt, words, got);
          const NamedFeatures want = reference_features(alt, words);
          EXPECT_EQ(named(schema.discrete, got.discrete), want.discrete)
              << alt.describe(names);
          EXPECT_EQ(named(schema.continuous, got.continuous),
                    want.continuous)
              << alt.describe(names);
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 5 * 2 * 16 * 8);
}

TEST(PanglossTest, InvalidInputsRejected) {
  auto w = thinkpad_world();
  EXPECT_THROW(w->pangloss().run_forced(
                   w->spectra(), 0,
                   PanglossApp::alternative(0, true, true, true)),
               util::ContractError);
  EXPECT_THROW(PanglossApp::alternative(16, true, true, true),
               util::ContractError);
}

// ---------------------------------------------------------------- World

TEST(WorldTest, ItsyTestbedShape) {
  auto w = itsy_world();
  EXPECT_EQ(w->server_ids().size(), 1u);
  EXPECT_EQ(w->machine(kClient).spec().name, "itsy");
  EXPECT_DOUBLE_EQ(w->machine(kClient).spec().fp_penalty, 3.0);
  EXPECT_NE(w->machine(kClient).battery(), nullptr);
  EXPECT_THROW(w->latex(), util::ContractError);
}

TEST(WorldTest, ThinkpadTestbedShape) {
  auto w = thinkpad_world();
  EXPECT_EQ(w->server_ids().size(), 2u);
  EXPECT_EQ(w->machine(kServerB).spec().cpu_hz, 933e6);
  EXPECT_THROW(w->janus(), util::ContractError);
}

TEST(WorldTest, WarmCachesCoverAppFiles) {
  auto w = thinkpad_world();
  EXPECT_TRUE(w->coda(kClient).is_cached("pangloss/ebmt.corpus"));
  EXPECT_TRUE(w->coda(kServerB).is_cached("latex/small/main.tex"));
  // Background files live on servers, not the client.
  EXPECT_TRUE(w->coda(kServerB).is_cached("bg/f0"));
  EXPECT_FALSE(w->coda(kClient).is_cached("bg/f0"));
}

TEST(WorldTest, ProbeSeedsFetchRates) {
  auto w = thinkpad_world();
  const auto before = w->coda(kClient).estimated_fetch_rate();
  w->probe_fetch_rates();
  // The client->file-server path is slow; the probe must reveal that.
  EXPECT_LT(w->coda(kClient).estimated_fetch_rate(), before);
}

TEST(WorldTest, DeterministicAcrossRebuilds) {
  auto w1 = itsy_world(42);
  auto w2 = itsy_world(42);
  const auto alt = JanusApp::alternative(JanusApp::kPlanHybrid, 1.0,
                                         kServerT20);
  const auto u1 = w1->janus().run_forced(w1->spectra(), 2.0, alt);
  const auto u2 = w2->janus().run_forced(w2->spectra(), 2.0, alt);
  EXPECT_DOUBLE_EQ(u1.elapsed, u2.elapsed);
  EXPECT_DOUBLE_EQ(u1.energy, u2.energy);
}

TEST(WorldTest, DifferentSeedsDiffer) {
  auto w1 = itsy_world(1);
  auto w2 = itsy_world(2);
  const auto alt = JanusApp::alternative(JanusApp::kPlanLocal, 1.0);
  const auto u1 = w1->janus().run_forced(w1->spectra(), 2.0, alt);
  const auto u2 = w2->janus().run_forced(w2->spectra(), 2.0, alt);
  EXPECT_NE(u1.elapsed, u2.elapsed);
}

}  // namespace
}  // namespace spectra::apps
