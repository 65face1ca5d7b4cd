#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "predict/features.h"
#include "predict/file_predictor.h"
#include "predict/linear.h"
#include "predict/lru.h"
#include "predict/numeric.h"
#include "predict/operation_model.h"
#include "predict/usage_log.h"
#include "util/assert.h"
#include "util/rng.h"

namespace spectra::predict {
namespace {

// ---------------------------------------------------------------- features

TEST(FeatureVectorTest, BinKeyIsDeterministicAndSorted) {
  FeatureVector f;
  f.discrete["plan"] = 2.0;
  f.discrete["vocab"] = 1.0;
  EXPECT_EQ(f.bin_key(), "plan=2;vocab=1");
}

TEST(FeatureVectorTest, EmptyDiscreteGivesEmptyKey) {
  FeatureVector f;
  f.continuous["x"] = 3.0;
  EXPECT_EQ(f.bin_key(), "");
}

// ------------------------------------------------------------ RecencyLinear

TEST(RecencyLinearTest, MeanForConstantSamples) {
  RecencyLinear m(0.95);
  for (int i = 0; i < 10; ++i) m.add({}, 5.0);
  EXPECT_NEAR(m.predict({}), 5.0, 1e-9);
}

TEST(RecencyLinearTest, PredictOnEmptyThrows) {
  RecencyLinear m;
  EXPECT_THROW(m.predict({}), util::ContractError);
}

TEST(RecencyLinearTest, FitsExactLine) {
  RecencyLinear m(1.0);
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    m.add({{"x", x}}, 10.0 + 3.0 * x);
  }
  EXPECT_NEAR(m.predict({{"x", 10.0}}), 40.0, 1e-3);  // ridge bias
  EXPECT_NEAR(m.predict({{"x", 0.0}}), 10.0, 1e-3);
}

TEST(RecencyLinearTest, TwoSamplesFallBackToMean) {
  RecencyLinear m(1.0);
  m.add({{"x", 1.0}}, 10.0);
  m.add({{"x", 1.1}}, 12.0);  // a 2-point line would extrapolate wildly
  EXPECT_NEAR(m.predict({{"x", 10.0}}), 11.0, 1e-6);
  EXPECT_FALSE(m.identifiable());
}

TEST(RecencyLinearTest, IdentifiableAfterEnoughSamples) {
  RecencyLinear m(1.0);
  m.add({{"x", 1.0}}, 1.0);
  m.add({{"x", 2.0}}, 2.0);
  EXPECT_FALSE(m.identifiable());
  m.add({{"x", 3.0}}, 3.0);
  EXPECT_TRUE(m.identifiable());
}

TEST(RecencyLinearTest, RecentSamplesDominateOldBehaviour) {
  RecencyLinear m(0.5);
  for (int i = 0; i < 20; ++i) m.add({}, 100.0);
  for (int i = 0; i < 6; ++i) m.add({}, 10.0);
  EXPECT_LT(m.predict({}), 15.0);
}

TEST(RecencyLinearTest, CollinearSamplesDegradeGracefully) {
  RecencyLinear m(1.0);
  // Every sample at the same x: slope unidentifiable; ridge keeps the
  // solution sane or the mean fallback kicks in.
  for (int i = 0; i < 10; ++i) m.add({{"x", 2.0}}, 8.0);
  const double p = m.predict({{"x", 2.0}});
  EXPECT_NEAR(p, 8.0, 0.5);
  // Extrapolation never goes negative.
  EXPECT_GE(m.predict({{"x", 100.0}}), 0.0);
}

TEST(RecencyLinearTest, FeatureSetMayGrowAcrossSamples) {
  // The Pangloss regression depends on this: samples carry only the
  // features of the components that actually ran.
  RecencyLinear m(1.0);
  for (double x : {1.0, 2.0, 3.0, 4.0}) m.add({{"a", x}}, 5.0 * x);
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    m.add({{"a", x}, {"b", x}}, 5.0 * x + 7.0 * x);
  }
  EXPECT_NEAR(m.predict({{"a", 2.0}}), 10.0, 1.0);
  EXPECT_NEAR(m.predict({{"a", 2.0}, {"b", 2.0}}), 24.0, 1.5);
}

TEST(RecencyLinearTest, MissingFeatureTreatedAsZero) {
  RecencyLinear m(1.0);
  for (double x : {0.0, 1.0, 2.0, 3.0}) m.add({{"x", x}}, 2.0 + 4.0 * x);
  EXPECT_NEAR(m.predict({}), 2.0, 1e-6);
}

TEST(RecencyLinearTest, PredictionsClampedNonNegative) {
  RecencyLinear m(1.0);
  for (double x : {1.0, 2.0, 3.0, 4.0}) m.add({{"x", x}}, 10.0 - 2.0 * x);
  EXPECT_GE(m.predict({{"x", 100.0}}), 0.0);
}

TEST(RecencyLinearTest, MultiFeatureRecovery) {
  RecencyLinear m(1.0);
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const double a = rng.uniform(0.0, 10.0);
    const double b = rng.uniform(0.0, 10.0);
    m.add({{"a", a}, {"b", b}}, 1.0 + 2.0 * a + 5.0 * b);
  }
  EXPECT_NEAR(m.predict({{"a", 4.0}, {"b", 2.0}}), 19.0, 0.1);
}

TEST(RecencyLinearTest, RejectsBadDecay) {
  EXPECT_THROW(RecencyLinear(0.0), util::ContractError);
  EXPECT_THROW(RecencyLinear(1.0001), util::ContractError);
}

// Property sweep: recovery accuracy under noise at several decay settings.
class LinearRecoveryTest : public ::testing::TestWithParam<double> {};

TEST_P(LinearRecoveryTest, RecoversSlopeUnderNoise) {
  const double decay = GetParam();
  RecencyLinear m(decay);
  util::Rng rng(17);
  for (int i = 0; i < 400; ++i) {
    const double x = rng.uniform(1.0, 9.0);
    m.add({{"x", x}}, (3.0 + 2.0 * x) * rng.noise_factor(0.05));
  }
  EXPECT_NEAR(m.predict({{"x", 5.0}}), 13.0, 13.0 * 0.1);
}

INSTANTIATE_TEST_SUITE_P(Decays, LinearRecoveryTest,
                         ::testing::Values(0.8, 0.9, 0.95, 0.99, 1.0));

// --------------------------------------------------------------------- LRU

TEST(LruMapTest, CreatesAndFinds) {
  LruMap<int> lru(2);
  lru.get_or_create("a") = 1;
  EXPECT_TRUE(lru.contains("a"));
  EXPECT_EQ(*lru.find("a"), 1);
  EXPECT_EQ(lru.find("b"), nullptr);
}

TEST(LruMapTest, EvictsLeastRecentlyUsed) {
  LruMap<int> lru(2);
  lru.get_or_create("a") = 1;
  lru.get_or_create("b") = 2;
  lru.get_or_create("a");  // touch a; b is now LRU
  lru.get_or_create("c") = 3;
  EXPECT_TRUE(lru.contains("a"));
  EXPECT_FALSE(lru.contains("b"));
  EXPECT_TRUE(lru.contains("c"));
}

TEST(LruMapTest, FindDoesNotTouch) {
  LruMap<int> lru(2);
  lru.get_or_create("a") = 1;
  lru.get_or_create("b") = 2;
  lru.find("a");  // no touch: a stays LRU
  lru.get_or_create("c") = 3;
  EXPECT_FALSE(lru.contains("a"));
}

TEST(LruMapTest, ZeroCapacityRejected) {
  EXPECT_THROW(LruMap<int>(0), util::ContractError);
}

TEST(LruMapTest, FactoryUsedOnCreation) {
  LruMap<int> lru(2);
  EXPECT_EQ(lru.get_or_create("a", [] { return 42; }), 42);
  EXPECT_EQ(lru.get_or_create("a", [] { return 7; }), 42);  // existing
}

// --------------------------------------------------------- NumericPredictor

FeatureVector fv(double plan, double vocab, double len,
                 const std::string& tag = "") {
  FeatureVector f;
  f.discrete["plan"] = plan;
  f.discrete["vocab"] = vocab;
  f.continuous["len"] = len;
  f.data_tag = tag;
  return f;
}

TEST(NumericPredictorTest, UntrainedThrows) {
  NumericPredictor p;
  EXPECT_FALSE(p.trained());
  EXPECT_THROW(p.predict(fv(0, 0, 1)), util::ContractError);
}

TEST(NumericPredictorTest, BinsSeparateDiscreteCombinations) {
  NumericPredictor p;
  for (int i = 0; i < 5; ++i) {
    p.add(fv(0, 0, 1.0 + i), 10.0);
    p.add(fv(1, 0, 1.0 + i), 100.0);
  }
  EXPECT_NEAR(p.predict(fv(0, 0, 3.0)), 10.0, 1.0);
  EXPECT_NEAR(p.predict(fv(1, 0, 3.0)), 100.0, 10.0);
}

TEST(NumericPredictorTest, GenericFallbackForUnseenCombination) {
  NumericPredictor p;
  for (int i = 0; i < 6; ++i) p.add(fv(0, 0, 2.0), 10.0);
  // Unseen (plan=7) combination: falls back to the generic model.
  EXPECT_NEAR(p.predict(fv(7, 0, 2.0)), 10.0, 1.0);
}

TEST(NumericPredictorTest, RegressionInsideBin) {
  NumericPredictor p;
  for (double len : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    p.add(fv(0, 1, len), 100.0 * len);
  }
  EXPECT_NEAR(p.predict(fv(0, 1, 2.5)), 250.0, 5.0);
}

TEST(NumericPredictorTest, DataSpecificModelPreferred) {
  NumericPredictor p;
  for (int i = 0; i < 4; ++i) {
    p.add(fv(0, 0, 1.0, "small"), 10.0);
    p.add(fv(0, 0, 1.0, "large"), 1000.0);
  }
  EXPECT_NEAR(p.predict(fv(0, 0, 1.0, "small")), 10.0, 1.0);
  EXPECT_NEAR(p.predict(fv(0, 0, 1.0, "large")), 1000.0, 50.0);
  // Unknown document: data-independent model (a blend).
  const double generic = p.predict(fv(0, 0, 1.0, "unknown"));
  EXPECT_GT(generic, 10.0);
  EXPECT_LT(generic, 1000.0);
}

TEST(NumericPredictorTest, DataLruEvictsOldDocuments) {
  NumericPredictorConfig cfg;
  cfg.data_lru_capacity = 2;
  NumericPredictor p(cfg);
  for (int i = 0; i < 4; ++i) {
    p.add(fv(0, 0, 1.0, "d1"), 1.0);
    p.add(fv(0, 0, 1.0, "d2"), 2.0);
    p.add(fv(0, 0, 1.0, "d3"), 3.0);
  }
  // d1 was evicted: prediction comes from the generic model, not 1.0.
  EXPECT_GT(p.predict(fv(0, 0, 1.0, "d1")), 1.5);
}

TEST(NumericPredictorTest, UnderIdentifiedBinDefersToGenericRegression) {
  NumericPredictor p;
  // Bin (plan=0) gets 2 samples (not enough for a slope); the generic model
  // sees many and fits len exactly.
  for (double len : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}) {
    p.add(fv(1, 0, len), 10.0 * len);
  }
  p.add(fv(0, 0, 1.0), 10.0);
  p.add(fv(0, 0, 2.0), 20.0);
  EXPECT_NEAR(p.predict(fv(0, 0, 6.0)), 60.0, 6.0);
}

TEST(NumericPredictorTest, HasBinReflectsTraining) {
  NumericPredictor p;
  EXPECT_FALSE(p.has_bin(fv(0, 0, 1)));
  p.add(fv(0, 0, 1), 1.0);
  p.add(fv(0, 0, 2), 2.0);
  EXPECT_TRUE(p.has_bin(fv(0, 0, 1)));
  EXPECT_FALSE(p.has_bin(fv(1, 0, 1)));
}

// ------------------------------------------------------ FileAccessPredictor

fs::Access acc(const std::string& path, double size, bool write = false) {
  fs::Access a;
  a.path = path;
  a.size = size;
  a.write = write;
  return a;
}

TEST(FilePredictorTest, AlwaysAccessedFileHasLikelihoodOne) {
  FileAccessPredictor p;
  for (int i = 0; i < 5; ++i) p.add(fv(0, 1, 1), {acc("lm", 1000)});
  EXPECT_NEAR(p.likelihood(fv(0, 1, 1), "lm"), 1.0, 1e-9);
  std::vector<FilePrediction> preds;
  p.predict(fv(0, 1, 1), preds);
  ASSERT_EQ(preds.size(), 1u);
  EXPECT_EQ(preds[0].path, "lm");
  EXPECT_DOUBLE_EQ(preds[0].size, 1000.0);
}

TEST(FilePredictorTest, NeverAccessedFileDecaysTowardZero) {
  FileAccessPredictor p;
  p.add(fv(0, 1, 1), {acc("lm", 1000)});
  for (int i = 0; i < 45; ++i) p.add(fv(0, 1, 1), {});
  EXPECT_LT(p.likelihood(fv(0, 1, 1), "lm"), 0.01);
  std::vector<FilePrediction> preds{{"stale", 1.0, 1.0}};
  p.predict(fv(0, 1, 1), preds);
  EXPECT_TRUE(preds.empty());  // below min likelihood; `preds` overwritten
}

TEST(FilePredictorTest, IntermittentAccessGivesFractionalLikelihood) {
  FileAccessPredictor p;
  for (int i = 0; i < 30; ++i) {
    p.add(fv(0, 1, 1), i % 2 == 0 ? std::vector<fs::Access>{acc("f", 10)}
                                  : std::vector<fs::Access>{});
  }
  const double l = p.likelihood(fv(0, 1, 1), "f");
  EXPECT_GT(l, 0.3);
  EXPECT_LT(l, 0.7);
}

TEST(FilePredictorTest, BinsDiscriminateByFidelity) {
  // Full-vocabulary runs read the full LM; reduced runs read the reduced
  // one — the speech file-cache scenario depends on this discrimination.
  FileAccessPredictor p;
  for (int i = 0; i < 4; ++i) {
    p.add(fv(0, 1, 1), {acc("lm_full", 277)});
    p.add(fv(0, 0, 1), {acc("lm_reduced", 60)});
  }
  EXPECT_NEAR(p.likelihood(fv(0, 1, 1), "lm_full"), 1.0, 1e-9);
  EXPECT_NEAR(p.likelihood(fv(0, 1, 1), "lm_reduced"), 0.0, 1e-9);
  EXPECT_NEAR(p.likelihood(fv(0, 0, 1), "lm_reduced"), 1.0, 1e-9);
}

TEST(FilePredictorTest, DataSpecificFileSets) {
  // The large document never touches the small document's files — this is
  // what lets Spectra skip reintegration in the paper's reintegrate
  // scenario.
  FileAccessPredictor p;
  for (int i = 0; i < 4; ++i) {
    p.add(fv(0, 0, 1, "small"), {acc("small/main.tex", 70)});
    p.add(fv(0, 0, 1, "large"), {acc("large/thesis.tex", 180)});
  }
  EXPECT_NEAR(p.likelihood(fv(0, 0, 1, "large"), "small/main.tex"), 0.0,
              1e-9);
  EXPECT_NEAR(p.likelihood(fv(0, 0, 1, "small"), "small/main.tex"), 1.0,
              1e-9);
}

TEST(FilePredictorTest, UnknownBinFallsBackToGeneric) {
  FileAccessPredictor p;
  for (int i = 0; i < 4; ++i) p.add(fv(0, 1, 1), {acc("f", 10)});
  // Different discrete combination, never observed: generic bin answers.
  EXPECT_GT(p.likelihood(fv(9, 9, 1), "f"), 0.5);
}

TEST(FilePredictorTest, SizeTracksLatestObservation) {
  FileAccessPredictor p;
  p.add(fv(0, 1, 1), {acc("f", 10)});
  p.add(fv(0, 1, 1), {acc("f", 50)});
  std::vector<FilePrediction> preds;
  p.predict(fv(0, 1, 1), preds);
  ASSERT_EQ(preds.size(), 1u);
  EXPECT_DOUBLE_EQ(preds[0].size, 50.0);
}

TEST(FilePredictorTest, DuplicateAccessesWithinOneRunCountOnce) {
  FileAccessPredictor p;
  for (int i = 0; i < 3; ++i) {
    p.add(fv(0, 1, 1), {acc("f", 10), acc("f", 10)});
  }
  EXPECT_NEAR(p.likelihood(fv(0, 1, 1), "f"), 1.0, 1e-9);
}

// ----------------------------------------------------------------- UsageLog

UsageRecord sample_record() {
  UsageRecord r;
  r.operation = "op";
  r.features.discrete["plan"] = 1;
  r.features.continuous["len"] = 2.5;
  r.features.data_tag = "doc";
  r.elapsed = 1.5;
  r.local_cycles = 1e6;
  r.remote_cycles = 2e6;
  r.bytes_sent = 100;
  r.bytes_received = 200;
  r.rpcs = 3;
  r.energy = 4.25;
  r.energy_valid = true;
  r.file_accesses = {acc("a/b.tex", 70, true), acc("c.lm", 277)};
  return r;
}

TEST(UsageLogTest, SerializeRoundTrip) {
  const UsageRecord r = sample_record();
  const UsageRecord back = UsageLog::deserialize(UsageLog::serialize(r));
  EXPECT_EQ(back.operation, r.operation);
  EXPECT_EQ(back.features.discrete, r.features.discrete);
  EXPECT_EQ(back.features.continuous, r.features.continuous);
  EXPECT_EQ(back.features.data_tag, r.features.data_tag);
  EXPECT_DOUBLE_EQ(back.elapsed, r.elapsed);
  EXPECT_DOUBLE_EQ(back.energy, r.energy);
  EXPECT_EQ(back.energy_valid, r.energy_valid);
  ASSERT_EQ(back.file_accesses.size(), 2u);
  EXPECT_EQ(back.file_accesses[0].path, "a/b.tex");
  EXPECT_TRUE(back.file_accesses[0].write);
  EXPECT_FALSE(back.file_accesses[1].write);
}

TEST(UsageLogTest, SaveAndLoad) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "spectra_usage_log_test.txt";
  UsageLog log;
  log.append(sample_record());
  log.append(sample_record());
  log.save(path);
  UsageLog loaded;
  loaded.load(path);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.records()[0].operation, "op");
  std::remove(path.c_str());
}

TEST(UsageLogTest, ForOperationFilters) {
  UsageLog log;
  UsageRecord a = sample_record();
  a.operation = "x";
  UsageRecord b = sample_record();
  b.operation = "y";
  log.append(a);
  log.append(b);
  log.append(a);
  EXPECT_EQ(log.for_operation("x").size(), 2u);
  EXPECT_EQ(log.for_operation("y").size(), 1u);
  EXPECT_TRUE(log.for_operation("z").empty());
}

TEST(UsageLogTest, MalformedLineThrows) {
  EXPECT_THROW(UsageLog::deserialize("garbage"), util::ContractError);
}

TEST(UsageLogTest, ReservedCharactersRejected) {
  UsageRecord r = sample_record();
  r.operation = "bad\tname";
  EXPECT_THROW(UsageLog::serialize(r), util::ContractError);
}

TEST(UsageLogTest, LoadMissingFileThrows) {
  UsageLog log;
  EXPECT_THROW(log.load("/nonexistent/path/spectra.log"),
               util::ContractError);
}

TEST(UsageLogTest, FromUsageMergesLocalAndRemoteAccesses) {
  monitor::OperationUsage u;
  u.local_file_accesses = {acc("a", 1)};
  u.remote_file_accesses = {acc("a", 1), acc("b", 2)};
  const auto r = UsageRecord::from_usage("op", FeatureVector{}, u);
  EXPECT_EQ(r.file_accesses.size(), 2u);
}

// ------------------------------------------------------------ OperationModel

TEST(OperationModelTest, ObserveAndPredictAllMetrics) {
  OperationModel m;
  monitor::OperationUsage u;
  u.local_cycles = 1e6;
  u.remote_cycles = 2e6;
  u.bytes_sent = 100;
  u.bytes_received = 200;
  u.rpcs = 2;
  u.energy = 5.0;
  u.local_file_accesses = {acc("f", 10)};
  for (int i = 0; i < 4; ++i) m.observe(fv(0, 0, 1), u);
  DemandEstimate e;
  m.predict(fv(0, 0, 1), e);
  EXPECT_NEAR(e.local_cycles, 1e6, 1e4);
  EXPECT_NEAR(e.remote_cycles, 2e6, 2e4);
  EXPECT_NEAR(e.bytes_sent, 100, 1);
  EXPECT_NEAR(e.bytes_received, 200, 2);
  EXPECT_NEAR(e.rpcs, 2, 0.1);
  EXPECT_TRUE(e.has_energy);
  EXPECT_NEAR(e.energy, 5.0, 0.1);
  ASSERT_EQ(e.files.size(), 1u);
}

TEST(OperationModelTest, InvalidEnergySamplesSkipped) {
  OperationModel m;
  monitor::OperationUsage good;
  good.energy = 5.0;
  monitor::OperationUsage bad;
  bad.energy = 500.0;
  bad.energy_valid = false;  // concurrent op polluted the measurement
  for (int i = 0; i < 3; ++i) {
    m.observe(fv(0, 0, 1), good);
    m.observe(fv(0, 0, 1), bad);
  }
  DemandEstimate e;
  m.predict(fv(0, 0, 1), e);
  EXPECT_NEAR(e.energy, 5.0, 0.2);
}

TEST(OperationModelTest, UntrainedPredictsZeros) {
  OperationModel m;
  EXPECT_FALSE(m.trained());
  // predict() overwrites every field of a reused estimate.
  DemandEstimate e;
  e.local_cycles = 1.0;
  e.energy = 2.0;
  e.has_energy = true;
  e.files = {{"stale", 10.0, 1.0}};
  m.predict(fv(0, 0, 1), e);
  EXPECT_DOUBLE_EQ(e.local_cycles, 0.0);
  EXPECT_DOUBLE_EQ(e.energy, 0.0);
  EXPECT_FALSE(e.has_energy);
  EXPECT_TRUE(e.files.empty());
}

TEST(OperationModelTest, ReplayEquivalentToObserve) {
  OperationModel a, b;
  monitor::OperationUsage u;
  u.local_cycles = 7e6;
  for (int i = 0; i < 3; ++i) {
    a.observe(fv(0, 0, 1), u);
    b.replay(UsageRecord::from_usage("op", fv(0, 0, 1), u));
  }
  DemandEstimate ea, eb;
  a.predict(fv(0, 0, 1), ea);
  b.predict(fv(0, 0, 1), eb);
  EXPECT_DOUBLE_EQ(ea.local_cycles, eb.local_cycles);
  EXPECT_EQ(a.observations(), b.observations());
}

}  // namespace
}  // namespace spectra::predict
