#include <gtest/gtest.h>

#include <array>
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

// One-response samples and predictions, through the K-response API.
void add_one(RecencyLinear& m, const FeatureMap& x, double y) {
  m.add(x, &y);
}
double predict_one(const RecencyLinear& m, const FeatureMap& x) {
  double y = 0.0;
  m.predict(x, &y);
  return y;
}
void add_one(NumericPredictor& p, const FeatureVector& f, double y) {
  p.add(f, &y);
}
double predict_one(const NumericPredictor& p, const FeatureVector& f) {
  double y = 0.0;
  p.predict(f, &y);
  return y;
}

// ---------------------------------------------------------------- features

TEST(FeatureMapTest, InsertionOrderDoesNotChangeEntriesOrHash) {
  // Inserts in name order append; any other order binary-searches. The
  // resulting maps must be indistinguishable.
  const std::vector<std::string> names = {
      "dict",         "dict_local_w", "dict_remote_i", "dict_remote_w",
      "ebmt",         "ebmt_local_w", "gloss",         "gloss_remote_i",
      "gloss_remote_w", "lm_local_w", "words",         "x"};
  const auto build = [&](const std::vector<std::size_t>& order) {
    FeatureMap m;
    for (const std::size_t i : order) {
      m[util::Symbol(names[i])] = static_cast<double>(i) + 0.5;
    }
    return m;
  };
  std::vector<std::size_t> order(names.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const FeatureMap sorted = build(order);
  std::vector<std::string> sorted_names;
  for (const auto& e : sorted) sorted_names.emplace_back(e.name.view());
  EXPECT_EQ(sorted_names, names);

  std::vector<std::vector<std::size_t>> orders = {
      {order.rbegin(), order.rend()}};
  util::Rng rng(11);
  for (int s = 0; s < 8; ++s) {
    std::vector<std::size_t> shuffled = order;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1],
                shuffled[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(i) - 1))]);
    }
    orders.push_back(shuffled);
  }
  for (const auto& o : orders) {
    const FeatureMap m = build(o);
    EXPECT_EQ(m, sorted);
    EXPECT_EQ(m.hash(), sorted.hash());
    auto a = m.begin();
    for (auto b = sorted.begin(); b != sorted.end(); ++a, ++b) {
      ASSERT_NE(a, m.end());
      EXPECT_EQ(a->name, b->name);
      EXPECT_EQ(a->value, b->value);
    }
    EXPECT_EQ(a, m.end());
  }
  // Re-inserting an existing name (the last one included) finds it.
  FeatureMap m = build(order);
  m[util::Symbol("x")] = 11.5;
  m[util::Symbol("dict")] = 0.5;
  EXPECT_EQ(m, sorted);
  EXPECT_EQ(m.hash(), sorted.hash());
}

// ------------------------------------------------------------ RecencyLinear

TEST(RecencyLinearTest, MeanForConstantSamples) {
  RecencyLinear m(0.95);
  for (int i = 0; i < 10; ++i) add_one(m, {}, 5.0);
  EXPECT_NEAR(predict_one(m, {}), 5.0, 1e-9);
}

TEST(RecencyLinearTest, PredictOnEmptyThrows) {
  RecencyLinear m;
  EXPECT_THROW(predict_one(m, {}), util::ContractError);
}

TEST(RecencyLinearTest, FitsExactLine) {
  RecencyLinear m(1.0);
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    add_one(m, {{"x", x}}, 10.0 + 3.0 * x);
  }
  EXPECT_NEAR(predict_one(m, {{"x", 10.0}}), 40.0, 1e-3);  // ridge bias
  EXPECT_NEAR(predict_one(m, {{"x", 0.0}}), 10.0, 1e-3);
}

TEST(RecencyLinearTest, TwoSamplesFallBackToMean) {
  RecencyLinear m(1.0);
  add_one(m, {{"x", 1.0}}, 10.0);
  add_one(m, {{"x", 1.1}}, 12.0);  // a 2-point line would extrapolate wildly
  EXPECT_NEAR(predict_one(m, {{"x", 10.0}}), 11.0, 1e-6);
  EXPECT_FALSE(m.identifiable());
}

TEST(RecencyLinearTest, IdentifiableAfterEnoughSamples) {
  RecencyLinear m(1.0);
  add_one(m, {{"x", 1.0}}, 1.0);
  add_one(m, {{"x", 2.0}}, 2.0);
  EXPECT_FALSE(m.identifiable());
  add_one(m, {{"x", 3.0}}, 3.0);
  EXPECT_TRUE(m.identifiable());
}

TEST(RecencyLinearTest, RecentSamplesDominateOldBehaviour) {
  RecencyLinear m(0.5);
  for (int i = 0; i < 20; ++i) add_one(m, {}, 100.0);
  for (int i = 0; i < 6; ++i) add_one(m, {}, 10.0);
  EXPECT_LT(predict_one(m, {}), 15.0);
}

TEST(RecencyLinearTest, CollinearSamplesDegradeGracefully) {
  RecencyLinear m(1.0);
  // Every sample at the same x: slope unidentifiable; ridge keeps the
  // solution sane or the mean fallback kicks in.
  for (int i = 0; i < 10; ++i) add_one(m, {{"x", 2.0}}, 8.0);
  const double p = predict_one(m, {{"x", 2.0}});
  EXPECT_NEAR(p, 8.0, 0.5);
  // Extrapolation never goes negative.
  EXPECT_GE(predict_one(m, {{"x", 100.0}}), 0.0);
}

TEST(RecencyLinearTest, FeatureSetMayGrowAcrossSamples) {
  // The Pangloss regression depends on this: samples carry only the
  // features of the components that actually ran.
  RecencyLinear m(1.0);
  for (double x : {1.0, 2.0, 3.0, 4.0}) add_one(m, {{"a", x}}, 5.0 * x);
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    add_one(m, {{"a", x}, {"b", x}}, 5.0 * x + 7.0 * x);
  }
  EXPECT_NEAR(predict_one(m, {{"a", 2.0}}), 10.0, 1.0);
  EXPECT_NEAR(predict_one(m, {{"a", 2.0}, {"b", 2.0}}), 24.0, 1.5);
}

TEST(RecencyLinearTest, MissingFeatureTreatedAsZero) {
  RecencyLinear m(1.0);
  for (double x : {0.0, 1.0, 2.0, 3.0}) {
    add_one(m, {{"x", x}}, 2.0 + 4.0 * x);
  }
  EXPECT_NEAR(predict_one(m, {}), 2.0, 1e-6);
}

TEST(RecencyLinearTest, PredictionsClampedNonNegative) {
  RecencyLinear m(1.0);
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    add_one(m, {{"x", x}}, 10.0 - 2.0 * x);
  }
  EXPECT_GE(predict_one(m, {{"x", 100.0}}), 0.0);
}

TEST(RecencyLinearTest, MultiFeatureRecovery) {
  RecencyLinear m(1.0);
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const double a = rng.uniform(0.0, 10.0);
    const double b = rng.uniform(0.0, 10.0);
    add_one(m, {{"a", a}, {"b", b}}, 1.0 + 2.0 * a + 5.0 * b);
  }
  EXPECT_NEAR(predict_one(m, {{"a", 4.0}, {"b", 2.0}}), 19.0, 0.1);
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
    add_one(m, {{"x", x}}, (3.0 + 2.0 * x) * rng.noise_factor(0.05));
  }
  EXPECT_NEAR(predict_one(m, {{"x", 5.0}}), 13.0, 13.0 * 0.1);
}

INSTANTIATE_TEST_SUITE_P(Decays, LinearRecoveryTest,
                         ::testing::Values(0.8, 0.9, 0.95, 0.99, 1.0));

TEST(RecencyLinearTest, MultiResponseMatchesSingleResponseModels) {
  // A K=3 model and three single-response models see one seeded stream:
  // an under-identified prefix (the solve fails on too few samples),
  // features that appear mid-stream (X'X regrows), and a collinear stretch
  // (c = 2a, b constant) whose normal equations are singular, so only the
  // ridge keeps the elimination going. The ridge is at least 1e-8 of the
  // trace, and the intercept alone puts the trace at >= 1, so no finite
  // history fails the solve's 1e-12 pivot test; the prefix covers the
  // failed-solve path. Every prediction must be bit-equal.
  constexpr std::size_t kK = 3;
  RecencyLinear multi(0.9, kK);
  std::vector<RecencyLinear> single(kK, RecencyLinear(0.9));
  util::Rng rng(23);
  const std::array<std::array<double, 4>, kK> coef = {{
      {50.0, 3.0, -2.0, 0.5},
      {-4.0, 0.25, 7.0, -1.0},
      {1e6, 1e4, 0.0, 3e5},
  }};
  const std::vector<FeatureMap> queries = {
      {},
      {{"a", 2.0}},
      {{"b", 1.5}},
      {{"a", 1.0}, {"b", 3.0}, {"c", 2.0}},
      {{"a", 40.0}, {"b", -3.0}, {"c", 0.1}},
      {{"a", 1.0}, {"z", 9.0}},
  };
  const auto check = [&](int step) {
    EXPECT_EQ(multi.total_weight(), single[0].total_weight()) << step;
    EXPECT_EQ(multi.identifiable(), single[0].identifiable()) << step;
    for (const auto& q : queries) {
      double got[kK];
      multi.predict(q, got);
      for (std::size_t k = 0; k < kK; ++k) {
        EXPECT_EQ(got[k], predict_one(single[k], q))
            << "step " << step << " k " << k;
      }
    }
  };
  const auto feed = [&](const FeatureMap& x, int step) {
    double y[kK];
    for (std::size_t k = 0; k < kK; ++k) {
      const double a = x.find("a") ? *x.find("a") : 0.0;
      const double b = x.find("b") ? *x.find("b") : 0.0;
      const double c = x.find("c") ? *x.find("c") : 0.0;
      y[k] = (coef[k][0] + coef[k][1] * a + coef[k][2] * b +
              coef[k][3] * c) *
             rng.noise_factor(0.1);
      add_one(single[k], x, y[k]);
    }
    multi.add(x, y);
    check(step);
  };
  int step = 0;
  for (int i = 0; i < 3; ++i) feed({{"b", rng.uniform(0.0, 4.0)}}, step++);
  for (int i = 0; i < 4; ++i) {
    feed({{"a", rng.uniform(0.0, 9.0)}, {"b", rng.uniform(0.0, 4.0)}},
         step++);
  }
  for (int i = 0; i < 12; ++i) {
    const double a = rng.uniform(0.0, 9.0);
    feed({{"a", a}, {"b", 2.0}, {"c", 2.0 * a}}, step++);
  }
  for (int i = 0; i < 10; ++i) {
    feed({{"a", rng.uniform(0.0, 9.0)},
          {"b", rng.uniform(0.0, 4.0)},
          {"c", rng.uniform(0.0, 9.0)}},
         step++);
  }
  for (int i = 0; i < 6; ++i) feed({{"b", rng.uniform(0.0, 4.0)}}, step++);
}

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
  EXPECT_THROW(predict_one(p, fv(0, 0, 1)), util::ContractError);
}

TEST(NumericPredictorTest, BinsSeparateDiscreteCombinations) {
  NumericPredictor p;
  for (int i = 0; i < 5; ++i) {
    add_one(p, fv(0, 0, 1.0 + i), 10.0);
    add_one(p, fv(1, 0, 1.0 + i), 100.0);
  }
  EXPECT_NEAR(predict_one(p, fv(0, 0, 3.0)), 10.0, 1.0);
  EXPECT_NEAR(predict_one(p, fv(1, 0, 3.0)), 100.0, 10.0);
}

TEST(NumericPredictorTest, GenericFallbackForUnseenCombination) {
  NumericPredictor p;
  for (int i = 0; i < 6; ++i) add_one(p, fv(0, 0, 2.0), 10.0);
  // Unseen (plan=7) combination: falls back to the generic model.
  EXPECT_NEAR(predict_one(p, fv(7, 0, 2.0)), 10.0, 1.0);
}

TEST(NumericPredictorTest, RegressionInsideBin) {
  NumericPredictor p;
  for (double len : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    add_one(p, fv(0, 1, len), 100.0 * len);
  }
  EXPECT_NEAR(predict_one(p, fv(0, 1, 2.5)), 250.0, 5.0);
}

TEST(NumericPredictorTest, DataSpecificModelPreferred) {
  NumericPredictor p;
  for (int i = 0; i < 4; ++i) {
    add_one(p, fv(0, 0, 1.0, "small"), 10.0);
    add_one(p, fv(0, 0, 1.0, "large"), 1000.0);
  }
  EXPECT_NEAR(predict_one(p, fv(0, 0, 1.0, "small")), 10.0, 1.0);
  EXPECT_NEAR(predict_one(p, fv(0, 0, 1.0, "large")), 1000.0, 50.0);
  // Unknown document: data-independent model (a blend).
  const double generic = predict_one(p, fv(0, 0, 1.0, "unknown"));
  EXPECT_GT(generic, 10.0);
  EXPECT_LT(generic, 1000.0);
}

TEST(NumericPredictorTest, DataLruEvictsOldDocuments) {
  NumericPredictorConfig cfg;
  cfg.data_lru_capacity = 2;
  NumericPredictor p(cfg);
  for (int i = 0; i < 4; ++i) {
    add_one(p, fv(0, 0, 1.0, "d1"), 1.0);
    add_one(p, fv(0, 0, 1.0, "d2"), 2.0);
    add_one(p, fv(0, 0, 1.0, "d3"), 3.0);
  }
  // d1 was evicted: prediction comes from the generic model, not 1.0.
  EXPECT_GT(predict_one(p, fv(0, 0, 1.0, "d1")), 1.5);
}

TEST(NumericPredictorTest, UnderIdentifiedBinDefersToGenericRegression) {
  NumericPredictor p;
  // Bin (plan=0) gets 2 samples (not enough for a slope); the generic model
  // sees many and fits len exactly.
  for (double len : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}) {
    add_one(p, fv(1, 0, len), 10.0 * len);
  }
  add_one(p, fv(0, 0, 1.0), 10.0);
  add_one(p, fv(0, 0, 2.0), 20.0);
  EXPECT_NEAR(predict_one(p, fv(0, 0, 6.0)), 60.0, 6.0);
}

TEST(NumericPredictorTest, HasBinReflectsTraining) {
  NumericPredictor p;
  EXPECT_FALSE(p.has_bin(fv(0, 0, 1)));
  add_one(p, fv(0, 0, 1), 1.0);
  add_one(p, fv(0, 0, 2), 2.0);
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

// The OperationModel before its metrics were grouped into sample streams:
// one single-response predictor per metric, each fed on its own.
struct PerMetricModel {
  NumericPredictor local_cycles, remote_cycles, bytes_sent, bytes_received,
      rpcs, energy;
  FileAccessPredictor files;

  void observe(const FeatureVector& f, const monitor::OperationUsage& u) {
    const UsageRecord r = UsageRecord::from_usage("", f, u);
    add_one(local_cycles, r.features, r.local_cycles);
    add_one(remote_cycles, r.features, r.remote_cycles);
    add_one(bytes_sent, r.features, r.bytes_sent);
    add_one(bytes_received, r.features, r.bytes_received);
    add_one(rpcs, r.features, r.rpcs);
    if (r.energy_valid) add_one(energy, r.features, r.energy);
    files.add(r.features, r.file_accesses);
  }
  void observe_failure(const FeatureVector& f,
                       const monitor::OperationUsage& partial) {
    add_one(bytes_sent, f, partial.bytes_sent);
    add_one(bytes_received, f, partial.bytes_received);
    add_one(rpcs, f, partial.rpcs);
  }
  void predict(const FeatureVector& f, DemandEstimate& e) const {
    const auto metric = [&f](const NumericPredictor& p) {
      return p.trained() ? predict_one(p, f) : 0.0;
    };
    e.local_cycles = metric(local_cycles);
    e.remote_cycles = metric(remote_cycles);
    e.bytes_sent = metric(bytes_sent);
    e.bytes_received = metric(bytes_received);
    e.rpcs = metric(rpcs);
    e.energy = metric(energy);
    e.has_energy = energy.trained();
    files.predict(f, e.files);
  }
  bool trained() const { return local_cycles.trained(); }
};

TEST(OperationModelTest, StreamsMatchPerMetricReference) {
  OperationModel model;
  PerMetricModel ref;
  util::Rng rng(31);
  // More data tags than the LRU holds (8), so per-document model sets are
  // evicted and re-created; plans give bins; "words" appears mid-stream.
  const auto features = [&](int step) {
    FeatureVector f;
    f.discrete["plan"] = static_cast<double>(rng.uniform_int(0, 2));
    f.continuous["len"] = rng.uniform(1.0, 8.0);
    if (step > 40) f.continuous["words"] = rng.uniform(1.0, 40.0);
    const auto tag = rng.uniform_int(0, 11);
    if (tag < 10) f.data_tag = "doc" + std::to_string(tag);
    return f;
  };
  std::vector<FeatureVector> queries;
  for (int i = 0; i < 14; ++i) queries.push_back(features(i * 5));
  const auto check = [&](int step) {
    EXPECT_EQ(model.trained(), ref.trained()) << step;
    for (const auto& q : queries) {
      DemandEstimate got, want;
      model.predict(q, got);
      ref.predict(q, want);
      EXPECT_EQ(got.local_cycles, want.local_cycles) << step;
      EXPECT_EQ(got.remote_cycles, want.remote_cycles) << step;
      EXPECT_EQ(got.bytes_sent, want.bytes_sent) << step;
      EXPECT_EQ(got.bytes_received, want.bytes_received) << step;
      EXPECT_EQ(got.rpcs, want.rpcs) << step;
      EXPECT_EQ(got.energy, want.energy) << step;
      EXPECT_EQ(got.has_energy, want.has_energy) << step;
      ASSERT_EQ(got.files.size(), want.files.size()) << step;
      for (std::size_t i = 0; i < got.files.size(); ++i) {
        EXPECT_EQ(got.files[i].path, want.files[i].path) << step;
        EXPECT_EQ(got.files[i].size, want.files[i].size) << step;
        EXPECT_EQ(got.files[i].likelihood, want.files[i].likelihood)
            << step;
      }
    }
  };
  check(-1);
  for (int step = 0; step < 160; ++step) {
    const FeatureVector f = features(step);
    monitor::OperationUsage u;
    u.local_cycles = 1e6 * (1.0 + f.continuous.at("len")) *
                     rng.noise_factor(0.1);
    u.remote_cycles = step % 3 == 0 ? 0.0 : 4e6 * rng.uniform(0.5, 1.5);
    u.bytes_sent = 100.0 * rng.uniform(1.0, 9.0);
    u.bytes_received = 800.0 * rng.uniform(0.0, 3.0);
    u.rpcs = static_cast<int>(rng.uniform_int(0, 4));
    u.energy = rng.uniform(0.1, 5.0);
    // The first samples have no valid energy: the energy stream starts
    // later than the cycle stream.
    u.energy_valid = step >= 6 && rng.uniform() > 0.25;
    if (step % 2 == 0) u.local_file_accesses = {acc("f", 10.0 + step)};
    // Failed remote attempts feed the transport stream alone, and come
    // first, so transport is trained before cycles are.
    if (step < 3 || rng.uniform() < 0.2) {
      model.observe_failure(f, u);
      ref.observe_failure(f, u);
    } else {
      model.observe(f, u);
      ref.observe(f, u);
    }
    check(step);
  }
}

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
