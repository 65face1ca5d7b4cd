#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>

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

// Features by name, as the tests write them, and every name they use in
// name order: the schema the helpers below map them onto.
using Named = std::map<std::string, double>;
const std::vector<std::string> kNames = {"a", "b", "c", "x", "z"};

FeatureSlots slots(const Named& named) {
  return to_slots(kNames, named, "test", "feature");
}

// One-response samples and predictions, through the K-response API.
void add_one(RecencyLinear& m, const Named& x, double y) {
  m.add(slots(x), &y);
}
double predict_one(const RecencyLinear& m, const Named& x) {
  double y = 0.0;
  m.predict(slots(x), &y);
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
  // ridge keeps the elimination going; the prefix covers the failed-solve
  // path. Every prediction must be bit-equal.
  constexpr std::size_t kK = 3;
  RecencyLinear multi(0.9, kK);
  std::vector<RecencyLinear> single(kK, RecencyLinear(0.9));
  util::Rng rng(23);
  const std::array<std::array<double, 4>, kK> coef = {{
      {50.0, 3.0, -2.0, 0.5},
      {-4.0, 0.25, 7.0, -1.0},
      {1e6, 1e4, 0.0, 3e5},
  }};
  const std::vector<Named> queries = {
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
      multi.predict(slots(q), got);
      for (std::size_t k = 0; k < kK; ++k) {
        EXPECT_EQ(got[k], predict_one(single[k], q))
            << "step " << step << " k " << k;
      }
    }
  };
  const auto feed = [&](const Named& x, int step) {
    const auto value = [&x](const char* name) {
      const auto it = x.find(name);
      return it != x.end() ? it->second : 0.0;
    };
    double y[kK];
    for (std::size_t k = 0; k < kK; ++k) {
      const double a = value("a");
      const double b = value("b");
      const double c = value("c");
      y[k] = (coef[k][0] + coef[k][1] * a + coef[k][2] * b +
              coef[k][3] * c) *
             rng.noise_factor(0.1);
      add_one(single[k], x, y[k]);
    }
    multi.add(slots(x), y);
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

// RecencyLinear as it was when features were keyed by name: a column per
// name in the order names first appear (a sample's new names in name
// order), each sample and query looked up by name per column, and a solve
// that refuses a pivot below 1e-12.
class NamedRecencyLinear {
 public:
  NamedRecencyLinear(double decay, std::size_t responses)
      : decay_(decay),
        responses_(responses),
        xtx_(1, 0.0),
        xty_(responses, 0.0),
        mean_num_(responses, 0.0) {}

  bool identifiable() const {
    return weight_ > 0.0 && samples_ >= names_.size() + 2;
  }

  void add(const Named& features, const double* y) {
    const std::size_t old_d = names_.size() + 1;
    for (const auto& [name, value] : features) {  // name order
      if (std::find(names_.begin(), names_.end(), name) == names_.end()) {
        names_.push_back(name);
      }
    }
    const std::size_t d = names_.size() + 1;
    if (d != old_d) {
      std::vector<double> xtx(d * d, 0.0);
      for (std::size_t i = 0; i < old_d; ++i) {
        std::copy_n(xtx_.begin() + i * old_d, old_d, xtx.begin() + i * d);
      }
      xtx_.swap(xtx);
      xty_.resize(d * responses_, 0.0);
    }
    const std::vector<double> x = row(features);
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        xtx_[i * d + j] = decay_ * xtx_[i * d + j] + x[i] * x[j];
      }
      for (std::size_t k = 0; k < responses_; ++k) {
        double& xty = xty_[i * responses_ + k];
        xty = decay_ * xty + x[i] * y[k];
      }
    }
    weight_ = decay_ * weight_ + 1.0;
    ++samples_;
    for (std::size_t k = 0; k < responses_; ++k) {
      mean_num_[k] = decay_ * mean_num_[k] + y[k];
    }
  }

  void predict(const Named& features, double* out) const {
    std::vector<double> beta;
    const bool fitted = !names_.empty() && solve(beta);
    if (fitted) {
      const std::vector<double> x = row(features);
      for (std::size_t k = 0; k < responses_; ++k) {
        out[k] = 0.0;
        out[k] += beta[k] * 1.0;
      }
      for (std::size_t i = 1; i < x.size(); ++i) {
        for (std::size_t k = 0; k < responses_; ++k) {
          out[k] += beta[i * responses_ + k] * x[i];
        }
      }
    }
    for (std::size_t k = 0; k < responses_; ++k) {
      out[k] = fitted && std::isfinite(out[k])
                   ? std::max(0.0, out[k])
                   : std::max(0.0, mean_num_[k] / weight_);
    }
  }

 private:
  // x = [1, features in names_ order], 0 for a name `features` lacks.
  std::vector<double> row(const Named& features) const {
    std::vector<double> x(names_.size() + 1, 0.0);
    x[0] = 1.0;
    for (std::size_t i = 0; i < names_.size(); ++i) {
      const auto it = features.find(names_[i]);
      if (it != features.end()) x[i + 1] = it->second;
    }
    return x;
  }

  bool solve(std::vector<double>& beta) const {
    const std::size_t d = names_.size() + 1;
    const std::size_t k_count = responses_;
    if (samples_ < d + 1) return false;
    std::vector<double> flat = xtx_;
    const auto a = [&](std::size_t r, std::size_t c) -> double& {
      return flat[r * d + c];
    };
    double trace = 0.0;
    for (std::size_t i = 0; i < d; ++i) trace += a(i, i);
    const double ridge = 1e-8 * std::max(trace, 1.0);
    for (std::size_t i = 0; i < d; ++i) a(i, i) += ridge;
    beta = xty_;
    const auto b = [&](std::size_t r) { return &beta[r * k_count]; };
    for (std::size_t col = 0; col < d; ++col) {
      std::size_t pivot = col;
      for (std::size_t r = col + 1; r < d; ++r) {
        if (std::abs(a(r, col)) > std::abs(a(pivot, col))) pivot = r;
      }
      if (std::abs(a(pivot, col)) < 1e-12) return false;
      if (pivot != col) {
        std::swap_ranges(flat.begin() + col * d,
                         flat.begin() + (col + 1) * d,
                         flat.begin() + pivot * d);
        std::swap_ranges(b(col), b(col) + k_count, b(pivot));
      }
      for (std::size_t r = 0; r < d; ++r) {
        if (r == col) continue;
        const double f = a(r, col) / a(col, col);
        for (std::size_t c = col; c < d; ++c) a(r, c) -= f * a(col, c);
        for (std::size_t k = 0; k < k_count; ++k) b(r)[k] -= f * b(col)[k];
      }
    }
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t k = 0; k < k_count; ++k) b(i)[k] /= a(i, i);
    }
    return true;
  }

  double decay_;
  std::size_t responses_;
  std::vector<std::string> names_;
  std::vector<double> xtx_;
  std::vector<double> xty_;
  double weight_ = 0.0;
  std::size_t samples_ = 0;
  std::vector<double> mean_num_;
};

TEST(RecencyLinearTest, SlotColumnsMatchNamedReference) {
  // One seeded stream: features appear in later samples, two at a time
  // (z with a, then b with c, so the order new columns join matters), and
  // every sample carries a random subset of what has appeared. After every
  // sample, each query (subsets, a feature never trained, and the sample
  // itself) must predict bit-equal to the name-keyed reference.
  constexpr std::size_t kK = 2;
  RecencyLinear model(0.9, kK);
  NamedRecencyLinear ref(0.9, kK);
  util::Rng rng(41);
  const std::array<std::array<double, 5>, kK> coef = {{
      {3.0, -1.5, 0.25, 7.0, 2.0},  // a, b, c, x, z
      {1e5, 40.0, -3e3, 0.5, 9e4},
  }};
  const std::vector<Named> queries = {
      {},
      {{"x", 2.0}},
      {{"a", 1.5}, {"z", 4.0}},
      {{"b", 3.0}, {"c", 0.5}, {"x", 1.0}},
      {{"a", 9.0}, {"b", 1.0}, {"c", 6.0}, {"x", 3.5}, {"z", 0.25}},
  };
  int compared = 0;
  const auto check = [&](const Named& sample, int step) {
    ASSERT_EQ(model.identifiable(), ref.identifiable()) << step;
    std::vector<Named> all = queries;
    all.push_back(sample);
    for (const auto& q : all) {
      double got[kK], want[kK];
      model.predict(slots(q), got);
      ref.predict(q, want);
      for (std::size_t k = 0; k < kK; ++k) {
        EXPECT_EQ(got[k], want[k]) << "step " << step << " k " << k;
        ++compared;
      }
    }
  };
  const auto sample = [&](const std::vector<std::size_t>& always,
                          const std::vector<std::size_t>& maybe) {
    Named x;
    for (const std::size_t i : always) x[kNames[i]] = rng.uniform(0.0, 9.0);
    for (const std::size_t i : maybe) {
      if (rng.uniform() < 0.5) x[kNames[i]] = rng.uniform(0.0, 9.0);
    }
    return x;
  };
  for (int step = 0; step < 60; ++step) {
    Named x;
    if (step < 4) {
      x = sample({3}, {});  // x alone
    } else if (step == 4) {
      x = sample({0, 4}, {3});  // z and a appear together
    } else if (step < 16) {
      x = sample({}, {0, 3, 4});
    } else if (step == 16) {
      x = sample({1, 2}, {0, 3, 4});  // c and b appear together
    } else {
      x = sample({}, {0, 1, 2, 3, 4});
    }
    double y[kK];
    for (std::size_t k = 0; k < kK; ++k) {
      y[k] = 10.0;
      for (std::size_t i = 0; i < kNames.size(); ++i) {
        const auto it = x.find(kNames[i]);
        if (it != x.end()) y[k] += coef[k][i] * it->second;
      }
      y[k] *= rng.noise_factor(0.1);
    }
    model.add(slots(x), y);
    ref.add(x, y);
    check(x, step);
  }
  EXPECT_EQ(compared, 60 * 6 * static_cast<int>(kK));
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

// Discrete {plan, vocab} and continuous {len}, through their schema.
const FeatureSchema kFvSchema{{"plan", "vocab"}, {"len"}};

FeatureVector fv(double plan, double vocab, double len,
                 const std::string& tag = "") {
  return {to_slots(kFvSchema.discrete, {{"plan", plan}, {"vocab", vocab}},
                   "test", "feature"),
          to_slots(kFvSchema.continuous, {{"len", len}}, "test", "feature"),
          tag};
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
  r.discrete = {{"plan", 1}};
  r.continuous = {{"len", 2.5}};
  r.data_tag = "doc";
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
  EXPECT_EQ(back.discrete, r.discrete);
  EXPECT_EQ(back.continuous, r.continuous);
  EXPECT_EQ(back.data_tag, r.data_tag);
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
  const auto r = UsageRecord::from_usage("op", {}, FeatureVector{}, u);
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
    const UsageRecord r = UsageRecord::from_usage("", {}, f, u);
    add_one(local_cycles, f, r.local_cycles);
    add_one(remote_cycles, f, r.remote_cycles);
    add_one(bytes_sent, f, r.bytes_sent);
    add_one(bytes_received, f, r.bytes_received);
    add_one(rpcs, f, r.rpcs);
    if (r.energy_valid) add_one(energy, f, r.energy);
    files.add(f, r.file_accesses);
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
  const FeatureSchema schema{{"plan"}, {"len", "words"}};
  const auto features = [&](int step) {
    Named discrete{{"plan", static_cast<double>(rng.uniform_int(0, 2))}};
    Named continuous{{"len", rng.uniform(1.0, 8.0)}};
    if (step > 40) continuous["words"] = rng.uniform(1.0, 40.0);
    FeatureVector f{to_slots(schema.discrete, discrete, "test", "feature"),
                    to_slots(schema.continuous, continuous, "test", "feature"),
                    {}};
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
    u.local_cycles = 1e6 * (1.0 + f.continuous[0]) *  // len
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
    b.replay(kFvSchema,
             UsageRecord::from_usage("op", kFvSchema, fv(0, 0, 1), u));
  }
  DemandEstimate ea, eb;
  a.predict(fv(0, 0, 1), ea);
  b.predict(fv(0, 0, 1), eb);
  EXPECT_DOUBLE_EQ(ea.local_cycles, eb.local_cycles);
  EXPECT_EQ(a.observations(), b.observations());
}

}  // namespace
}  // namespace spectra::predict
