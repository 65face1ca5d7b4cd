#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory_resource>
#include <sstream>
#include <string>
#include <vector>

#include "util/arena.h"
#include "util/assert.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/units.h"

namespace spectra::util {
namespace {

// ---------------------------------------------------------------- contracts

TEST(AssertTest, RequireThrowsOnFailure) {
  EXPECT_THROW(SPECTRA_REQUIRE(false, "boom"), ContractError);
}

TEST(AssertTest, RequirePassesOnSuccess) {
  EXPECT_NO_THROW(SPECTRA_REQUIRE(true, "fine"));
}

TEST(AssertTest, EnsureThrowsWithMessage) {
  try {
    SPECTRA_ENSURE(1 == 2, "math broke");
    FAIL() << "expected throw";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

// --------------------------------------------------------------------- rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(3.0, 9.0);
    EXPECT_GE(x, 3.0);
    EXPECT_LT(x, 9.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng r(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = r.uniform_int(0, 5);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 5);
    saw_lo |= (x == 0);
    saw_hi |= (x == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalHasRoughlyUnitMoments) {
  Rng r(13);
  OnlineStats s;
  for (int i = 0; i < 20000; ++i) s.add(r.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.05);
  EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(RngTest, NoiseFactorHasUnitMeanAndRequestedCv) {
  Rng r(17);
  OnlineStats s;
  for (int i = 0; i < 50000; ++i) s.add(r.noise_factor(0.1));
  EXPECT_NEAR(s.mean(), 1.0, 0.01);
  EXPECT_NEAR(s.stddev(), 0.1, 0.01);
}

TEST(RngTest, NoiseFactorZeroCvIsExactlyOne) {
  Rng r(17);
  EXPECT_EQ(r.noise_factor(0.0), 1.0);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  Rng a2(42);
  Rng child2 = a2.fork();
  // Forks of identical parents are identical...
  for (int i = 0; i < 50; ++i) EXPECT_EQ(child.next_u64(), child2.next_u64());
  // ...and differ from the parent stream.
  Rng a3(42);
  Rng c3 = a3.fork();
  EXPECT_NE(c3.next_u64(), a3.next_u64());
}

TEST(RngTest, RejectsInvalidRanges) {
  Rng r(1);
  EXPECT_THROW(r.uniform(2.0, 1.0), ContractError);
  EXPECT_THROW(r.uniform_int(2, 1), ContractError);
  EXPECT_THROW(r.noise_factor(-0.1), ContractError);
}

// ------------------------------------------------------------------- stats

TEST(OnlineStatsTest, MeanAndVariance) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.confidence_halfwidth(), 0.0);
}

TEST(OnlineStatsTest, ConfidenceHalfwidthMatchesHandComputation) {
  OnlineStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  // t(0.90, dof=4) = 2.132; s = sqrt(2.5); hw = 2.132*sqrt(2.5)/sqrt(5)
  EXPECT_NEAR(s.confidence_halfwidth(0.90),
              2.132 * std::sqrt(2.5) / std::sqrt(5.0), 1e-9);
}

TEST(OnlineStatsTest, ResetClears) {
  OnlineStats s;
  s.add(1.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
}

TEST(EwmaTest, FirstSampleInitializes) {
  Ewma e(0.5);
  EXPECT_TRUE(e.empty());
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(EwmaTest, SmoothsTowardNewSamples) {
  Ewma e(0.5);
  e.add(0.0);
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
  e.add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 7.5);
}

TEST(EwmaTest, ValueOnEmptyThrows) {
  Ewma e(0.3);
  EXPECT_THROW(e.value(), ContractError);
}

TEST(EwmaTest, RejectsBadAlpha) {
  EXPECT_THROW(Ewma(0.0), ContractError);
  EXPECT_THROW(Ewma(1.5), ContractError);
}

TEST(DecayingMeanTest, EqualSamplesGiveThatValue) {
  DecayingMean d(0.9);
  for (int i = 0; i < 10; ++i) d.add(3.0);
  EXPECT_NEAR(d.value(), 3.0, 1e-12);
}

TEST(DecayingMeanTest, RecentSamplesDominate) {
  DecayingMean d(0.5);
  for (int i = 0; i < 20; ++i) d.add(1.0);
  for (int i = 0; i < 3; ++i) d.add(10.0);
  EXPECT_GT(d.value(), 8.0);
}

TEST(DecayingMeanTest, WeightAccumulatesBoundedly) {
  DecayingMean d(0.9);
  for (int i = 0; i < 1000; ++i) d.add(1.0);
  EXPECT_NEAR(d.weight(), 10.0, 0.01);  // geometric series limit 1/(1-0.9)
}

TEST(PercentileTest, RankOfBestIsHigh) {
  std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_NEAR(percentile_rank(xs, 10.0), 95.0, 1e-9);
  EXPECT_NEAR(percentile_rank(xs, 1.0), 5.0, 1e-9);
  EXPECT_NEAR(percentile_rank(xs, 5.5), 50.0, 1e-9);
}

TEST(PercentileTest, TiesShareMidRank) {
  std::vector<double> xs = {1, 2, 2, 2, 3};
  EXPECT_NEAR(percentile_rank(xs, 2.0), (1.0 + 1.5) / 5.0 * 100.0, 1e-9);
}

TEST(PercentileTest, ValueInterpolates) {
  std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_NEAR(percentile_value(xs, 0.0), 10.0, 1e-9);
  EXPECT_NEAR(percentile_value(xs, 100.0), 40.0, 1e-9);
  EXPECT_NEAR(percentile_value(xs, 50.0), 25.0, 1e-9);
}

TEST(PercentileTest, EmptyThrows) {
  EXPECT_THROW(percentile_rank({}, 1.0), ContractError);
  EXPECT_THROW(percentile_value({}, 50.0), ContractError);
}

TEST(StudentTTest, KnownValues) {
  EXPECT_NEAR(student_t_critical(0.90, 4), 2.132, 1e-9);
  EXPECT_NEAR(student_t_critical(0.95, 9), 2.262, 1e-9);
  EXPECT_NEAR(student_t_critical(0.90, 100), 1.645, 1e-9);
}

TEST(StudentTTest, NonTableConfidenceUsesNormalApprox) {
  // 80% two-sided -> z ~= 1.2816 for large dof
  EXPECT_NEAR(student_t_critical(0.80, 1000), 1.2816, 0.01);
}

TEST(StudentTTest, SmallDofInterpolationRespectsHeavyTails) {
  // Non-tabulated confidence at small dof must anchor to the row, not fall
  // back to the dof-independent normal quantile: t(0.92, 2) sits between
  // the 90% (2.920) and 95% (4.303) columns, while the normal value is
  // only ~1.75.
  const double z92 = normal_quantile(1.0 - (1.0 - 0.92) / 2.0);
  for (std::size_t dof : {1u, 2u, 3u, 5u, 10u, 30u}) {
    const double t92 = student_t_critical(0.92, dof);
    EXPECT_GT(t92, z92) << "dof=" << dof;
    EXPECT_GT(t92, student_t_critical(0.90, dof)) << "dof=" << dof;
    EXPECT_LT(t92, student_t_critical(0.95, dof)) << "dof=" << dof;
  }
  EXPECT_NEAR(student_t_critical(0.92, 2), 3.47, 0.12);
}

TEST(StudentTTest, MonotoneDecreasingInDof) {
  for (double c : {0.85, 0.90, 0.92, 0.95, 0.97, 0.99, 0.995}) {
    double prev = std::numeric_limits<double>::infinity();
    for (std::size_t dof = 1; dof <= 30; ++dof) {
      const double t = student_t_critical(c, dof);
      EXPECT_LE(t, prev) << "c=" << c << " dof=" << dof;
      prev = t;
    }
    // The table hands off to the asymptotic values without jumping below.
    EXPECT_GE(prev + 1e-9, student_t_critical(c, 1000)) << "c=" << c;
  }
}

TEST(StudentTTest, MonotoneIncreasingInConfidence) {
  const double cs[] = {0.85, 0.90, 0.92, 0.95, 0.97, 0.99, 0.995};
  for (std::size_t dof : {2u, 5u, 29u, 1000u}) {
    for (std::size_t i = 1; i < std::size(cs); ++i) {
      EXPECT_GT(student_t_critical(cs[i], dof),
                student_t_critical(cs[i - 1], dof))
          << "dof=" << dof << " c=" << cs[i];
    }
  }
}

TEST(NormalQuantileTest, MatchesKnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(normal_quantile(0.95), 1.6449, 1e-3);
  EXPECT_NEAR(normal_quantile(0.975), 1.9600, 1e-3);
  EXPECT_NEAR(normal_quantile(0.025), -1.9600, 1e-3);
  EXPECT_THROW(normal_quantile(0.0), ContractError);
  EXPECT_THROW(normal_quantile(1.0), ContractError);
}

// ------------------------------------------------------------------- units

TEST(UnitsTest, LiteralsConvert) {
  EXPECT_DOUBLE_EQ(1_KB, 1024.0);
  EXPECT_DOUBLE_EQ(2_MB, 2.0 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(206_MHz, 206e6);
  EXPECT_DOUBLE_EQ(2_Mbps, 250000.0);
  EXPECT_DOUBLE_EQ(8_kbps, 1000.0);
}

// ------------------------------------------------------------------- table

TEST(TableTest, RendersHeaderAndRows) {
  Table t("Demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", Table::num(1.234, 2)});
  t.add_separator();
  t.add_row({"beta", Table::num_ci(2.0, 0.5, 1)});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.23"), std::string::npos);
  EXPECT_NE(s.find("2.0 ± 0.5"), std::string::npos);
}

TEST(TableTest, RowWidthMismatchThrows) {
  Table t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractError);
}

TEST(TableTest, CsvExport) {
  Table t("ignored title");
  t.set_header({"a", "b"});
  t.add_row({"x", "1.5"});
  t.add_row({"with,comma", "with\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_EQ(csv,
            "a,b\n"
            "x,1.5\n"
            "\"with,comma\",\"with\"\"quote\"\n");
}

TEST(TableTest, CsvWithoutHeader) {
  Table t;
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "1,2\n");
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 3), "3.142");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

// ------------------------------------------------------------------- arena

TEST(ArenaTest, BumpsWithinOneBlockAndHonorsAlignment) {
  Arena arena(256);
  void* a = arena.allocate(24, 8);
  void* b = arena.allocate(8, 64);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
  EXPECT_GT(b, a);  // monotonic bump, same block
  EXPECT_EQ(arena.blocks(), 1u);
  EXPECT_EQ(arena.used(), 32u);
}

TEST(ArenaTest, GrowthChainsBlocksAndResetFusesThem) {
  Arena arena(64);
  for (int i = 0; i < 10; ++i) (void)arena.allocate(64, 8);
  EXPECT_GT(arena.blocks(), 1u) << "workload never outgrew the first block";
  const std::size_t grown = arena.capacity();
  arena.reset();
  // The fused block spans at least the chained total, so the same workload
  // fits without growing again.
  EXPECT_EQ(arena.blocks(), 1u);
  EXPECT_GE(arena.capacity(), grown);
  EXPECT_EQ(arena.used(), 0u);
  for (int i = 0; i < 10; ++i) (void)arena.allocate(64, 8);
  EXPECT_EQ(arena.blocks(), 1u);
}

TEST(ArenaTest, WarmResetIsCapacityStableOnASteadyWorkload) {
  Arena arena(64);
  const auto tick = [&arena] {
    std::pmr::vector<double> scratch(&arena);
    for (int i = 0; i < 200; ++i) scratch.push_back(i);
    arena.reset();
  };
  tick();  // warm-up: growth and fusing happen here
  const std::size_t cap = arena.capacity();
  for (int i = 0; i < 50; ++i) tick();
  EXPECT_EQ(arena.blocks(), 1u);
  EXPECT_EQ(arena.capacity(), cap) << "warm arena grew on a steady workload";
}

TEST(ArenaTest, DeallocateIsANoOpUntilReset) {
  Arena arena(128);
  void* p = arena.allocate(32, 8);
  arena.deallocate(p, 32, 8);
  EXPECT_EQ(arena.used(), 32u);  // nothing reclaimed
  void* q = arena.allocate(32, 8);
  EXPECT_NE(p, q);  // the freed span is not reused before reset()
  arena.reset();
  EXPECT_EQ(arena.allocate(32, 8), p);  // bump pointer rewound to the start
}

TEST(ArenaTest, ReleaseDropsCapacityButStaysUsable) {
  Arena arena(64);
  (void)arena.allocate(1000, 8);
  EXPECT_GT(arena.capacity(), 0u);
  arena.release();
  EXPECT_EQ(arena.capacity(), 0u);
  EXPECT_EQ(arena.blocks(), 0u);
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_NE(arena.allocate(16, 8), nullptr);
}

TEST(ArenaTest, BacksPmrContainersAsAMemoryResource) {
  Arena arena(1024);
  std::pmr::vector<int> v(&arena);
  for (int i = 0; i < 100; ++i) v.push_back(i);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(v[i], i);
  EXPECT_GE(arena.used(), 100 * sizeof(int));
}

// ------------------------------------------------------------------ logger

// A line below the current level must cost a level check only: no stream is
// built and no `<<` argument runs (the decision path logs describe() of its
// choice on every decision).
TEST(LoggerTest, DisabledLineDoesNotEvaluateItsArguments) {
  Logger& logger = Logger::instance();
  const LogLevel saved = logger.level();
  std::ostringstream sink;
  logger.set_sink(&sink);
  logger.set_level(LogLevel::kWarn);
  int evaluated = 0;
  const auto expensive = [&evaluated] {
    ++evaluated;
    return std::string("rendered");
  };
  SPECTRA_LOG_INFO("test") << "info " << expensive();
  SPECTRA_LOG_DEBUG("test") << "debug " << expensive();
  EXPECT_EQ(evaluated, 0);
  // The macro is a single statement: this else belongs to the if.
  bool took_else = false;
  if (evaluated != 0)
    SPECTRA_LOG_DEBUG("test") << expensive();
  else
    took_else = true;
  EXPECT_TRUE(took_else);
  SPECTRA_LOG_WARN("test") << "warn " << expensive();
  logger.set_level(saved);
  logger.set_sink(nullptr);
  EXPECT_EQ(evaluated, 1);
  EXPECT_EQ(sink.str(), "[spectra:test WARN] warn rendered\n");
}

}  // namespace
}  // namespace spectra::util
