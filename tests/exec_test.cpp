// Tests for the parallel batch-execution layer: the work-stealing thread
// pool, thread-safe logging and metrics merging, trained-world cloning, and
// the determinism guarantee — batch output is bit-identical regardless of
// how many workers execute it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"
#include "fault/fault_plan.h"
#include "obs/obs.h"
#include "scenario/batch.h"
#include "scenario/experiment.h"
#include "scenario/sweep.h"
#include "util/assert.h"
#include "util/log.h"
#include "util/stats.h"
#include "util/table.h"

namespace spectra {
namespace {

using scenario::BatchRunner;
using scenario::LatexExperiment;
using scenario::PanglossExperiment;
using scenario::SpeechExperiment;
using scenario::TrainedWorldCache;

// ----------------------------------------------------------- thread pool

TEST(ThreadPoolTest, SubmitAndWaitRunsEveryTask) {
  exec::ThreadPool pool(4);
  std::atomic<int> ran{0};
  exec::TaskGroup group(pool);
  for (int i = 0; i < 100; ++i) {
    group.submit([&ran] { ran.fetch_add(1); });
  }
  group.wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, ParallelForFillsEveryIndexOnce) {
  exec::ThreadPool pool(3);
  std::vector<int> out(257, 0);
  exec::parallel_for(&pool, out.size(),
                     [&](std::size_t i) { out[i] = static_cast<int>(i) + 1; });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) + 1);
  }
}

TEST(ThreadPoolTest, ParallelForWithoutPoolRunsInlineInOrder) {
  std::vector<std::size_t> order;
  exec::parallel_for(nullptr, 5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, WaitRethrowsFirstExceptionButFinishesTheBatch) {
  exec::ThreadPool pool(2);
  std::atomic<int> ran{0};
  exec::TaskGroup group(pool);
  for (int i = 0; i < 20; ++i) {
    group.submit([&ran, i] {
      if (i == 7) throw std::runtime_error("task 7 failed");
      ran.fetch_add(1);
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  EXPECT_EQ(ran.load(), 19);  // every other task still ran
}

TEST(ThreadPoolTest, NestedBatchesDoNotDeadlock) {
  // Every outer task fans out its own inner batch on the same 2-worker
  // pool; wait() helps, so this completes even when all workers are
  // themselves inside a wait().
  exec::ThreadPool pool(2);
  std::atomic<int> inner_ran{0};
  exec::parallel_for(&pool, 8, [&](std::size_t) {
    exec::parallel_for(&pool, 8,
                       [&](std::size_t) { inner_ran.fetch_add(1); });
  });
  EXPECT_EQ(inner_ran.load(), 64);
}

TEST(ThreadPoolTest, HardwareConcurrencyHasFloorOfOne) {
  EXPECT_GE(exec::ThreadPool::hardware_concurrency(), 1u);
  exec::ThreadPool pool(0);  // clamps to one worker
  EXPECT_EQ(pool.size(), 1u);
}

// ---------------------------------------------------------------- logger

TEST(LoggerConcurrencyTest, ConcurrentWritesNeverTearLines) {
  auto& logger = util::Logger::instance();
  std::ostringstream captured;
  logger.set_sink(&captured);
  const auto level = logger.level();
  logger.set_level(util::LogLevel::kInfo);

  constexpr int kThreads = 8;
  constexpr int kLines = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        SPECTRA_LOG_INFO("exec-test")
            << "thread " << t << " line " << i << " end";
      }
    });
  }
  for (auto& th : threads) th.join();
  logger.set_level(level);
  logger.set_sink(nullptr);

  std::istringstream in(captured.str());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    // Every line is exactly one whole log record: prefix, message, "end".
    EXPECT_EQ(line.rfind("[spectra:exec-test INFO] thread ", 0), 0u) << line;
    EXPECT_EQ(line.substr(line.size() - 4), " end") << line;
  }
  EXPECT_EQ(lines, kThreads * kLines);
}

// --------------------------------------------------------- metrics merge

TEST(MetricsMergeTest, CountersSumAndAbsentMetricsRegister) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.counter("ops").add(3.0);
  b.counter("ops").add(4.0);
  b.counter("only_in_b").add(1.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.find_counter("ops")->value(), 7.0);
  EXPECT_DOUBLE_EQ(a.find_counter("only_in_b")->value(), 1.0);
}

TEST(MetricsMergeTest, HistogramsCombineExactly) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.histogram("lat").observe(1.0);
  a.histogram("lat").observe(5.0);
  b.histogram("lat").observe(-2.0);
  a.merge(b);
  const auto* h = a.find_histogram("lat");
  EXPECT_EQ(h->count(), 3u);
  EXPECT_DOUBLE_EQ(h->sum(), 4.0);
  EXPECT_DOUBLE_EQ(h->min(), -2.0);
  EXPECT_DOUBLE_EQ(h->max(), 5.0);
}

TEST(MetricsMergeTest, MergingIntoEmptyAndFromEmptyBothWork) {
  obs::MetricsRegistry empty;
  obs::MetricsRegistry full;
  full.histogram("h").observe(2.0);
  full.counter("c").add(1.0);

  obs::MetricsRegistry target;
  target.merge(empty);  // no-op
  EXPECT_EQ(target.size(), 0u);
  target.merge(full);
  EXPECT_EQ(target.find_histogram("h")->count(), 1u);
  target.merge(empty);  // still a no-op even with content present
  EXPECT_EQ(target.find_histogram("h")->count(), 1u);
  EXPECT_DOUBLE_EQ(target.find_counter("c")->value(), 1.0);
}

TEST(MetricsMergeTest, KindClashThrows) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.counter("x");
  b.histogram("x").observe(1.0);
  EXPECT_THROW(a.merge(b), util::ContractError);
}

TEST(HistogramMergeTest, EmptySideKeepsOtherSideStats) {
  obs::Histogram empty;
  obs::Histogram h;
  h.observe(3.0);
  h.merge(empty);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 3.0);

  obs::Histogram target;
  target.merge(h);
  EXPECT_EQ(target.count(), 1u);
  EXPECT_DOUBLE_EQ(target.min(), 3.0);
  EXPECT_DOUBLE_EQ(target.max(), 3.0);
}

TEST(TraceSinkTest, WriteRawSplicesVerbatimAndCountsEvents) {
  std::ostringstream out;
  obs::TraceSink sink(out);
  obs::TraceEvent ev("op", 1.5);
  sink.emit(ev);
  sink.write_raw("{\"type\":\"a\"}\n{\"type\":\"b\"}\n");
  EXPECT_EQ(sink.events(), 3u);
  EXPECT_NE(out.str().find("{\"type\":\"a\"}\n{\"type\":\"b\"}\n"),
            std::string::npos);
}

// ---------------------------------------------------------- batch runner

TEST(BatchRunnerTest, MapReturnsResultsInIndexOrder) {
  BatchRunner batch(4);
  const auto out =
      batch.map(64, [](std::size_t i) { return static_cast<int>(i * i); });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST(BatchRunnerTest, MapRunsMergesShardsInIndexOrder) {
  auto run = [](std::size_t jobs) {
    std::ostringstream trace;
    obs::Observability session;
    session.trace_to(trace);
    BatchRunner batch(jobs);
    batch.map_runs(&session, 16, [](std::size_t i, obs::Observability* o) {
      o->metrics().counter("runs").add(1.0);
      o->metrics().histogram("i").observe(static_cast<double>(i));
      obs::TraceEvent ev("run", static_cast<double>(i));
      o->trace()->emit(ev);
      return i;
    });
    return std::pair<std::string, double>(
        trace.str(), session.metrics().find_counter("runs")->value());
  };
  const auto sequential = run(1);
  const auto parallel = run(8);
  EXPECT_EQ(sequential.first, parallel.first);  // byte-identical trace
  EXPECT_DOUBLE_EQ(sequential.second, 16.0);
  EXPECT_DOUBLE_EQ(parallel.second, 16.0);
}

TEST(BatchRunnerTest, MapRunsWithoutSessionPassesNullObs) {
  BatchRunner batch(2);
  const auto out =
      batch.map_runs(nullptr, 4, [](std::size_t i, obs::Observability* o) {
        EXPECT_EQ(o, nullptr);
        return i;
      });
  EXPECT_EQ(out, (std::vector<std::size_t>{0, 1, 2, 3}));
}

// The worker count is range-checked on its text before any pool exists:
// each job is an OS thread, so --jobs=100000 used to start 100,000 of them,
// --jobs=-1 meant "unset" and SPECTRA_JOBS=abc one per hardware thread.
TEST(ResolveJobsTest, RangeChecksTheRequestBeforeAnyPoolExists) {
  using scenario::kMaxJobs;
  using scenario::resolve_jobs;
  ::unsetenv("SPECTRA_JOBS");
  EXPECT_EQ(resolve_jobs(std::nullopt), 1u);
  EXPECT_EQ(resolve_jobs("3"), 3u);
  EXPECT_EQ(resolve_jobs(std::to_string(kMaxJobs)),
            static_cast<std::size_t>(kMaxJobs));
  EXPECT_EQ(resolve_jobs("0"), exec::ThreadPool::hardware_concurrency());
  for (const std::string& bad :
       {std::to_string(kMaxJobs + 1), std::string("-1"), std::string("abc"),
        std::string("2x"), std::string("")}) {
    EXPECT_THROW(resolve_jobs(bad), util::ContractError) << bad;
  }
  ::setenv("SPECTRA_JOBS", "2", 1);
  EXPECT_EQ(resolve_jobs(std::nullopt), 2u);
  EXPECT_EQ(resolve_jobs("5"), 5u);  // --jobs beats the environment
  ::setenv("SPECTRA_JOBS", "abc", 1);
  EXPECT_THROW(resolve_jobs(std::nullopt), util::ContractError);
  ::setenv("SPECTRA_JOBS", std::to_string(kMaxJobs + 1).c_str(), 1);
  EXPECT_THROW(resolve_jobs(std::nullopt), util::ContractError);
  ::unsetenv("SPECTRA_JOBS");
}

TEST(TrainedWorldCacheTest, SameKeySharesOneWorld) {
  TrainedWorldCache::instance().clear();
  SpeechExperiment::Config cfg;
  cfg.seed = 9001;
  cfg.reuse_trained_world = true;
  SpeechExperiment a(cfg);
  SpeechExperiment b(cfg);
  // Two instances, one cache entry: the second measure must not retrain.
  (void)a.measure(SpeechExperiment::alternatives()[0]);
  const std::size_t after_first = TrainedWorldCache::instance().size();
  (void)b.measure(SpeechExperiment::alternatives()[1]);
  EXPECT_EQ(TrainedWorldCache::instance().size(), after_first);
  TrainedWorldCache::instance().clear();
  EXPECT_EQ(TrainedWorldCache::instance().size(), 0u);
}

// ------------------------------------------------- clone ≡ fresh retrain

// The load-bearing property of trained-world reuse: measuring on a clone of
// the trained template gives bit-identical results to retraining a fresh
// world for every run (the pre-reuse behaviour).
TEST(TrainedWorldReuseTest, SpeechCloneMatchesFreshRetrain) {
  for (const auto sc :
       {scenario::SpeechScenario::kBaseline, scenario::SpeechScenario::kEnergy,
        scenario::SpeechScenario::kNetwork}) {
    SpeechExperiment::Config reuse_cfg;
    reuse_cfg.scenario = sc;
    reuse_cfg.seed = 314;
    reuse_cfg.reuse_trained_world = true;
    SpeechExperiment with_reuse(reuse_cfg);

    SpeechExperiment::Config fresh_cfg = reuse_cfg;
    fresh_cfg.reuse_trained_world = false;
    SpeechExperiment fresh(fresh_cfg);

    for (const auto& alt : SpeechExperiment::alternatives()) {
      const auto a = with_reuse.measure(alt);
      const auto b = fresh.measure(alt);
      ASSERT_EQ(a.feasible, b.feasible) << SpeechExperiment::label(alt);
      EXPECT_EQ(a.time, b.time) << SpeechExperiment::label(alt);
      EXPECT_EQ(a.energy, b.energy) << SpeechExperiment::label(alt);
    }
    const auto sa = with_reuse.run_spectra();
    const auto sb = fresh.run_spectra();
    EXPECT_EQ(SpeechExperiment::label(sa.choice.alternative),
              SpeechExperiment::label(sb.choice.alternative));
    EXPECT_EQ(sa.time, sb.time);
    EXPECT_EQ(sa.energy, sb.energy);
  }
}

TEST(TrainedWorldReuseTest, CloneMatchesFreshRetrainUnderFaults) {
  fault::FaultPlan plan;
  plan.seed = 77;
  plan.horizon = 30.0;
  fault::FaultEvent down;
  down.at = 0.5;
  down.kind = fault::FaultKind::kLinkDown;
  down.a = scenario::kClient;
  down.b = scenario::kServerT20;
  down.duration = 4.0;
  plan.scheduled.push_back(down);
  fault::ProbabilisticFault spike;
  spike.kind = fault::FaultKind::kLatencySpike;
  spike.a = scenario::kClient;
  spike.b = scenario::kServerT20;
  spike.rate_per_s = 0.05;
  spike.magnitude = 4.0;
  spike.duration = 2.0;
  plan.probabilistic.push_back(spike);

  SpeechExperiment::Config reuse_cfg;
  reuse_cfg.seed = 271;
  reuse_cfg.fault_plan = plan;
  reuse_cfg.reuse_trained_world = true;
  SpeechExperiment with_reuse(reuse_cfg);

  SpeechExperiment::Config fresh_cfg = reuse_cfg;
  fresh_cfg.reuse_trained_world = false;
  SpeechExperiment fresh(fresh_cfg);

  for (const auto& alt : SpeechExperiment::alternatives()) {
    const auto a = with_reuse.measure(alt);
    const auto b = fresh.measure(alt);
    ASSERT_EQ(a.feasible, b.feasible) << SpeechExperiment::label(alt);
    EXPECT_EQ(a.time, b.time) << SpeechExperiment::label(alt);
    EXPECT_EQ(a.energy, b.energy) << SpeechExperiment::label(alt);
  }
}

TEST(TrainedWorldReuseTest, LatexCloneMatchesFreshRetrain) {
  LatexExperiment::Config reuse_cfg;
  reuse_cfg.scenario = scenario::LatexScenario::kReintegrate;
  reuse_cfg.doc = "small";
  reuse_cfg.seed = 1618;
  reuse_cfg.reuse_trained_world = true;
  LatexExperiment with_reuse(reuse_cfg);

  LatexExperiment::Config fresh_cfg = reuse_cfg;
  fresh_cfg.reuse_trained_world = false;
  LatexExperiment fresh(fresh_cfg);

  for (const auto& alt : LatexExperiment::alternatives()) {
    const auto a = with_reuse.measure(alt);
    const auto b = fresh.measure(alt);
    ASSERT_EQ(a.feasible, b.feasible) << LatexExperiment::label(alt);
    EXPECT_EQ(a.time, b.time) << LatexExperiment::label(alt);
    EXPECT_EQ(a.energy, b.energy) << LatexExperiment::label(alt);
  }
}

// ------------------------------------- jobs=1 vs jobs=8 byte identity

// A seeded speech batch with tracing on: the merged session trace and every
// measured value must be byte-identical whether one worker or eight
// executed the fan-out.
TEST(BatchDeterminismTest, SpeechTraceByteIdenticalAcrossJobs) {
  const auto alts = SpeechExperiment::alternatives();
  auto run_batch = [&](std::size_t jobs) {
    std::ostringstream trace;
    obs::Observability session;
    session.trace_to(trace);
    BatchRunner batch(jobs);
    SpeechExperiment::Config cfg;
    cfg.seed = 4242;
    cfg.reuse_trained_world = true;
    SpeechExperiment exp(cfg);
    auto runs = batch.map_runs(
        &session, alts.size(), [&](std::size_t i, obs::Observability* o) {
          return exp.measure(alts[i], o);
        });
    std::ostringstream values;
    for (const auto& r : runs) {
      values << r.feasible << ' ' << obs::format_double(r.time) << ' '
             << obs::format_double(r.energy) << '\n';
    }
    return std::pair<std::string, std::string>(trace.str(), values.str());
  };
  const auto sequential = run_batch(1);
  const auto parallel = run_batch(8);
  EXPECT_EQ(sequential.second, parallel.second);
  EXPECT_EQ(sequential.first, parallel.first);
  EXPECT_FALSE(sequential.first.empty());
}

// A test-sized Figure-8 cell (Pangloss accuracy percentile): the rendered
// table must come out byte-identical at jobs=1 and jobs=8.
TEST(BatchDeterminismTest, PanglossFig8TableByteIdenticalAcrossJobs) {
  auto run_cell = [&](std::size_t jobs) {
    BatchRunner batch(jobs);
    const scenario::SweepResult result =
        scenario::sweep<PanglossExperiment>(
            batch, nullptr, {1000},
            [](std::uint64_t seed, obs::Observability* trial_obs) {
              PanglossExperiment::Config cfg;
              cfg.scenario = scenario::PanglossScenario::kBaseline;
              cfg.seed = seed;
              cfg.test_words = 10;
              cfg.training_runs = 24;  // test-sized; full figure uses 129
              cfg.reuse_trained_world = true;
              cfg.obs = trial_obs;
              return cfg;
            });
    util::Table table("Fig 8 cell (test-sized)");
    table.set_header({"sentence (words)", "percentile", "Spectra chose"});
    table.add_row(
        {"10",
         util::Table::num(
             scenario::pangloss_scores(result).percentile.stats.mean(), 1),
         scenario::modal_choice(result)});
    return table.to_string();
  };
  const auto sequential = run_cell(1);
  const auto parallel = run_cell(8);
  EXPECT_EQ(sequential, parallel);
}

}  // namespace
}  // namespace spectra
