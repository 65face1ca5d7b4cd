// decide_pangloss: one thread runs a closed loop of decision cycles on a
// trained Pangloss world (the paper's largest decision space: ~97
// alternatives x 2 servers, baseline scenario).
//
// The loop runs in rounds of a fixed operation count. Every round builds a
// fresh trained world (timed as set-up) and replays the same seeded list of
// sentence lengths, so every round must reproduce the first one's choices,
// times and energies exactly; that check is what keeps the simulated
// metrics exact while the number of rounds follows the wall clock.
#include <cmath>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/pangloss.h"
#include "harness.h"
#include "scenario/experiment.h"
#include "scenario/world.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace spectra;  // NOLINT

// The paper's test sentences (§4.3); the two long ones drop the glossary.
constexpr int kSentenceWords[] = {6, 10, 14, 38, 44};
// Begin times and cycle rates are summarized per block of 100 ops, which
// runs every test sentence equally often. The p99 is taken per round of
// ten blocks: 1000 samples is the least that puts ten beyond it.
constexpr int kOpsPerBlock = 100;
constexpr int kOpsPerRound = 10 * kOpsPerBlock;

struct OpOutcome {
  solver::Alternative alternative;
  double elapsed_s = 0.0;
  double energy_j = 0.0;
};

bool same(const OpOutcome& a, const OpOutcome& b) {
  return a.alternative == b.alternative && a.elapsed_s == b.elapsed_s &&
         a.energy_j == b.energy_j;
}

}  // namespace

PhaseResult run_decide(const Options& options, double seconds,
                       SpanLog* trace) {
  PhaseResult out;
  // Every block runs each test sentence equally often, in a seeded order,
  // so a seed changes the sequence but not the mix.
  std::vector<int> words;
  util::Rng rng(options.seed);
  while (words.size() < static_cast<std::size_t>(kOpsPerRound)) {
    const std::size_t first = words.size();
    for (const int w : kSentenceWords) {
      words.insert(words.end(), kOpsPerBlock / std::size(kSentenceWords), w);
    }
    for (std::size_t i = words.size() - 1; i > first; --i) {
      const auto j = first + static_cast<std::size_t>(rng.uniform_int(
                                 0, static_cast<std::int64_t>(i - first)));
      std::swap(words[i], words[j]);
    }
  }

  scenario::PanglossExperiment::Config config;
  config.seed = options.seed;
  const scenario::PanglossExperiment experiment(config);

  std::vector<OpOutcome> reference;
  std::vector<double> setup_s, block_rate, block_p50, round_p99;
  std::vector<double> begin_us(kOpsPerRound);
  // Traced phases only: the client's own split of each begin.
  std::vector<double> choose_us, cache_us, other_us;
  double evaluations = 0.0;
  double memo_hits = 0.0;
  std::uint64_t op_id = 0;

  // Round 0 warms caches and the allocator; it is checked but not timed.
  CpuRotation rotation;
  Clock::time_point deadline{};
  for (int round = 0; round == 0 || Clock::now() < deadline; ++round) {
    rotation.pin(static_cast<std::size_t>(round));
    const auto b0 = Clock::now();
    auto world = experiment.trained_world();
    const auto b1 = Clock::now();
    setup_s.push_back(seconds_between(b0, b1));
    core::SpectraClient& spectra = world->spectra();
    const apps::PanglossApp& app = world->pangloss();

    std::vector<OpOutcome> ops(kOpsPerRound);
    Clock::time_point block_start{};
    for (int i = 0; i < kOpsPerRound; ++i, ++op_id) {
      const int w = words[static_cast<std::size_t>(i)];
      const auto t0 = Clock::now();
      const core::OperationChoice choice = spectra.begin_fidelity_op(
          apps::PanglossApp::kOperation, {{"words", static_cast<double>(w)}});
      const auto t1 = Clock::now();
      app.execute(spectra, w);
      const auto t2 = Clock::now();
      const monitor::OperationUsage usage = spectra.end_fidelity_op();
      const auto t3 = Clock::now();
      begin_us[static_cast<std::size_t>(i)] = micros_between(t0, t1);
      if (i % kOpsPerBlock == 0) block_start = t0;
      if (round > 0 && i % kOpsPerBlock == kOpsPerBlock - 1) {
        const auto block_end = begin_us.begin() + i + 1;
        block_rate.push_back(kOpsPerBlock / seconds_between(block_start, t3));
        block_p50.push_back(util::percentile_value(
            std::vector<double>(block_end - kOpsPerBlock, block_end), 50.0));
      }
      if (trace != nullptr) {
        const SpanLog::Id op = trace->add("decide.op", op_id, SpanLog::kRoot,
                                          t0, t3);
        trace->add("core.begin", op_id, op, t0, t1);
        trace->add("apps.execute", op_id, op, t1, t2);
        trace->add("core.end", op_id, op, t2, t3);
        const double choose = choice.wall_choosing * 1e6;
        const double cache = choice.wall_cache_prediction * 1e6;
        choose_us.push_back(choose);
        cache_us.push_back(cache);
        other_us.push_back(micros_between(t0, t1) - choose - cache);
        evaluations += static_cast<double>(choice.evaluations);
        memo_hits += static_cast<double>(choice.memo_hits);
      }
      ops[static_cast<std::size_t>(i)] = {choice.alternative, usage.elapsed,
                                          usage.energy};
      ++out.attempted;
      if (!choice.ok || !choice.from_model) {
        out.fail(1, "begin_fidelity_op not ok/from_model at op " +
                        std::to_string(i));
      } else if (!std::isfinite(usage.elapsed) || usage.elapsed <= 0.0 ||
                 !std::isfinite(usage.energy) || usage.energy <= 0.0) {
        out.fail(1, "end_fidelity_op reported a non-positive time or energy");
      } else if (round > 0 && !same(ops[static_cast<std::size_t>(i)],
                                    reference[static_cast<std::size_t>(i)])) {
        out.fail(1, "round " + std::to_string(round) + " op " +
                        std::to_string(i) + " differs from round 0");
      }
    }
    if (round == 0) {
      reference = std::move(ops);
      deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
      continue;
    }
    round_p99.push_back(util::percentile_value(begin_us, 99.0));
  }

  const std::size_t rounds = round_p99.size();
  const std::size_t blocks = block_p50.size();
  const std::string blocks_of = std::to_string(blocks) + " blocks of " +
                                std::to_string(kOpsPerBlock) + " ops";
  out.setup_s = {median(setup_s), setup_s.size(),
                 "median of per-round trained-world builds"};
  out.ops_per_s = {quiet_rate(block_rate), blocks,
                   "decision cycles per second, 95th percentile over " +
                       blocks_of};
  out.p50_us = {quiet_time(block_p50), blocks * kOpsPerBlock,
                "begin_fidelity_op, block p50, 5th percentile over " +
                    blocks_of};
  // ~95 rounds in a 45-s run: the 10th percentile leaves ~9 beyond it.
  out.p99_us = {quiet_time(round_p99, 10.0), rounds * kOpsPerRound,
                "begin_fidelity_op, round p99, 10th percentile over " +
                    std::to_string(rounds) + " rounds of " +
                    std::to_string(kOpsPerRound) + " ops"};
  std::vector<double> elapsed, energy;
  for (const OpOutcome& op : reference) {
    elapsed.push_back(op.elapsed_s);
    energy.push_back(op.energy_j);
  }
  const std::string exact = "mean over the ops of a round (every round equal)";
  out.sim_op_s = {util::mean_of(elapsed), elapsed.size(), exact};
  out.sim_energy_j = {util::mean_of(energy), energy.size(), exact};

  if (trace != nullptr) {
    const double n = static_cast<double>(choose_us.size());
    const std::string per_op = "median per op";
    out.layers = {
        median_metric("solver.choose_us", "us", choose_us,
                      "OperationChoice::wall_choosing, " + per_op),
        {"solver.evals_per_op", "count",
         {evaluations / n, choose_us.size(), "mean solver evaluations per op"}},
        {"solver.memo_hit_share", "share",
         {memo_hits / (memo_hits + evaluations), choose_us.size(),
          "memo hits / (memo hits + evaluations)"}},
        median_metric("monitor.cache_predict_us", "us", cache_us,
                      "OperationChoice::wall_cache_prediction, " + per_op),
        median_metric("core.begin_other_us", "us", other_us,
                      "begin span - choose - cache prediction, " + per_op),
        median_metric("apps.execute_us", "us",
                      trace->durations_us("apps.execute"),
                      "PanglossApp::execute span, " + per_op),
        median_metric("core.end_us", "us", trace->durations_us("core.end"),
                      "end_fidelity_op span, " + per_op),
    };
  }
  return out;
}

}  // namespace perfbench
