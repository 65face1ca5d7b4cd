// Ablation: heuristic vs exhaustive solver (§3.6).
//
// The heuristic solver is "not guaranteed to select the optimal alternative
// — however, it usually selects a very good option". This ablation compares
// the two on synthetic alternative spaces of growing size: utility gap and
// evaluation counts.
#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "solver/solver.h"
#include "util/rng.h"

using namespace spectra;         // NOLINT
using namespace spectra::solver; // NOLINT

namespace {

AlternativeSpace make_space(int plans, int servers, int fid_dims) {
  AlternativeSpace s;
  for (int i = 0; i < plans; ++i) {
    s.plans.push_back({"p" + std::to_string(i), i != 0});
  }
  for (int i = 0; i < servers; ++i) s.servers.push_back(i + 1);
  for (int i = 0; i < fid_dims; ++i) {
    s.fidelities.push_back({"f" + std::to_string(i), {0.0, 0.5, 1.0}});
  }
  return s;
}

// A Spectra-shaped utility: smooth base (placement/fidelity preferences)
// plus mild interaction terms.
EvalFn make_utility(std::uint64_t seed, const AlternativeSpace& space) {
  util::Rng rng(seed);
  const double wp = rng.uniform(-0.2, 0.2);
  const double ws = rng.uniform(-0.5, 0.5);
  std::vector<double> wf;
  for (std::size_t i = 0; i < space.fidelities.size(); ++i) {
    wf.push_back(rng.uniform(-1.0, 1.5));
  }
  const double interact = rng.uniform(-0.3, 0.3);
  return [=](const Alternative& a) {
    double u = wp * a.plan + ws * a.server;
    double fsum = 0.0;
    for (std::size_t i = 0; i < a.fidelity.size(); ++i) {
      u += wf[i] * a.fidelity[i];
      fsum += a.fidelity[i];
    }
    u += interact * fsum * (a.plan % 3);
    return u;
  };
}

}  // namespace

int main(int argc, char** argv) {
  scenario::BatchRunner batch(spectra::bench::jobs_from_args(argc, argv));
  std::cout << "Ablation: heuristic solver vs exhaustive search\n\n";
  util::Table table;
  table.set_header({"space size", "gap, fixed budget (%)",
                    "evals (fixed)", "memo hits (fixed)",
                    "gap, scaled budget (%)", "evals (scaled)"});

  for (const auto& [plans, servers, fids] :
       {std::tuple{4, 2, 1}, {8, 2, 2}, {16, 2, 3}, {16, 4, 3},
        {24, 6, 3}}) {
    const auto space = make_space(plans, servers, fids);
    const std::size_t size = space.count();
    struct SeedResult {
      double gap_fixed = 0.0, evals_fixed = 0.0, hits_fixed = 0.0;
      double gap_scaled = 0.0, evals_scaled = 0.0;
    };
    // Independent per seed (own Rng, pure eval fn); aggregated in seed
    // order afterwards, so the table is identical for any --jobs.
    const auto per_seed = batch.map(40, [&](std::size_t i) {
      const auto seed = static_cast<std::uint64_t>(i);
      const auto eval = make_utility(seed, space);
      ExhaustiveSolver ex;
      const auto best = ex.solve(space, eval);
      const double span =
          std::abs(best.log_utility) > 1e-9 ? std::abs(best.log_utility)
                                            : 1.0;
      SeedResult out;
      auto run = [&](std::size_t budget, double& gap, double& evals,
                     double* hits) {
        HeuristicSolverConfig cfg;
        cfg.exhaustive_threshold = 0;  // force hill climbing
        cfg.max_evaluations = budget;
        cfg.restarts = 4 + budget / 128;
        HeuristicSolver h(util::Rng(seed * 31 + 5), cfg);
        const auto got = h.solve(space, eval);
        gap = 100.0 * (best.log_utility - got.log_utility) / span;
        evals = static_cast<double>(got.evaluations);
        if (hits != nullptr) *hits = static_cast<double>(got.memo_hits);
      };
      run(192, out.gap_fixed, out.evals_fixed,  // Spectra's default
          &out.hits_fixed);
      run(std::max<std::size_t>(192, size / 4),  // budget grows with space
          out.gap_scaled, out.evals_scaled, nullptr);
      return out;
    });
    util::OnlineStats gap_fixed, evals_fixed, hits_fixed, gap_scaled,
        evals_scaled;
    for (const auto& r : per_seed) {
      gap_fixed.add(r.gap_fixed);
      evals_fixed.add(r.evals_fixed);
      hits_fixed.add(r.hits_fixed);
      gap_scaled.add(r.gap_scaled);
      evals_scaled.add(r.evals_scaled);
    }
    table.add_row({std::to_string(size),
                   util::Table::num(gap_fixed.mean(), 2),
                   util::Table::num(evals_fixed.mean(), 0),
                   util::Table::num(hits_fixed.mean(), 0),
                   util::Table::num(gap_scaled.mean(), 2),
                   util::Table::num(evals_scaled.mean(), 0)});
  }
  std::cout << table.to_string();
  std::cout << "\nHill climbing with the default budget stays near-optimal "
               "through Pangloss-sized spaces\n(~250 alternatives) and "
               "degrades gracefully beyond; scaling the budget with the\n"
               "space recovers quality at a cost that is still a fraction "
               "of exhaustive search.\n"
               "Memo hits are restart/neighbour revisits answered from the "
               "integer-coordinate memo\n(a vector<int> key; the original "
               "ostringstream key both stringified every lookup and\nbuilt "
               "the Alternative twice), so hill climbing pays eval() only "
               "once per distinct point.\n";
  return 0;
}
