// Solvers that search the alternative space for the maximum-utility choice.
//
// The paper uses the heuristic solver of Narayanan et al. [12]: not
// guaranteed optimal, but in practice selecting the best or a near-best
// alternative with bounded work. Here:
//
//   * ExhaustiveSolver — evaluates every alternative; the oracle reference
//     and the choice for small spaces.
//   * HeuristicSolver — random-restart hill climbing over the (plan,
//     server, fidelity…) lattice with an evaluation budget and memoization;
//     falls back to exhaustive search when the space is small enough that
//     enumeration is cheaper than climbing.
//
// Both hand eval() one scratch Alternative per solve, rewritten in place for
// each candidate: the reference is valid only for the duration of the call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "solver/types.h"
#include "util/rng.h"

namespace spectra::solver::detail {

// Open-addressing memo table for the heuristic solver, keyed by an
// alternative's coordinates packed into one uint64 (see KeyPacker in
// solver.cpp). Packed keys carry a tag bit above the payload, so they are
// never zero and zero can mark an empty slot. Linear probing, power-of-two
// capacity; reset() reuses the slot array, so steady-state solves do not
// allocate.
class PackedMemo {
 public:
  // Clear the table, sized for about `expected` insertions.
  void reset(std::size_t expected);

  // Value for `key`, or nullptr when absent. The pointer is invalidated by
  // the next insert().
  const double* find(std::uint64_t key) const;

  void insert(std::uint64_t key, double value);

  std::size_t size() const { return size_; }

 private:
  struct Slot {
    std::uint64_t key = 0;  // 0 = empty
    double value = 0.0;
  };

  std::size_t bucket(std::uint64_t key) const {
    // Fibonacci hash folded to the table size.
    return static_cast<std::size_t>(key * 0x9E3779B97F4A7C15ull) & mask_;
  }
  void grow();

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace spectra::solver::detail

namespace spectra::solver {

struct SolveResult {
  bool found = false;  // false when every alternative was infeasible
  Alternative best;
  double log_utility = kInfeasible;
  std::size_t evaluations = 0;
  // Re-visits served from the memo table instead of calling eval
  // (heuristic solver only; always 0 for exhaustive search).
  std::size_t memo_hits = 0;
};

class Solver {
 public:
  virtual ~Solver() = default;
  virtual SolveResult solve(const AlternativeSpace& space,
                            const EvalFn& eval) = 0;
};

class ExhaustiveSolver : public Solver {
 public:
  SolveResult solve(const AlternativeSpace& space, const EvalFn& eval) override;
};

struct HeuristicSolverConfig {
  std::size_t restarts = 4;
  std::size_t max_evaluations = 192;
  // Spaces up to this size are searched exhaustively.
  std::size_t exhaustive_threshold = 32;
};

class HeuristicSolver : public Solver {
 public:
  explicit HeuristicSolver(util::Rng rng, HeuristicSolverConfig config = {});

  SolveResult solve(const AlternativeSpace& space, const EvalFn& eval) override;

  // Copy the restart-sampling RNG from the same solver in another world so
  // a cloned client draws the identical climb schedule.
  void copy_state_from(const HeuristicSolver& src) { rng_ = src.rng_; }

 private:
  util::Rng rng_;
  HeuristicSolverConfig config_;

  // The memo table, hoisted into the solver so its slab is reused across
  // solves. Coordinates must pack into 63 bits (solve() requires it; every
  // application's space needs a handful).
  detail::PackedMemo memo_;
};

}  // namespace spectra::solver
