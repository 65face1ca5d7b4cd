#include "solver/solver.h"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "util/assert.h"

namespace spectra::solver::detail {

void PackedMemo::reset(std::size_t expected) {
  // Size for ~50% peak load so probes stay short; never shrink, so a solver
  // that has seen a large space keeps its capacity for the next solve.
  std::size_t cap = 64;
  while (cap < expected * 2) cap <<= 1;
  if (slots_.size() < cap) {
    slots_.assign(cap, Slot{});
  } else {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    cap = slots_.size();
  }
  mask_ = cap - 1;
  size_ = 0;
}

const double* PackedMemo::find(std::uint64_t key) const {
  std::size_t i = bucket(key);
  while (slots_[i].key != 0) {
    if (slots_[i].key == key) return &slots_[i].value;
    i = (i + 1) & mask_;
  }
  return nullptr;
}

void PackedMemo::insert(std::uint64_t key, double value) {
  if ((size_ + 1) * 10 > slots_.size() * 7) grow();
  std::size_t i = bucket(key);
  while (slots_[i].key != 0) {
    if (slots_[i].key == key) {
      slots_[i].value = value;
      return;
    }
    i = (i + 1) & mask_;
  }
  slots_[i] = Slot{key, value};
  ++size_;
}

void PackedMemo::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  mask_ = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.key == 0) continue;
    std::size_t i = bucket(s.key);
    while (slots_[i].key != 0) i = (i + 1) & mask_;
    slots_[i] = s;
  }
}

}  // namespace spectra::solver::detail

namespace spectra::solver {

SolveResult ExhaustiveSolver::solve(const AlternativeSpace& space,
                                    const EvalFn& eval) {
  SolveResult result;
  space.for_each([&](const Alternative& alt) {
    const double lu = eval(alt);
    ++result.evaluations;
    if (lu > result.log_utility || !result.found) {
      if (lu > kInfeasible) {
        result.found = true;
        result.best = alt;
        result.log_utility = lu;
      }
    }
  });
  return result;
}

namespace {

// Coordinate representation of an alternative for neighbourhood moves:
// [plan, server_idx, fid_0, fid_1, ...]. Local-only plans pin server_idx
// to -1.
struct Coords {
  int plan = 0;
  int server_idx = -1;  // index into space.servers, -1 for local plans
  std::vector<int> fid;
};

// Packs coordinates into one uint64 memo key using per-dimension bit
// widths. A tag bit above the payload keeps every packed key non-zero
// (PackedMemo uses 0 for empty slots) and makes keys of the same space
// prefix-free.
class KeyPacker {
 public:
  explicit KeyPacker(const AlternativeSpace& space) {
    plan_bits_ = width(space.plans.size());
    server_bits_ = width(space.servers.size() + 1);  // slot 0 encodes -1
    unsigned total = plan_bits_ + server_bits_;
    fid_bits_.reserve(space.fidelities.size());
    for (const auto& dim : space.fidelities) {
      fid_bits_.push_back(width(dim.values.size()));
      total += fid_bits_.back();
    }
    SPECTRA_REQUIRE(total <= 63,
                    "alternative space too wide for the solver's memo: " +
                        std::to_string(total) + " coordinate bits > 63");
  }

  std::uint64_t pack(const Coords& c) const {
    std::uint64_t key = 1;  // tag bit
    key = (key << plan_bits_) | static_cast<std::uint64_t>(c.plan);
    key = (key << server_bits_) |
          static_cast<std::uint64_t>(c.server_idx + 1);
    for (std::size_t i = 0; i < fid_bits_.size(); ++i) {
      key = (key << fid_bits_[i]) | static_cast<std::uint64_t>(c.fid[i]);
    }
    return key;
  }

 private:
  // Bits needed for values 0..n-1 (0 bits when the dimension is a point).
  static unsigned width(std::size_t n) {
    return n <= 1 ? 0u : static_cast<unsigned>(std::bit_width(n - 1));
  }

  unsigned plan_bits_ = 0;
  unsigned server_bits_ = 0;
  std::vector<unsigned> fid_bits_;
};

}  // namespace

HeuristicSolver::HeuristicSolver(util::Rng rng, HeuristicSolverConfig config)
    : rng_(rng), config_(config) {
  SPECTRA_REQUIRE(config_.restarts >= 1, "need at least one restart");
  SPECTRA_REQUIRE(config_.max_evaluations >= 1, "need an evaluation budget");
}

SolveResult HeuristicSolver::solve(const AlternativeSpace& space,
                                   const EvalFn& eval) {
  if (space.count() <= config_.exhaustive_threshold) {
    ExhaustiveSolver exhaustive;
    return exhaustive.solve(space, eval);
  }

  SolveResult result;
  const KeyPacker packer(space);
  memo_.reset(config_.max_evaluations);
  // One candidate per solve, rewritten in place for every evaluation.
  Alternative candidate;
  candidate.fidelity.resize(space.fidelities.size());

  auto evaluate = [&](const Coords& c) {
    const std::uint64_t key = packer.pack(c);
    if (const double* hit = memo_.find(key)) {
      ++result.memo_hits;
      return *hit;
    }
    candidate.plan = c.plan;
    candidate.server = c.server_idx >= 0 ? space.servers[c.server_idx] : -1;
    for (std::size_t i = 0; i < candidate.fidelity.size(); ++i) {
      candidate.fidelity[i] = space.fidelities[i].values[c.fid[i]];
    }
    const double lu = eval(candidate);
    ++result.evaluations;
    memo_.insert(key, lu);
    if (lu > kInfeasible && (lu > result.log_utility || !result.found)) {
      result.found = true;
      result.best = candidate;
      result.log_utility = lu;
    }
    return lu;
  };
  // Scratch coordinates reused across the whole solve: copying into them
  // reuses the fid vector's capacity, so the climb allocates nothing.
  Coords current;
  Coords best_neighbour;
  Coords scratch;

  auto random_coords = [&](Coords& c) {
    c.plan = static_cast<int>(
        rng_.uniform_int(0, static_cast<int>(space.plans.size()) - 1));
    c.server_idx =
        space.plans[c.plan].uses_remote && !space.servers.empty()
            ? static_cast<int>(rng_.uniform_int(
                  0, static_cast<int>(space.servers.size()) - 1))
            : -1;
    c.fid.clear();
    for (const auto& dim : space.fidelities) {
      c.fid.push_back(static_cast<int>(
          rng_.uniform_int(0, static_cast<int>(dim.values.size()) - 1)));
    }
  };

  for (std::size_t r = 0; r < config_.restarts; ++r) {
    random_coords(current);
    double current_lu = evaluate(current);
    bool improved = true;
    while (improved && result.evaluations < config_.max_evaluations) {
      improved = false;
      best_neighbour = current;
      double best_lu = current_lu;

      // The sweep generates neighbours in place, in the same order the old
      // materialized neighbours() list did: plan moves (re-randomizing the
      // server slot for remote plans), then server moves within the current
      // plan, then one step along each fidelity dimension.
      auto consider = [&](const Coords& n) {
        if (result.evaluations >= config_.max_evaluations) return;
        const double lu = evaluate(n);
        if (lu > best_lu) {
          best_lu = lu;
          best_neighbour = n;
        }
      };

      for (int p = 0; p < static_cast<int>(space.plans.size()); ++p) {
        if (p == current.plan) continue;
        scratch = current;
        scratch.plan = p;
        if (!space.plans[p].uses_remote) {
          scratch.server_idx = -1;
          consider(scratch);
        } else if (!space.servers.empty()) {
          for (int s = 0; s < static_cast<int>(space.servers.size()); ++s) {
            scratch.server_idx = s;
            consider(scratch);
          }
        }
      }
      if (space.plans[current.plan].uses_remote) {
        for (int s = 0; s < static_cast<int>(space.servers.size()); ++s) {
          if (s == current.server_idx) continue;
          scratch = current;
          scratch.server_idx = s;
          consider(scratch);
        }
      }
      for (std::size_t d = 0; d < space.fidelities.size(); ++d) {
        for (int delta : {-1, +1}) {
          const int v = current.fid[d] + delta;
          if (v < 0 ||
              v >= static_cast<int>(space.fidelities[d].values.size())) {
            continue;
          }
          scratch = current;
          scratch.fid[d] = v;
          consider(scratch);
        }
      }

      if (best_lu > current_lu) {
        current = best_neighbour;
        current_lu = best_lu;
        improved = true;
      }
    }
    if (result.evaluations >= config_.max_evaluations) break;
  }
  return result;
}

}  // namespace spectra::solver
