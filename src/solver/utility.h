// Utility functions (§3.6).
//
// The default utility multiplies three weighted terms:
//
//   utility = latency_desirability(T) · (1/E)^(k·c) · fidelity_desirability(F)
//
// where T is predicted execution time, E predicted energy, c the current
// importance of energy conservation from goal-directed adaptation, k a
// constant (10 in the paper), and F the fidelity vector. Applications supply
// the latency and fidelity desirability functions; everything else is
// default. Because (1/E)^(k·c) underflows IEEE doubles for joule-scale E at
// k=10, all arithmetic is done in log space — argmax is unchanged.
//
// Applications may replace the whole function by deriving from
// UtilityFunction (the paper's override hook).
#pragma once

#include <functional>
#include <memory>

#include "solver/types.h"

namespace spectra::solver {

// Additive decomposition of a log-utility value, for explain records:
// total = latency + fidelity + energy (log space, so the paper's product
// of terms becomes a sum).
struct UtilityTerms {
  double latency = 0.0;   // log latency_desirability(T)
  double energy = 0.0;    // log (1/E)^(k·c) = -k·c·log(E)
  double fidelity = 0.0;  // log fidelity_desirability(F)
  bool feasible = true;
  // In DefaultUtility's order of summation: total() == log_utility().
  double total() const { return latency + fidelity + energy; }
};

class UtilityFunction {
 public:
  virtual ~UtilityFunction() = default;

  // Natural log of the utility of an alternative achieving `metrics` given
  // energy-conservation importance `c`. Must return kInfeasible for
  // zero-utility outcomes.
  virtual double log_utility(const UserMetrics& metrics, double c) const = 0;

  // Per-term breakdown of log_utility. The base implementation cannot see
  // inside an arbitrary utility, so it reports the whole value as the
  // latency term; DefaultUtility overrides with the exact decomposition.
  // Invariant either way: terms.total() == log_utility(metrics, c) for
  // feasible alternatives.
  virtual UtilityTerms log_utility_terms(const UserMetrics& metrics,
                                         double c) const;

  // Convenience: utility in linear space (may underflow to 0; use only for
  // reporting, never for comparison).
  double utility(const UserMetrics& metrics, double c) const;
};

// Desirability of an execution time; must be >= 0. E.g. the paper's 1/T.
using LatencyFn = std::function<double(Seconds)>;
// Desirability of a fidelity setting (values by dimension); must be >= 0.
using FidelityFn = std::function<double(const std::vector<double>&)>;

struct DefaultUtilityConfig {
  double energy_k = 10.0;  // the paper's constant k
  // Guard against log(0) from degenerate predictions.
  Seconds min_time = 1e-6;
  Joules min_energy = 1e-6;
};

class DefaultUtility : public UtilityFunction {
 public:
  DefaultUtility(LatencyFn latency_fn, FidelityFn fidelity_fn,
                 DefaultUtilityConfig config = {});

  double log_utility(const UserMetrics& metrics, double c) const override;
  UtilityTerms log_utility_terms(const UserMetrics& metrics,
                                 double c) const override;

 private:
  LatencyFn latency_fn_;
  FidelityFn fidelity_fn_;
  DefaultUtilityConfig config_;
};

// Standard latency desirability shapes used by the paper's applications.
LatencyFn inverse_latency();  // 1/T (Janus, Latex)
// 1 below t_lo, 0 above t_hi, linear in between (Pangloss-Lite; the paper's
// formula is used in its clearly-intended descending orientation).
LatencyFn deadline_latency(Seconds t_lo, Seconds t_hi);

}  // namespace spectra::solver
