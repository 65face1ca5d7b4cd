#include "solver/utility.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace spectra::solver {

double UtilityFunction::utility(const UserMetrics& metrics, double c) const {
  const double lu = log_utility(metrics, c);
  return lu <= kInfeasible ? 0.0 : std::exp(lu);
}

UtilityTerms UtilityFunction::log_utility_terms(const UserMetrics& metrics,
                                                double c) const {
  UtilityTerms terms;
  const double lu = log_utility(metrics, c);
  if (lu <= kInfeasible) {
    terms.feasible = false;
    return terms;
  }
  terms.latency = lu;
  return terms;
}

DefaultUtility::DefaultUtility(LatencyFn latency_fn, FidelityFn fidelity_fn,
                               DefaultUtilityConfig config)
    : latency_fn_(std::move(latency_fn)),
      fidelity_fn_(std::move(fidelity_fn)),
      config_(config) {
  SPECTRA_REQUIRE(latency_fn_ != nullptr, "latency function required");
  SPECTRA_REQUIRE(fidelity_fn_ != nullptr, "fidelity function required");
}

double DefaultUtility::log_utility(const UserMetrics& metrics,
                                   double c) const {
  const UtilityTerms terms = DefaultUtility::log_utility_terms(metrics, c);
  return terms.feasible ? terms.total() : kInfeasible;
}

UtilityTerms DefaultUtility::log_utility_terms(const UserMetrics& metrics,
                                               double c) const {
  SPECTRA_REQUIRE(c >= 0.0 && c <= 1.0, "energy importance must be in [0,1]");
  UtilityTerms terms;
  const double lat = latency_fn_(std::max(metrics.time, config_.min_time));
  const double fid = fidelity_fn_(metrics.fidelity);
  SPECTRA_REQUIRE(lat >= 0.0, "latency desirability must be >= 0");
  SPECTRA_REQUIRE(fid >= 0.0, "fidelity desirability must be >= 0");
  if (lat <= 0.0 || fid <= 0.0) {
    terms.feasible = false;
    return terms;
  }
  terms.latency = std::log(lat);
  terms.fidelity = std::log(fid);
  if (metrics.has_energy && c > 0.0) {
    const double e = std::max(metrics.energy, config_.min_energy);
    // log((1/E)^(k c)) = -k·c·log(E)
    terms.energy = -config_.energy_k * c * std::log(e);
  }
  return terms;
}

LatencyFn inverse_latency() {
  return [](Seconds t) { return 1.0 / t; };
}

LatencyFn deadline_latency(Seconds t_lo, Seconds t_hi) {
  SPECTRA_REQUIRE(t_lo >= 0.0 && t_hi > t_lo, "need 0 <= t_lo < t_hi");
  return [t_lo, t_hi](Seconds t) {
    if (t <= t_lo) return 1.0;
    if (t >= t_hi) return 0.0;
    return 1.0 - (t - t_lo) / (t_hi - t_lo);
  };
}

}  // namespace spectra::solver
