// Alternatives, user metrics, and the search space (§3.6).
//
// An Alternative is one point in the space Spectra searches when an
// application calls begin_fidelity_op: an execution plan, a remote server
// choice (when the plan involves one), and a setting for every fidelity
// dimension. UserMetrics are what the utility function consumes — values
// perceptible to the user (execution time, energy drawn from the battery,
// fidelity), as opposed to raw resources.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "hw/machine.h"
#include "util/assert.h"
#include "util/units.h"

namespace spectra::solver {

using hw::MachineId;
using util::Joules;
using util::Seconds;

// One fidelity knob: a named dimension with the discrete values it may take
// (the paper's applications all use discrete fidelities; continuous knobs
// are expressed by enumerating the values of interest).
struct FidelityDimension {
  std::string name;
  std::vector<double> values;
};

// The names of an operation's fidelity dimensions, copied once, when the
// operation registers. Text lists a setting's values by name, in name
// order whatever the registration order.
class FidelityNames {
 public:
  FidelityNames() = default;
  explicit FidelityNames(const std::vector<FidelityDimension>& dims);

  // Calls visit(name, value) per dimension of `fidelity`, in name order.
  template <typename Visit>
  void for_each(const std::vector<double>& fidelity, Visit&& visit) const {
    SPECTRA_REQUIRE(fidelity.size() == names_.size(),
                    "fidelity setting does not match its dimensions");
    for (const std::size_t d : by_name_) visit(names_[d], fidelity[d]);
  }

 private:
  std::vector<std::string> names_;    // registration order
  std::vector<std::size_t> by_name_;  // dimension indices in name order
};

struct Alternative {
  int plan = 0;
  MachineId server = -1;  // -1 when the plan runs entirely locally
  std::vector<double> fidelity;  // one value per dimension, registration order

  bool operator==(const Alternative& o) const {
    return plan == o.plan && server == o.server && fidelity == o.fidelity;
  }
  // "plan=P server=S name=value ...", fidelity values in name order.
  std::string describe(const FidelityNames& names) const;
};

struct UserMetrics {
  Seconds time = 0.0;
  Joules energy = 0.0;
  bool has_energy = false;  // untrained energy model -> energy term neutral
  std::vector<double> fidelity;  // the alternative's, by dimension
};

// Description of one execution plan as registered by the application.
struct PlanInfo {
  std::string name;
  bool uses_remote = false;
};

struct AlternativeSpace {
  std::vector<PlanInfo> plans;
  std::vector<MachineId> servers;  // candidate remote servers
  std::vector<FidelityDimension> fidelities;

  // Every well-formed alternative: plans not using a remote server get
  // server = -1; plans using one get each candidate server in turn. A space
  // with remote plans but no servers yields only the local plans.
  std::vector<Alternative> enumerate() const;

  // Calls visit() on every alternative in enumerate() order, rewriting one
  // Alternative in place, so a visit allocates nothing. The reference is
  // valid only during the call.
  void for_each(const std::function<void(const Alternative&)>& visit) const;

  // Size of enumerate() without materializing it — the heuristic solver
  // consults this on every solve to pick exhaustive vs climbing search.
  std::size_t count() const;
};

// Evaluation callback: log-utility of an alternative (higher is better).
// Infeasible alternatives return -infinity (see kInfeasible).
using EvalFn = std::function<double(const Alternative&)>;

inline constexpr double kInfeasible = -1e300;

}  // namespace spectra::solver
