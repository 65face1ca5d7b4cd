#include "solver/types.h"

#include <algorithm>
#include <sstream>

#include "util/assert.h"

namespace spectra::solver {

std::string Alternative::describe(const FidelityNames& names) const {
  std::ostringstream os;
  os << "plan=" << plan;
  if (server >= 0) os << " server=" << server;
  names.for_each(fidelity, [&os](std::string_view name, double v) {
    os << ' ' << name << '=' << v;
  });
  return os.str();
}

FidelityNames::FidelityNames(const std::vector<FidelityDimension>& dims) {
  for (std::size_t d = 0; d < dims.size(); ++d) {
    names_.emplace_back(dims[d].name);
    by_name_.push_back(d);
  }
  std::stable_sort(by_name_.begin(), by_name_.end(),
                   [this](std::size_t a, std::size_t b) {
                     return names_[a] < names_[b];
                   });
}

std::size_t AlternativeSpace::count() const {
  SPECTRA_REQUIRE(!plans.empty(), "alternative space needs at least one plan");
  std::size_t fid_combos = 1;
  for (const auto& dim : fidelities) {
    SPECTRA_REQUIRE(!dim.values.empty(),
                    "fidelity dimension has no values: " + dim.name);
    fid_combos *= dim.values.size();
  }
  std::size_t plan_slots = 0;
  for (const auto& p : plans) {
    plan_slots += p.uses_remote ? servers.size() : 1;
  }
  return plan_slots * fid_combos;
}

std::vector<Alternative> AlternativeSpace::enumerate() const {
  std::vector<Alternative> out;
  for_each([&out](const Alternative& alt) { out.push_back(alt); });
  return out;
}

void AlternativeSpace::for_each(
    const std::function<void(const Alternative&)>& visit) const {
  SPECTRA_REQUIRE(!plans.empty(), "alternative space needs at least one plan");
  for (const auto& dim : fidelities) {
    SPECTRA_REQUIRE(!dim.values.empty(),
                    "fidelity dimension has no values: " + dim.name);
  }
  Alternative alt;
  alt.fidelity.resize(fidelities.size());
  std::vector<std::size_t> at(fidelities.size());
  // Cartesian product over the fidelity dimensions, the last one varying
  // fastest.
  const auto sweep = [&] {
    std::fill(at.begin(), at.end(), 0);
    for (;;) {
      for (std::size_t d = 0; d < fidelities.size(); ++d) {
        alt.fidelity[d] = fidelities[d].values[at[d]];
      }
      visit(alt);
      std::size_t d = fidelities.size();
      while (d > 0 && ++at[d - 1] == fidelities[d - 1].values.size()) {
        at[--d] = 0;
      }
      if (d == 0) return;
    }
  };
  for (int p = 0; p < static_cast<int>(plans.size()); ++p) {
    alt.plan = p;
    if (plans[p].uses_remote) {
      for (MachineId s : servers) {
        alt.server = s;
        sweep();
      }
    } else {
      alt.server = -1;
      sweep();
    }
  }
}

}  // namespace spectra::solver
