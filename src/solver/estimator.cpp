#include "solver/estimator.h"

#include <algorithm>
#include <unordered_set>

#include "util/assert.h"

namespace spectra::solver {

bool ExecutionEstimator::estimate(const EstimatorInputs& inputs,
                                  const AlternativeSpace& space,
                                  const Alternative& alt,
                                  const predict::DemandEstimate& demand,
                                  UserMetrics& out,
                                  TimeBreakdown* breakdown) const {
  SPECTRA_REQUIRE(inputs.snapshot != nullptr, "estimator needs a snapshot");
  SPECTRA_REQUIRE(alt.plan >= 0 &&
                      alt.plan < static_cast<int>(space.plans.size()),
                  "plan index out of range");
  const monitor::ResourceSnapshot& snap = *inputs.snapshot;
  const bool remote = space.plans[alt.plan].uses_remote;

  const monitor::ServerAvailability* server = nullptr;
  if (remote) {
    auto it = snap.servers.find(alt.server);
    if (it == snap.servers.end()) return false;
    server = &it->second;
    // Unreachable or never-polled servers cannot be priced.
    if (!server->reachable || server->cpu_hz <= 0.0) return false;
  }

  TimeBreakdown tb;

  // CPU.
  if (snap.local_cpu_hz <= 0.0) return false;
  tb.local_cpu = demand.local_cycles / snap.local_cpu_hz;
  if (remote) tb.remote_cpu = demand.remote_cycles / server->cpu_hz;

  // Network.
  if (remote) {
    if (server->bandwidth <= 0.0) return false;
    tb.network = (demand.bytes_sent + demand.bytes_received) /
                     server->bandwidth +
                 demand.rpcs * 2.0 * server->latency;
  }

  // Cache misses, charged against the cache of the machine that will read
  // the files (the remote server for remote/hybrid plans, the client for
  // local plans).
  const auto& cache = remote ? (server->cached_files
                                    ? *server->cached_files
                                    : monitor::empty_cached_file_view())
                             : (snap.local_cached_files
                                    ? *snap.local_cached_files
                                    : monitor::empty_cached_file_view());
  const double fetch_rate =
      remote ? server->fetch_rate : snap.local_fetch_rate;
  util::Bytes expected_fetch = 0.0;
  for (const auto& fp : demand.files) {
    if (cache.count(fp.path) > 0) continue;
    expected_fetch += fp.likelihood * fp.size;
  }
  if (expected_fetch > 0.0) {
    if (fetch_rate <= 0.0) return false;
    tb.cache_miss = expected_fetch / fetch_rate;
  }

  // Data consistency: before remote execution, every dirty volume holding a
  // file with non-zero predicted access likelihood must be reintegrated.
  if (remote && !inputs.dirty_files.empty()) {
    // Build the likelihood-thresholded set of predicted paths once, then
    // probe it per dirty file. The old code rescanned the whole prediction
    // list for every dirty file: O(|files| x |dirty|) string compares.
    std::unordered_set<util::Symbol> predicted;
    predicted.reserve(demand.files.size());
    for (const auto& fp : demand.files) {
      if (fp.likelihood >= inputs.reintegration_threshold) {
        predicted.insert(fp.path);
      }
    }
    // Dirty volumes holding a predicted file — a handful at most, so a flat
    // vector beats a node-based set.
    std::vector<util::Symbol> volumes;
    for (const auto& df : inputs.dirty_files) {
      if (predicted.count(df.path) == 0) continue;
      if (std::find(volumes.begin(), volumes.end(), df.volume) ==
          volumes.end()) {
        volumes.push_back(df.volume);
      }
    }
    util::Bytes reint_bytes = 0.0;  // summed in dirty-file order, as before
    for (const auto& df : inputs.dirty_files) {
      if (std::find(volumes.begin(), volumes.end(), df.volume) !=
          volumes.end()) {
        reint_bytes += df.size;
      }
    }
    if (reint_bytes > 0.0) {
      if (inputs.fileserver_bandwidth <= 0.0) return false;
      tb.consistency = reint_bytes / inputs.fileserver_bandwidth;
    }
  }

  if (breakdown != nullptr) *breakdown = tb;

  out.time = tb.total();
  out.energy = demand.energy;
  out.has_energy = demand.has_energy;
  out.fidelity = alt.fidelity;
  return true;
}

}  // namespace spectra::solver
