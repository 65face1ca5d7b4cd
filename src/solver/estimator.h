// Execution estimator (§3.6).
//
// Matches predicted demand against the availability snapshot to produce the
// user metrics of one candidate alternative. Following the paper's current
// implementation, computation and network transmission do not overlap, so
//
//   time = local CPU + remote CPU + network transmission
//        + cache-miss service + data-consistency (reintegration)
//
//   * CPU times divide predicted cycles by predicted cycles/second;
//   * network time divides predicted bytes by estimated bandwidth and adds
//     predicted RPC count × estimated round-trip time;
//   * cache-miss time sums (likelihood × size) over predicted files missing
//     from the executing machine's cache, divided by its Coda fetch rate;
//   * consistency time covers reintegrating every dirty volume containing a
//     file the operation is predicted to access (volume granularity, as
//     Coda reintegrates) before remote execution.
//
// Energy comes from the learned per-plan energy demand model.
#pragma once

#include <string>
#include <vector>

#include "monitor/types.h"
#include "predict/operation_model.h"
#include "solver/types.h"
#include "util/interner.h"

namespace spectra::solver {

struct DirtyFileInfo {
  util::Symbol path;
  util::Bytes size = 0.0;
  util::Symbol volume;
};

struct EstimatorInputs {
  const monitor::ResourceSnapshot* snapshot = nullptr;
  // The client's currently buffered modifications.
  std::vector<DirtyFileInfo> dirty_files;
  // Estimated bandwidth from the client to the file servers (used to price
  // reintegration).
  util::BytesPerSec fileserver_bandwidth = 0.0;
  // A dirty file whose predicted access likelihood reaches this threshold
  // forces reintegration of its volume ("non-zero access likelihood").
  double reintegration_threshold = 0.02;
};

// Decomposed time prediction (reported by benches and tests).
struct TimeBreakdown {
  Seconds local_cpu = 0.0;
  Seconds remote_cpu = 0.0;
  Seconds network = 0.0;
  Seconds cache_miss = 0.0;
  Seconds consistency = 0.0;
  Seconds total() const {
    return local_cpu + remote_cpu + network + cache_miss + consistency;
  }
};

class ExecutionEstimator {
 public:
  // Estimate the metrics of `alt` under `inputs` into `out`, which the
  // caller owns and may reuse across candidates. Returns false, leaving
  // `out` and `*breakdown` untouched, when the alternative is infeasible
  // (unreachable server, no status yet, no CPU availability information).
  bool estimate(const EstimatorInputs& inputs, const AlternativeSpace& space,
                const Alternative& alt, const predict::DemandEstimate& demand,
                UserMetrics& out,
                TimeBreakdown* breakdown = nullptr) const;
};

}  // namespace spectra::solver
