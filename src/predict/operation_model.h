// Per-operation demand model: the bundle of default predictors Spectra
// creates when an application calls register_fidelity (§3.4).
//
// Default predictors for every resource metric (local/remote CPU cycles,
// bytes sent/received, RPC count, client energy) plus a
// FileAccessPredictor. The execution plan and discrete fidelities arrive
// as discrete features, input parameters and continuous fidelities as
// continuous features, so every prediction is conditioned exactly the way
// the paper describes.
//
// The six metrics see the same features but arrive in three sample
// streams, and each stream is one multi-response NumericPredictor: cycles
// {local, remote} on every completed execution; transport {sent, received,
// RPCs} on every completed execution and every failed remote attempt; and
// energy, which skips samples a concurrent operation polluted. A metric's
// predictions equal those of a predictor of its own fed the same samples.
#pragma once

#include <string>
#include <vector>

#include "monitor/types.h"
#include "predict/features.h"
#include "predict/file_predictor.h"
#include "predict/numeric.h"
#include "predict/usage_log.h"

namespace spectra::predict {

// Predicted demand for one candidate execution alternative.
struct DemandEstimate {
  double local_cycles = 0.0;
  double remote_cycles = 0.0;
  double bytes_sent = 0.0;
  double bytes_received = 0.0;
  double rpcs = 0.0;
  double energy = 0.0;
  bool has_energy = false;
  std::vector<FilePrediction> files;
};

struct OperationModelConfig {
  NumericPredictorConfig numeric;
  FilePredictorConfig file;
};

class OperationModel {
 public:
  explicit OperationModel(OperationModelConfig config = {});

  // Update every predictor from one completed execution.
  void observe(const FeatureVector& features,
               const monitor::OperationUsage& usage);

  // Replay a logged record (model bootstrap at registration time), its
  // named features on the slots of `schema`, which must declare them all.
  void replay(const FeatureSchema& schema, const UsageRecord& record);

  // Learn transport demand from an exhausted remote call: the bytes and
  // RPC attempts were really spent against that server's features even
  // though the operation completed elsewhere, so only the network-demand
  // predictors see them. Cycle/energy/file predictors — and the
  // observations() count that gates exploration — are untouched, because a
  // failed attempt says nothing about compute demand.
  void observe_failure(const FeatureVector& features,
                       const monitor::OperationUsage& partial);

  // Predicted demand for `features`, written over every field of `out`
  // (its file list's storage is reused, so a caller-owned estimate refills
  // without allocating).
  void predict(const FeatureVector& features, DemandEstimate& out) const;

  // True once at least one execution has been observed.
  bool trained() const { return cycles_.trained(); }
  std::size_t observations() const { return observations_; }
  std::size_t failure_observations() const { return failure_observations_; }

 private:
  // One completed execution, from its measured usage or its logged record
  // (both name the fields alike), with its file accesses.
  template <typename Usage>
  void learn(const FeatureVector& f, const Usage& u,
             const std::vector<fs::Access>& local,
             const std::vector<fs::Access>& remote);

  NumericPredictor cycles_;     // {local, remote}
  NumericPredictor transport_;  // {bytes sent, bytes received, RPCs}
  NumericPredictor energy_;
  FileAccessPredictor files_;
  std::size_t observations_ = 0;
  std::size_t failure_observations_ = 0;
};

}  // namespace spectra::predict
