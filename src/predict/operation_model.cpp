#include "predict/operation_model.h"

namespace spectra::predict {

OperationModel::OperationModel(OperationModelConfig config)
    : local_cycles_(config.numeric),
      remote_cycles_(config.numeric),
      bytes_sent_(config.numeric),
      bytes_received_(config.numeric),
      rpcs_(config.numeric),
      energy_(config.numeric),
      files_(config.file) {}

void OperationModel::observe(const FeatureVector& f,
                             const monitor::OperationUsage& usage) {
  UsageRecord r = UsageRecord::from_usage("", f, usage);
  replay(r);
}

void OperationModel::replay(const UsageRecord& r) {
  local_cycles_.add(r.features, r.local_cycles);
  remote_cycles_.add(r.features, r.remote_cycles);
  bytes_sent_.add(r.features, r.bytes_sent);
  bytes_received_.add(r.features, r.bytes_received);
  rpcs_.add(r.features, r.rpcs);
  // Energy samples polluted by concurrent operations are skipped (§3.3.3).
  if (r.energy_valid) energy_.add(r.features, r.energy);
  files_.add(r.features, r.file_accesses);
  ++observations_;
}

void OperationModel::observe_failure(const FeatureVector& f,
                                     const monitor::OperationUsage& partial) {
  bytes_sent_.add(f, partial.bytes_sent);
  bytes_received_.add(f, partial.bytes_received);
  rpcs_.add(f, partial.rpcs);
  ++failure_observations_;
}

void OperationModel::predict(const FeatureVector& f,
                             DemandEstimate& e) const {
  const auto metric = [&f](const NumericPredictor& p) {
    return p.trained() ? p.predict(f) : 0.0;
  };
  e.local_cycles = metric(local_cycles_);
  e.remote_cycles = metric(remote_cycles_);
  e.bytes_sent = metric(bytes_sent_);
  e.bytes_received = metric(bytes_received_);
  e.rpcs = metric(rpcs_);
  e.energy = metric(energy_);
  e.has_energy = energy_.trained();
  files_.predict(f, e.files);
}

}  // namespace spectra::predict
