#include "predict/operation_model.h"

namespace spectra::predict {

OperationModel::OperationModel(OperationModelConfig config)
    : cycles_(config.numeric, 2),
      transport_(config.numeric, 3),
      energy_(config.numeric),
      files_(config.file) {}

void OperationModel::observe(const FeatureVector& f,
                             const monitor::OperationUsage& usage) {
  UsageRecord r = UsageRecord::from_usage("", f, usage);
  replay(r);
}

void OperationModel::replay(const UsageRecord& r) {
  const double cycles[2] = {r.local_cycles, r.remote_cycles};
  cycles_.add(r.features, cycles);
  const double transport[3] = {r.bytes_sent, r.bytes_received, r.rpcs};
  transport_.add(r.features, transport);
  // Energy samples polluted by concurrent operations are skipped (§3.3.3).
  if (r.energy_valid) energy_.add(r.features, &r.energy);
  files_.add(r.features, r.file_accesses);
  ++observations_;
}

void OperationModel::observe_failure(const FeatureVector& f,
                                     const monitor::OperationUsage& partial) {
  const double transport[3] = {partial.bytes_sent, partial.bytes_received,
                               static_cast<double>(partial.rpcs)};
  transport_.add(f, transport);
  ++failure_observations_;
}

void OperationModel::predict(const FeatureVector& f,
                             DemandEstimate& e) const {
  double cycles[2] = {0.0, 0.0};
  if (cycles_.trained()) cycles_.predict(f, cycles);
  double transport[3] = {0.0, 0.0, 0.0};
  if (transport_.trained()) transport_.predict(f, transport);
  e.local_cycles = cycles[0];
  e.remote_cycles = cycles[1];
  e.bytes_sent = transport[0];
  e.bytes_received = transport[1];
  e.rpcs = transport[2];
  e.energy = 0.0;
  if (energy_.trained()) energy_.predict(f, &e.energy);
  e.has_energy = energy_.trained();
  files_.predict(f, e.files);
}

}  // namespace spectra::predict
