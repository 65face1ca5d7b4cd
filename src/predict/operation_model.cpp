#include "predict/operation_model.h"

namespace spectra::predict {

OperationModel::OperationModel(OperationModelConfig config)
    : cycles_(config.numeric, 2),
      transport_(config.numeric, 3),
      energy_(config.numeric),
      files_(config.file) {}

template <typename Usage>
void OperationModel::learn(const FeatureVector& f, const Usage& u,
                           const std::vector<fs::Access>& local,
                           const std::vector<fs::Access>& remote) {
  const double cycles[2] = {u.local_cycles, u.remote_cycles};
  cycles_.add(f, cycles);
  const double transport[3] = {u.bytes_sent, u.bytes_received,
                               static_cast<double>(u.rpcs)};
  transport_.add(f, transport);
  // Energy samples polluted by concurrent operations are skipped (§3.3.3).
  if (u.energy_valid) energy_.add(f, &u.energy);
  files_.add(f, local, remote);
  ++observations_;
}

void OperationModel::observe(const FeatureVector& f,
                             const monitor::OperationUsage& u) {
  learn(f, u, u.local_file_accesses, u.remote_file_accesses);
}

void OperationModel::replay(const FeatureSchema& schema,
                            const UsageRecord& r) {
  const FeatureVector f{
      to_slots(schema.discrete, r.discrete, r.operation, "discrete feature"),
      to_slots(schema.continuous, r.continuous, r.operation,
               "continuous feature"),
      r.data_tag};
  learn(f, r, r.file_accesses, {});
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
