#include "monitor/network_monitor.h"

#include <algorithm>

namespace spectra::monitor {

NetworkMonitor::NetworkMonitor(sim::Engine& engine, net::Network& network,
                               MachineId self, NetworkMonitorConfig config)
    : engine_(engine), network_(network), self_(self), config_(config) {
  refresher_ =
      engine_.schedule_periodic(config_.refresh_period, [this] { refresh(); },
                                "network.refresh");
}

NetworkMonitor::~NetworkMonitor() { engine_.cancel(refresher_); }

NetworkMonitor::PeerEstimate& NetworkMonitor::peer(MachineId id) {
  auto it = peers_.find(id);
  if (it == peers_.end()) {
    it = peers_.emplace(id, PeerEstimate(config_.smoothing_alpha)).first;
  }
  return it->second;
}

void NetworkMonitor::attach(obs::Observability* obs) {
  if (obs == nullptr) {
    refreshes_metric_ = nullptr;
    ingested_metric_ = nullptr;
    return;
  }
  refreshes_metric_ = &obs->metrics().counter("monitor.network.refreshes");
  ingested_metric_ = &obs->metrics().counter("monitor.network.ingested");
}

void NetworkMonitor::refresh() {
  if (refreshes_metric_ != nullptr) refreshes_metric_->add();
  const auto transfers = network_.recent_transfers(
      self_, config_.observation_window, seen_id_);
  seen_id_ = network_.total_transfers();
  for (const auto& t : transfers) {
    const MachineId other = (t.from == self_) ? t.to : t.from;
    PeerEstimate& est = peer(other);
    if (ingested_metric_ != nullptr) ingested_metric_->add();
    if (t.bytes <= config_.small_transfer_max) {
      // Short exchange: duration ~ one-way latency + negligible payload.
      est.latency.add(t.duration);
    }
    if (t.bytes >= config_.bulk_transfer_min && t.duration > 0.0) {
      const Seconds lat =
          est.latency.empty() ? config_.default_latency : est.latency.value();
      const Seconds payload_time = std::max(t.duration - lat, 1e-6);
      est.bandwidth.add(t.bytes / payload_time);
      // Any bulk transfer also samples the machine's first-hop bandwidth.
      machine_bw_.add(t.bytes / payload_time);
    }
  }
}

util::BytesPerSec NetworkMonitor::machine_bandwidth_estimate() const {
  return machine_bw_.empty() ? 0.0 : machine_bw_.value();
}

BytesPerSec NetworkMonitor::bandwidth_estimate(MachineId id) const {
  auto it = peers_.find(id);
  if (it != peers_.end() && !it->second.bandwidth.empty()) {
    return it->second.bandwidth.value();
  }
  // First-hop-bottleneck apportioning: unobserved peers inherit the
  // whole-machine estimate.
  if (!machine_bw_.empty()) return machine_bw_.value();
  return config_.default_bandwidth;
}

Seconds NetworkMonitor::latency_estimate(MachineId id) const {
  auto it = peers_.find(id);
  if (it == peers_.end() || it->second.latency.empty()) {
    return config_.default_latency;
  }
  return it->second.latency.value();
}

void NetworkMonitor::predict_avail(ResourceSnapshot& snapshot) {
  refresh();
  for (auto& [id, sa] : snapshot.servers) {
    sa.reachable = network_.reachable(self_, id);
    sa.bandwidth = bandwidth_estimate(id);
    sa.latency = latency_estimate(id);
  }
}

void NetworkMonitor::start_op() {
  op_bytes_sent_ = 0.0;
  op_bytes_received_ = 0.0;
  op_rpcs_ = 0;
}

void NetworkMonitor::note_call(const rpc::CallStats& stats) {
  op_bytes_sent_ += stats.bytes_sent;
  op_bytes_received_ += stats.bytes_received;
  op_rpcs_ += stats.rpcs;
}

void NetworkMonitor::stop_op(OperationUsage& usage) {
  usage.bytes_sent = op_bytes_sent_;
  usage.bytes_received = op_bytes_received_;
  usage.rpcs = op_rpcs_;
}

void NetworkMonitor::copy_state_from(const ResourceMonitor& src) {
  const auto* other = dynamic_cast<const NetworkMonitor*>(&src);
  SPECTRA_REQUIRE(other != nullptr, "monitor type mismatch in copy_state_from");
  peers_ = other->peers_;
  machine_bw_ = other->machine_bw_;
  seen_id_ = other->seen_id_;
  op_bytes_sent_ = other->op_bytes_sent_;
  op_bytes_received_ = other->op_bytes_received_;
  op_rpcs_ = other->op_rpcs_;
}

}  // namespace spectra::monitor
