// Network monitor (§3.3.2).
//
// Predictions come from *passive observation* of communication, never from
// the simulator's ground-truth link parameters. The RPC package (and Coda)
// move bytes through net::Network, which logs every transfer; this monitor
// periodically examines the recent log. Short exchanges approximate round
// trip time; bulk transfers approximate throughput (after subtracting the
// latency estimate). Estimates are kept per peer, smoothed with a recency-
// weighted average, and fall back to configured priors for peers with no
// observations yet.
//
// Usage: counts the bytes sent/received and RPCs performed by the current
// operation — trivial to observe because all client-server communication
// passes through Spectra (the client reports these via note_call).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "monitor/monitor.h"
#include "net/network.h"
#include "obs/obs.h"
#include "sim/engine.h"
#include "util/stats.h"

namespace spectra::monitor {

struct NetworkMonitorConfig {
  Seconds observation_window = 30.0;  // how far back to examine the log
  Seconds refresh_period = 2.0;       // how often to examine it
  Bytes small_transfer_max = 1024.0;  // "short exchange" threshold
  Bytes bulk_transfer_min = 4096.0;   // "bulk transfer" threshold
  double smoothing_alpha = 0.5;
  // Priors used before the first observation of a peer.
  BytesPerSec default_bandwidth = 64.0 * 1024;
  Seconds default_latency = 0.01;
};

class NetworkMonitor : public ResourceMonitor {
 public:
  NetworkMonitor(sim::Engine& engine, net::Network& network, MachineId self,
                 NetworkMonitorConfig config = {});
  ~NetworkMonitor() override;

  const std::string& name() const override { return name_; }

  void predict_avail(ResourceSnapshot& snapshot) override;
  void start_op() override;
  void stop_op(OperationUsage& usage) override;
  void copy_state_from(const ResourceMonitor& src) override;

  // Called by the Spectra client for every RPC the operation performs.
  void note_call(const rpc::CallStats& stats);

  // Register refresh/ingest counters with `obs` (null detaches). Counter
  // handles are cached here, so refresh() stays name-lookup-free.
  void attach(obs::Observability* obs);

  // Current estimates for a peer (tests/telemetry). A peer with no bulk
  // history inherits the whole-machine estimate: the paper's monitor first
  // determines "the instantaneous bandwidth available to the entire
  // machine" and then apportions it per server "assuming that the first
  // hop is the bottleneck link" — so any observed traffic informs
  // estimates for servers not yet talked to.
  BytesPerSec bandwidth_estimate(MachineId peer) const;
  Seconds latency_estimate(MachineId peer) const;

  // Whole-machine bandwidth estimate (0 when nothing observed yet).
  BytesPerSec machine_bandwidth_estimate() const;

 private:
  struct PeerEstimate {
    util::Ewma bandwidth;
    util::Ewma latency;
    PeerEstimate(double alpha) : bandwidth(alpha), latency(alpha) {}
  };

  void refresh();
  PeerEstimate& peer(MachineId id);

  std::string name_ = "network";
  sim::Engine& engine_;
  net::Network& network_;
  MachineId self_;
  NetworkMonitorConfig config_;
  std::map<MachineId, PeerEstimate> peers_;
  util::Ewma machine_bw_{0.5};  // first-hop estimate from all bulk traffic
  // Newest transfer id examined: each refresh reads only later records.
  // Exact, because an examined record was either ingested or already
  // outside the window, and the window's cutoff only moves forward. Keyed
  // on the unique id, not the start time: distinct transfers can start at
  // the same virtual tick (fast link, sub-ulp durations).
  std::uint64_t seen_id_ = 0;
  sim::EventId refresher_ = 0;

  // Cached metric handles; null when no Observability is attached.
  obs::Counter* refreshes_metric_ = nullptr;
  obs::Counter* ingested_metric_ = nullptr;

  // Per-operation accounting.
  Bytes op_bytes_sent_ = 0.0;
  Bytes op_bytes_received_ = 0.0;
  int op_rpcs_ = 0;
};

}  // namespace spectra::monitor
