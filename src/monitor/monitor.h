// ResourceMonitor interface and the MonitorSet container.
//
// Monitors follow the paper's modular framework (§3.3): each measures one
// resource or a set of related resources and implements a common interface —
// predict_avail to fill a snapshot, start_op/stop_op to observe an
// operation's usage, add_usage to account server-reported consumption, and
// update_preds to ingest polled server status (remote proxies only).
// Adding measurement capability for a new resource means adding one class.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "monitor/types.h"
#include "rpc/rpc.h"

namespace spectra::monitor {

class ResourceMonitor {
 public:
  virtual ~ResourceMonitor() = default;

  virtual const std::string& name() const = 0;

  // Fill in the snapshot fields this monitor is responsible for. The
  // snapshot's `servers` map is pre-populated with candidate entries.
  virtual void predict_avail(ResourceSnapshot& snapshot) = 0;

  // Bracket one operation's execution.
  virtual void start_op() {}
  virtual void stop_op(OperationUsage& usage) { (void)usage; }

  // Account resource consumption reported by a Spectra server as part of an
  // RPC response (§3.3.5).
  virtual void add_usage(MachineId server, const rpc::UsageReport& report,
                         OperationUsage& usage) {
    (void)server;
    (void)report;
    (void)usage;
  }

  // Ingest a polled server status report (remote proxy monitors).
  virtual void update_preds(const ServerStatusReport& report) {
    (void)report;
  }

  // Copy learned estimates and per-op accounting from the same-type monitor
  // in another world (used when cloning a trained world). `src` must be the
  // same concrete type; implementations verify via dynamic_cast.
  virtual void copy_state_from(const ResourceMonitor& src) = 0;
};

// The set of monitors installed on a Spectra client. Dispatch helpers fan
// each framework call out to every monitor.
class MonitorSet {
 public:
  // Install `monitor`; returns its slot, the index of its entry in
  // last_predict_wall_times().
  std::size_t add(std::unique_ptr<ResourceMonitor> monitor);

  // Build a snapshot covering `candidates` (remote server machine ids).
  ResourceSnapshot build_snapshot(const std::vector<MachineId>& candidates,
                                  Seconds now);

  void start_op();
  void stop_op(OperationUsage& usage);
  void add_usage(MachineId server, const rpc::UsageReport& report,
                 OperationUsage& usage);
  void update_preds(const ServerStatusReport& report);

  std::size_t size() const { return monitors_.size(); }

  // Access a monitor by name (tests, goal wiring); null when absent.
  ResourceMonitor* find(const std::string& name);

  // Pairwise copy_state_from over two structurally identical sets (same
  // monitors installed in the same order).
  void copy_state_from(const MonitorSet& src);

  // Real (host) wall-clock seconds each monitor spent in predict_avail
  // during the most recent build_snapshot, by slot; feeds the Fig-10
  // overhead breakdown ("file cache prediction" is the file_cache
  // monitor's share).
  const std::vector<double>& last_predict_wall_times() const {
    return last_predict_wall_;
  }

 private:
  std::vector<std::unique_ptr<ResourceMonitor>> monitors_;
  std::vector<double> last_predict_wall_;  // one per monitor
};

}  // namespace spectra::monitor
