#include "monitor/monitor.h"

#include <chrono>

#include "util/assert.h"

namespace spectra::monitor {

std::size_t MonitorSet::add(std::unique_ptr<ResourceMonitor> monitor) {
  SPECTRA_REQUIRE(monitor != nullptr, "null monitor");
  monitors_.push_back(std::move(monitor));
  last_predict_wall_.push_back(0.0);
  return monitors_.size() - 1;
}

ResourceSnapshot MonitorSet::build_snapshot(
    const std::vector<MachineId>& candidates, Seconds now) {
  ResourceSnapshot snap;
  snap.taken_at = now;
  for (MachineId id : candidates) {
    ServerAvailability sa;
    sa.id = id;
    snap.servers.emplace(id, sa);
  }
  for (std::size_t i = 0; i < monitors_.size(); ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    monitors_[i]->predict_avail(snap);
    const auto t1 = std::chrono::steady_clock::now();
    last_predict_wall_[i] = std::chrono::duration<double>(t1 - t0).count();
  }
  return snap;
}

void MonitorSet::start_op() {
  for (auto& m : monitors_) m->start_op();
}

void MonitorSet::stop_op(OperationUsage& usage) {
  for (auto& m : monitors_) m->stop_op(usage);
}

void MonitorSet::add_usage(MachineId server, const rpc::UsageReport& report,
                           OperationUsage& usage) {
  for (auto& m : monitors_) m->add_usage(server, report, usage);
}

void MonitorSet::update_preds(const ServerStatusReport& report) {
  for (auto& m : monitors_) m->update_preds(report);
}

ResourceMonitor* MonitorSet::find(const std::string& name) {
  for (auto& m : monitors_) {
    if (m->name() == name) return m.get();
  }
  return nullptr;
}

void MonitorSet::copy_state_from(const MonitorSet& src) {
  SPECTRA_REQUIRE(monitors_.size() == src.monitors_.size(),
                  "monitor set size mismatch in copy_state_from");
  for (std::size_t i = 0; i < monitors_.size(); ++i) {
    SPECTRA_REQUIRE(monitors_[i]->name() == src.monitors_[i]->name(),
                    "monitor order mismatch in copy_state_from");
    monitors_[i]->copy_state_from(*src.monitors_[i]);
  }
  last_predict_wall_ = src.last_predict_wall_;
}

}  // namespace spectra::monitor
