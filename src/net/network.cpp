#include "net/network.h"

#include <algorithm>

#include "util/assert.h"

namespace spectra::net {

Network::Network(sim::Engine& engine, util::Rng rng)
    : engine_(engine), rng_(rng) {}

void Network::add_machine(MachineId id, hw::Machine* machine) {
  SPECTRA_REQUIRE(machine != nullptr, "null machine");
  machines_[id] = machine;
}

void Network::set_link(MachineId a, MachineId b, LinkParams params) {
  SPECTRA_REQUIRE(a != b, "no self-links");
  SPECTRA_REQUIRE(params.bandwidth > 0.0, "link bandwidth must be positive");
  SPECTRA_REQUIRE(params.latency >= 0.0, "negative latency");
  SPECTRA_REQUIRE(params.availability > 0.0 && params.availability <= 1.0,
                  "availability must be in (0,1]");
  links_[key(a, b)] = params;
}

LinkParams& Network::link_mutable(MachineId a, MachineId b) {
  auto it = links_.find(key(a, b));
  SPECTRA_REQUIRE(it != links_.end(), "no link configured between machines");
  return it->second;
}

void Network::set_link_up(MachineId a, MachineId b, bool up) {
  link_mutable(a, b).up = up;
}

void Network::set_link_bandwidth(MachineId a, MachineId b, BytesPerSec bw) {
  SPECTRA_REQUIRE(bw > 0.0, "link bandwidth must be positive");
  link_mutable(a, b).bandwidth = bw;
}

void Network::set_link_availability(MachineId a, MachineId b,
                                    double availability) {
  SPECTRA_REQUIRE(availability > 0.0 && availability <= 1.0,
                  "availability must be in (0,1]");
  link_mutable(a, b).availability = availability;
}

void Network::set_link_latency(MachineId a, MachineId b, Seconds latency) {
  SPECTRA_REQUIRE(latency >= 0.0, "negative latency");
  link_mutable(a, b).latency = latency;
}

bool Network::has_link(MachineId a, MachineId b) const {
  return a != b && links_.count(key(a, b)) > 0;
}

bool Network::reachable(MachineId a, MachineId b) const {
  if (a == b) return true;
  auto it = links_.find(key(a, b));
  return it != links_.end() && it->second.up;
}

const LinkParams& Network::link(MachineId a, MachineId b) const {
  auto it = links_.find(key(a, b));
  SPECTRA_REQUIRE(it != links_.end(), "no link configured between machines");
  return it->second;
}

BytesPerSec Network::effective_bandwidth(MachineId a, MachineId b) const {
  const LinkParams& l = link(a, b);
  SPECTRA_REQUIRE(l.up, "link is down");
  return l.bandwidth * l.availability;
}

TransferResult Network::transfer(MachineId a, MachineId b, Bytes bytes) {
  SPECTRA_REQUIRE(bytes >= 0.0, "negative transfer size");
  if (a == b) return TransferResult{true, 0.0};
  SPECTRA_REQUIRE(reachable(a, b), "transfer across a down link");

  const LinkParams& l = link(a, b);
  // Jitter models MAC-layer variability; seeded, so runs are reproducible.
  const double jitter = rng_.noise_factor(0.02);
  const Seconds duration =
      (l.latency + bytes / (l.bandwidth * l.availability)) * jitter;

  auto ma = machines_.find(a);
  auto mb = machines_.find(b);
  if (ma != machines_.end()) ma->second->set_net_active(true);
  if (mb != machines_.end()) mb->second->set_net_active(true);
  const Seconds start = engine_.now();
  engine_.advance(duration);
  if (ma != machines_.end()) ma->second->set_net_active(false);
  if (mb != machines_.end()) mb->second->set_net_active(false);

  // Advancing the clock may have fired a partition of this link (fault
  // injection, scenario events). The sender spent the time either way, but
  // the payload never arrived: the transfer fails and is not logged.
  if (!reachable(a, b)) return TransferResult{false, duration};

  ++total_transfers_;
  log_.push_back(TransferRecord{start, duration, bytes, a, b,
                                static_cast<std::uint64_t>(total_transfers_)});
  if (log_.size() > kMaxLogEntries) log_.pop_front();
  return TransferResult{true, duration};
}

std::vector<TransferRecord> Network::recent_transfers(
    MachineId m, Seconds window, std::uint64_t after_id) const {
  std::vector<TransferRecord> out;
  const Seconds cutoff = engine_.now() - window;
  // Ids are consecutive in log order, so the first record newer than
  // `after_id` sits at a known offset from the oldest one kept.
  auto it = log_.begin();
  if (!log_.empty() && after_id >= log_.front().id) {
    it += static_cast<std::ptrdiff_t>(
        std::min<std::uint64_t>(after_id - log_.front().id + 1, log_.size()));
  }
  for (; it != log_.end(); ++it) {
    const TransferRecord& r = *it;
    if (r.start + r.duration < cutoff) continue;
    if (r.from == m || r.to == m) out.push_back(r);
  }
  return out;
}

}  // namespace spectra::net
