// Simulated network.
//
// Machines are connected pairwise by links with bandwidth, latency, an
// up/down flag (network partitions), and an availability factor modeling
// competing traffic on a shared medium (the paper's 2 Mb/s shared wireless).
// Following the paper's network monitor, the first hop is assumed to be the
// bottleneck, so a single link per machine pair captures the behaviour that
// matters for placement decisions.
//
// Every transfer advances the simulation clock, raises the NIC-active power
// state on both endpoints, and appends to a transfer log. The log is the
// only thing the network monitor is allowed to read: bandwidth and latency
// are *estimated* from passively observed transfers, never taken from the
// link parameters.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "hw/machine.h"
#include "sim/engine.h"
#include "util/rng.h"
#include "util/units.h"

namespace spectra::net {

using hw::MachineId;
using util::Bytes;
using util::BytesPerSec;
using util::Seconds;

struct LinkParams {
  BytesPerSec bandwidth = 0.0;  // raw link bandwidth
  Seconds latency = 0.0;        // one-way latency
  bool up = true;
  // Fraction of the raw bandwidth available to us (competing traffic on a
  // shared medium); 1.0 = dedicated link.
  double availability = 1.0;
};

struct TransferRecord {
  Seconds start = 0.0;
  Seconds duration = 0.0;
  Bytes bytes = 0.0;
  MachineId from = -1;
  MachineId to = -1;
  // Unique per transfer, assigned in log order starting at 1. Consumers
  // that ingest the log incrementally must dedup on this, not on start
  // time: two transfers over a fast link can start at the same tick.
  std::uint64_t id = 0;
};

// Outcome of one transfer. `completed` is false when the link was down at
// the moment the transfer would have finished (a partition fired mid-flight
// from a scheduled event): the time was spent, but the payload must be
// treated as lost. Converts to Seconds for callers that only need the time.
struct TransferResult {
  bool completed = true;
  Seconds elapsed = 0.0;
  operator Seconds() const { return elapsed; }
};

class Network {
 public:
  Network(sim::Engine& engine, util::Rng rng);

  // Registration. Machines must outlive the network.
  void add_machine(MachineId id, hw::Machine* machine);

  // Configure the (symmetric) link between two machines. Overwrites any
  // existing configuration for the pair.
  void set_link(MachineId a, MachineId b, LinkParams params);

  // Mutators used by scenarios and the fault injector mid-experiment.
  void set_link_up(MachineId a, MachineId b, bool up);
  void set_link_bandwidth(MachineId a, MachineId b, BytesPerSec bw);
  void set_link_availability(MachineId a, MachineId b, double availability);
  void set_link_latency(MachineId a, MachineId b, Seconds latency);

  bool has_link(MachineId a, MachineId b) const;
  bool reachable(MachineId a, MachineId b) const;

  // Ground-truth link parameters; the fs layer and tests use this, monitors
  // must not.
  const LinkParams& link(MachineId a, MachineId b) const;

  // Effective bytes/second currently deliverable between a and b.
  BytesPerSec effective_bandwidth(MachineId a, MachineId b) const;

  // Synchronously transfer `bytes` from a to b: advances the clock by
  // latency + bytes / effective bandwidth (with small jitter), accounts NIC
  // power on both endpoints, and logs the transfer. Intra-machine transfers
  // (a == b) cost nothing. Returns the elapsed time and whether the
  // transfer completed: advancing the clock may fire a scheduled partition
  // of this very link, in which case the time is spent but the payload is
  // lost (completed = false) and the transfer is not logged — the passive
  // monitor must not learn bandwidth from a transfer that never arrived.
  // A link that drops and recovers within the window still completes.
  // Precondition: reachable(a, b) at the start.
  TransferResult transfer(MachineId a, MachineId b, Bytes bytes);

  // Transfers observed at machine `m` within the trailing `window` seconds,
  // oldest first. With `after_id`, only those logged after that transfer
  // are examined, so a consumer that remembers the newest id it has seen
  // (total_transfers()) reads each record once.
  std::vector<TransferRecord> recent_transfers(
      MachineId m, Seconds window, std::uint64_t after_id = 0) const;

  std::size_t total_transfers() const { return total_transfers_; }

  // Copy mutable state (rng, link parameters, transfer log) from the same
  // network in another world. Machine registrations are structural and are
  // rebuilt by the clone's constructor path, not copied.
  void copy_state_from(const Network& src) {
    rng_ = src.rng_;
    links_ = src.links_;
    log_ = src.log_;
    total_transfers_ = src.total_transfers_;
  }

 private:
  using Key = std::pair<MachineId, MachineId>;
  static Key key(MachineId a, MachineId b) {
    return a < b ? Key{a, b} : Key{b, a};
  }
  LinkParams& link_mutable(MachineId a, MachineId b);

  sim::Engine& engine_;
  util::Rng rng_;
  std::map<Key, LinkParams> links_;
  std::map<MachineId, hw::Machine*> machines_;
  std::deque<TransferRecord> log_;
  std::size_t total_transfers_ = 0;
  static constexpr std::size_t kMaxLogEntries = 4096;
};

}  // namespace spectra::net
