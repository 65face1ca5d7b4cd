// Dynamic service discovery (§3.2 future work).
//
// The paper statically configures candidate servers and notes: "We have
// designed Spectra so that it could also use a service discovery protocol
// [INS, SLP] to dynamically locate additional servers, but this feature is
// not yet supported." This extension supplies it: a DiscoveryDomain models
// the multicast scope; participating Spectra servers announce themselves
// periodically (each announcement is a real simulated transfer, so it costs
// the usual time/energy and fails across partitions), and subscribed
// clients add newly heard servers to their server database — after which
// the ordinary polling machinery takes over.
#pragma once

#include <map>
#include <vector>

#include "core/server.h"
#include "core/server_db.h"
#include "net/network.h"
#include "sim/engine.h"

namespace spectra::core {

class DiscoveryDomain {
 public:
  DiscoveryDomain(sim::Engine& engine, net::Network& network,
                  util::Seconds announce_period = 10.0);
  ~DiscoveryDomain();
  DiscoveryDomain(const DiscoveryDomain&) = delete;
  DiscoveryDomain& operator=(const DiscoveryDomain&) = delete;

  // A server joins the domain and starts announcing.
  void announce(SpectraServer& server);
  // Stop announcing (server shutting down).
  void withdraw(MachineId id);

  // A client subscribes: newly heard, reachable servers are added to its
  // database. Subscription delivers any already-announcing servers on the
  // next announcement round, not instantly — discovery takes time.
  void subscribe(MachineId client, ServerDatabase& db);

  std::size_t announcing_servers() const { return servers_.size(); }

  // Size of one announcement message on the wire.
  static constexpr util::Bytes kAnnouncementBytes = 96.0;

 private:
  void round();

  sim::Engine& engine_;
  net::Network& network_;
  std::map<MachineId, SpectraServer*> servers_;
  struct Subscriber {
    MachineId client;
    ServerDatabase* db;
  };
  std::map<MachineId, Subscriber> subscribers_;
  sim::EventId announcer_ = 0;
};

}  // namespace spectra::core
