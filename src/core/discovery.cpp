#include "core/discovery.h"

#include "util/assert.h"

namespace spectra::core {

DiscoveryDomain::DiscoveryDomain(sim::Engine& engine, net::Network& network,
                                 util::Seconds announce_period)
    : engine_(engine), network_(network) {
  SPECTRA_REQUIRE(announce_period > 0.0, "announce period must be positive");
  announcer_ =
      engine_.schedule_periodic(announce_period, [this] { round(); });
}

DiscoveryDomain::~DiscoveryDomain() { engine_.cancel(announcer_); }

void DiscoveryDomain::announce(SpectraServer& server) {
  servers_[server.id()] = &server;
}

void DiscoveryDomain::withdraw(MachineId id) { servers_.erase(id); }

void DiscoveryDomain::subscribe(MachineId client, ServerDatabase& db) {
  subscribers_[client] = Subscriber{client, &db};
}

void DiscoveryDomain::round() {
  for (auto& [client_id, sub] : subscribers_) {
    for (auto& [server_id, server] : servers_) {
      if (server_id == client_id) continue;
      if (!network_.reachable(server_id, client_id)) continue;
      // The announcement itself costs wire time.
      network_.transfer(server_id, client_id, kAnnouncementBytes);
      if (sub.db->server(server_id) == nullptr) {
        sub.db->add_server(*server);
      }
    }
  }
}

}  // namespace spectra::core
