// Dynamic service discovery (extension of §3.2).
//
// The paper configures candidate servers statically and leaves discovery as
// future work. This example shows the implemented extension: a client walks
// into a room knowing no servers at all, hears announcements, adds the
// servers to its database, and starts offloading — then the server
// disappears (partition) and the client gracefully returns to local
// execution.
//
// Build & run:  ./build/examples/discovery
#include <iostream>

#include "core/discovery.h"
#include "scenario/world.h"
#include "util/table.h"

using namespace spectra;           // NOLINT: example brevity
using namespace spectra::scenario; // NOLINT

namespace {

constexpr hw::MachineId kRoomServer = 30;

void crunch(World& w) {
  const auto choice = w.spectra().begin_fidelity_op("filter", {});
  rpc::Request req;
  req.op_type = "filter";
  req.payload = 16e3;
  const auto resp = choice.alternative.server >= 0
                        ? w.spectra().do_remote_op("filter", req)
                        : w.spectra().do_local_op("filter", req);
  const auto usage = w.spectra().end_fidelity_op();
  std::cout << "  filter -> "
            << (choice.alternative.server >= 0 ? "offloaded to room server"
                                               : "ran locally")
            << " in " << util::Table::num(usage.elapsed, 2) << " s"
            << (resp.ok ? "" : " [call FAILED, will relearn]") << "\n";
}

}  // namespace

int main() {
  std::cout << "Service discovery: a client that knows no servers.\n\n";

  WorldConfig wc;
  wc.testbed = Testbed::kOverhead;
  wc.overhead_servers = 0;  // statically configured servers: none
  World w(wc);

  core::DiscoveryDomain domain(w.engine(), w.network(), /*period=*/5.0);
  domain.subscribe(kClient, w.spectra().server_db());

  // The room's compute server (not known to the client).
  hw::MachineSpec spec;
  spec.name = "room-server";
  spec.cpu_hz = 2000e6;
  spec.power = hw::PowerModel{20.0, 15.0, 2.0};
  hw::Machine machine(w.engine(), spec, util::Rng(4));
  w.network().add_machine(kRoomServer, &machine);
  w.network().set_link(kClient, kRoomServer, {1.0e6, 0.002});
  core::SpectraServer server(kRoomServer, w.engine(), machine, w.network(),
                             nullptr);
  auto install = [](core::SpectraServer& host) {
    host.register_service("filter", [&host](const rpc::Request&) {
      host.machine().run_cycles(400e6);
      rpc::Response r;
      r.ok = true;
      r.payload = 8e3;
      return r;
    });
  };
  install(server);
  install(w.spectra().local_server());

  core::OperationDesc op;
  op.name = "filter";
  op.plans = {{"local", false}, {"remote", true}};
  op.latency_fn = solver::inverse_latency();
  op.fidelity_fn = [](const std::vector<double>&) { return 1.0; };
  w.spectra().register_fidelity(op);

  std::cout << "Before discovery (no servers known):\n";
  crunch(w);

  std::cout << "\nThe room server starts announcing...\n";
  domain.announce(server);
  w.settle(6.0);
  std::cout << "  client now knows "
            << w.spectra().server_db().available_servers().size()
            << " server(s)\n";

  std::cout << "\nSpectra explores the newcomer, learns, and offloads:\n";
  for (int i = 0; i < 12; ++i) crunch(w);

  std::cout << "\nThe client walks out of range:\n";
  w.network().set_link_up(kClient, kRoomServer, false);
  w.spectra().server_db().poll_all();
  crunch(w);
  return 0;
}
