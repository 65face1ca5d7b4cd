// Quickstart: adding remote execution to an application with Spectra.
//
// This example builds a tiny world by hand — one battery-powered client, one
// compute server, one Coda file server — then walks the full Spectra API:
//
//   1. install a *service* (the code component that may run remotely),
//   2. register_fidelity: describe the operation (plans, fidelity, input
//      parameters, latency desirability),
//   3. run the operation a few times so the self-tuning demand models learn,
//   4. watch Spectra's begin_fidelity_op pick where to execute as the
//      environment changes.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "core/client.h"
#include "core/server.h"
#include "hw/machine.h"
#include "net/network.h"
#include "sim/engine.h"
#include "solver/utility.h"

using namespace spectra;  // NOLINT: example brevity

namespace {

constexpr hw::MachineId kClient = 0;
constexpr hw::MachineId kServer = 1;
constexpr hw::MachineId kFileServer = 9;

hw::MachineSpec client_spec() {
  hw::MachineSpec s;
  s.name = "handheld";
  s.cpu_hz = 200e6;  // a small mobile device
  s.power = hw::PowerModel{0.2, 1.5, 0.4};
  s.battery_capacity_j = 15000.0;
  return s;
}

hw::MachineSpec server_spec() {
  hw::MachineSpec s;
  s.name = "compute-server";
  s.cpu_hz = 1000e6;
  s.power = hw::PowerModel{20.0, 15.0, 2.0};
  return s;
}

hw::MachineSpec file_server_spec() {
  hw::MachineSpec s;
  s.name = "file-server";
  s.cpu_hz = 800e6;
  s.power = hw::PowerModel{30.0, 10.0, 2.0};
  return s;
}

}  // namespace

int main() {
  // ---- 0. The world: machines, network, file system ----------------------
  sim::Engine engine;
  util::Rng rng(42);
  hw::Machine client(engine, client_spec(), rng.fork());
  hw::Machine server(engine, server_spec(), rng.fork());
  hw::Machine file_host(engine, file_server_spec(), rng.fork());
  net::Network network(engine, rng.fork());
  network.add_machine(kClient, &client);
  network.add_machine(kServer, &server);
  network.add_machine(kFileServer, &file_host);
  network.set_link(kClient, kServer, {1.0e6, 0.005});  // ~8 Mb/s WLAN
  network.set_link(kClient, kFileServer, {60000.0, 0.01});
  network.set_link(kServer, kFileServer, {400000.0, 0.002});

  fs::FileServer files(kFileServer);
  fs::CodaClient client_coda(kClient, client, network, files);
  fs::CodaClient server_coda(kServer, server, network, files);

  // ---- 1. Spectra client + server, and the application service -----------
  core::SpectraClientConfig config;
  config.exploration_runs = 6;  // explore the space before trusting models
  core::SpectraClient spectra(
      kClient, engine, client, network, client_coda,
      std::make_unique<hw::SmartBatteryDriver>(engine, client.meter()),
      rng.fork(), config);
  core::SpectraServer remote(kServer, engine, server, network, &server_coda);
  spectra.add_server(remote);

  // The "application": a filter that costs 300 Mcycles per megapixel.
  auto install = [](core::SpectraServer& host) {
    host.register_service("render", [&host](const rpc::Request& req) {
      host.machine().run_cycles(300e6 * req.args.at("megapixels"));
      rpc::Response r;
      r.ok = true;
      r.payload = 50e3 * req.args.at("megapixels");  // rendered tile
      return r;
    });
  };
  install(remote);
  install(spectra.local_server());

  // ---- 2. register_fidelity ----------------------------------------------
  core::OperationDesc op;
  op.name = "render";
  op.plans = {{"local", /*uses_remote=*/false},
              {"remote", /*uses_remote=*/true}};
  op.input_params = {"megapixels"};
  op.latency_fn = solver::inverse_latency();
  op.fidelity_fn = [](const std::vector<double>&) { return 1.0; };
  spectra.register_fidelity(op);

  // ---- 3 & 4. run operations; Spectra learns and adapts ------------------
  auto render_once = [&](double megapixels) {
    const auto choice =
        spectra.begin_fidelity_op("render", {{"megapixels", megapixels}});
    rpc::Request req;
    req.op_type = "render";
    req.payload = 200e3 * megapixels;  // raw image travels with the request
    req.args["megapixels"] = megapixels;
    const auto resp = choice.alternative.server >= 0
                          ? spectra.do_remote_op("render", req)
                          : spectra.do_local_op("render", req);
    const auto usage = spectra.end_fidelity_op();
    std::cout << "  rendered " << megapixels << " MP "
              << (choice.alternative.server >= 0 ? "remotely" : "locally")
              << (choice.from_model ? "" : " (exploring)") << " in "
              << usage.elapsed << " s, " << usage.energy << " J"
              << (resp.ok ? "" : "  [FAILED]") << "\n";
  };

  std::cout << "Training (Spectra explores both plans):\n";
  for (int i = 0; i < 8; ++i) render_once(1.0 + 0.25 * i);

  std::cout << "\nGood network — Spectra should offload:\n";
  for (int i = 0; i < 3; ++i) render_once(2.0);

  std::cout << "\nNetwork degrades to ~64 kb/s — Spectra should pull the "
               "work back:\n";
  network.set_link_bandwidth(kClient, kServer, 8000.0);
  engine.advance(15.0);  // monitors observe the change via polling traffic
  for (int i = 0; i < 3; ++i) render_once(2.0);

  std::cout << "\nNetwork restored, but the server is now busy:\n";
  network.set_link_bandwidth(kClient, kServer, 1.0e6);
  server.set_background_procs(7.0);
  engine.advance(15.0);
  for (int i = 0; i < 3; ++i) render_once(2.0);

  std::cout << "\nDone. Spectra made every placement decision from learned "
               "models and monitored resources.\n";
  return 0;
}
