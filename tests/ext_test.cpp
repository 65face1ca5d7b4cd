// Tests for the future-work extensions the paper names: overlapped
// (parallel) execution and dynamic service discovery.
#include <gtest/gtest.h>

#include "core/discovery.h"
#include "hw/parallel.h"
#include "scenario/world.h"
#include "util/assert.h"

namespace spectra {
namespace {

using namespace spectra::util;  // NOLINT: unit literals in tests

// ----------------------------------------------------------- run_parallel

struct ParallelFixture {
  sim::Engine engine;
  hw::Machine fast;
  hw::Machine slow;

  ParallelFixture()
      : fast(engine, spec("fast", 1000e6), Rng(1)),
        slow(engine, spec("slow", 100e6), Rng(2)) {}

  static hw::MachineSpec spec(const std::string& name, Hertz hz) {
    hw::MachineSpec s;
    s.name = name;
    s.cpu_hz = hz;
    s.power = hw::PowerModel{1.0, 9.0, 0.0};  // busy = 10 W, idle = 1 W
    return s;
  }
};

TEST(RunParallelTest, ElapsedIsMaxNotSum) {
  ParallelFixture f;
  // fast: 0.1 s; slow: 1.0 s.
  const Seconds dt = hw::run_parallel(
      f.engine, {{&f.fast, 100e6, false}, {&f.slow, 100e6, false}});
  EXPECT_NEAR(dt, 1.0, 1e-9);
  EXPECT_NEAR(f.engine.now(), 1.0, 1e-9);
}

TEST(RunParallelTest, EnergyAccountsEarlyFinisherIdling) {
  ParallelFixture f;
  hw::run_parallel(f.engine,
                   {{&f.fast, 100e6, false}, {&f.slow, 100e6, false}});
  // fast: busy 0.1 s at 10 W + idle 0.9 s at 1 W = 1.9 J.
  EXPECT_NEAR(f.fast.meter().total_consumed(), 1.9, 1e-6);
  // slow: busy the whole 1.0 s.
  EXPECT_NEAR(f.slow.meter().total_consumed(), 10.0, 1e-6);
}

TEST(RunParallelTest, CyclesChargedToEachMachine) {
  ParallelFixture f;
  hw::run_parallel(f.engine,
                   {{&f.fast, 100e6, false}, {&f.slow, 50e6, false}});
  EXPECT_DOUBLE_EQ(f.fast.cycles_executed(), 100e6);
  EXPECT_DOUBLE_EQ(f.slow.cycles_executed(), 50e6);
}

TEST(RunParallelTest, SameMachinePiecesSerialize) {
  ParallelFixture f;
  // Two 0.1 s pieces on the same CPU: 0.2 s, not 0.1.
  const Seconds dt = hw::run_parallel(
      f.engine, {{&f.fast, 100e6, false}, {&f.fast, 100e6, false}});
  EXPECT_NEAR(dt, 0.2, 1e-9);
}

TEST(RunParallelTest, FpPenaltyApplies) {
  sim::Engine engine;
  hw::MachineSpec s = ParallelFixture::spec("itsy", 100e6);
  s.fp_penalty = 3.0;
  hw::Machine itsy(engine, s, Rng(3));
  const Seconds dt =
      hw::run_parallel(engine, {{&itsy, 100e6, /*fp_heavy=*/true}});
  EXPECT_NEAR(dt, 3.0, 1e-9);
}

TEST(RunParallelTest, EmptyWorkIsFree) {
  ParallelFixture f;
  EXPECT_DOUBLE_EQ(hw::run_parallel(f.engine, {}), 0.0);
  EXPECT_DOUBLE_EQ(f.engine.now(), 0.0);
}

TEST(RunParallelTest, MatchesSequentialForSingleMachine) {
  ParallelFixture f1, f2;
  hw::run_parallel(f1.engine, {{&f1.fast, 250e6, false}});
  f2.fast.run_cycles(250e6);
  EXPECT_DOUBLE_EQ(f1.engine.now(), f2.engine.now());
  EXPECT_NEAR(f1.fast.meter().total_consumed(),
              f2.fast.meter().total_consumed(), 1e-9);
}

TEST(RunParallelTest, SpeedupOverSequential) {
  // The paper's §4.3 prediction: three engines on different servers gain
  // considerably from overlap.
  ParallelFixture f;
  hw::Machine third(f.engine, ParallelFixture::spec("m3", 500e6), Rng(4));
  const Seconds par = hw::run_parallel(f.engine, {{&f.fast, 400e6, false},
                                                  {&third, 400e6, false},
                                                  {&f.slow, 40e6, false}});
  const Seconds seq = 400e6 / 1000e6 + 400e6 / 500e6 + 40e6 / 100e6;
  EXPECT_NEAR(par, 0.8, 1e-6);  // bound by m3
  EXPECT_GT(seq / par, 1.9);
}

TEST(RunParallelTest, InvalidWorkRejected) {
  ParallelFixture f;
  EXPECT_THROW(hw::run_parallel(f.engine, {{nullptr, 1e6, false}}),
               util::ContractError);
  EXPECT_THROW(hw::run_parallel(f.engine, {{&f.fast, -1.0, false}}),
               util::ContractError);
}

TEST(MachineForegroundTest, UnbalancedEndRejected) {
  ParallelFixture f;
  EXPECT_THROW(f.fast.end_foreground(), util::ContractError);
}

// ------------------------------------------------------ service discovery

struct DiscoveryFixture {
  scenario::WorldConfig wc;
  std::unique_ptr<scenario::World> world;

  DiscoveryFixture() {
    wc.testbed = scenario::Testbed::kOverhead;
    wc.overhead_servers = 2;  // pre-known servers 1 and 2
    world = std::make_unique<scenario::World>(wc);
  }
};

TEST(DiscoveryTest, NewServerJoinsDatabase) {
  DiscoveryFixture f;
  auto& w = *f.world;
  core::DiscoveryDomain domain(w.engine(), w.network(), 5.0);
  domain.subscribe(scenario::kClient, w.spectra().server_db());

  // A third server comes online, previously unknown to the client.
  hw::MachineSpec spec;
  spec.name = "late-joiner";
  spec.cpu_hz = 600e6;
  spec.power = hw::PowerModel{10.0, 10.0, 1.0};
  hw::Machine machine(w.engine(), spec, util::Rng(9));
  w.network().add_machine(42, &machine);
  w.network().set_link(scenario::kClient, 42, {250000.0, 0.005});
  core::SpectraServer server(42, w.engine(), machine, w.network(), nullptr);
  domain.announce(server);

  EXPECT_EQ(w.spectra().server_db().server(42), nullptr);
  w.settle(6.0);  // one announcement round
  ASSERT_NE(w.spectra().server_db().server(42), nullptr);
  // And the ordinary machinery sees it as available.
  const auto avail = w.spectra().server_db().available_servers();
  EXPECT_NE(std::find(avail.begin(), avail.end(), 42), avail.end());
}

TEST(DiscoveryTest, UnreachableServerNotDiscovered) {
  DiscoveryFixture f;
  auto& w = *f.world;
  core::DiscoveryDomain domain(w.engine(), w.network(), 5.0);
  domain.subscribe(scenario::kClient, w.spectra().server_db());

  hw::MachineSpec spec;
  spec.name = "island";
  spec.cpu_hz = 600e6;
  spec.power = hw::PowerModel{10.0, 10.0, 1.0};
  hw::Machine machine(w.engine(), spec, util::Rng(9));
  w.network().add_machine(43, &machine);  // no link to the client
  core::SpectraServer server(43, w.engine(), machine, w.network(), nullptr);
  domain.announce(server);
  w.settle(12.0);
  EXPECT_EQ(w.spectra().server_db().server(43), nullptr);
}

TEST(DiscoveryTest, WithdrawStopsAnnouncements) {
  DiscoveryFixture f;
  auto& w = *f.world;
  core::DiscoveryDomain domain(w.engine(), w.network(), 5.0);
  domain.announce(w.server(1));
  EXPECT_EQ(domain.announcing_servers(), 1u);
  domain.withdraw(1);
  EXPECT_EQ(domain.announcing_servers(), 0u);
}

TEST(DiscoveryTest, AnnouncementsCostWireTime) {
  DiscoveryFixture f;
  auto& w = *f.world;
  core::DiscoveryDomain domain(w.engine(), w.network(), 5.0);
  domain.subscribe(scenario::kClient, w.spectra().server_db());
  domain.announce(w.server(1));
  const auto before = w.network().total_transfers();
  w.settle(11.0);
  EXPECT_GT(w.network().total_transfers(), before);
}

TEST(DiscoveryTest, DiscoveredServerUsedBySpectra) {
  // End to end: a client with NO statically configured servers discovers
  // one and offloads to it.
  scenario::WorldConfig wc;
  wc.testbed = scenario::Testbed::kOverhead;
  wc.overhead_servers = 0;
  scenario::World w(wc);
  core::DiscoveryDomain domain(w.engine(), w.network(), 5.0);
  domain.subscribe(scenario::kClient, w.spectra().server_db());

  hw::MachineSpec spec;
  spec.name = "found";
  spec.cpu_hz = 2000e6;
  spec.power = hw::PowerModel{10.0, 10.0, 1.0};
  hw::Machine machine(w.engine(), spec, util::Rng(9));
  w.network().add_machine(42, &machine);
  w.network().set_link(scenario::kClient, 42, {1.0e6, 0.002});
  core::SpectraServer server(42, w.engine(), machine, w.network(), nullptr);
  auto install = [](core::SpectraServer& host) {
    host.register_service("crunch", [&host](const rpc::Request&) {
      host.machine().run_cycles(500e6);
      rpc::Response r;
      r.ok = true;
      r.payload = 64.0;
      return r;
    });
  };
  install(server);
  install(w.spectra().local_server());
  domain.announce(server);

  core::OperationDesc desc;
  desc.name = "crunch";
  desc.plans = {{"local", false}, {"remote", true}};
  desc.latency_fn = solver::inverse_latency();
  desc.fidelity_fn = [](const std::vector<double>&) { return 1.0; };
  w.spectra().register_fidelity(desc);

  w.settle(6.0);  // discovery round
  auto run = [&](const solver::Alternative& alt) {
    w.spectra().begin_fidelity_op_forced("crunch", {}, "", alt);
    rpc::Request req;
    req.op_type = "crunch";
    if (alt.server >= 0) {
      w.spectra().do_remote_op("crunch", req);
    } else {
      w.spectra().do_local_op("crunch", req);
    }
    w.spectra().end_fidelity_op();
  };
  for (int i = 0; i < 6; ++i) {
    run(solver::Alternative{0, -1, {}});
    run(solver::Alternative{1, 42, {}});
  }
  const auto choice = w.spectra().begin_fidelity_op("crunch", {});
  EXPECT_EQ(choice.alternative.server, 42);  // 2 GHz beats 233 MHz locally
  w.spectra().end_fidelity_op();
}

}  // namespace
}  // namespace spectra
