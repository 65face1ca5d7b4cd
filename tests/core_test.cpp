#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>

#include "apps/janus.h"
#include "apps/pangloss.h"
#include "core/client.h"
#include "core/consistency.h"
#include "core/server.h"
#include "core/server_db.h"
#include "core/service.h"
#include "obs/memaudit.h"
#include "scenario/experiment.h"
#include "scenario/world.h"
#include "util/assert.h"
#include "util/interner.h"
#include "util/units.h"

namespace spectra::core {
namespace {

using namespace spectra::util;  // NOLINT: unit literals in tests

constexpr MachineId kClient = 0;
constexpr MachineId kServer1 = 1;
constexpr MachineId kServer2 = 2;
constexpr MachineId kFs = 9;

hw::MachineSpec spec(const std::string& name, Hertz hz, bool battery = false) {
  hw::MachineSpec s;
  s.name = name;
  s.cpu_hz = hz;
  s.power = hw::PowerModel{2.0, 4.0, 1.0};
  if (battery) s.battery_capacity_j = 5000.0;
  return s;
}

// A full client/two-server/file-server rig with a trivial test operation.
struct Rig {
  sim::Engine engine;
  hw::Machine client_machine{engine, spec("client", 200_MHz, true), Rng(1)};
  hw::Machine server1_machine{engine, spec("s1", 400_MHz), Rng(2)};
  hw::Machine server2_machine{engine, spec("s2", 800_MHz), Rng(3)};
  hw::Machine fs_machine{engine, spec("fs", 800_MHz), Rng(4)};
  net::Network network{engine, Rng(5)};
  fs::FileServer file_server{kFs};
  std::unique_ptr<fs::CodaClient> client_coda;
  std::unique_ptr<fs::CodaClient> s1_coda;
  std::unique_ptr<fs::CodaClient> s2_coda;
  std::unique_ptr<SpectraClient> spectra;
  std::unique_ptr<SpectraServer> server1;
  std::unique_ptr<SpectraServer> server2;

  explicit Rig(SpectraClientConfig config = fast_config()) {
    network.add_machine(kClient, &client_machine);
    network.add_machine(kServer1, &server1_machine);
    network.add_machine(kServer2, &server2_machine);
    network.add_machine(kFs, &fs_machine);
    network.set_link(kClient, kServer1, {100000.0, 0.005});
    network.set_link(kClient, kServer2, {100000.0, 0.005});
    network.set_link(kClient, kFs, {50000.0, 0.01});
    network.set_link(kServer1, kFs, {200000.0, 0.002});
    network.set_link(kServer2, kFs, {200000.0, 0.002});
    file_server.create({"data/input", 50_KB, "data"});
    file_server.create({"data/other", 20_KB, "data"});

    client_coda = std::make_unique<fs::CodaClient>(
        kClient, client_machine, network, file_server);
    s1_coda = std::make_unique<fs::CodaClient>(kServer1, server1_machine,
                                               network, file_server);
    s2_coda = std::make_unique<fs::CodaClient>(kServer2, server2_machine,
                                               network, file_server);
    spectra = std::make_unique<SpectraClient>(
        kClient, engine, client_machine, network, *client_coda,
        std::make_unique<hw::MultimeterDriver>(client_machine.meter()),
        Rng(7), config);
    server1 = std::make_unique<SpectraServer>(kServer1, engine,
                                              server1_machine, network,
                                              s1_coda.get());
    server2 = std::make_unique<SpectraServer>(kServer2, engine,
                                              server2_machine, network,
                                              s2_coda.get());
  }

  static SpectraClientConfig fast_config() {
    SpectraClientConfig c;
    c.exploration_runs = 2;
    return c;
  }

  // Install a service consuming a fixed cycle count on whichever machine
  // hosts it.
  void install_work_service(SpectraServer& server, Cycles cycles) {
    server.register_service("work", [&server, cycles](const rpc::Request&) {
      server.machine().run_cycles(cycles);
      rpc::Response r;
      r.ok = true;
      r.payload = 128.0;
      return r;
    });
  }

  OperationDesc work_op() {
    OperationDesc desc;
    desc.name = "work";
    desc.plans = {{"local", false}, {"remote", true}};
    desc.latency_fn = solver::inverse_latency();
    desc.fidelity_fn = [](const std::vector<double>&) { return 1.0; };
    return desc;
  }
};

// ------------------------------------------------------------ SpectraServer

TEST(SpectraServerTest, StatusReportsResources) {
  Rig rig;
  rig.s1_coda->warm("data/input");
  rig.server1_machine.set_background_procs(1.0);
  auto report = rig.server1->status();
  EXPECT_EQ(report.server, kServer1);
  EXPECT_DOUBLE_EQ(report.cpu_hz, 400e6);
  EXPECT_NEAR(report.run_queue, 1.0, 0.2);
  EXPECT_EQ(report.cached_files->count("data/input"), 1u);
  EXPECT_GT(report.fetch_rate, 0.0);
}

TEST(SpectraServerTest, StatusRpcCarriesReportBody) {
  Rig rig;
  rpc::RpcEndpoint probe(kClient, rig.client_machine, rig.network, nullptr);
  rpc::Request req;
  req.op_type = kStatusService;
  auto resp = probe.call(rig.server1->endpoint(), kStatusService, req);
  ASSERT_TRUE(resp.ok);
  const auto* report =
      std::any_cast<monitor::ServerStatusReport>(&resp.body);
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->server, kServer1);
  EXPECT_DOUBLE_EQ(resp.payload, report->wire_size());
}

// ---------------------------------------------------------- ServiceRegistry

TEST(ServiceRegistryTest, DispatchesOnOpType) {
  ServiceRegistry reg;
  reg.on("a", [](const rpc::Request&) {
    rpc::Response r;
    r.ok = true;
    r.payload = 1.0;
    return r;
  });
  reg.on("b", [](const rpc::Request&) {
    rpc::Response r;
    r.ok = true;
    r.payload = 2.0;
    return r;
  });
  rpc::Request req;
  req.op_type = "b";
  EXPECT_DOUBLE_EQ(reg.dispatch(req).payload, 2.0);
  EXPECT_TRUE(reg.handles("a"));
  EXPECT_FALSE(reg.handles("c"));
}

TEST(ServiceRegistryTest, UnknownOpTypeFails) {
  ServiceRegistry reg;
  rpc::Request req;
  req.op_type = "nope";
  const auto resp = reg.dispatch(req);
  EXPECT_FALSE(resp.ok);
}

TEST(ServiceRegistryTest, AsHandlerSnapshotsTable) {
  ServiceRegistry reg;
  reg.on("x", [](const rpc::Request&) {
    rpc::Response r;
    r.ok = true;
    return r;
  });
  auto handler = reg.as_handler();
  rpc::Request req;
  req.op_type = "x";
  EXPECT_TRUE(handler(req).ok);
}

TEST(ServiceRegistryTest, Validation) {
  ServiceRegistry reg;
  EXPECT_THROW(reg.on("", [](const rpc::Request&) { return rpc::Response{}; }),
               util::ContractError);
  EXPECT_THROW(reg.on("x", nullptr), util::ContractError);
}

// ------------------------------------------------------------ ServerDatabase

TEST(ServerDatabaseTest, PollUpdatesAvailability) {
  Rig rig;
  rig.spectra->add_server(*rig.server1);
  rig.spectra->add_server(*rig.server2);
  EXPECT_EQ(rig.spectra->server_db().available_servers().size(), 2u);
  rig.network.set_link_up(kClient, kServer1, false);
  rig.spectra->server_db().poll_all();
  const auto avail = rig.spectra->server_db().available_servers();
  ASSERT_EQ(avail.size(), 1u);
  EXPECT_EQ(avail[0], kServer2);
}

TEST(ServerDatabaseTest, RecoveryAfterPartitionHeals) {
  Rig rig;
  rig.spectra->add_server(*rig.server1);
  rig.network.set_link_up(kClient, kServer1, false);
  rig.spectra->server_db().poll_all();
  EXPECT_TRUE(rig.spectra->server_db().available_servers().empty());
  rig.network.set_link_up(kClient, kServer1, true);
  rig.engine.advance(12.0);  // periodic poll notices
  EXPECT_EQ(rig.spectra->server_db().available_servers().size(), 1u);
}

TEST(ServerDatabaseTest, PollingFeedsRemoteProxies) {
  Rig rig;
  rig.s1_coda->warm("data/input");
  rig.spectra->add_server(*rig.server1);
  const auto snap = rig.spectra->monitors().build_snapshot(
      {kServer1}, rig.engine.now());
  EXPECT_GT(snap.servers.at(kServer1).cpu_hz, 0.0);
  EXPECT_EQ(snap.servers.at(kServer1).cached_files->count("data/input"), 1u);
}

TEST(ServerDatabaseTest, SuppressionSkipsPeriodicPolls) {
  Rig rig;
  rig.spectra->add_server(*rig.server1);
  const auto before = rig.network.total_transfers();
  rig.spectra->server_db().set_suppressed(true);
  rig.engine.advance(30.0);
  EXPECT_EQ(rig.network.total_transfers(), before);
  rig.spectra->server_db().set_suppressed(false);
  rig.engine.advance(10.0);
  EXPECT_GT(rig.network.total_transfers(), before);
}

TEST(ServerDatabaseTest, UnknownServerPollThrows) {
  Rig rig;
  EXPECT_THROW(rig.spectra->server_db().poll(kServer1), util::ContractError);
}

// -------------------------------------------------------------- Spectra API

TEST(SpectraClientTest, RegisterValidation) {
  Rig rig;
  OperationDesc bad = rig.work_op();
  bad.name = "";
  EXPECT_THROW(rig.spectra->register_fidelity(bad), util::ContractError);
  bad = rig.work_op();
  bad.plans.clear();
  EXPECT_THROW(rig.spectra->register_fidelity(bad), util::ContractError);
  bad = rig.work_op();
  bad.latency_fn = nullptr;
  EXPECT_THROW(rig.spectra->register_fidelity(bad), util::ContractError);
  rig.spectra->register_fidelity(rig.work_op());
  EXPECT_TRUE(rig.spectra->is_registered("work"));
  EXPECT_THROW(rig.spectra->register_fidelity(rig.work_op()),
               util::ContractError);  // duplicate
}

TEST(SpectraClientTest, FullOperationLifecycle) {
  Rig rig;
  rig.install_work_service(rig.spectra->local_server(), 100e6);
  rig.spectra->register_fidelity(rig.work_op());
  const auto choice = rig.spectra->begin_fidelity_op("work", {});
  ASSERT_TRUE(choice.ok);
  EXPECT_TRUE(rig.spectra->op_in_progress());
  rpc::Request req;
  req.op_type = "work";
  req.payload = 100.0;
  const auto resp = rig.spectra->do_local_op("work", req);
  EXPECT_TRUE(resp.ok);
  const auto usage = rig.spectra->end_fidelity_op();
  EXPECT_FALSE(rig.spectra->op_in_progress());
  EXPECT_GT(usage.local_cycles, 100e6);  // work + marshaling
  EXPECT_GT(usage.elapsed, 0.0);
  EXPECT_GT(usage.energy, 0.0);
  EXPECT_EQ(rig.spectra->usage_log().size(), 1u);
}

TEST(SpectraClientTest, LifecycleOrderingEnforced) {
  Rig rig;
  rig.spectra->register_fidelity(rig.work_op());
  EXPECT_THROW(rig.spectra->end_fidelity_op(), util::ContractError);
  EXPECT_THROW(rig.spectra->do_local_op("work", rpc::Request{}),
               util::ContractError);
  rig.spectra->begin_fidelity_op("work", {});
  EXPECT_THROW(rig.spectra->begin_fidelity_op("work", {}),
               util::ContractError);  // nested
  rig.spectra->end_fidelity_op();
}

TEST(SpectraClientTest, UnregisteredOperationThrows) {
  Rig rig;
  EXPECT_THROW(rig.spectra->begin_fidelity_op("nope", {}),
               util::ContractError);
}

TEST(SpectraClientTest, ExplorationRoundRobinsUntilTrained) {
  SpectraClientConfig cfg;
  cfg.exploration_runs = 4;
  Rig rig(cfg);
  rig.install_work_service(rig.spectra->local_server(), 10e6);
  rig.install_work_service(*rig.server1, 10e6);
  rig.spectra->add_server(*rig.server1);
  rig.spectra->register_fidelity(rig.work_op());
  std::set<std::string> seen;
  for (int i = 0; i < 2; ++i) {
    const auto choice = rig.spectra->begin_fidelity_op("work", {});
    EXPECT_FALSE(choice.from_model);
    seen.insert(choice.alternative.describe(solver::FidelityNames()));
    rpc::Request req;
    req.op_type = "work";
    if (choice.alternative.server >= 0) {
      rig.spectra->do_remote_op("work", req);
    } else {
      rig.spectra->do_local_op("work", req);
    }
    rig.spectra->end_fidelity_op();
  }
  EXPECT_EQ(seen.size(), 2u);  // round-robin explored two alternatives
}

TEST(SpectraClientTest, ModelDrivenChoiceAfterTraining) {
  Rig rig;
  // Local work is 4x slower than on server2.
  rig.install_work_service(rig.spectra->local_server(), 200e6);
  rig.install_work_service(*rig.server1, 200e6);
  rig.install_work_service(*rig.server2, 200e6);
  rig.spectra->add_server(*rig.server1);
  rig.spectra->add_server(*rig.server2);
  rig.spectra->register_fidelity(rig.work_op());

  auto run_forced = [&](const solver::Alternative& alt) {
    rig.spectra->begin_fidelity_op_forced("work", {}, "", alt);
    rpc::Request req;
    req.op_type = "work";
    req.payload = 200.0;
    if (alt.server >= 0) {
      rig.spectra->do_remote_op("work", req);
    } else {
      rig.spectra->do_local_op("work", req);
    }
    rig.spectra->end_fidelity_op();
  };
  for (int i = 0; i < 3; ++i) {
    run_forced(solver::Alternative{0, -1, {}});
    run_forced(solver::Alternative{1, kServer1, {}});
    run_forced(solver::Alternative{1, kServer2, {}});
  }
  const auto choice = rig.spectra->begin_fidelity_op("work", {});
  ASSERT_TRUE(choice.ok);
  EXPECT_TRUE(choice.from_model);
  EXPECT_EQ(choice.alternative.plan, 1);
  EXPECT_EQ(choice.alternative.server, kServer2);  // fastest CPU
  EXPECT_GT(choice.predicted.time, 0.0);
  rig.spectra->end_fidelity_op();
}

TEST(SpectraClientTest, RemoteUsageAccountedFromRpcReports) {
  Rig rig;
  rig.install_work_service(*rig.server1, 123e6);
  rig.spectra->add_server(*rig.server1);
  rig.spectra->register_fidelity(rig.work_op());
  rig.spectra->begin_fidelity_op_forced("work", {}, "",
                                        solver::Alternative{1, kServer1, {}});
  rpc::Request req;
  req.op_type = "work";
  req.payload = 500.0;
  rig.spectra->do_remote_op("work", req);
  const auto usage = rig.spectra->end_fidelity_op();
  EXPECT_GE(usage.remote_cycles, 123e6);
  EXPECT_LT(usage.remote_cycles, 125e6);
  EXPECT_GT(usage.bytes_sent, 500.0);
  EXPECT_EQ(usage.rpcs, 1);
  // Local cycles exclude the remote work.
  EXPECT_LT(usage.local_cycles, 10e6);
}

TEST(SpectraClientTest, LocalOpsDoNotCountAsRemoteUsage) {
  Rig rig;
  rig.install_work_service(rig.spectra->local_server(), 50e6);
  rig.spectra->register_fidelity(rig.work_op());
  rig.spectra->begin_fidelity_op_forced("work", {}, "",
                                        solver::Alternative{0, -1, {}});
  rpc::Request req;
  req.op_type = "work";
  rig.spectra->do_local_op("work", req);
  const auto usage = rig.spectra->end_fidelity_op();
  EXPECT_DOUBLE_EQ(usage.remote_cycles, 0.0);
  EXPECT_EQ(usage.rpcs, 0);            // no network RPC
  EXPECT_GE(usage.local_cycles, 50e6);  // handler counted locally
}

TEST(SpectraClientTest, DoRemoteOpRequiresRemotePlan) {
  Rig rig;
  rig.spectra->register_fidelity(rig.work_op());
  rig.spectra->begin_fidelity_op_forced("work", {}, "",
                                        solver::Alternative{0, -1, {}});
  EXPECT_THROW(rig.spectra->do_remote_op("work", rpc::Request{}),
               util::ContractError);
  rig.spectra->end_fidelity_op();
}

TEST(SpectraClientTest, ConsistencyEnforcedBeforeRemoteExecution) {
  Rig rig;
  // Remote service reads data/input through the server's Coda.
  rig.server1->register_service("read", [&](const rpc::Request&) {
    const auto version = rig.s1_coda->read("data/input");
    rpc::Response r;
    r.ok = true;
    r.payload = static_cast<double>(version);
    return r;
  });
  rig.spectra->add_server(*rig.server1);
  OperationDesc desc = rig.work_op();
  desc.name = "read";
  rig.spectra->register_fidelity(desc);

  auto run_remote = [&] {
    rig.spectra->begin_fidelity_op_forced(
        "read", {}, "", solver::Alternative{1, kServer1, {}});
    rpc::Request req;
    req.op_type = "read";
    const auto resp = rig.spectra->do_remote_op("read", req);
    rig.spectra->end_fidelity_op();
    return static_cast<std::uint64_t>(resp.payload);
  };
  // Train the file predictor: the op reads data/input.
  rig.client_coda->warm("data/input");
  EXPECT_EQ(run_remote(), 1u);
  EXPECT_EQ(run_remote(), 1u);

  // Modify the file on the client; the next remote run must see version 2.
  rig.client_coda->write("data/input");
  ASSERT_TRUE(rig.client_coda->has_dirty_files());
  const auto version = run_remote();
  EXPECT_EQ(version, 2u);
  EXPECT_FALSE(rig.client_coda->has_dirty_files());  // reintegrated
}

TEST(SpectraClientTest, UnrelatedDirtyFilesNotReintegrated) {
  Rig rig;
  rig.install_work_service(*rig.server1, 10e6);
  rig.spectra->add_server(*rig.server1);
  rig.spectra->register_fidelity(rig.work_op());
  // Train: the work op touches no files.
  for (int i = 0; i < 3; ++i) {
    rig.spectra->begin_fidelity_op_forced(
        "work", {}, "", solver::Alternative{1, kServer1, {}});
    rpc::Request req;
    req.op_type = "work";
    rig.spectra->do_remote_op("work", req);
    rig.spectra->end_fidelity_op();
  }
  rig.client_coda->write("data/other");
  rig.spectra->begin_fidelity_op_forced(
      "work", {}, "", solver::Alternative{1, kServer1, {}});
  rpc::Request req;
  req.op_type = "work";
  rig.spectra->do_remote_op("work", req);
  rig.spectra->end_fidelity_op();
  // The op never reads data/other: no reintegration was forced.
  EXPECT_TRUE(rig.client_coda->is_dirty("data/other"));
}

TEST(SpectraClientTest, DecisionChargedInVirtualTime) {
  Rig rig;
  rig.install_work_service(rig.spectra->local_server(), 10e6);
  rig.spectra->register_fidelity(rig.work_op());
  // Get past exploration.
  for (int i = 0; i < 3; ++i) {
    rig.spectra->begin_fidelity_op_forced("work", {}, "",
                                          solver::Alternative{0, -1, {}});
    rpc::Request req;
    req.op_type = "work";
    rig.spectra->do_local_op("work", req);
    rig.spectra->end_fidelity_op();
  }
  const Seconds t0 = rig.engine.now();
  const auto choice = rig.spectra->begin_fidelity_op("work", {});
  EXPECT_GT(rig.engine.now(), t0);
  EXPECT_GT(choice.virtual_decision_time, 0.0);
  EXPECT_GE(choice.wall_total, 0.0);
  rig.spectra->end_fidelity_op();
}

TEST(SpectraClientTest, ModelDrivenChoiceReportsCachePredictionWallTime) {
  Rig rig;
  rig.install_work_service(rig.spectra->local_server(), 10e6);
  rig.spectra->register_fidelity(rig.work_op());
  // Get past exploration.
  for (int i = 0; i < 3; ++i) {
    rig.spectra->begin_fidelity_op_forced("work", {}, "",
                                          solver::Alternative{0, -1, {}});
    rpc::Request req;
    req.op_type = "work";
    rig.spectra->do_local_op("work", req);
    rig.spectra->end_fidelity_op();
  }
  const auto choice = rig.spectra->begin_fidelity_op("work", {});
  ASSERT_TRUE(choice.from_model);
  // The file-cache monitor's predict_avail ran inside this decision.
  EXPECT_GT(choice.wall_cache_prediction, 0.0);
  EXPECT_LE(choice.wall_cache_prediction, choice.wall_total);
  rig.spectra->end_fidelity_op();
}

TEST(SpectraClientTest, UsageLogPersistsAcrossClients) {
  const std::string path =
      std::filesystem::temp_directory_path() / "spectra_core_log_test.txt";
  std::remove(path.c_str());
  {
    SpectraClientConfig cfg = Rig::fast_config();
    cfg.usage_log_path = path;
    Rig rig(cfg);
    rig.install_work_service(rig.spectra->local_server(), 10e6);
    rig.spectra->register_fidelity(rig.work_op());
    for (int i = 0; i < 3; ++i) {
      rig.spectra->begin_fidelity_op_forced("work", {}, "",
                                            solver::Alternative{0, -1, {}});
      rpc::Request req;
      req.op_type = "work";
      rig.spectra->do_local_op("work", req);
      rig.spectra->end_fidelity_op();
    }
    rig.spectra->save_usage_log();
  }
  {
    SpectraClientConfig cfg = Rig::fast_config();
    cfg.usage_log_path = path;
    Rig rig(cfg);
    rig.spectra->register_fidelity(rig.work_op());
    // Models were bootstrapped from the log: already trained.
    EXPECT_TRUE(rig.spectra->model("work").trained());
    EXPECT_EQ(rig.spectra->model("work").observations(), 3u);
  }
  std::remove(path.c_str());
}

TEST(SpectraClientTest, BatteryGoalWiring) {
  Rig rig;
  rig.client_machine.set_on_battery(true);
  rig.spectra->set_battery_lifetime_goal(3600.0);
  rig.client_machine.set_background_procs(1.0);
  rig.engine.advance(60.0);
  EXPECT_GT(rig.spectra->energy_importance(), 0.0);
}

TEST(SpectraClientTest, ForcedPlanIndexValidated) {
  Rig rig;
  rig.spectra->register_fidelity(rig.work_op());
  EXPECT_THROW(rig.spectra->begin_fidelity_op_forced(
                   "work", {}, "", solver::Alternative{7, -1, {}}),
               util::ContractError);
}

// A forced alternative must set one value per registered fidelity
// dimension. One that does not is refused before the operation starts, so
// the client stays idle and the next operation runs; an app's execute()
// never sees it.
TEST(SpectraClientTest, ForcedAlternativeWithWrongFidelityCountIsRefused) {
  const scenario::SpeechExperiment experiment(
      scenario::SpeechExperiment::Config{});
  auto world = experiment.trained_world();
  SpectraClient& spectra = world->spectra();
  for (const std::vector<double>& fidelity :
       {std::vector<double>{}, std::vector<double>{1.0, 0.0}}) {
    const solver::Alternative alt{apps::JanusApp::kPlanLocal, -1, fidelity};
    EXPECT_THROW(world->janus().run_forced(spectra, 2.0, alt),
                 util::ContractError);
    EXPECT_FALSE(spectra.op_in_progress());
  }
  const OperationChoice choice =
      spectra.begin_fidelity_op(apps::JanusApp::kOperation, {{"utt_len", 2.0}});
  EXPECT_TRUE(choice.ok);
  world->janus().execute(spectra, 2.0);
  EXPECT_GT(spectra.end_fidelity_op().elapsed, 0.0);
}

// A begin, a forced begin or a demand query that names a parameter the
// operation does not declare is refused before it charges a cycle, draws
// from an RNG or interns a name: the client stays idle, and the next
// declared begin runs. (Each new name would otherwise become a regression
// column and an interned string that is never freed.)
TEST(SpectraClientTest, UndeclaredBeginParameterIsRefused) {
  const scenario::SpeechExperiment experiment(
      scenario::SpeechExperiment::Config{});
  auto world = experiment.trained_world();
  SpectraClient& spectra = world->spectra();
  const std::string op = apps::JanusApp::kOperation;
  const std::map<std::string, double> params{{"utt_len", 2.0},
                                             {"utt_len_undeclared", 1.0}};
  const solver::Alternative alt{apps::JanusApp::kPlanLocal, -1,
                                {apps::JanusApp::kVocabFull}};
  const std::vector<std::function<void()>> calls = {
      [&] { spectra.begin_fidelity_op(op, params, "doc_undeclared"); },
      [&] {
        spectra.begin_fidelity_op_forced(op, params, "doc_undeclared", alt);
      },
      [&] { spectra.predict_demand(op, params, "doc_undeclared", alt); },
  };
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const std::size_t interned = util::Interner::instance().size();
    const double now = world->engine().now();
    try {
      calls[i]();
      ADD_FAILURE() << "call " << i << " accepted an undeclared parameter";
    } catch (const util::ContractError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(op), std::string::npos) << what;
      EXPECT_NE(what.find("'utt_len_undeclared'"), std::string::npos)
          << what;
    }
    EXPECT_FALSE(spectra.op_in_progress()) << i;
    EXPECT_EQ(util::Interner::instance().size(), interned) << i;
    EXPECT_EQ(world->engine().now(), now) << i;
  }
  const OperationChoice choice =
      spectra.begin_fidelity_op(op, {{"utt_len", 2.0}});
  EXPECT_TRUE(choice.ok);
  world->janus().execute(spectra, 2.0);
  EXPECT_GT(spectra.end_fidelity_op().elapsed, 0.0);
}

// Feature and parameter names are declared once, at registration, in
// strictly ascending order and at most 64 per list; anything else is
// refused, and nothing is registered.
TEST(SpectraClientTest, RegistrationRefusesUnorderedOrOversizedNameLists) {
  Rig rig;
  const auto names = [](std::size_t n) {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back("p" + std::to_string(100 + i));
    }
    return out;
  };
  const auto refused = [&](const OperationDesc& desc) {
    EXPECT_THROW(rig.spectra->register_fidelity(desc), util::ContractError);
    EXPECT_FALSE(rig.spectra->is_registered(desc.name));
  };
  OperationDesc bad = rig.work_op();
  bad.input_params = {"size", "count"};
  refused(bad);
  bad.input_params = {"count", "count"};
  refused(bad);
  bad.input_params = names(65);
  refused(bad);
  // The default mapping's discrete names: plan, server and the fidelity
  // dimensions, so a dimension may not be called "plan".
  bad = rig.work_op();
  bad.fidelities = {{"plan", {0.0, 1.0}}};
  refused(bad);
  // A hook's lists.
  bad = rig.work_op();
  bad.feature_fn = {{{"b", "a"}, {}}, [](const solver::Alternative&,
                                         const predict::FeatureSlots&,
                                         predict::FeatureVector&) {}};
  refused(bad);
  bad.feature_fn.schema = {{}, names(65)};
  refused(bad);
  OperationDesc ok = rig.work_op();
  ok.input_params = names(64);
  rig.spectra->register_fidelity(ok);
  EXPECT_TRUE(rig.spectra->is_registered("work"));
}

// A logged record is mapped onto its operation's declared names when the
// operation registers; one naming a feature the operation does not
// declare is refused.
TEST(SpectraClientTest, UsageLogRecordWithUndeclaredFeatureIsRefused) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "spectra_core_undeclared_log_test.txt";
  predict::UsageLog log;
  predict::UsageRecord record;
  record.operation = "work";
  record.discrete = {{"plan", 0.0}};
  record.continuous = {{"size", 3.0}};
  log.append(record);
  log.save(path);
  SpectraClientConfig cfg = Rig::fast_config();
  cfg.usage_log_path = path;
  Rig rig(cfg);
  try {
    rig.spectra->register_fidelity(rig.work_op());
    ADD_FAILURE() << "a record with an undeclared feature was replayed";
  } catch (const util::ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("'size'"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(rig.spectra->is_registered("work"));
  OperationDesc declared = rig.work_op();
  declared.input_params = {"size"};
  rig.spectra->register_fidelity(declared);
  EXPECT_EQ(rig.spectra->model("work").observations(), 1u);
  std::remove(path.c_str());
}

TEST(SpectraClientTest, DecisionTraceCapturedWhenEnabled) {
  SpectraClientConfig cfg = Rig::fast_config();
  cfg.trace_decisions = true;
  Rig rig(cfg);
  rig.install_work_service(rig.spectra->local_server(), 50e6);
  rig.install_work_service(*rig.server1, 50e6);
  rig.spectra->add_server(*rig.server1);
  rig.spectra->register_fidelity(rig.work_op());
  EXPECT_EQ(rig.spectra->last_decision_trace(), nullptr);
  for (int i = 0; i < 2; ++i) {
    rig.spectra->begin_fidelity_op_forced("work", {}, "",
                                          solver::Alternative{0, -1, {}});
    rpc::Request req;
    req.op_type = "work";
    rig.spectra->do_local_op("work", req);
    rig.spectra->end_fidelity_op();
  }
  rig.spectra->begin_fidelity_op("work", {});
  rig.spectra->end_fidelity_op();
  const auto* trace = rig.spectra->last_decision_trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->operation, "work");
  EXPECT_GE(trace->entries.size(), 2u);  // local + remote evaluated
  const std::string rendered = trace->to_string();
  EXPECT_NE(rendered.find("<== chosen"), std::string::npos);
  EXPECT_NE(rendered.find("Decision trace: work"), std::string::npos);
}

TEST(SpectraClientTest, NoTraceWhenDisabled) {
  Rig rig;  // trace_decisions defaults to false
  rig.install_work_service(rig.spectra->local_server(), 50e6);
  rig.spectra->register_fidelity(rig.work_op());
  for (int i = 0; i < 3; ++i) {
    rig.spectra->begin_fidelity_op_forced("work", {}, "",
                                          solver::Alternative{0, -1, {}});
    rpc::Request req;
    req.op_type = "work";
    rig.spectra->do_local_op("work", req);
    rig.spectra->end_fidelity_op();
  }
  rig.spectra->begin_fidelity_op("work", {});
  rig.spectra->end_fidelity_op();
  EXPECT_EQ(rig.spectra->last_decision_trace(), nullptr);
}

TEST(SpectraClientTest, ApplicationSpecificUtilityOverride) {
  // The paper lets applications replace the default utility function
  // (§3.6). A perverse utility that prefers the SLOWEST alternative must
  // flip the choice, proving the override is honored end to end.
  class SlowestIsBest : public solver::UtilityFunction {
   public:
    double log_utility(const solver::UserMetrics& m,
                       double /*c*/) const override {
      return m.time;  // more predicted time = better
    }
  };
  Rig rig;
  rig.install_work_service(rig.spectra->local_server(), 200e6);
  rig.install_work_service(*rig.server2, 200e6);
  rig.spectra->add_server(*rig.server2);
  OperationDesc desc = rig.work_op();
  desc.utility = std::make_shared<SlowestIsBest>();
  rig.spectra->register_fidelity(desc);
  auto run_forced = [&](const solver::Alternative& alt) {
    rig.spectra->begin_fidelity_op_forced("work", {}, "", alt);
    rpc::Request req;
    req.op_type = "work";
    if (alt.server >= 0) {
      rig.spectra->do_remote_op("work", req);
    } else {
      rig.spectra->do_local_op("work", req);
    }
    rig.spectra->end_fidelity_op();
  };
  for (int i = 0; i < 3; ++i) {
    run_forced(solver::Alternative{0, -1, {}});
    run_forced(solver::Alternative{1, kServer2, {}});
  }
  // Local (200 MHz) is slower than server2 (800 MHz): the override must
  // pick local even though the default utility would pick server2.
  const auto choice = rig.spectra->begin_fidelity_op("work", {});
  EXPECT_EQ(choice.alternative.server, -1);
  rig.spectra->end_fidelity_op();
}

// --------------------------------------------------------- ConsistencyManager

TEST(ConsistencyManagerTest, DirtyFilesEnumerated) {
  Rig rig;
  ConsistencyManager cm(*rig.client_coda);
  EXPECT_TRUE(cm.dirty_files().empty());
  rig.client_coda->write("data/input", 60_KB);
  const auto dirty = cm.dirty_files();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0].path, "data/input");
  EXPECT_DOUBLE_EQ(dirty[0].size, 60_KB);
  EXPECT_EQ(dirty[0].volume, "data");
}

TEST(ConsistencyManagerTest, EnsureReintegratesPredictedVolumes) {
  Rig rig;
  ConsistencyManager cm(*rig.client_coda);
  rig.client_coda->write("data/input");
  const Seconds spent = cm.ensure_consistency(
      {predict::FilePrediction{"data/input", 50_KB, 0.9}});
  EXPECT_GT(spent, 0.0);
  EXPECT_FALSE(rig.client_coda->has_dirty_files());
}

TEST(ConsistencyManagerTest, LowLikelihoodSkipsReintegration) {
  Rig rig;
  ConsistencyManager cm(*rig.client_coda);
  rig.client_coda->write("data/input");
  const Seconds spent = cm.ensure_consistency(
      {predict::FilePrediction{"data/input", 50_KB, 0.001}});
  EXPECT_DOUBLE_EQ(spent, 0.0);
  EXPECT_TRUE(rig.client_coda->has_dirty_files());
}

// ---------------------------------------------------- decision allocations

// Heap allocations and solver evaluations per begin_fidelity_op on a
// trained Pangloss world whose solver may evaluate up to `budget`
// candidates, averaged over `measured` decisions after `warmup` cycles.
struct DecisionCost {
  double allocs = 0.0;
  double evaluations = 0.0;
};

DecisionCost pangloss_decision_cost(std::size_t budget, int warmup,
                                    int measured) {
  scenario::PanglossExperiment::Config cfg;
  cfg.seed = 1;
  cfg.spectra_overrides = [budget](SpectraClientConfig& c) {
    c.solver.max_evaluations = budget;
  };
  const scenario::PanglossExperiment experiment(cfg);
  auto world = experiment.trained_world();
  SpectraClient& spectra = world->spectra();
  const apps::PanglossApp& app = world->pangloss();
  constexpr int kWords[] = {6, 10, 14, 38, 44};  // the paper's sentences
  DecisionCost cost;
  for (int i = 0; i < warmup + measured; ++i) {
    const int words = kWords[i % 5];
    const std::map<std::string, double> params{
        {"words", static_cast<double>(words)}};
    const unsigned long long before = obs::memaudit_total().allocs;
    const OperationChoice choice =
        spectra.begin_fidelity_op(apps::PanglossApp::kOperation, params);
    const unsigned long long after = obs::memaudit_total().allocs;
    EXPECT_TRUE(choice.from_model);
    if (i >= warmup) {
      cost.allocs += static_cast<double>(after - before);
      cost.evaluations += static_cast<double>(choice.evaluations);
    }
    app.execute(spectra, words);
    spectra.end_fidelity_op();
  }
  cost.allocs /= measured;
  cost.evaluations /= measured;
  return cost;
}

// The steady-state contract of DESIGN.md §10: evaluating a candidate (the
// solver's scratch alternative, the feature hook, the per-solve demand
// cache, the predictors, the estimator and the utility) allocates nothing
// while the client has no dirty files, as in Pangloss. Two worlds that differ only in the evaluation budget pay the same fixed
// per-decision allocations, so their difference is the per-candidate cost.
TEST(DecisionAllocationTest, ExtraEvaluationsAllocateNothing) {
  if (!obs::memaudit_enabled()) {
    GTEST_SKIP() << "memaudit hook not linked (sanitizer build)";
  }
  const DecisionCost wide = pangloss_decision_cost(192, 100, 100);
  const DecisionCost narrow = pangloss_decision_cost(64, 100, 100);
  const double extra_evaluations = wide.evaluations - narrow.evaluations;
  const double extra_allocs = wide.allocs - narrow.allocs;
  ASSERT_GT(extra_evaluations, 30.0) << "budgets did not change the search";
  EXPECT_LT(extra_allocs, extra_evaluations / 10.0)
      << wide.allocs << " allocations/decision at " << wide.evaluations
      << " evaluations vs " << narrow.allocs << " at " << narrow.evaluations;
}

}  // namespace
}  // namespace spectra::core
