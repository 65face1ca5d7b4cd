#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <string>

#include "fs/coda.h"
#include "hw/machine.h"
#include "monitor/battery_monitor.h"
#include "monitor/cache_monitor.h"
#include "monitor/cpu_monitor.h"
#include "monitor/monitor.h"
#include "monitor/network_monitor.h"
#include "monitor/remote_proxy.h"
#include "net/network.h"
#include "obs/obs.h"
#include "rpc/rpc.h"
#include "sim/engine.h"
#include "util/units.h"

namespace spectra::monitor {
namespace {

using namespace spectra::util;  // NOLINT: unit literals in tests

constexpr MachineId kClient = 0;
constexpr MachineId kServer = 1;
constexpr MachineId kFs = 9;

struct Fixture {
  sim::Engine engine;
  hw::Machine client;
  hw::Machine server;
  hw::Machine fsrv;
  net::Network net;
  fs::FileServer file_server;
  fs::CodaClient coda;

  Fixture()
      : client(engine, client_spec(), Rng(1)),
        server(engine, server_spec(), Rng(2)),
        fsrv(engine, server_spec(), Rng(3)),
        net(engine, Rng(4)),
        file_server(kFs),
        coda(kClient, client, net, file_server) {
    net.add_machine(kClient, &client);
    net.add_machine(kServer, &server);
    net.add_machine(kFs, &fsrv);
    net.set_link(kClient, kServer, {100000.0, 0.01});
    net.set_link(kClient, kFs, {50000.0, 0.02});
    file_server.create({"f1", 10_KB, "v"});
    file_server.create({"f2", 20_KB, "v"});
  }

  static hw::MachineSpec client_spec() {
    hw::MachineSpec s;
    s.name = "client";
    s.cpu_hz = 200_MHz;
    s.power = hw::PowerModel{1.0, 2.0, 0.5};
    s.battery_capacity_j = 1000.0;
    return s;
  }
  static hw::MachineSpec server_spec() {
    hw::MachineSpec s;
    s.name = "server";
    s.cpu_hz = 800_MHz;
    s.power = hw::PowerModel{10.0, 10.0, 2.0};
    return s;
  }
};

// ------------------------------------------------------------------ CPU

TEST(CpuMonitorTest, PredictsFullSpeedWhenIdle) {
  Fixture f;
  CpuMonitor m(f.engine, f.client);
  ResourceSnapshot snap;
  m.predict_avail(snap);
  EXPECT_NEAR(snap.local_cpu_hz, 200e6, 5e6);
}

TEST(CpuMonitorTest, PredictsFairShareUnderLoad) {
  Fixture f;
  CpuMonitor m(f.engine, f.client);
  f.client.set_background_procs(1.0);
  f.engine.advance(10.0);  // let the periodic sampler observe the load
  ResourceSnapshot snap;
  m.predict_avail(snap);
  EXPECT_NEAR(snap.local_cpu_hz, 100e6, 10e6);
}

TEST(CpuMonitorTest, SmoothingTracksLoadChanges) {
  Fixture f;
  CpuMonitor m(f.engine, f.client, 1.0, 0.4);
  f.client.set_background_procs(2.0);
  f.engine.advance(2.0);
  const double early = m.smoothed_queue();
  f.engine.advance(15.0);
  const double late = m.smoothed_queue();
  EXPECT_GT(late, early);
  EXPECT_NEAR(late, 2.0, 0.2);
}

TEST(CpuMonitorTest, MeasuresOperationCycles) {
  Fixture f;
  CpuMonitor m(f.engine, f.client);
  m.start_op();
  f.client.run_cycles(50e6);
  OperationUsage usage;
  m.stop_op(usage);
  EXPECT_DOUBLE_EQ(usage.local_cycles, 50e6);
}

TEST(CpuMonitorTest, ExcludesWorkOutsideOperation) {
  Fixture f;
  CpuMonitor m(f.engine, f.client);
  f.client.run_cycles(100e6);  // before the op: not counted
  m.start_op();
  f.client.run_cycles(10e6);
  OperationUsage usage;
  m.stop_op(usage);
  EXPECT_DOUBLE_EQ(usage.local_cycles, 10e6);
}

// --------------------------------------------------------------- network

TEST(NetworkMonitorTest, DefaultsBeforeObservation) {
  Fixture f;
  NetworkMonitorConfig cfg;
  NetworkMonitor m(f.engine, f.net, kClient, cfg);
  EXPECT_DOUBLE_EQ(m.bandwidth_estimate(kServer), cfg.default_bandwidth);
  EXPECT_DOUBLE_EQ(m.latency_estimate(kServer), cfg.default_latency);
}

TEST(NetworkMonitorTest, LearnsBandwidthFromBulkTransfers) {
  Fixture f;
  NetworkMonitor m(f.engine, f.net, kClient);
  for (int i = 0; i < 5; ++i) {
    f.net.transfer(kClient, kServer, 50000.0);
    f.engine.advance(2.5);  // periodic refresh ingests the log
  }
  EXPECT_NEAR(m.bandwidth_estimate(kServer), 100000.0, 20000.0);
}

TEST(NetworkMonitorTest, LearnsLatencyFromSmallTransfers) {
  Fixture f;
  NetworkMonitor m(f.engine, f.net, kClient);
  for (int i = 0; i < 5; ++i) {
    f.net.transfer(kClient, kServer, 200.0);
    f.engine.advance(2.5);
  }
  EXPECT_NEAR(m.latency_estimate(kServer), 0.012, 0.008);
}

TEST(NetworkMonitorTest, TracksBandwidthChange) {
  Fixture f;
  NetworkMonitor m(f.engine, f.net, kClient);
  for (int i = 0; i < 4; ++i) {
    f.net.transfer(kClient, kServer, 50000.0);
    f.engine.advance(2.5);
  }
  f.net.set_link_bandwidth(kClient, kServer, 50000.0);  // halve it
  for (int i = 0; i < 6; ++i) {
    f.net.transfer(kClient, kServer, 50000.0);
    f.engine.advance(2.5);
  }
  EXPECT_NEAR(m.bandwidth_estimate(kServer), 50000.0, 12000.0);
}

TEST(NetworkMonitorTest, EstimatesArePerPeer) {
  Fixture f;
  NetworkMonitor m(f.engine, f.net, kClient);
  for (int i = 0; i < 5; ++i) {
    f.net.transfer(kClient, kServer, 50000.0);  // 100 KB/s link
    f.net.transfer(kClient, kFs, 50000.0);      // 50 KB/s link
    f.engine.advance(2.5);
  }
  EXPECT_GT(m.bandwidth_estimate(kServer), 1.5 * m.bandwidth_estimate(kFs));
}

TEST(NetworkMonitorTest, UnobservedPeerInheritsMachineEstimate) {
  // The paper's first-hop-bottleneck apportioning: traffic to ANY peer
  // informs the estimate for a peer never talked to.
  Fixture f;
  NetworkMonitor m(f.engine, f.net, kClient);
  for (int i = 0; i < 5; ++i) {
    f.net.transfer(kClient, kServer, 50000.0);  // 100 KB/s link
    f.engine.advance(2.5);
  }
  EXPECT_GT(m.machine_bandwidth_estimate(), 0.0);
  // kFs has never been used: estimate follows the machine-wide number,
  // not the static default.
  EXPECT_NEAR(m.bandwidth_estimate(kFs), m.machine_bandwidth_estimate(),
              1.0);
  EXPECT_NE(m.bandwidth_estimate(kFs),
            NetworkMonitorConfig{}.default_bandwidth);
}

TEST(NetworkMonitorTest, PeerSpecificBeatsMachineEstimate) {
  Fixture f;
  NetworkMonitor m(f.engine, f.net, kClient);
  for (int i = 0; i < 5; ++i) {
    f.net.transfer(kClient, kServer, 50000.0);  // 100 KB/s
    f.net.transfer(kClient, kFs, 50000.0);      // 50 KB/s
    f.engine.advance(2.5);
  }
  // kFs keeps its own (slower) estimate despite the faster machine blend.
  EXPECT_LT(m.bandwidth_estimate(kFs), m.machine_bandwidth_estimate());
}

TEST(NetworkMonitorTest, FillsSnapshotServerEntries) {
  Fixture f;
  NetworkMonitor m(f.engine, f.net, kClient);
  ResourceSnapshot snap;
  snap.servers.emplace(kServer, ServerAvailability{});
  m.predict_avail(snap);
  EXPECT_TRUE(snap.servers.at(kServer).reachable);
  EXPECT_GT(snap.servers.at(kServer).bandwidth, 0.0);
  f.net.set_link_up(kClient, kServer, false);
  m.predict_avail(snap);
  EXPECT_FALSE(snap.servers.at(kServer).reachable);
}

TEST(NetworkMonitorTest, CountsOperationTraffic) {
  Fixture f;
  NetworkMonitor m(f.engine, f.net, kClient);
  m.start_op();
  rpc::CallStats s1{1000.0, 2000.0, 1, 0.1};
  rpc::CallStats s2{500.0, 100.0, 1, 0.05};
  m.note_call(s1);
  m.note_call(s2);
  OperationUsage usage;
  m.stop_op(usage);
  EXPECT_DOUBLE_EQ(usage.bytes_sent, 1500.0);
  EXPECT_DOUBLE_EQ(usage.bytes_received, 2100.0);
  EXPECT_EQ(usage.rpcs, 2);
}

TEST(NetworkMonitorTest, SameTickBulkTransfersBothIngested) {
  Fixture f;
  NetworkMonitor m(f.engine, f.net, kClient);
  obs::Observability obs;
  m.attach(&obs);
  // An effectively zero-duration link: at t=10 each transfer's duration
  // (~1e-296 s) is far below one ulp of virtual time, so two back-to-back
  // transfers share a start tick. Dedup must key on the unique transfer id;
  // a `start <= last_seen` timestamp test drops the second one.
  f.net.set_link(kClient, kServer, {1e300, 0.0});
  f.engine.advance(10.0);
  f.net.transfer(kClient, kServer, 8192.0);
  f.net.transfer(kClient, kServer, 16384.0);
  f.engine.advance(2.5);  // periodic refresh ingests the log
  const auto* ingested =
      obs.metrics().find_counter("monitor.network.ingested");
  ASSERT_NE(ingested, nullptr);
  EXPECT_DOUBLE_EQ(ingested->value(), 2.0);
  // Both samples reached the bandwidth EWMA: the estimate sits strictly
  // above the first sample (8192 bytes / 1 us floor), which is where it
  // would be stuck had the second transfer been dropped.
  EXPECT_GT(m.bandwidth_estimate(kServer), 1.1 * 8192.0 / 1e-6);
  // Re-examining the same window is idempotent.
  f.engine.advance(2.5);
  EXPECT_DOUBLE_EQ(ingested->value(), 2.0);
  EXPECT_GT(obs.metrics().find_counter("monitor.network.refreshes")->value(),
            1.0);
}

// The refresh before the monitor kept a cursor: re-read every in-window
// record at each refresh and skip, per peer, the ids already ingested.
struct FullScanReference {
  struct Peer {
    util::Ewma bandwidth{0.5};
    util::Ewma latency{0.5};
    std::uint64_t last_ingested_id = 0;
  };
  NetworkMonitorConfig cfg;
  std::map<MachineId, Peer> peers;
  util::Ewma machine_bw{0.5};

  void refresh(const net::Network& net) {
    for (const auto& t : net.recent_transfers(kClient, cfg.observation_window)) {
      Peer& est = peers[(t.from == kClient) ? t.to : t.from];
      if (t.id <= est.last_ingested_id) continue;
      est.last_ingested_id = t.id;
      if (t.bytes <= cfg.small_transfer_max) est.latency.add(t.duration);
      if (t.bytes >= cfg.bulk_transfer_min && t.duration > 0.0) {
        const Seconds lat =
            est.latency.empty() ? cfg.default_latency : est.latency.value();
        const Seconds payload_time = std::max(t.duration - lat, 1e-6);
        est.bandwidth.add(t.bytes / payload_time);
        machine_bw.add(t.bytes / payload_time);
      }
    }
  }
  BytesPerSec bandwidth(MachineId id) const {
    auto it = peers.find(id);
    if (it != peers.end() && !it->second.bandwidth.empty()) {
      return it->second.bandwidth.value();
    }
    return machine_bw.empty() ? cfg.default_bandwidth : machine_bw.value();
  }
  Seconds latency(MachineId id) const {
    auto it = peers.find(id);
    return it == peers.end() || it->second.latency.empty()
               ? cfg.default_latency
               : it->second.latency.value();
  }
};

TEST(NetworkMonitorTest, IncrementalRefreshMatchesFullScan) {
  Fixture f;
  constexpr MachineId kPeer2 = 2;
  constexpr MachineId kFast = 3;
  hw::Machine peer2(f.engine, Fixture::server_spec(), Rng(5));
  hw::Machine fast(f.engine, Fixture::server_spec(), Rng(6));
  f.net.add_machine(kPeer2, &peer2);
  f.net.add_machine(kFast, &fast);
  f.net.set_link(kClient, kPeer2, {20000.0, 0.05});
  f.net.set_link(kClient, kFast, {1e9, 1e-5});
  f.net.set_link(kServer, kPeer2, {80000.0, 0.01});  // not the client's
  const std::vector<MachineId> peers = {kServer, kFs, kPeer2, kFast};

  // Refreshes happen only when the test asks, at irregular times.
  NetworkMonitorConfig cfg;
  cfg.refresh_period = 1e9;
  auto monitor = std::make_unique<NetworkMonitor>(f.engine, f.net, kClient,
                                                  cfg);
  std::unique_ptr<NetworkMonitor> clone;
  FullScanReference ref;
  ref.cfg = cfg;
  obs::Observability obs;
  monitor->attach(&obs);
  util::Rng rng(41);

  const auto refresh_and_check = [&](int round) {
    ResourceSnapshot snap;
    for (const MachineId p : peers) snap.servers.emplace(p, ServerAvailability{});
    ref.refresh(f.net);
    for (NetworkMonitor* m : {monitor.get(), clone.get()}) {
      if (m == nullptr) continue;
      m->predict_avail(snap);
      EXPECT_EQ(m->machine_bandwidth_estimate(),
                ref.machine_bw.empty() ? 0.0 : ref.machine_bw.value())
          << round;
      for (const MachineId p : peers) {
        EXPECT_EQ(snap.servers.at(p).bandwidth, ref.bandwidth(p)) << round;
        EXPECT_EQ(snap.servers.at(p).latency, ref.latency(p)) << round;
        EXPECT_EQ(m->bandwidth_estimate(p), ref.bandwidth(p)) << round;
        EXPECT_EQ(m->latency_estimate(p), ref.latency(p)) << round;
      }
    }
  };
  const auto random_transfers = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const auto pick = rng.uniform_int(0, 4);
      const double bytes = rng.uniform() < 0.5 ? rng.uniform(50.0, 1000.0)
                                               : rng.uniform(5000.0, 60000.0);
      if (pick == 4) {
        f.net.transfer(kServer, kPeer2, bytes);  // invisible to the client
      } else if (rng.uniform() < 0.5) {
        f.net.transfer(kClient, peers[static_cast<std::size_t>(pick)], bytes);
      } else {
        f.net.transfer(peers[static_cast<std::size_t>(pick)], kClient, bytes);
      }
    }
  };

  int round = 0;
  for (; round < 30; ++round) {
    random_transfers(static_cast<int>(rng.uniform_int(0, 12)));
    // Sometimes long enough for records to leave the 30-s window before
    // any refresh sees them.
    f.engine.advance(rng.uniform() < 0.2 ? rng.uniform(25.0, 45.0)
                                         : rng.uniform(0.0, 3.0));
    if (round == 12) {
      // More transfers between two refreshes than the log keeps (4096).
      for (int i = 0; i < 5000; ++i) {
        f.net.transfer(kClient, kFast, i % 2 == 0 ? 200.0 : 9000.0);
      }
    }
    refresh_and_check(round);
    if (round == 18) {
      // A clone mid-stream (as World::clone does) continues from the
      // source's cursor and estimates.
      clone = std::make_unique<NetworkMonitor>(f.engine, f.net, kClient, cfg);
      clone->copy_state_from(*monitor);
    }
  }
  EXPECT_GT(obs.metrics().find_counter("monitor.network.ingested")->value(),
            4096.0);
}

TEST(NetworkMonitorTest, StartOpResetsCounters) {
  Fixture f;
  NetworkMonitor m(f.engine, f.net, kClient);
  m.start_op();
  m.note_call(rpc::CallStats{1000.0, 0.0, 1, 0.1});
  OperationUsage u1;
  m.stop_op(u1);
  m.start_op();
  OperationUsage u2;
  m.stop_op(u2);
  EXPECT_DOUBLE_EQ(u2.bytes_sent, 0.0);
  EXPECT_EQ(u2.rpcs, 0);
}

// --------------------------------------------------------------- battery

std::unique_ptr<hw::EnergyDriver> multimeter(hw::Machine& m) {
  return std::make_unique<hw::MultimeterDriver>(m.meter());
}

TEST(BatteryMonitorTest, MeasuresOperationEnergy) {
  Fixture f;
  BatteryMonitor m(f.engine, f.client, multimeter(f.client));
  m.start_op();
  f.client.run_cycles(200e6);  // 1 s at 3 W
  OperationUsage usage;
  m.stop_op(usage);
  EXPECT_NEAR(usage.energy, 3.0, 0.01);
  EXPECT_TRUE(usage.energy_valid);
}

TEST(BatteryMonitorTest, ConcurrentOperationsInvalidateEnergy) {
  Fixture f;
  BatteryMonitor m(f.engine, f.client, multimeter(f.client));
  m.note_concurrent_op_started();
  m.start_op();
  f.client.run_cycles(200e6);
  OperationUsage usage;
  m.stop_op(usage);
  EXPECT_FALSE(usage.energy_valid);
  m.note_concurrent_op_finished();
}

TEST(BatteryMonitorTest, SnapshotReportsRemainingAndImportance) {
  Fixture f;
  BatteryMonitor m(f.engine, f.client, multimeter(f.client));
  ResourceSnapshot snap;
  m.predict_avail(snap);
  EXPECT_NEAR(snap.battery_remaining, 1000.0, 1.0);
  EXPECT_DOUBLE_EQ(snap.energy_importance, 0.0);
}

TEST(GoalAdaptationTest, WallPowerKeepsImportanceZero) {
  Fixture f;
  BatteryMonitor m(f.engine, f.client, multimeter(f.client));
  m.adaptation().set_goal(3600.0);
  f.client.set_background_procs(1.0);  // burn power
  f.engine.advance(60.0);
  EXPECT_DOUBLE_EQ(m.adaptation().importance(), 0.0);  // not on battery
}

TEST(GoalAdaptationTest, ImportanceRisesWhenGoalUnreachable) {
  Fixture f;
  f.client.set_on_battery(true);
  BatteryMonitor m(f.engine, f.client, multimeter(f.client));
  // 1000 J battery, ~3 W draw -> ~5.5 min lifetime, goal 1 h.
  m.adaptation().set_goal(3600.0);
  f.client.set_background_procs(1.0);
  f.engine.advance(60.0);
  EXPECT_GT(m.adaptation().importance(), 0.5);
}

TEST(GoalAdaptationTest, ImportanceFallsWithSlack) {
  Fixture f;
  f.client.set_on_battery(true);
  BatteryMonitor m(f.engine, f.client, multimeter(f.client));
  m.adaptation().set_goal(3600.0);
  f.client.set_background_procs(1.0);
  f.engine.advance(60.0);
  const double high = m.adaptation().importance();
  f.client.set_background_procs(0.0);  // idle: 1 W -> ~16 min... still short
  // Make the battery effectively infinite by clearing and re-goaling short.
  m.adaptation().set_goal(10.0);  // goal nearly met
  f.engine.advance(60.0);
  EXPECT_LT(m.adaptation().importance(), high);
}

TEST(GoalAdaptationTest, PinOverridesFeedback) {
  Fixture f;
  f.client.set_on_battery(true);
  BatteryMonitor m(f.engine, f.client, multimeter(f.client));
  m.adaptation().pin_importance(0.5);
  m.adaptation().set_goal(3600.0);
  f.client.set_background_procs(1.0);
  f.engine.advance(60.0);
  EXPECT_DOUBLE_EQ(m.adaptation().importance(), 0.5);
  m.adaptation().pin_importance(-1.0);  // unpin
  EXPECT_NE(m.adaptation().importance(), 0.5);
}

TEST(GoalAdaptationTest, PredictedLifetimeInfiniteWithoutDemand) {
  Fixture f;
  BatteryMonitor m(f.engine, f.client, multimeter(f.client));
  EXPECT_TRUE(std::isinf(m.adaptation().predicted_lifetime()));
}

TEST(BatteryMonitorTest, NullDriverRejected) {
  Fixture f;
  EXPECT_THROW(BatteryMonitor(f.engine, f.client, nullptr),
               util::ContractError);
}

// ------------------------------------------------------------- file cache

TEST(FileCacheMonitorTest, SnapshotListsCachedFiles) {
  Fixture f;
  FileCacheMonitor m(f.coda);
  f.coda.warm("f1");
  ResourceSnapshot snap;
  m.predict_avail(snap);
  EXPECT_EQ(snap.local_cached_files->size(), 1u);
  EXPECT_DOUBLE_EQ(snap.local_cached_files->at("f1"), 10_KB);
  EXPECT_GT(snap.local_fetch_rate, 0.0);
}

TEST(FileCacheMonitorTest, SnapshotCostsTime) {
  Fixture f;
  FileCacheMonitor m(f.coda);
  const Seconds t0 = f.engine.now();
  ResourceSnapshot snap;
  m.predict_avail(snap);
  EXPECT_GT(f.engine.now(), t0);  // the costed Coda dump ran
}

TEST(FileCacheMonitorTest, TracesOperationAccesses) {
  Fixture f;
  FileCacheMonitor m(f.coda);
  m.start_op();
  f.coda.read("f1");
  OperationUsage usage;
  m.stop_op(usage);
  ASSERT_EQ(usage.local_file_accesses.size(), 1u);
  EXPECT_EQ(usage.local_file_accesses[0].path, "f1");
}

TEST(FileCacheMonitorTest, IncrementalModeMirrorsCache) {
  Fixture f;
  FileCacheMonitor m(f.coda, /*incremental=*/true);
  f.coda.warm("f1");
  ResourceSnapshot s1;
  m.predict_avail(s1);
  EXPECT_EQ(s1.local_cached_files->count("f1"), 1u);
  f.coda.warm("f2");
  f.coda.evict("f1");
  ResourceSnapshot s2;
  m.predict_avail(s2);
  EXPECT_EQ(s2.local_cached_files->count("f1"), 0u);
  EXPECT_EQ(s2.local_cached_files->count("f2"), 1u);
}

TEST(FileCacheMonitorTest, IncrementalModeIsCheaperOnBigStableCache) {
  Fixture f;
  for (int i = 0; i < 300; ++i) {
    f.file_server.create({"n" + std::to_string(i), 64.0, "volx"});
    f.coda.warm("n" + std::to_string(i));
  }
  FileCacheMonitor full(f.coda, /*incremental=*/false);
  FileCacheMonitor inc(f.coda, /*incremental=*/true);
  ResourceSnapshot warmup;
  inc.predict_avail(warmup);  // first call pays for the initial mirror
  const Seconds t0 = f.engine.now();
  ResourceSnapshot s_inc;
  inc.predict_avail(s_inc);
  const Seconds inc_cost = f.engine.now() - t0;
  const Seconds t1 = f.engine.now();
  ResourceSnapshot s_full;
  full.predict_avail(s_full);
  const Seconds full_cost = f.engine.now() - t1;
  EXPECT_LT(inc_cost, full_cost / 10.0);
  // Both views agree.
  EXPECT_EQ(*s_inc.local_cached_files, *s_full.local_cached_files);
}

TEST(FileCacheMonitorTest, EarlierSnapshotsUnaffectedByLaterChanges) {
  // Copy-on-write: a snapshot taken before a cache change must keep the
  // old view even after the monitor updates its mirror.
  Fixture f;
  FileCacheMonitor m(f.coda, /*incremental=*/true);
  f.coda.warm("f1");
  ResourceSnapshot before;
  m.predict_avail(before);
  f.coda.evict("f1");
  ResourceSnapshot after;
  m.predict_avail(after);
  EXPECT_EQ(before.local_cached_files->count("f1"), 1u);
  EXPECT_EQ(after.local_cached_files->count("f1"), 0u);
}

// ----------------------------------------------------------- remote proxy

ServerStatusReport make_report(MachineId id, double queue, Hertz hz) {
  ServerStatusReport r;
  r.server = id;
  r.generated_at = 0.0;
  r.run_queue = queue;
  r.cpu_hz = hz;
  auto files = std::make_shared<CachedFileView>();
  (*files)[util::Symbol("x")] = 100.0;
  r.cached_files = std::move(files);
  r.fetch_rate = 5000.0;
  return r;
}

TEST(RemoteCpuProxyTest, PredictsFromLastReport) {
  Fixture f;
  RemoteCpuProxy proxy(f.engine);
  proxy.update_preds(make_report(kServer, 1.0, 800e6));
  ResourceSnapshot snap;
  snap.servers.emplace(kServer, ServerAvailability{});
  f.engine.advance(3.0);
  proxy.predict_avail(snap);
  EXPECT_NEAR(snap.servers.at(kServer).cpu_hz, 400e6, 1e6);
  EXPECT_NEAR(snap.servers.at(kServer).status_age, 3.0, 1e-9);
}

TEST(RemoteCpuProxyTest, UnpolledServerStaysUnknown) {
  Fixture f;
  RemoteCpuProxy proxy(f.engine);
  ResourceSnapshot snap;
  snap.servers.emplace(kServer, ServerAvailability{});
  proxy.predict_avail(snap);
  EXPECT_DOUBLE_EQ(snap.servers.at(kServer).cpu_hz, 0.0);
  EXPECT_FALSE(proxy.has_status(kServer));
}

TEST(RemoteCpuProxyTest, AccumulatesRpcUsage) {
  Fixture f;
  RemoteCpuProxy proxy(f.engine);
  rpc::UsageReport r1;
  r1.cpu_cycles = 1e6;
  rpc::UsageReport r2;
  r2.cpu_cycles = 2e6;
  OperationUsage usage;
  proxy.add_usage(kServer, r1, usage);
  proxy.add_usage(kServer, r2, usage);
  EXPECT_DOUBLE_EQ(usage.remote_cycles, 3e6);
}

TEST(RemoteCacheProxyTest, PredictsCacheContents) {
  Fixture f;
  RemoteCacheProxy proxy(f.engine);
  proxy.update_preds(make_report(kServer, 0.0, 800e6));
  ResourceSnapshot snap;
  snap.servers.emplace(kServer, ServerAvailability{});
  proxy.predict_avail(snap);
  EXPECT_EQ(snap.servers.at(kServer).cached_files->count("x"), 1u);
  EXPECT_DOUBLE_EQ(snap.servers.at(kServer).fetch_rate, 5000.0);
}

TEST(RemoteCacheProxyTest, AccumulatesFileAccesses) {
  Fixture f;
  RemoteCacheProxy proxy(f.engine);
  rpc::UsageReport r;
  r.file_accesses.push_back(fs::Access{"f", 10.0, false, true});
  OperationUsage usage;
  proxy.add_usage(kServer, r, usage);
  proxy.add_usage(kServer, r, usage);
  EXPECT_EQ(usage.remote_file_accesses.size(), 2u);
}

// -------------------------------------------------------------- MonitorSet

TEST(MonitorSetTest, DispatchesToAllMonitors) {
  Fixture f;
  MonitorSet set;
  set.add(std::make_unique<CpuMonitor>(f.engine, f.client));
  set.add(std::make_unique<NetworkMonitor>(f.engine, f.net, kClient));
  set.add(std::make_unique<RemoteCpuProxy>(f.engine));
  EXPECT_EQ(set.size(), 3u);
  const auto snap = set.build_snapshot({kServer}, f.engine.now());
  EXPECT_GT(snap.local_cpu_hz, 0.0);
  EXPECT_EQ(snap.servers.size(), 1u);
  EXPECT_TRUE(snap.servers.count(kServer));
}

TEST(MonitorSetTest, FindByName) {
  Fixture f;
  MonitorSet set;
  set.add(std::make_unique<CpuMonitor>(f.engine, f.client));
  EXPECT_NE(set.find("cpu"), nullptr);
  EXPECT_EQ(set.find("nope"), nullptr);
}

// A monitor whose predict_avail busy-waits for `spin` of host time.
class SpinMonitor : public ResourceMonitor {
 public:
  explicit SpinMonitor(std::chrono::microseconds spin) : spin_(spin) {}
  const std::string& name() const override { return name_; }
  void predict_avail(ResourceSnapshot& snapshot) override {
    (void)snapshot;
    const auto until = std::chrono::steady_clock::now() + spin_;
    while (std::chrono::steady_clock::now() < until) {
    }
  }
  void copy_state_from(const ResourceMonitor& src) override { (void)src; }

 private:
  std::string name_ = "spin";
  std::chrono::microseconds spin_;
};

TEST(MonitorSetTest, RecordsPredictWallTimes) {
  Fixture f;
  MonitorSet set;
  EXPECT_EQ(set.add(std::make_unique<CpuMonitor>(f.engine, f.client)), 0u);
  const std::size_t spin =
      set.add(std::make_unique<SpinMonitor>(std::chrono::milliseconds(2)));
  EXPECT_EQ(spin, 1u);
  set.add(std::make_unique<RemoteCpuProxy>(f.engine));
  ASSERT_EQ(set.last_predict_wall_times().size(), 3u);
  EXPECT_EQ(set.last_predict_wall_times()[spin], 0.0);
  set.build_snapshot({}, f.engine.now());
  // Only build_snapshot can put the spin monitor's 2 ms into its slot.
  EXPECT_GE(set.last_predict_wall_times()[spin], 2e-3);
}

TEST(MonitorSetTest, NullMonitorRejected) {
  MonitorSet set;
  EXPECT_THROW(set.add(nullptr), util::ContractError);
}

TEST(StatusReportTest, WireSizeGrowsWithCacheList) {
  ServerStatusReport small = make_report(kServer, 0, 1e6);
  ServerStatusReport big = small;
  auto big_files = std::make_shared<CachedFileView>(*big.cached_files);
  for (int i = 0; i < 100; ++i) {
    (*big_files)[util::Symbol("f" + std::to_string(i))] = 1.0;
  }
  big.cached_files = std::move(big_files);
  EXPECT_GT(big.wire_size(), small.wire_size() + 4000.0);
}

}  // namespace
}  // namespace spectra::monitor
