// Fleet-scale world tests (ISSUE 6): admission-queue properties, scenario
// generator determinism, and whole-fleet determinism under parallelism,
// cloning, and chaos.
//
//   * AdmissionQueue property tests — FIFO ordering, weighted-fair shares
//     and starvation freedom, the queue bound, and conservation
//     (submitted == admitted + rejected; admitted == completed + aborted +
//     in-flight) under randomized arrival/advance/abort sequences.
//   * FleetScenario — pure function of the seed; diurnal waves and flash
//     crowds actually modulate arrivals; the device mix matches the
//     configured fractions.
//   * FleetWorld — a 64-client fleet is byte-identical (trace, metrics
//     CSV, fingerprint) for --jobs=1 vs --jobs=8, with and without a chaos
//     fault plan; a mid-run clone replays bit-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <memory_resource>
#include <vector>

#include "core/admission.h"
#include "exec/thread_pool.h"
#include "fault/chaos.h"
#include "monitor/load_board.h"
#include "obs/memaudit.h"
#include "obs/obs.h"
#include "scenario/fleet.h"
#include "scenario/islands.h"
#include "util/assert.h"
#include "util/rng.h"

namespace spectra {
namespace {

using core::AdmissionCompletion;
using core::AdmissionConfig;
using core::AdmissionJob;
using core::AdmissionPolicy;
using core::AdmissionQueue;
using scenario::DeviceClass;
using scenario::FleetConfig;
using scenario::FleetReport;
using scenario::FleetScenario;
using scenario::FleetWorld;

// ---------------------------------------------------------------- admission

TEST(AdmissionQueue, FifoSingleSlotCompletesInSubmitOrder) {
  AdmissionConfig cfg;
  cfg.policy = AdmissionPolicy::kFifo;
  cfg.service_slots = 1;
  AdmissionQueue q(cfg);
  util::Rng rng(7);
  std::vector<std::uint64_t> submitted;
  for (int i = 0; i < 20; ++i) {
    auto id = q.submit(i % 5, 1.0, rng.uniform(1e6, 9e6), 0.0);
    ASSERT_TRUE(id.has_value());
    submitted.push_back(*id);
  }
  std::pmr::vector<AdmissionCompletion> done;
  q.advance(0.0, 1e6, 1e6, &done);
  q.check_invariants();
  ASSERT_EQ(done.size(), submitted.size());
  for (std::size_t i = 0; i < done.size(); ++i) {
    EXPECT_EQ(done[i].job.id, submitted[i]) << "FIFO order broken at " << i;
  }
}

TEST(AdmissionQueue, FifoDispatchOrderMatchesSubmitOrderWithSlots) {
  AdmissionConfig cfg;
  cfg.policy = AdmissionPolicy::kFifo;
  cfg.service_slots = 3;
  AdmissionQueue q(cfg);
  for (int i = 0; i < 12; ++i) q.submit(0, 1.0, 5e6, 0.0);
  std::pmr::vector<AdmissionCompletion> done;
  q.advance(0.0, 100.0, 1e6, &done);
  ASSERT_EQ(done.size(), 12u);
  // Equal-size jobs through fair-shared slots: completion order is dispatch
  // order is submit order.
  for (std::size_t i = 1; i < done.size(); ++i) {
    EXPECT_LE(done[i - 1].job.started_at, done[i].job.started_at);
    EXPECT_LE(done[i - 1].finished_at, done[i].finished_at);
  }
}

TEST(AdmissionQueue, WeightedFairSharesServiceByWeight) {
  AdmissionConfig cfg;
  cfg.policy = AdmissionPolicy::kWeightedFair;
  cfg.service_slots = 1;
  cfg.queue_bound = 1000;
  AdmissionQueue q(cfg);
  // Two backlogged tenants, weight 2 vs 1, equal-size jobs.
  for (int i = 0; i < 60; ++i) {
    q.submit(0, 2.0, 1e6, 0.0);
    q.submit(1, 1.0, 1e6, 0.0);
  }
  std::pmr::vector<AdmissionCompletion> done;
  // Serve exactly 30 jobs' worth of cycles.
  q.advance(0.0, 30.0, 1e6, &done);
  q.check_invariants();
  int tenant0 = 0;
  for (const auto& d : done) tenant0 += d.job.tenant == 0 ? 1 : 0;
  // Weight-2 tenant should get about two thirds of the service.
  EXPECT_NEAR(static_cast<double>(tenant0) / static_cast<double>(done.size()),
              2.0 / 3.0, 0.1);
}

TEST(AdmissionQueue, WeightedFairNeverStarvesLightTenant) {
  AdmissionConfig cfg;
  cfg.policy = AdmissionPolicy::kWeightedFair;
  cfg.service_slots = 2;
  cfg.queue_bound = 500;
  AdmissionQueue q(cfg);
  std::pmr::vector<AdmissionCompletion> done;
  // A heavy tenant floods every step; a light (weight 0.1) tenant submits
  // one job per step. If the virtual clock did not advance, the light
  // tenant's early tags would still win eventually — starvation-freedom
  // means every light job completes within the run.
  std::set<std::uint64_t> light_jobs;
  double t = 0.0;
  for (int step = 0; step < 100; ++step) {
    for (int i = 0; i < 3; ++i) q.submit(0, 10.0, 2e6, t);
    auto id = q.submit(1, 0.1, 2e6, t);
    if (id.has_value()) light_jobs.insert(*id);
    q.advance(t, 1.0, 10e6, &done);
    q.check_invariants();
    t += 1.0;
  }
  q.advance(t, 1e6, 10e6, &done);  // drain
  ASSERT_FALSE(light_jobs.empty());
  std::set<std::uint64_t> completed;
  for (const auto& d : done) completed.insert(d.job.id);
  for (std::uint64_t id : light_jobs) {
    EXPECT_TRUE(completed.count(id) > 0)
        << "light-tenant job " << id << " starved";
  }
}

TEST(AdmissionQueue, QueueBoundNeverExceededUnderRandomArrivals) {
  for (const auto policy :
       {AdmissionPolicy::kFifo, AdmissionPolicy::kWeightedFair}) {
    AdmissionConfig cfg;
    cfg.policy = policy;
    cfg.queue_bound = 8;
    cfg.service_slots = 2;
    AdmissionQueue q(cfg);
    util::Rng rng(99);
    std::pmr::vector<AdmissionCompletion> done;
    double t = 0.0;
    std::uint64_t rejected_seen = 0;
    for (int step = 0; step < 2000; ++step) {
      const int burst = static_cast<int>(rng.uniform_int(0, 4));
      for (int i = 0; i < burst; ++i) {
        q.submit(static_cast<int>(rng.uniform_int(0, 9)),
                 rng.uniform(0.5, 4.0), rng.uniform(1e5, 5e6), t);
        q.check_invariants();
        EXPECT_LE(q.queued(), cfg.queue_bound);
      }
      const double dt = rng.uniform(0.0, 0.2);
      q.advance(t, dt, 2e6, &done);
      q.check_invariants();
      t += dt;
      rejected_seen = q.rejected();
    }
    // The bound must actually bite in this load regime, or the test is
    // vacuous.
    EXPECT_GT(rejected_seen, 0u) << core::to_string(policy);
  }
}

TEST(AdmissionQueue, ConservationUnderRandomizedLifecycle) {
  util::Rng rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    AdmissionConfig cfg;
    cfg.policy = trial % 2 == 0 ? AdmissionPolicy::kFifo
                                : AdmissionPolicy::kWeightedFair;
    cfg.queue_bound = static_cast<std::size_t>(rng.uniform_int(1, 16));
    cfg.service_slots = static_cast<std::size_t>(rng.uniform_int(1, 4));
    AdmissionQueue q(cfg);
    std::pmr::vector<AdmissionCompletion> done;
    std::pmr::vector<AdmissionJob> aborted;
    double t = 0.0;
    for (int step = 0; step < 300; ++step) {
      const double action = rng.uniform();
      if (action < 0.6) {
        q.submit(static_cast<int>(rng.uniform_int(0, 5)),
                 rng.uniform(0.5, 3.0), rng.uniform(1e5, 1e7), t);
      } else if (action < 0.95) {
        const double dt = rng.uniform(0.0, 1.0);
        q.advance(t, dt, 3e6, &done);
        t += dt;
      } else {
        q.abort_all(&aborted);  // server crash
      }
      q.check_invariants();
    }
    EXPECT_EQ(q.submitted(), q.admitted() + q.rejected());
    EXPECT_EQ(q.admitted(),
              q.completed() + q.aborted() + q.in_flight());
    EXPECT_EQ(q.completed(), done.size());
    EXPECT_EQ(q.aborted(), aborted.size());
  }
}

TEST(AdmissionQueue, CookieRidesUnchangedThroughCompletionAndAbort) {
  // The fleet world threads a reusable metadata-slot index through each
  // job's cookie; a queue that dropped or reordered cookies would corrupt
  // per-server bookkeeping silently. Every admitted job must surface its
  // cookie exactly once, at completion or at abort.
  for (const auto policy :
       {AdmissionPolicy::kFifo, AdmissionPolicy::kWeightedFair}) {
    AdmissionConfig cfg;
    cfg.policy = policy;
    cfg.service_slots = 2;
    cfg.queue_bound = 16;
    AdmissionQueue q(cfg);
    util::Rng rng(5);
    std::map<std::uint64_t, std::uint32_t> expected;
    std::pmr::vector<AdmissionCompletion> done;
    std::pmr::vector<AdmissionJob> aborted;
    double t = 0.0;
    std::uint32_t next_cookie = 100;
    for (int step = 0; step < 200; ++step) {
      const std::uint32_t cookie = next_cookie++;
      const auto id = q.submit(static_cast<int>(rng.uniform_int(0, 5)),
                               rng.uniform(0.5, 2.0), rng.uniform(1e5, 3e6),
                               t, cookie);
      if (id.has_value()) expected[*id] = cookie;
      const double dt = rng.uniform(0.0, 0.4);
      q.advance(t, dt, 2e6, &done);
      t += dt;
      if (step % 60 == 59) q.abort_all(&aborted);  // crash mid-backlog
      q.check_invariants();
    }
    q.advance(t, 1e6, 2e6, &done);  // drain
    ASSERT_FALSE(done.empty()) << core::to_string(policy);
    ASSERT_FALSE(aborted.empty()) << core::to_string(policy);
    for (const auto& d : done) {
      ASSERT_TRUE(expected.count(d.job.id) > 0);
      EXPECT_EQ(d.job.cookie, expected[d.job.id])
          << "completion of job " << d.job.id;
    }
    for (const auto& j : aborted) {
      ASSERT_TRUE(expected.count(j.id) > 0);
      EXPECT_EQ(j.cookie, expected[j.id]) << "abort of job " << j.id;
    }
    // Exactly once: completions plus aborts cover every admitted job.
    EXPECT_EQ(done.size() + aborted.size(), expected.size());
  }
}

TEST(AdmissionQueue, IdleTenantReanchorsLikeAFreshTenant) {
  // The flat tag store prunes tags the virtual clock has overtaken. That
  // is only sound if an overtaken tag behaves exactly like an absent one:
  // a tenant that went idle long enough must compete exactly like a tenant
  // the queue has never seen, job for job and timestamp for timestamp.
  const auto make = [] {
    AdmissionConfig cfg;
    cfg.policy = AdmissionPolicy::kWeightedFair;
    cfg.service_slots = 1;
    cfg.queue_bound = 100;
    return AdmissionQueue(cfg);
  };
  AdmissionQueue reused = make();
  AdmissionQueue fresh = make();
  std::pmr::vector<AdmissionCompletion> done_reused;
  std::pmr::vector<AdmissionCompletion> done_fresh;
  // Phase 1: tenants 0 and 1 backlog both queues identically, then drain.
  for (int i = 0; i < 10; ++i) {
    reused.submit(0, 1.0, 2e6, 0.0);
    reused.submit(1, 1.0, 2e6, 0.0);
    fresh.submit(0, 1.0, 2e6, 0.0);
    fresh.submit(1, 1.0, 2e6, 0.0);
  }
  reused.advance(0.0, 100.0, 1e6, &done_reused);
  fresh.advance(0.0, 100.0, 1e6, &done_fresh);
  // Phase 2: tenant 1 runs solo long enough that each dispatch drags the
  // virtual clock past tenant 0's stale finish tag.
  for (int i = 0; i < 15; ++i) {
    reused.submit(1, 1.0, 2e6, 100.0);
    fresh.submit(1, 1.0, 2e6, 100.0);
  }
  reused.advance(100.0, 100.0, 1e6, &done_reused);
  fresh.advance(100.0, 100.0, 1e6, &done_fresh);
  done_reused.clear();
  done_fresh.clear();
  // Phase 3: the contender against tenant 1 is long-idle tenant 0 in one
  // queue and never-seen tenant 7 in the other. Interleaving must match.
  double t = 200.0;
  for (int step = 0; step < 30; ++step) {
    reused.submit(1, 1.0, 3e6, t);
    fresh.submit(1, 1.0, 3e6, t);
    reused.submit(0, 2.0, 1e6, t);
    fresh.submit(7, 2.0, 1e6, t);
    reused.advance(t, 1.0, 4e6, &done_reused);
    fresh.advance(t, 1.0, 4e6, &done_fresh);
    reused.check_invariants();
    fresh.check_invariants();
    t += 1.0;
  }
  reused.advance(t, 100.0, 4e6, &done_reused);
  fresh.advance(t, 100.0, 4e6, &done_fresh);
  ASSERT_EQ(done_reused.size(), done_fresh.size());
  ASSERT_FALSE(done_reused.empty());
  for (std::size_t i = 0; i < done_reused.size(); ++i) {
    const int a = done_reused[i].job.tenant;
    const int raw = done_fresh[i].job.tenant;
    const int b = raw == 7 ? 0 : raw;  // map the stand-in back
    EXPECT_EQ(a, b) << "divergence at completion " << i;
    EXPECT_EQ(done_reused[i].finished_at, done_fresh[i].finished_at)
        << "timing divergence at completion " << i;
  }
}

// --------------------------------------------------------------- load board

TEST(LoadBoard, PublishIsInvisibleUntilFlip) {
  monitor::LoadBoard board(2, /*smoothing_alpha=*/1.0);
  board.publish(0, 5.0, 0.8, false);
  EXPECT_EQ(board.view(0).run_queue, 0.0);
  EXPECT_TRUE(board.view(0).up);
  board.flip();
  EXPECT_EQ(board.view(0).run_queue, 5.0);
  EXPECT_EQ(board.view(0).utilization, 0.8);
  EXPECT_FALSE(board.view(0).up);
}

TEST(LoadBoard, SmoothsRunQueueAcrossFlips) {
  monitor::LoadBoard board(1, /*smoothing_alpha=*/0.5);
  board.publish(0, 4.0, 0.0, true);
  board.flip();
  board.publish(0, 0.0, 0.0, true);
  board.flip();
  EXPECT_NEAR(board.view(0).run_queue, 2.0, 1e-12);
}

TEST(LoadBoard, SnapshotIntoFreezesViewsInAPresizedBuffer) {
  monitor::LoadBoard board(3, /*smoothing_alpha=*/1.0);
  board.publish(0, 1.0, 0.1, true);
  board.publish(1, 2.0, 0.2, false);
  board.publish(2, 3.0, 0.3, true);
  board.flip();
  // The barrier pre-sizes one world-wide buffer and every board writes its
  // own span; snapshot_into must fill [base, base+servers) in place without
  // reallocating or touching neighbors.
  std::vector<monitor::ServerLoadView> out(5);
  const monitor::ServerLoadView* data = out.data();
  board.snapshot_into(out, /*base=*/1);
  EXPECT_EQ(out.data(), data);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ(out[1].run_queue, 1.0);
  EXPECT_EQ(out[2].run_queue, 2.0);
  EXPECT_FALSE(out[2].up);
  EXPECT_EQ(out[3].utilization, 0.3);
  EXPECT_EQ(out[0].run_queue, 0.0);  // outside the span: untouched
  EXPECT_EQ(out[4].run_queue, 0.0);
  // Frozen: later publish/flip cycles must not disturb the copies.
  board.publish(0, 9.0, 0.9, true);
  board.flip();
  EXPECT_EQ(out[1].run_queue, 1.0);
  EXPECT_EQ(board.view(0).run_queue, 9.0);
}

// ----------------------------------------------------------------- scenario

FleetConfig small_config() {
  FleetConfig cfg;
  cfg.clients = 64;
  cfg.servers = 3;
  cfg.seed = 11;
  cfg.horizon = 60.0;
  cfg.admission.policy = AdmissionPolicy::kWeightedFair;
  return cfg;
}

TEST(FleetScenario, IsAPureFunctionOfTheSeed) {
  const FleetScenario a(small_config());
  const FleetScenario b(small_config());
  ASSERT_EQ(a.profiles().size(), b.profiles().size());
  ASSERT_EQ(a.total_ops(), b.total_ops());
  for (std::size_t c = 0; c < a.profiles().size(); ++c) {
    ASSERT_EQ(a.schedule(c).size(), b.schedule(c).size());
    for (std::size_t i = 0; i < a.schedule(c).size(); ++i) {
      EXPECT_EQ(a.schedule(c)[i].at, b.schedule(c)[i].at);
      EXPECT_EQ(a.schedule(c)[i].cycles, b.schedule(c)[i].cycles);
    }
    EXPECT_EQ(a.profiles()[c].device, b.profiles()[c].device);
  }
  FleetConfig other = small_config();
  other.seed = 12;
  const FleetScenario c(other);
  EXPECT_NE(a.total_ops(), c.total_ops());
}

TEST(FleetScenario, FlashCrowdsConcentrateArrivals) {
  FleetConfig cfg = small_config();
  cfg.clients = 200;
  cfg.flash_crowds = 1;
  cfg.flash_multiplier = 8.0;
  cfg.flash_duration = 6.0;
  const FleetScenario scenario(cfg);
  ASSERT_EQ(scenario.flash_windows().size(), 1u);
  const auto [start, end] = scenario.flash_windows()[0];
  EXPECT_GT(scenario.rate_multiplier((start + end) / 2.0),
            4.0 * scenario.rate_multiplier(end + 1.0));
  // Arrival density inside the window beats the run-wide average.
  std::size_t in_window = 0;
  for (std::size_t c = 0; c < scenario.profiles().size(); ++c) {
    for (const auto& op : scenario.schedule(c)) {
      in_window += (op.at >= start && op.at < end) ? 1 : 0;
    }
  }
  const double window_rate =
      static_cast<double>(in_window) / (end - start);
  const double overall_rate =
      static_cast<double>(scenario.total_ops()) / cfg.horizon;
  EXPECT_GT(window_rate, 2.0 * overall_rate);
}

TEST(FleetScenario, DiurnalWaveModulatesRate) {
  FleetConfig cfg = small_config();
  cfg.flash_crowds = 0;
  cfg.diurnal_amplitude = 0.6;
  cfg.diurnal_period = 120.0;
  const FleetScenario scenario(cfg);
  EXPECT_NEAR(scenario.rate_multiplier(30.0), 1.6, 1e-9);   // sin peak
  EXPECT_NEAR(scenario.rate_multiplier(90.0), 0.4, 1e-9);   // sin trough
  EXPECT_NEAR(scenario.rate_multiplier(0.0), 1.0, 1e-9);
}

TEST(FleetScenario, DeviceMixMatchesConfiguredFractions) {
  FleetConfig cfg = small_config();
  cfg.clients = 2000;
  cfg.itsy_fraction = 0.4;
  cfg.thinkpad_fraction = 0.4;
  const FleetScenario scenario(cfg);
  std::size_t itsy = 0;
  std::size_t thinkpad = 0;
  std::size_t modern = 0;
  for (const auto& p : scenario.profiles()) {
    switch (p.device) {
      case DeviceClass::kItsy: ++itsy; break;
      case DeviceClass::kThinkpad: ++thinkpad; break;
      case DeviceClass::kModern: ++modern; break;
    }
  }
  const auto frac = [&](std::size_t n) {
    return static_cast<double>(n) / static_cast<double>(cfg.clients);
  };
  EXPECT_NEAR(frac(itsy), 0.4, 0.05);
  EXPECT_NEAR(frac(thinkpad), 0.4, 0.05);
  EXPECT_NEAR(frac(modern), 0.2, 0.05);
}

// ------------------------------------------------------------- determinism

struct FleetRun {
  std::string trace;
  std::string metrics_csv;
  FleetReport report;
};

FleetRun run_with_jobs(const FleetConfig& cfg, std::size_t jobs) {
  FleetRun out;
  std::ostringstream trace;
  obs::Observability session;
  session.trace_to(trace);
  out.report = scenario::run_fleet(cfg, jobs, &session);
  out.trace = trace.str();
  std::ostringstream csv;
  session.metrics().export_csv(csv);
  out.metrics_csv = csv.str();
  return out;
}

// Strip metric rows whose name carries the ".wall_ms" suffix — real time,
// legitimately different between runs.
std::string drop_wall_rows(const std::string& csv) {
  std::istringstream in(csv);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    const std::string name = line.substr(0, line.find(','));
    if (name.size() >= 8 &&
        name.compare(name.size() - 8, 8, ".wall_ms") == 0) {
      continue;
    }
    out << line << '\n';
  }
  return out.str();
}

TEST(FleetDeterminism, SixtyFourClientsByteIdenticalAcrossJobs) {
  const FleetConfig cfg = small_config();
  const FleetRun seq = run_with_jobs(cfg, 1);
  const FleetRun par = run_with_jobs(cfg, 8);
  EXPECT_GT(seq.report.ops_completed, 0u);
  EXPECT_GT(seq.report.ops_remote, 0u) << "fleet never went remote; the "
                                          "contention model is not exercised";
  EXPECT_EQ(seq.trace, par.trace);
  EXPECT_EQ(drop_wall_rows(seq.metrics_csv), drop_wall_rows(par.metrics_csv));
  EXPECT_EQ(seq.report.fingerprint, par.report.fingerprint);
  EXPECT_EQ(seq.report.ops_completed, par.report.ops_completed);
  EXPECT_EQ(seq.report.latency_p99_s, par.report.latency_p99_s);
  EXPECT_EQ(seq.report.aggregate_energy_j, par.report.aggregate_energy_j);
  EXPECT_EQ(seq.report.jain_fairness, par.report.jain_fairness);
}

TEST(FleetDeterminism, ByteIdenticalAcrossJobsUnderChaos) {
  FleetConfig cfg = small_config();
  fault::ChaosTopology topo;
  topo.links = {{0, 1}};
  topo.servers = {0, 1, 2};
  fault::ChaosConfig chaos;
  chaos.horizon = cfg.horizon;
  chaos.intensity = 2.0;
  cfg.fault_plan = fault::make_chaos_plan(21, topo, chaos);
  const FleetRun seq = run_with_jobs(cfg, 1);
  const FleetRun par = run_with_jobs(cfg, 8);
  EXPECT_GT(seq.report.ops_completed, 0u);
  EXPECT_EQ(seq.trace, par.trace);
  EXPECT_EQ(drop_wall_rows(seq.metrics_csv), drop_wall_rows(par.metrics_csv));
  EXPECT_EQ(seq.report.fingerprint, par.report.fingerprint);
}

TEST(FleetDeterminism, TenThousandClientsFingerprintStableAcrossJobsUnderChaos) {
  // The bench ladder proves 10k/100k identity offline; this keeps a scaled
  // multi-island run with server crashes and link chaos in the unit suite,
  // where sharding, ferry buffers, and the SoA store all engage (the
  // 64-client world fits one island, so it cannot catch cross-island
  // nondeterminism). Trace capture is skipped to keep the test fast; the
  // fingerprint folds every queue's conservation counters, so divergence
  // anywhere in the pipeline shows up here.
  FleetConfig cfg;
  cfg.clients = 10'000;
  cfg.servers = 80;
  cfg.seed = 42;
  cfg.horizon = 30.0;
  cfg.admission.policy = AdmissionPolicy::kWeightedFair;
  fault::ChaosTopology topo;
  topo.links = {{0, 1}};
  topo.servers = {0, 3, 17, 42};
  fault::ChaosConfig chaos;
  chaos.horizon = cfg.horizon;
  chaos.intensity = 2.0;
  cfg.fault_plan = fault::make_chaos_plan(77, topo, chaos);
  const FleetReport a = scenario::run_fleet(cfg, 1, nullptr);
  const FleetReport b = scenario::run_fleet(cfg, 2, nullptr);
  const FleetReport c = scenario::run_fleet(cfg, 8, nullptr);
  EXPECT_GT(a.ops_completed, 0u);
  EXPECT_GT(a.islands, 1u) << "10k world did not shard; jobs sweep is vacuous";
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.fingerprint, c.fingerprint);
  EXPECT_EQ(a.ops_completed, c.ops_completed);
  EXPECT_EQ(a.ops_rejected, c.ops_rejected);
  EXPECT_EQ(a.latency_p99_s, c.latency_p99_s);
  EXPECT_EQ(a.aggregate_energy_j, c.aggregate_energy_j);
  EXPECT_EQ(a.jain_fairness, c.jain_fairness);
}

TEST(FleetAllocationFree, SteadyStateTickAllocatesNothing) {
  if (!obs::memaudit_enabled()) {
    GTEST_SKIP() << "memaudit hook not linked (sanitizer build)";
  }
  // The memory-diet contract: once every arena and pre-reserved buffer has
  // seen its high-water mark, the tick pipeline (decision stage, admission
  // advance, barrier exchange) performs zero heap allocations. Single
  // island and a null pool keep execution on this thread, so the
  // kFleetTick counters attribute exactly.
  FleetConfig cfg;
  cfg.clients = 256;
  cfg.servers = 4;
  cfg.seed = 11;
  cfg.horizon = 120.0;
  cfg.islands = 1;
  cfg.flash_crowds = 0;  // arrival high-water falls inside the warm-up
  cfg.admission.policy = AdmissionPolicy::kWeightedFair;
  auto scenario_ptr = std::make_shared<const scenario::FleetScenario>(cfg);
  FleetWorld world(scenario_ptr, nullptr);  // trace off: no shard buffers
  // Warm past the diurnal crest (t = period/4 = 30s) so later ticks never
  // exceed an arrival volume the arenas have already absorbed.
  world.run_until(90.0, nullptr);
  const auto warm = obs::memaudit_scope(obs::MemScopeId::kFleetTick);
  world.run_until(cfg.horizon, nullptr);
  const auto steady = obs::memaudit_scope(obs::MemScopeId::kFleetTick);
  EXPECT_EQ(steady.allocs - warm.allocs, 0u)
      << "tick stage allocated " << (steady.allocs - warm.allocs)
      << " times after warm-up (live-byte delta "
      << (steady.live_bytes - warm.live_bytes) << ")";
  const FleetReport r = world.finish(nullptr);
  EXPECT_GT(r.ops_completed, 0u);
}

TEST(FleetDeterminism, CloneReplaysBitIdentically) {
  FleetConfig cfg = small_config();
  fault::ChaosTopology topo;
  topo.links = {{0, 1}};
  topo.servers = {0};
  fault::ChaosConfig chaos;
  chaos.horizon = cfg.horizon;
  cfg.fault_plan = fault::make_chaos_plan(33, topo, chaos);
  auto scenario_ptr = std::make_shared<const FleetScenario>(cfg);

  std::ostringstream trace_a;
  obs::Observability session_a;
  session_a.trace_to(trace_a);
  FleetWorld world(scenario_ptr, &session_a);
  world.run_until(cfg.horizon / 2.0, nullptr);

  std::ostringstream trace_b;
  obs::Observability session_b;
  session_b.trace_to(trace_b);
  auto clone = world.clone(&session_b);
  EXPECT_EQ(world.state_fingerprint(), clone->state_fingerprint());

  exec::ThreadPool pool(4);
  const FleetReport ra = world.finish(nullptr);
  const FleetReport rb = clone->finish(&pool);  // parallel, to boot
  EXPECT_EQ(ra.fingerprint, rb.fingerprint);
  EXPECT_EQ(ra.ops_completed, rb.ops_completed);
  EXPECT_EQ(ra.latency_p99_s, rb.latency_p99_s);
  EXPECT_EQ(ra.jain_fairness, rb.jain_fairness);
  // The clone carried the first half's trace shards, so the merged traces
  // are byte-identical end to end.
  EXPECT_EQ(trace_a.str(), trace_b.str());
}

TEST(FleetDeterminism, FinishIsIdempotent) {
  const FleetConfig cfg = small_config();
  auto scenario_ptr = std::make_shared<const FleetScenario>(cfg);
  FleetWorld world(scenario_ptr, nullptr);
  const FleetReport a = world.finish(nullptr);
  const FleetReport b = world.finish(nullptr);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.ops_completed, b.ops_completed);
}

// ------------------------------------------------------------------ report

TEST(FleetReport, SingleClientHasPerfectFairness) {
  FleetConfig cfg;
  cfg.clients = 1;
  cfg.servers = 1;
  cfg.seed = 3;
  cfg.horizon = 60.0;
  cfg.ops_per_client_hz = 0.2;
  const FleetReport r = scenario::run_fleet(cfg, 1, nullptr);
  ASSERT_GT(r.ops_completed, 0u);
  EXPECT_DOUBLE_EQ(r.jain_fairness, 1.0);
}

TEST(FleetReport, FairnessStaysHighUnderWeightedFair) {
  const FleetConfig cfg = small_config();
  const FleetReport r = scenario::run_fleet(cfg, 1, nullptr);
  EXPECT_GT(r.jain_fairness, 0.8);
  EXPECT_LE(r.jain_fairness, 1.0 + 1e-12);
}

TEST(FleetReport, ConservationAcrossTheWholeFleet) {
  FleetConfig cfg = small_config();
  cfg.horizon = 90.0;
  const FleetReport r = scenario::run_fleet(cfg, 1, nullptr);
  // Every completed op is local or remote; decisions cover at least the
  // completed ops (in-flight ops at the horizon have decided but not
  // finished).
  EXPECT_EQ(r.ops_completed, r.ops_local + r.ops_remote);
  EXPECT_GE(r.decisions, r.ops_completed);
}

TEST(FleetReport, JsonCarriesWallSectionSeparately) {
  FleetConfig cfg = small_config();
  cfg.clients = 8;
  cfg.horizon = 10.0;
  const FleetReport r = scenario::run_fleet(cfg, 1, nullptr);
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"fingerprint\""), std::string::npos);
  EXPECT_NE(json.find("\"wall\""), std::string::npos);
  EXPECT_NE(json.find("\"jain_fairness\""), std::string::npos);
  // The deterministic block precedes the wall block.
  EXPECT_LT(json.find("\"jain_fairness\""), json.find("\"wall\""));
}

// --------------------------------------------------------- battery cliffs

fault::FaultPlan cliff_plan(hw::MachineId a, double at, double duration) {
  fault::FaultPlan plan;
  fault::FaultEvent e;
  e.at = at;
  e.kind = fault::FaultKind::kBatteryCliff;
  e.a = a;
  e.magnitude = 0.05;
  e.duration = duration;
  plan.scheduled.push_back(e);
  return plan;
}

TEST(FleetBatteryCliff, PermanentCliffForcesTheClientLocal) {
  FleetConfig cfg;
  cfg.clients = 1;
  cfg.servers = 1;
  cfg.seed = 17;
  cfg.horizon = 60.0;
  const FleetRun base = run_with_jobs(cfg, 1);
  ASSERT_GT(base.report.ops_remote, 0u)
      << "baseline never went remote; the cliff has nothing to suppress";

  // The cliff lands before the first decision and never heals, so every
  // op of the (only) client is forced local for the whole run.
  cfg.fault_plan = cliff_plan(0, 0.0, 0.0);
  const FleetRun cliffed = run_with_jobs(cfg, 1);
  EXPECT_EQ(cliffed.report.battery_cliffs, 1u);
  EXPECT_EQ(cliffed.report.ops_remote, 0u);
  EXPECT_GT(cliffed.report.ops_completed, 0u);
}

TEST(FleetBatteryCliff, HealedCliffRestoresRemotePlacement) {
  FleetConfig cfg;
  cfg.clients = 1;
  cfg.servers = 1;
  cfg.seed = 17;
  cfg.horizon = 60.0;
  cfg.fault_plan = cliff_plan(0, 0.0, 5.0);  // dark for the first 5 s only
  const FleetRun r = run_with_jobs(cfg, 1);
  EXPECT_EQ(r.report.battery_cliffs, 1u);
  EXPECT_GT(r.report.ops_remote, 0u)
      << "client stayed local after the cliff healed";
}

TEST(FleetBatteryCliff, CliffIsCountedTracedAndMetered) {
  FleetConfig cfg = small_config();
  cfg.clients = 8;
  cfg.fault_plan = cliff_plan(3, 10.0, 0.0);
  const FleetRun r = run_with_jobs(cfg, 1);
  EXPECT_EQ(r.report.battery_cliffs, 1u);
  EXPECT_NE(r.trace.find("\"type\":\"fleet_fault\""), std::string::npos);
  EXPECT_NE(r.trace.find("\"kind\":\"battery_cliff\""), std::string::npos);
  EXPECT_NE(r.trace.find("\"client\":3"), std::string::npos);
  EXPECT_NE(r.metrics_csv.find("fleet.battery_cliffs"), std::string::npos);
  EXPECT_NE(r.report.to_json().find("\"battery_cliffs\": 1"),
            std::string::npos);
  // The counter only exists when a cliff fired: cliff-free runs keep
  // their historical metrics byte-identical.
  const FleetConfig clean = small_config();
  const FleetRun no_cliff = run_with_jobs(clean, 1);
  EXPECT_EQ(no_cliff.metrics_csv.find("fleet.battery_cliffs"),
            std::string::npos);
}

TEST(FleetBatteryCliff, ByteIdenticalAcrossJobsWithCliffs) {
  FleetConfig cfg = small_config();
  cfg.fault_plan = cliff_plan(5, 20.0, 15.0);
  const FleetRun seq = run_with_jobs(cfg, 1);
  const FleetRun par = run_with_jobs(cfg, 8);
  EXPECT_EQ(seq.report.battery_cliffs, 1u);
  EXPECT_EQ(seq.trace, par.trace);
  EXPECT_EQ(drop_wall_rows(seq.metrics_csv), drop_wall_rows(par.metrics_csv));
  EXPECT_EQ(seq.report.fingerprint, par.report.fingerprint);
}

// ---------------------------------------------------------------- islands

// Big enough that three islands each own two servers and ~200 clients;
// small enough to run in milliseconds.
FleetConfig sharded_config() {
  FleetConfig cfg;
  cfg.clients = 600;
  cfg.servers = 6;
  cfg.islands = 3;
  cfg.seed = 17;
  cfg.horizon = 60.0;
  cfg.admission.policy = AdmissionPolicy::kWeightedFair;
  return cfg;
}

TEST(IslandPlan, PartitionsEveryClientAndServerExactlyOnce) {
  const auto scenario =
      std::make_shared<const FleetScenario>(sharded_config());
  const scenario::IslandPlan plan = scenario::plan_islands(*scenario);
  ASSERT_EQ(plan.islands, 3u);
  std::set<std::uint32_t> seen_clients;
  std::set<std::uint32_t> seen_servers;
  for (std::size_t i = 0; i < plan.islands; ++i) {
    for (std::uint32_t c : plan.clients[i]) {
      EXPECT_TRUE(seen_clients.insert(c).second) << "client " << c << " dup";
      EXPECT_EQ(plan.island_of_client[c], i);
    }
    ASSERT_FALSE(plan.servers[i].empty()) << "island " << i << " serverless";
    for (std::size_t j = 0; j < plan.servers[i].size(); ++j) {
      const std::uint32_t s = plan.servers[i][j];
      EXPECT_TRUE(seen_servers.insert(s).second) << "server " << s << " dup";
      EXPECT_EQ(plan.island_of_server[s], i);
      // Contiguous ascending block: global index == front + local index.
      EXPECT_EQ(s, plan.servers[i].front() + j);
    }
  }
  EXPECT_EQ(seen_clients.size(), 600u);
  EXPECT_EQ(seen_servers.size(), 6u);
  // Greedy balance: no island holds more than half the total demand.
  double total = 0.0;
  for (double d : plan.demand) total += d;
  for (double d : plan.demand) EXPECT_LT(d, 0.5 * total);
}

TEST(IslandPlan, AutoCountScalesWithClientsAndCapsAtServers) {
  EXPECT_EQ(scenario::auto_island_count(12, 2), 1u);
  EXPECT_EQ(scenario::auto_island_count(64, 3), 1u);
  EXPECT_EQ(scenario::auto_island_count(256, 4), 1u);
  EXPECT_EQ(scenario::auto_island_count(1000, 8), 4u);
  EXPECT_EQ(scenario::auto_island_count(10000, 8), 4u);
  EXPECT_EQ(scenario::auto_island_count(10000, 100), 40u);
  EXPECT_EQ(scenario::auto_island_count(1000, 1), 1u);
}

TEST(IslandPlan, LookaheadFloorsAtTickAndDefaultsToPollInterval) {
  FleetConfig cfg;
  EXPECT_EQ(scenario::derive_lookahead(cfg, 1), cfg.tick);
  EXPECT_EQ(scenario::derive_lookahead(cfg, 4),
            scenario::kCrossIslandPollInterval);
  cfg.lookahead = 2.0;
  EXPECT_EQ(scenario::derive_lookahead(cfg, 4), 2.0);
  cfg.lookahead = cfg.tick / 4.0;  // below one tick: floored
  EXPECT_EQ(scenario::derive_lookahead(cfg, 4), cfg.tick);
}

TEST(IslandPlan, MoreIslandsThanServersIsRejected) {
  FleetConfig cfg = sharded_config();
  cfg.islands = 7;  // 6 servers
  const auto scenario = std::make_shared<const FleetScenario>(cfg);
  EXPECT_THROW(scenario::plan_islands(*scenario), util::ContractError);
}

TEST(IslandDeterminism, ShardedWorldByteIdenticalAcrossJobs) {
  const FleetConfig cfg = sharded_config();
  const FleetRun one = run_with_jobs(cfg, 1);
  const FleetRun two = run_with_jobs(cfg, 2);
  const FleetRun eight = run_with_jobs(cfg, 8);
  EXPECT_GT(one.report.ops_completed, 0u);
  EXPECT_EQ(one.report.islands, 3u);
  EXPECT_GT(one.report.ops_remote, 0u);
  EXPECT_EQ(one.trace, two.trace);
  EXPECT_EQ(one.trace, eight.trace);
  EXPECT_EQ(drop_wall_rows(one.metrics_csv), drop_wall_rows(two.metrics_csv));
  EXPECT_EQ(drop_wall_rows(one.metrics_csv),
            drop_wall_rows(eight.metrics_csv));
  EXPECT_EQ(one.report.fingerprint, two.report.fingerprint);
  EXPECT_EQ(one.report.fingerprint, eight.report.fingerprint);
  EXPECT_EQ(one.report.aggregate_energy_j, eight.report.aggregate_energy_j);
  EXPECT_EQ(one.report.jain_fairness, eight.report.jain_fairness);
}

TEST(IslandDeterminism, ShardedWorldByteIdenticalUnderChaos) {
  FleetConfig cfg = sharded_config();
  fault::ChaosTopology topo;
  topo.links = {{0, 1}};
  topo.servers = {0, 1, 2, 3, 4, 5};
  fault::ChaosConfig chaos;
  chaos.horizon = cfg.horizon;
  chaos.intensity = 2.0;
  cfg.fault_plan = fault::make_chaos_plan(29, topo, chaos);
  const FleetRun seq = run_with_jobs(cfg, 1);
  const FleetRun par = run_with_jobs(cfg, 8);
  EXPECT_GT(seq.report.ops_completed, 0u);
  EXPECT_EQ(seq.trace, par.trace);
  EXPECT_EQ(drop_wall_rows(seq.metrics_csv), drop_wall_rows(par.metrics_csv));
  EXPECT_EQ(seq.report.fingerprint, par.report.fingerprint);
}

TEST(IslandDeterminism, ShardedCloneReplaysBitIdentically) {
  FleetConfig cfg = sharded_config();
  fault::ChaosTopology topo;
  topo.links = {{0, 1}};
  topo.servers = {0, 3};
  fault::ChaosConfig chaos;
  chaos.horizon = cfg.horizon;
  cfg.fault_plan = fault::make_chaos_plan(37, topo, chaos);
  auto scenario_ptr = std::make_shared<const FleetScenario>(cfg);

  std::ostringstream trace_a;
  obs::Observability session_a;
  session_a.trace_to(trace_a);
  FleetWorld world(scenario_ptr, &session_a);
  // Stop mid-super-step (not on a barrier) so the clone carries pending
  // outboxes and partial tick_transfers.
  world.run_until(cfg.horizon / 2.0 + 1.3, nullptr);

  std::ostringstream trace_b;
  obs::Observability session_b;
  session_b.trace_to(trace_b);
  auto clone = world.clone(&session_b);
  EXPECT_EQ(world.state_fingerprint(), clone->state_fingerprint());

  exec::ThreadPool pool(4);
  const FleetReport ra = world.finish(nullptr);
  const FleetReport rb = clone->finish(&pool);
  EXPECT_EQ(ra.fingerprint, rb.fingerprint);
  EXPECT_EQ(ra.ops_completed, rb.ops_completed);
  EXPECT_EQ(ra.ops_cross_island, rb.ops_cross_island);
  EXPECT_EQ(trace_a.str(), trace_b.str());
}

TEST(IslandDeterminism, AffinityKeepsMostPlacementsIslandLocal) {
  const FleetConfig cfg = sharded_config();
  const FleetRun r = run_with_jobs(cfg, 2);
  // The ferry penalty prices cross-island placement conservatively, so it
  // should be the exception: well under the island-local remote traffic.
  EXPECT_GT(r.report.ops_remote, 0u);
  EXPECT_LT(r.report.ops_cross_island, r.report.ops_remote);
  // And the trace announces the decomposition.
  EXPECT_NE(r.trace.find("\"type\":\"fleet_islands\""), std::string::npos);
  EXPECT_NE(r.trace.find("\"islands\":3"), std::string::npos);
}

TEST(IslandDeterminism, SingleIslandMatchesLegacyPipelineExactly) {
  // islands=1 must be the identity refactor: explicitly requesting one
  // island produces the same bytes as the (auto = 1) legacy-shaped run.
  FleetConfig auto_cfg = small_config();
  FleetConfig one_cfg = small_config();
  one_cfg.islands = 1;
  const FleetRun a = run_with_jobs(auto_cfg, 1);
  const FleetRun b = run_with_jobs(one_cfg, 8);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(drop_wall_rows(a.metrics_csv), drop_wall_rows(b.metrics_csv));
  EXPECT_EQ(a.report.fingerprint, b.report.fingerprint);
}

TEST(IslandDeterminism, SpeechWorkloadShiftsTheMixRemote) {
  FleetConfig mixed = sharded_config();
  FleetConfig speech = sharded_config();
  speech.workload = scenario::FleetWorkload::kSpeech;
  const FleetRun a = run_with_jobs(mixed, 2);
  const FleetRun b = run_with_jobs(speech, 2);
  ASSERT_GT(b.report.ops_completed, 0u);
  // Recognition-shaped ops carry 4-5x the cycles: latency and energy rise
  // fleet-wide, and the workload knob changes outcomes (distinct
  // fingerprints) while arrival times stay seed-determined.
  EXPECT_GT(b.report.latency_mean_s, a.report.latency_mean_s);
  EXPECT_GT(b.report.aggregate_energy_j, a.report.aggregate_energy_j);
  EXPECT_NE(a.report.fingerprint, b.report.fingerprint);
  // Speech runs stay jobs-deterministic too.
  const FleetRun b8 = run_with_jobs(speech, 8);
  EXPECT_EQ(b.trace, b8.trace);
  EXPECT_EQ(b.report.fingerprint, b8.report.fingerprint);
}

}  // namespace
}  // namespace spectra
