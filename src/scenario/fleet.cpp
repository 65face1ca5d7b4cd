#include "scenario/fleet.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory_resource>
#include <numbers>
#include <sstream>

#include "obs/memaudit.h"
#include "util/assert.h"
#include "util/fnv.h"
#include "util/rng.h"
#include "util/shutdown.h"

namespace spectra::scenario {

using namespace util;  // NOLINT: unit literals (_KB, _MB)

namespace {

double wall_now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ----------------------------------------------------------------- scenario

const char* to_string(DeviceClass device) {
  switch (device) {
    case DeviceClass::kItsy: return "itsy";
    case DeviceClass::kThinkpad: return "thinkpad";
    case DeviceClass::kModern: return "modern";
  }
  return "unknown";
}

const char* to_string(FleetWorkload workload) {
  switch (workload) {
    case FleetWorkload::kMixed: return "mixed";
    case FleetWorkload::kSpeech: return "speech";
  }
  return "unknown";
}

FleetScenario::FleetScenario(FleetConfig config) : config_(config) {
  const obs::MemScope mem_scope(obs::MemScopeId::kScenario);
  SPECTRA_REQUIRE(config_.clients >= 1, "fleet needs at least one client");
  SPECTRA_REQUIRE(config_.servers >= 1, "fleet needs at least one server");
  SPECTRA_REQUIRE(config_.tick > 0.0, "fleet tick must be positive");
  SPECTRA_REQUIRE(config_.horizon > 0.0, "fleet horizon must be positive");
  SPECTRA_REQUIRE(config_.bandwidth > 0.0, "fleet bandwidth must be positive");
  SPECTRA_REQUIRE(config_.lookahead >= 0.0,
                  "fleet lookahead must be non-negative");
  SPECTRA_REQUIRE(config_.itsy_fraction >= 0.0 &&
                      config_.thinkpad_fraction >= 0.0 &&
                      config_.itsy_fraction + config_.thinkpad_fraction <= 1.0,
                  "device mix fractions must be a sub-probability");

  // Pool servers alternate the paper's two server classes (400 MHz vs
  // 933 MHz), so placement has a real speed/contention trade to make.
  servers_.reserve(config_.servers);
  for (std::size_t s = 0; s < config_.servers; ++s) {
    FleetServerSpec spec;
    std::ostringstream name;
    name << "server-" << s;
    spec.name = util::intern(name.str());
    if (s % 2 == 0) {
      spec.cpu_hz = 400e6;
      spec.power = hw::PowerModel{20.0, 10.0, 2.0};
    } else {
      spec.cpu_hz = 933e6;
      spec.power = hw::PowerModel{25.0, 15.0, 2.0};
    }
    servers_.push_back(spec);
  }

  util::Rng rng(config_.seed);

  // Flash crowds: seeded windows in the middle of the run where the arrival
  // rate multiplies fleet-wide. Drawn before the per-client streams so the
  // windows are a function of (seed, flash config) alone.
  for (int k = 0; k < config_.flash_crowds; ++k) {
    const util::Seconds start =
        rng.uniform(0.1, 0.8) * config_.horizon;
    flash_windows_.emplace_back(start, start + config_.flash_duration);
  }

  profiles_.reserve(config_.clients);
  schedule_off_.reserve(config_.clients + 1);
  schedule_off_.push_back(0);
  for (std::size_t i = 0; i < config_.clients; ++i) {
    // Each client gets a forked stream: its profile and schedule are
    // independent of how many draws any other client consumed.
    util::Rng crng = rng.fork();

    FleetClientProfile profile;
    const double mix = crng.uniform();
    std::ostringstream name;
    if (mix < config_.itsy_fraction) {
      // Itsy-class handheld: slow, software floating point, tiny battery —
      // remote execution is its lifeline, so it gets the largest fair-share
      // weight and cares most about energy.
      profile.device = DeviceClass::kItsy;
      profile.cpu_hz = 206e6;
      profile.fp_penalty = 3.0;
      profile.power = hw::PowerModel{0.15, 1.55, 0.35};
      profile.weight = 2.0;
      profile.on_battery = true;
      profile.energy_importance = 0.8;
    } else if (mix < config_.itsy_fraction + config_.thinkpad_fraction) {
      profile.device = DeviceClass::kThinkpad;
      profile.cpu_hz = 233e6;
      profile.fp_penalty = 1.0;
      profile.power = hw::PowerModel{7.0, 6.0, 2.0};
      profile.weight = 1.0;
      profile.on_battery = true;
      profile.energy_importance = 0.1;
    } else {
      // Modern wall-powered box: fast enough that remote mostly loses.
      profile.device = DeviceClass::kModern;
      profile.cpu_hz = 700e6;
      profile.fp_penalty = 1.0;
      profile.power = hw::PowerModel{7.0, 8.0, 2.0};
      profile.weight = 0.5;
      profile.on_battery = false;
      profile.energy_importance = 0.0;
    }
    name << to_string(profile.device) << "-" << i;
    profile.name = util::intern(name.str());
    profile.rate_scale = crng.noise_factor(0.3);
    profiles_.push_back(profile);

    // Thinned (non-homogeneous) Poisson arrivals: draw at the peak rate,
    // keep each with probability rate(t)/peak — exact for any bounded
    // modulation, and each client's schedule is one pass over its stream.
    const double base = config_.ops_per_client_hz * profile.rate_scale;
    double peak_mult = 1.0 + config_.diurnal_amplitude;
    if (!flash_windows_.empty()) peak_mult *= config_.flash_multiplier;
    const double peak = base * peak_mult;
    util::Seconds t = 0.0;
    while (true) {
      t += -std::log(1.0 - crng.uniform()) / peak;
      if (t >= config_.horizon) break;
      const double rate = base * rate_multiplier(t);
      if (crng.uniform() * peak >= rate) continue;
      FleetOp op;
      op.at = t;
      if (config_.workload == FleetWorkload::kSpeech) {
        // Janus-recognition-shaped: heavier, FP-dominated, larger uploads.
        op.cycles = crng.uniform(150e6, 600e6);
        op.bytes = crng.uniform(40.0_KB, 200.0_KB);
        op.fp_heavy = crng.bernoulli(0.8);
      } else {
        op.cycles = crng.uniform(30e6, 150e6);
        op.bytes = crng.uniform(20.0_KB, 150.0_KB);
        op.fp_heavy = crng.bernoulli(0.3);
      }
      schedule_ops_.push_back(op);
    }
    schedule_off_.push_back(static_cast<std::uint32_t>(schedule_ops_.size()));
  }
}

double FleetScenario::rate_multiplier(util::Seconds t) const {
  double m = 1.0 + config_.diurnal_amplitude *
                       std::sin(2.0 * std::numbers::pi * t /
                                config_.diurnal_period);
  for (const auto& [start, end] : flash_windows_) {
    if (t >= start && t < end) m *= config_.flash_multiplier;
  }
  return std::max(m, 0.0);
}

std::size_t FleetScenario::total_ops() const { return schedule_ops_.size(); }

// -------------------------------------------------------------------- world

void FleetWorld::ClientStore::resize(std::size_t n) {
  next_op.resize(n, 0);
  local_free_at.resize(n, 0.0);
  forced_local_until.resize(n, 0.0);
  run_head.resize(n, -1);
  run_tail.resize(n, -1);
  decisions.resize(n, 0);
  completed.resize(n, 0);
  completed_local.resize(n, 0);
  completed_remote.resize(n, 0);
  rejected.resize(n, 0);
  aborted.resize(n, 0);
  battery_cliffs.resize(n, 0);
  latency_sum_s.resize(n, 0.0);
  slowdown_sum.resize(n, 0.0);
  energy_j.resize(n, 0.0);
}

FleetWorld::FleetWorld(std::shared_ptr<const FleetScenario> scenario,
                       obs::Observability* session)
    : scenario_(std::move(scenario)),
      session_(session),
      plan_(plan_islands(*scenario_)),
      exec_(plan_.islands, plan_.lookahead,
            sim::IslandExecutor::Hooks{
                [this](std::size_t island, util::Seconds target) {
                  island_advance(island, target);
                },
                [this](util::Seconds t) { exchange(t); }}) {
  const obs::MemScope mem_scope(obs::MemScopeId::kFleetWorld);
  const FleetConfig& cfg = scenario_->config();
  store_.resize(cfg.clients);

  // One pool per island: the island partition is a pure function of the
  // scenario, so every per-pool artifact is byte-identical for any --jobs.
  pools_.resize(plan_.islands);
  for (std::size_t c = 0; c < cfg.clients; ++c) {
    pools_[plan_.island_of_client[c]].op_bound += scenario_->schedule(c).size();
  }
  for (PoolStore& pool : pools_) pool.reserve_bound();

  // In-flight jobs per server are bounded by the admission queue's shape,
  // so the metadata slot table (and its free list) never reallocates.
  const std::size_t meta_bound =
      cfg.admission.queue_bound + cfg.admission.service_slots;
  servers_.reserve(cfg.servers);
  for (std::size_t s = 0; s < cfg.servers; ++s) {
    servers_.emplace_back(cfg.admission);
    servers_.back().meta.reserve(meta_bound);
    servers_.back().free_meta.reserve(meta_bound);
  }
  for (const FleetServerSpec& spec : scenario_->servers()) {
    best_server_hz_ = std::max(best_server_hz_, spec.cpu_hz);
  }

  const std::size_t ticks_per_step =
      static_cast<std::size_t>(plan_.lookahead / cfg.tick) + 2;
  islands_.reserve(plan_.islands);
  arenas_.reserve(plan_.islands);
  for (std::size_t i = 0; i < plan_.islands; ++i) {
    islands_.emplace_back(plan_.servers[i].size());
    islands_.back().tick_transfers.reserve(ticks_per_step);
    arenas_.push_back(std::make_unique<util::Arena>(1 << 16));
  }
  frozen_views_.resize(cfg.servers);
  trace_on_ = session_ != nullptr && session_->tracing();
  if (trace_on_) traces_.resize(cfg.clients);
  if (cfg.fault_plan.has_value()) {
    fault_events_ = fault::expand_plan(*cfg.fault_plan);
    // Stable by time: simultaneous events keep the plan's emission order,
    // the same tie-break the engine-backed injector applies.
    std::stable_sort(fault_events_.begin(), fault_events_.end(),
                     [](const fault::FaultEvent& a, const fault::FaultEvent& b) {
                       return a.at < b.at;
                     });
  }
}

FleetOp FleetWorld::meta_op(const RemoteMeta& meta) {
  FleetOp op;
  op.at = meta.arrived;
  op.cycles = meta.cycles;
  op.bytes = meta.bytes;
  op.fp_heavy = meta.fp_heavy;
  return op;
}

double FleetWorld::ideal_time(std::uint32_t client, const FleetOp& op) const {
  const FleetClientProfile& p = scenario_->profiles()[client];
  const double pen = op.fp_heavy ? p.fp_penalty : 1.0;
  const double local = op.cycles * pen / p.cpu_hz;
  const double remote = op.bytes / scenario_->config().bandwidth +
                        scenario_->config().rtt + op.cycles / best_server_hz_;
  return std::min(local, remote);
}

void FleetWorld::run_local(std::uint32_t client, const FleetOp& op,
                           util::Seconds from, bool fallback) {
  const FleetClientProfile& p = scenario_->profiles()[client];
  const double pen = op.fp_heavy ? p.fp_penalty : 1.0;
  const util::Seconds exec = op.cycles * pen / p.cpu_hz;
  const util::Seconds start = std::max(store_.local_free_at[client], from);
  LocalRun run;
  run.arrived = op.at;
  run.finish = start + exec;
  run.energy = exec * (p.power.idle_w + p.power.cpu_w) +
               (run.finish - exec - op.at) * p.power.idle_w;
  run.ideal = ideal_time(client, op);
  run.fallback = fallback;
  store_.local_free_at[client] = run.finish;
  PoolStore& pool = pools_[plan_.island_of_client[client]];
  const std::int32_t node = pool.alloc_run();
  pool.run_nodes[static_cast<std::size_t>(node)] = {run, -1};
  if (store_.run_tail[client] >= 0) {
    pool.run_nodes[static_cast<std::size_t>(store_.run_tail[client])].next =
        node;
  } else {
    store_.run_head[client] = node;
  }
  store_.run_tail[client] = node;
}

void FleetWorld::complete_local(std::uint32_t client, util::Seconds t1) {
  std::int32_t n = store_.run_head[client];
  if (n < 0) return;
  PoolStore& pool = pools_[plan_.island_of_client[client]];
  // Finishes are monotone along the FIFO (local_free_at never runs
  // backwards), so draining the prefix <= t1 is complete.
  while (n >= 0 && pool.run_nodes[static_cast<std::size_t>(n)].run.finish <=
                       t1) {
    const LocalRun run = pool.run_nodes[static_cast<std::size_t>(n)].run;
    const std::int32_t next =
        pool.run_nodes[static_cast<std::size_t>(n)].next;
    pool.free_run(n);
    credit_completion(client, run.arrived, run.finish, run.energy, run.ideal,
                      run.fallback ? -2 : -1);
    n = next;
  }
  store_.run_head[client] = n;
  if (n < 0) store_.run_tail[client] = -1;
}

void FleetWorld::credit_completion(std::uint32_t client, util::Seconds arrived,
                                   util::Seconds finished, util::Joules energy,
                                   util::Seconds ideal, int server) {
  const bool remote = server >= 0;
  const double latency = finished - arrived;
  ++store_.completed[client];
  if (remote) {
    ++store_.completed_remote[client];
  } else {
    ++store_.completed_local[client];
  }
  store_.latency_sum_s[client] += latency;
  pools_[plan_.island_of_client[client]].latencies.push_back({client, latency});
  // Slowdown in (0, 1]: best unloaded placement time over achieved time.
  store_.slowdown_sum[client] +=
      latency > 0.0 ? std::min(ideal / latency, 1.0) : 1.0;
  store_.energy_j[client] += energy;
  if (trace_on_) {
    obs::TraceEvent ev("fleet_op", finished);
    ev.field("client", static_cast<std::int64_t>(client))
        .field("mode", remote          ? "remote"
                       : server == -2 ? "fallback"
                                      : "local")
        .field("latency", latency);
    if (remote) ev.field("server", server);
    traces_[client].emit(ev);
  }
}

void FleetWorld::apply_island_faults(std::size_t island, util::Seconds t0,
                                     util::Seconds t1) {
  IslandState& is = islands_[island];
  const std::size_t servers = servers_.size();
  while (is.next_fault < fault_events_.size() &&
         fault_events_[is.next_fault].at < t1) {
    const fault::FaultEvent& e = fault_events_[is.next_fault++];
    // Every island walks the same expanded stream with its own cursor:
    // medium events replicate (identical factors at identical ticks);
    // server/client events apply — and trace — only on the owning island.
    // Faults quantize to the start of the tick containing them.
    bool owned = island == 0;  // medium-wide events trace on island 0
    switch (e.kind) {
      case fault::FaultKind::kServerCrash: {
        const auto s = static_cast<std::size_t>(e.a);
        if (s < servers) owned = plan_.island_of_server[s] == island;
        if (!owned) break;
        if (s >= servers || !servers_[s].up) break;
        servers_[s].up = false;
        std::pmr::vector<core::AdmissionJob> aborted(arenas_[island].get());
        servers_[s].queue.abort_all(&aborted);
        // Fail aborted jobs back to their tenants (queue order): own-island
        // tenants rerun locally from the crash tick, remote tenants learn
        // at the next barrier.
        for (const core::AdmissionJob& job : aborted) {
          const RemoteMeta meta = servers_[s].meta[job.cookie];
          servers_[s].free_meta.push_back(job.cookie);
          if (plan_.island_of_client[meta.client] == island) {
            ++store_.aborted[meta.client];
            run_local(meta.client, meta_op(meta), t0, /*fallback=*/true);
          } else {
            is.out_aborts.push_back({meta.client, meta_op(meta)});
          }
        }
        break;
      }
      case fault::FaultKind::kServerRestart: {
        const auto s = static_cast<std::size_t>(e.a);
        if (s < servers) owned = plan_.island_of_server[s] == island;
        if (owned && s < servers) servers_[s].up = true;
        break;
      }
      case fault::FaultKind::kLatencySpike:
        is.rtt_factor = e.magnitude;
        break;
      case fault::FaultKind::kLatencyRestore:
        is.rtt_factor = 1.0;
        break;
      case fault::FaultKind::kBandwidthDrop:
        is.bandwidth_factor = e.magnitude;
        break;
      case fault::FaultKind::kBandwidthRestore:
        is.bandwidth_factor = 1.0;
        break;
      case fault::FaultKind::kLinkDown:
        is.medium_up = false;
        break;
      case fault::FaultKind::kLinkUp:
        is.medium_up = true;
        break;
      case fault::FaultKind::kLinkFlap:
        SPECTRA_REQUIRE(false, "link_flap must be expanded before apply");
        break;
      case fault::FaultKind::kBatteryCliff: {
        // Charge collapsed on client (a mod clients): the radio goes dark
        // and every decision is forced local until the cliff heals (no
        // duration = the rest of the run). Owned by the client's island.
        if (store_.next_op.empty()) break;
        const std::size_t c =
            static_cast<std::size_t>(e.a) % store_.next_op.size();
        owned = plan_.island_of_client[c] == island;
        if (!owned) break;
        store_.forced_local_until[c] = e.duration > 0.0
                                           ? t0 + e.duration
                                           : scenario_->config().horizon + 1.0;
        ++store_.battery_cliffs[c];
        if (trace_on_) {
          obs::TraceEvent ev("fleet_fault", t0);
          ev.field("kind", fault::to_token(e.kind))
              .field("client", static_cast<std::int64_t>(c))
              .field("until", store_.forced_local_until[c]);
          is.fault_trace.emit(ev);
        }
        break;
      }
    }
    if (trace_on_ && owned && e.kind != fault::FaultKind::kBatteryCliff) {
      obs::TraceEvent ev("fleet_fault", t0);
      ev.field("kind", fault::to_token(e.kind)).field("a", e.a);
      if (e.magnitude != 0.0) ev.field("magnitude", e.magnitude);
      is.fault_trace.emit(ev);
    }
  }
}

void FleetWorld::serve_island(std::size_t island, util::Seconds t0,
                              util::Seconds t1) {
  IslandState& is = islands_[island];
  std::pmr::vector<core::AdmissionCompletion> done_scratch(
      arenas_[island].get());
  for (const std::uint32_t sidx : plan_.servers[island]) {
    ServerState& server = servers_[sidx];
    if (!server.up) continue;
    done_scratch.clear();
    server.queue.advance(t0, t1 - t0, scenario_->servers()[sidx].cpu_hz,
                         &done_scratch);
    for (const core::AdmissionCompletion& done : done_scratch) {
      const RemoteMeta meta = server.meta[done.job.cookie];
      server.free_meta.push_back(done.job.cookie);
      const FleetClientProfile& p = scenario_->profiles()[meta.client];
      const double wait = done.finished_at - meta.arrived - meta.net_time;
      const util::Joules energy =
          meta.net_time * (p.power.idle_w + p.power.net_w) +
          std::max(wait, 0.0) * p.power.idle_w;
      const FleetOp op = meta_op(meta);
      const util::Seconds ideal = ideal_time(meta.client, op);
      if (plan_.island_of_client[meta.client] == island) {
        credit_completion(meta.client, meta.arrived, done.finished_at, energy,
                          ideal, static_cast<int>(sidx));
      } else {
        // Another island's tenant: the credit (pure accounting — remote
        // completions never feed back into that client's decisions) ferries
        // to the barrier.
        is.out_completions.push_back({meta.client, meta.arrived,
                                      done.finished_at, energy, ideal,
                                      static_cast<int>(sidx)});
      }
    }
  }
}

FleetWorld::Decision FleetWorld::decide(std::size_t island,
                                        std::uint32_t client,
                                        const FleetOp& op,
                                        util::Seconds step_end) {
  const FleetClientProfile& p = scenario_->profiles()[client];
  const FleetConfig& cfg = scenario_->config();
  const IslandState& is = islands_[island];

  Decision d;
  d.client = client;
  d.op = op;

  // Local alternative: wait for the local CPU, then execute (with the
  // floating-point penalty when the op is FP-heavy and the device lacks an
  // FPU worth the name).
  const double pen = op.fp_heavy ? p.fp_penalty : 1.0;
  const double local_wait =
      std::max(store_.local_free_at[client] - op.at, 0.0);
  const double local_exec = op.cycles * pen / p.cpu_hz;
  const double local_time = local_wait + local_exec;
  const double local_energy =
      local_exec * (p.power.idle_w + p.power.cpu_w) +
      local_wait * p.power.idle_w;
  double best_cost = local_time + p.energy_importance * local_energy;
  d.server = -1;
  d.predicted_s = local_time;

  // A battery-cliffed client keeps its radio dark until the cliff heals.
  if (is.medium_up && store_.forced_local_until[client] <= op.at) {
    // Shared-medium contention: the EWMA of concurrent transfers divides
    // the nominal bandwidth. Every client reads the same frozen estimate
    // between barriers.
    const double sharers =
        std::max(medium_est_.empty() ? 1.0 : medium_est_.value(), 1.0);
    const double bw = cfg.bandwidth * is.bandwidth_factor / sharers;
    const double net_time = op.bytes / bw + cfg.rtt * is.rtt_factor;
    const std::uint32_t sbase = plan_.servers[island].front();
    const std::size_t scount = plan_.servers[island].size();
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      const bool own = s >= sbase && s < sbase + scount;
      // Own servers: the island's per-tick published view (the legacy
      // freshness). Remote islands' servers: the view frozen at the last
      // barrier — conservatively stale by at most the lookahead horizon,
      // exactly the staleness a real status poll would carry.
      const monitor::ServerLoadView& view =
          own ? is.board.view(s - sbase) : frozen_views_[s];
      if (!view.up) continue;
      const double hz = scenario_->servers()[s].cpu_hz;
      // Processor sharing: this job would share the CPU with the smoothed
      // run queue the server last published.
      const double exec = op.cycles * (1.0 + view.run_queue) / hz;
      double time = net_time + exec;
      if (!own) {
        // A cross-island job ships at the next barrier; the uplink
        // transfer overlaps the ferry wait, so the job is priced at
        // whichever dominates plus the remote execution.
        const double ferry = std::max(step_end - op.at, 0.0);
        time = std::max(net_time, ferry) + exec;
      }
      const double energy =
          net_time * (p.power.idle_w + p.power.net_w) +
          (time - net_time) * p.power.idle_w;
      const double cost = time + p.energy_importance * energy;
      if (cost < best_cost) {
        best_cost = cost;
        d.server = static_cast<int>(s);
        d.predicted_s = time;
        d.net_time_s = net_time;
      }
    }
  }
  return d;
}

void FleetWorld::island_decisions(std::size_t island, util::Seconds t1) {
  const util::Seconds step_end = exec_.next_barrier();
  // The island is the unit of parallelism: this stage runs inline on the
  // island's worker, over its members in ascending client order.
  PoolStore& ps = pools_[island];
  for (const std::uint32_t client : plan_.clients[island]) {
    complete_local(client, t1);
    const std::span<const FleetOp> sched = scenario_->schedule(client);
    std::uint32_t& cursor = store_.next_op[client];
    while (cursor < sched.size() && sched[cursor].at <= t1) {
      const FleetOp& op = sched[cursor++];
      Decision d = decide(island, client, op, step_end);
      ++store_.decisions[client];
      if (trace_on_) {
        obs::TraceEvent ev("fleet_decision", op.at);
        ev.field("client", static_cast<std::int64_t>(client))
            .field("target", d.server < 0
                                 ? std::string("local")
                                 : scenario_->servers()[d.server].name.str())
            .field("predicted", d.predicted_s);
        traces_[client].emit(ev);
      }
      if (d.server < 0) {
        run_local(client, op, op.at, /*fallback=*/false);
      } else {
        ps.decisions.push_back(d);
      }
    }
  }
}

bool FleetWorld::submit_remote(std::uint32_t client, std::size_t server,
                               const FleetOp& op, double net_time_s,
                               util::Seconds reject_from) {
  const FleetClientProfile& p = scenario_->profiles()[client];
  ServerState& ss = servers_[server];
  // Pick the metadata slot the job will carry as its cookie; commit it only
  // if the queue admits (rejected submissions must not leak slots).
  const std::uint32_t slot =
      ss.free_meta.empty() ? static_cast<std::uint32_t>(ss.meta.size())
                           : ss.free_meta.back();
  const auto id = ss.queue.submit(static_cast<int>(client), p.weight,
                                  op.cycles, op.at, slot);
  if (!id.has_value()) {
    ++store_.rejected[client];
    run_local(client, op, reject_from, /*fallback=*/true);
    return false;
  }
  RemoteMeta meta;
  meta.client = client;
  meta.arrived = op.at;
  meta.bytes = op.bytes;
  meta.net_time = net_time_s;
  meta.cycles = op.cycles;
  meta.fp_heavy = op.fp_heavy;
  if (ss.free_meta.empty()) {
    ss.meta.push_back(meta);
  } else {
    ss.free_meta.pop_back();
    ss.meta[slot] = meta;
  }
  return true;
}

void FleetWorld::island_submit(std::size_t island) {
  IslandState& is = islands_[island];
  util::Arena* arena = arenas_[island].get();
  // The island's decisions, in ascending client order (the order its
  // members decided in).
  std::vector<Decision>& decisions = pools_[island].decisions;
  // Island admission order: arrival time, ties by decision position — an
  // index sort, so it reproduces the stable sort the old per-tick copy ran
  // without the allocation std::stable_sort makes per call.
  std::pmr::vector<std::uint32_t> order(arena);
  order.resize(decisions.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&decisions](std::uint32_t a, std::uint32_t b) {
              const double at_a = decisions[a].op.at;
              const double at_b = decisions[b].op.at;
              return at_a != at_b ? at_a < at_b : a < b;
            });
  std::size_t transfers = 0;
  for (const std::uint32_t i : order) {
    const Decision& d = decisions[i];
    const auto s = static_cast<std::size_t>(d.server);
    if (plan_.island_of_server[s] != static_cast<std::uint32_t>(island)) {
      // Cross-island pick: the uplink transfer starts now (it counts
      // against the shared medium this tick) and the job ferries to the
      // barrier, where the sequential exchange admits it.
      ++transfers;
      is.out_submissions.push_back(
          {d.client, static_cast<std::uint32_t>(s), d.op, d.net_time_s});
      continue;
    }
    if (!is.medium_up || !servers_[s].up) {
      // The world changed between decision and submission (fault applied
      // this tick): fall back to local execution.
      ++store_.rejected[d.client];
      run_local(d.client, d.op, d.op.at, /*fallback=*/true);
      continue;
    }
    if (submit_remote(d.client, s, d.op, d.net_time_s, d.op.at)) ++transfers;
  }
  decisions.clear();
  is.tick_transfers.push_back(transfers);
}

void FleetWorld::publish_island(std::size_t island, util::Seconds t0,
                                util::Seconds t1) {
  IslandState& is = islands_[island];
  const double dt = t1 - t0;
  const std::vector<std::uint32_t>& members = plan_.servers[island];
  for (std::size_t j = 0; j < members.size(); ++j) {
    ServerState& server = servers_[members[j]];
    const double busy = server.queue.busy_time();
    const double util = dt > 0.0 ? (busy - server.busy_last) / dt : 0.0;
    server.busy_last = busy;
    is.board.publish(j, server.queue.run_queue(), util, server.up);
  }
  is.board.flip();
}

void FleetWorld::island_tick(std::size_t island, util::Seconds t0,
                             util::Seconds t1) {
  apply_island_faults(island, t0, t1);
  serve_island(island, t0, t1);
  island_decisions(island, t1);
  island_submit(island);
  publish_island(island, t0, t1);
}

void FleetWorld::island_advance(std::size_t island, util::Seconds target) {
  const obs::MemScope mem_scope(obs::MemScopeId::kFleetTick);
  const util::Seconds tick = scenario_->config().tick;
  IslandState& is = islands_[island];
  while (is.now + 1e-9 < target) {
    const util::Seconds t0 = is.now;
    const util::Seconds t1 = std::min(t0 + tick, target);
    island_tick(island, t0, t1);
    is.now = t1;
    // Recycle the tick's arena scratch. Once warm this is O(1) and
    // heap-free, which is what keeps steady-state ticks allocation-free.
    arenas_[island]->reset();
  }
}

void FleetWorld::fold_medium() {
  const std::size_t ticks =
      islands_.empty() ? 0 : islands_[0].tick_transfers.size();
  for (const IslandState& is : islands_) {
    SPECTRA_REQUIRE(is.tick_transfers.size() == ticks,
                    "islands lost tick lockstep before a barrier fold");
  }
  // Position-wise sum across islands, in tick order: the EWMA sees exactly
  // the per-tick fleet-wide transfer counts a sequential run would feed it.
  for (std::size_t j = 0; j < ticks; ++j) {
    std::size_t total = 0;
    for (const IslandState& is : islands_) total += is.tick_transfers[j];
    medium_est_.add(static_cast<double>(total));
  }
  for (IslandState& is : islands_) is.tick_transfers.clear();
}

void FleetWorld::deliver_mail(util::Seconds t) {
  // Completions first (pure accounting), then crash aborts (rerun locally
  // from the barrier), then ferried submissions — each class drained in
  // island index order, submissions globally re-sorted by (arrival,
  // client) so admission order stays a pure function of the scenario.
  barrier_arena_.reset();
  for (IslandState& is : islands_) {
    for (const CrossCompletion& cc : is.out_completions) {
      credit_completion(cc.client, cc.arrived, cc.finished, cc.energy,
                        cc.ideal, cc.server);
    }
    is.out_completions.clear();
  }
  for (IslandState& is : islands_) {
    for (const CrossAbort& ca : is.out_aborts) {
      ++store_.aborted[ca.client];
      run_local(ca.client, ca.op, t, /*fallback=*/true);
    }
    is.out_aborts.clear();
  }
  std::size_t total = 0;
  for (const IslandState& is : islands_) total += is.out_submissions.size();
  std::pmr::vector<CrossSubmission> mail(&barrier_arena_);
  mail.reserve(total);
  for (IslandState& is : islands_) {
    mail.insert(mail.end(), is.out_submissions.begin(),
                is.out_submissions.end());
    is.out_submissions.clear();
  }
  std::sort(mail.begin(), mail.end(),
            [](const CrossSubmission& a, const CrossSubmission& b) {
              return a.op.at != b.op.at ? a.op.at < b.op.at
                                        : a.client < b.client;
            });
  cross_submissions_ += mail.size();
  for (const CrossSubmission& cs : mail) {
    if (!barrier_medium_up_ || !servers_[cs.server].up) {
      // The medium partitioned or the target crashed while the job was on
      // the wire: fall back to local execution from the barrier.
      ++store_.rejected[cs.client];
      run_local(cs.client, cs.op, t, /*fallback=*/true);
      continue;
    }
    submit_remote(cs.client, cs.server, cs.op, cs.net_time_s, t);
  }
}

void FleetWorld::exchange(util::Seconds t) {
  const obs::MemScope mem_scope(obs::MemScopeId::kFleetTick);
  fold_medium();
  // World-level medium availability at barrier time, for admitting ferried
  // submissions (its own cursor over the same expanded link events).
  while (barrier_fault_cursor_ < fault_events_.size() &&
         fault_events_[barrier_fault_cursor_].at < t) {
    const fault::FaultEvent& e = fault_events_[barrier_fault_cursor_++];
    if (e.kind == fault::FaultKind::kLinkDown) barrier_medium_up_ = false;
    if (e.kind == fault::FaultKind::kLinkUp) barrier_medium_up_ = true;
  }
  deliver_mail(t);
  // Refreeze cross-island load views for the next super-step.
  for (std::size_t i = 0; i < islands_.size(); ++i) {
    islands_[i].board.snapshot_into(frozen_views_, plan_.servers[i].front());
  }
}

void FleetWorld::run_until(util::Seconds until, exec::ThreadPool* pool) {
  until = std::min(until, scenario_->config().horizon);
  const double w0 = wall_now_ms();
  exec_.run_until(until, pool);
  wall_seconds_ += (wall_now_ms() - w0) / 1e3;
}

std::uint64_t FleetWorld::state_fingerprint() const {
  std::uint64_t h = util::kFingerprintSeed;
  const std::size_t nclients = store_.next_op.size();
  for (std::size_t c = 0; c < nclients; ++c) {
    // Field order is the fingerprint contract; the 32-bit counters widen
    // back to the 64-bit values the old per-client structs folded.
    h = util::fnv_mix(h, static_cast<std::uint64_t>(store_.decisions[c]));
    h = util::fnv_mix(h, static_cast<std::uint64_t>(store_.completed[c]));
    h = util::fnv_mix(h,
                      static_cast<std::uint64_t>(store_.completed_local[c]));
    h = util::fnv_mix(h,
                      static_cast<std::uint64_t>(store_.completed_remote[c]));
    h = util::fnv_mix(h, static_cast<std::uint64_t>(store_.rejected[c]));
    h = util::fnv_mix(h, static_cast<std::uint64_t>(store_.aborted[c]));
    h = util::fnv_mix(h, static_cast<std::uint64_t>(store_.battery_cliffs[c]));
    h = util::fnv_mix(h, store_.forced_local_until[c]);
    h = util::fnv_mix(h, static_cast<std::uint64_t>(store_.next_op[c]));
    h = util::fnv_mix(h, store_.latency_sum_s[c]);
    h = util::fnv_mix(h, store_.slowdown_sum[c]);
    h = util::fnv_mix(h, store_.energy_j[c]);
    h = util::fnv_mix(h, store_.local_free_at[c]);
    std::uint64_t queued = 0;
    const PoolStore& pool = pools_[plan_.island_of_client[c]];
    for (std::int32_t n = store_.run_head[c]; n >= 0;
         n = pool.run_nodes[static_cast<std::size_t>(n)].next) {
      ++queued;
    }
    h = util::fnv_mix(h, queued);
  }
  for (const ServerState& server : servers_) {
    h = server.queue.fingerprint(h);
    h = util::fnv_mix(h, static_cast<std::uint64_t>(server.up ? 1 : 0));
  }
  h = util::fnv_mix(h, exec_.now());
  h = util::fnv_mix(h, medium_est_.empty() ? -1.0 : medium_est_.value());
  return h;
}

std::unique_ptr<FleetWorld> FleetWorld::clone(obs::Observability* obs) const {
  auto copy = std::make_unique<FleetWorld>(scenario_, obs);
  const obs::MemScope mem_scope(obs::MemScopeId::kFleetWorld);
  copy->store_ = store_;
  copy->pools_ = pools_;
  // Vector copies keep contents but not spare capacity; re-reserve so the
  // clone's steady-state ticks stay allocation-free too.
  for (PoolStore& pool : copy->pools_) pool.reserve_bound();
  copy->servers_ = servers_;
  const core::AdmissionConfig& adm = scenario_->config().admission;
  const std::size_t meta_bound = adm.queue_bound + adm.service_slots;
  for (ServerState& server : copy->servers_) {
    server.meta.reserve(meta_bound);
    server.free_meta.reserve(meta_bound);
  }
  copy->islands_ = islands_;
  copy->frozen_views_ = frozen_views_;
  copy->medium_est_ = medium_est_;
  copy->barrier_medium_up_ = barrier_medium_up_;
  copy->barrier_fault_cursor_ = barrier_fault_cursor_;
  copy->cross_submissions_ = cross_submissions_;
  copy->exec_.copy_state_from(exec_);
  // Tracing follows the new session, but the shard buffers carry over, so
  // the clone's merged trace equals an uncloned full run's. (A tracing
  // clone of a non-tracing world keeps the fresh empty shards its
  // constructor sized.)
  if (copy->trace_on_ && !traces_.empty()) {
    copy->traces_ = traces_;
  }
  if (!copy->trace_on_) {
    for (IslandState& is : copy->islands_) is.fault_trace.clear();
  }
  return copy;
}

FleetReport FleetWorld::finish(exec::ThreadPool* pool) {
  if (finished_) return report_;
  const FleetConfig& cfg = scenario_->config();
  run_until(cfg.horizon, pool);
  // Horizon settlement: fold the trailing ticks' medium counts and deliver
  // the outstanding cross-island mail — completions that finished before
  // the horizon are credited, crash aborts rerun locally, and ferried
  // submissions land in their queue (and stay in flight, matching the
  // treatment of jobs queued at the horizon).
  fold_medium();
  while (barrier_fault_cursor_ < fault_events_.size() &&
         fault_events_[barrier_fault_cursor_].at < exec_.now()) {
    const fault::FaultEvent& e = fault_events_[barrier_fault_cursor_++];
    if (e.kind == fault::FaultKind::kLinkDown) barrier_medium_up_ = false;
    if (e.kind == fault::FaultKind::kLinkUp) barrier_medium_up_ = true;
  }
  deliver_mail(exec_.now());
  finished_ = true;

  FleetReport r;
  r.clients = cfg.clients;
  r.servers = cfg.servers;
  r.policy = cfg.admission.policy;
  r.horizon = cfg.horizon;
  r.islands = plan_.islands;
  r.lookahead_s = plan_.lookahead;
  r.virtual_end = exec_.now();
  r.ops_cross_island = cross_submissions_;

  const std::size_t nclients = store_.next_op.size();
  std::vector<double> slowdowns;
  for (std::size_t c = 0; c < nclients; ++c) {
    r.decisions += store_.decisions[c];
    r.ops_completed += store_.completed[c];
    r.ops_local += store_.completed_local[c];
    r.ops_remote += store_.completed_remote[c];
    r.ops_rejected += store_.rejected[c];
    r.ops_aborted += store_.aborted[c];
    r.battery_cliffs += store_.battery_cliffs[c];
    r.aggregate_energy_j += store_.energy_j[c];
    if (store_.completed[c] > 0) {
      slowdowns.push_back(store_.slowdown_sum[c] /
                          static_cast<double>(store_.completed[c]));
    }
  }
  // Rebuild the global latency stream in per-client, per-client-
  // chronological order — the order the per-client vectors used to
  // concatenate in, so means, percentiles, and histogram folds are
  // byte-identical. Each client's samples live in one pool in credit
  // (chronological) order; a stable sort by client is exactly that merge.
  std::vector<LatSample> samples;
  std::size_t nsamples = 0;
  for (const PoolStore& pool : pools_) nsamples += pool.latencies.size();
  samples.reserve(nsamples);
  for (const PoolStore& pool : pools_) {
    samples.insert(samples.end(), pool.latencies.begin(),
                   pool.latencies.end());
  }
  std::stable_sort(samples.begin(), samples.end(),
                   [](const LatSample& a, const LatSample& b) {
                     return a.client < b.client;
                   });
  std::vector<double> latencies;
  latencies.reserve(samples.size());
  for (const LatSample& s : samples) latencies.push_back(s.latency_s);
  if (!latencies.empty()) {
    r.latency_mean_s = util::mean_of(latencies);
    r.latency_p50_s = util::percentile_value(latencies, 50.0);
    r.latency_p99_s = util::percentile_value(latencies, 99.0);
  }
  // Jain's fairness index over per-client mean slowdown: 1.0 when every
  // client gets the same relative service, 1/n when one client gets it all.
  if (!slowdowns.empty()) {
    double sum = 0.0;
    double sq = 0.0;
    for (double x : slowdowns) {
      sum += x;
      sq += x * x;
    }
    r.jain_fairness =
        sq > 0.0 ? (sum * sum) / (static_cast<double>(slowdowns.size()) * sq)
                 : 0.0;
  }
  double util_sum = 0.0;
  double util_min = 1.0;
  double util_max = 0.0;
  const util::Seconds now = exec_.now();
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    const FleetServerSpec& spec = scenario_->servers()[s];
    const double busy = servers_[s].queue.busy_time();
    const double busy_frac = now > 0.0 ? busy / now : 0.0;
    util_sum += busy_frac;
    util_min = std::min(util_min, busy_frac);
    util_max = std::max(util_max, busy_frac);
    r.aggregate_energy_j +=
        busy * (spec.power.idle_w + spec.power.cpu_w) +
        (now - busy) * spec.power.idle_w;
  }
  r.server_utilization_mean = util_sum / static_cast<double>(servers_.size());
  r.server_utilization_min = util_min;
  r.server_utilization_max = util_max;
  r.fingerprint = state_fingerprint();

  r.wall_seconds = wall_seconds_;
  if (wall_seconds_ > 0.0) {
    r.decisions_per_wall_sec =
        static_cast<double>(r.decisions) / wall_seconds_;
    r.events_per_wall_sec =
        static_cast<double>(r.decisions + r.ops_completed) / wall_seconds_;
  }

  if (session_ != nullptr) {
    obs::MetricsRegistry& m = session_->metrics();
    m.counter("fleet.decisions").add(static_cast<double>(r.decisions));
    m.counter("fleet.ops.completed").add(static_cast<double>(r.ops_completed));
    m.counter("fleet.ops.local").add(static_cast<double>(r.ops_local));
    m.counter("fleet.ops.remote").add(static_cast<double>(r.ops_remote));
    m.counter("fleet.ops.rejected").add(static_cast<double>(r.ops_rejected));
    m.counter("fleet.ops.aborted").add(static_cast<double>(r.ops_aborted));
    // Conditional so cliff-free / single-island runs keep their metrics
    // goldens byte-identical.
    if (r.battery_cliffs > 0) {
      m.counter("fleet.battery_cliffs")
          .add(static_cast<double>(r.battery_cliffs));
    }
    if (r.ops_cross_island > 0) {
      m.counter("fleet.ops.cross_island")
          .add(static_cast<double>(r.ops_cross_island));
    }
    m.counter("fleet.energy_j").add(r.aggregate_energy_j);
    m.counter("fleet.jain_fairness").add(r.jain_fairness);
    obs::Histogram& lat = m.histogram("fleet.op.latency_s");
    for (double x : latencies) lat.observe(x);
    obs::Histogram& util_hist = m.histogram("fleet.server.utilization");
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      util_hist.observe(now > 0.0 ? servers_[s].queue.busy_time() / now
                                  : 0.0);
    }
    // Wall-clock metrics carry the ".wall_ms" suffix so determinism checks
    // and goldens can strip them.
    m.histogram("fleet.run.wall_ms").observe(wall_seconds_ * 1e3);
    if (session_->tracing()) {
      // Island decomposition header (multi-island runs only, so legacy
      // single-island goldens keep their bytes), then per-island fault
      // shards and per-client shards in index order — the same
      // deterministic merge discipline BatchRunner uses.
      if (plan_.islands > 1) {
        obs::TraceEvent header("fleet_islands", 0.0);
        header.field("islands", static_cast<std::int64_t>(plan_.islands))
            .field("lookahead", plan_.lookahead);
        session_->trace()->emit(header);
      }
      for (const IslandState& is : islands_) {
        session_->trace()->write_raw(is.fault_trace.bytes());
      }
      for (const obs::TraceShard& shard : traces_) {
        session_->trace()->write_raw(shard.bytes());
      }
      obs::TraceEvent summary("fleet_summary", now);
      summary.field("clients", static_cast<std::int64_t>(r.clients))
          .field("completed", static_cast<std::int64_t>(r.ops_completed))
          .field("remote", static_cast<std::int64_t>(r.ops_remote))
          .field("rejected", static_cast<std::int64_t>(r.ops_rejected))
          .field("p99_latency", r.latency_p99_s)
          .field("jain", r.jain_fairness);
      session_->trace()->emit(summary);
    }
  }

  report_ = r;
  return report_;
}

// ------------------------------------------------------------------- report

std::string FleetReport::to_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"clients\": " << clients << ",\n";
  os << "  \"servers\": " << servers << ",\n";
  os << "  \"islands\": " << islands << ",\n";
  os << "  \"lookahead_s\": " << obs::format_double(lookahead_s) << ",\n";
  os << "  \"policy\": \"" << core::to_string(policy) << "\",\n";
  os << "  \"horizon_s\": " << obs::format_double(horizon) << ",\n";
  os << "  \"decisions\": " << decisions << ",\n";
  os << "  \"ops_completed\": " << ops_completed << ",\n";
  os << "  \"ops_local\": " << ops_local << ",\n";
  os << "  \"ops_remote\": " << ops_remote << ",\n";
  os << "  \"ops_rejected\": " << ops_rejected << ",\n";
  os << "  \"ops_aborted\": " << ops_aborted << ",\n";
  os << "  \"ops_cross_island\": " << ops_cross_island << ",\n";
  os << "  \"battery_cliffs\": " << battery_cliffs << ",\n";
  os << "  \"latency_p50_s\": " << obs::format_double(latency_p50_s) << ",\n";
  os << "  \"latency_p99_s\": " << obs::format_double(latency_p99_s) << ",\n";
  os << "  \"latency_mean_s\": " << obs::format_double(latency_mean_s)
     << ",\n";
  os << "  \"server_utilization_mean\": "
     << obs::format_double(server_utilization_mean) << ",\n";
  os << "  \"server_utilization_min\": "
     << obs::format_double(server_utilization_min) << ",\n";
  os << "  \"server_utilization_max\": "
     << obs::format_double(server_utilization_max) << ",\n";
  os << "  \"aggregate_energy_j\": "
     << obs::format_double(aggregate_energy_j) << ",\n";
  os << "  \"jain_fairness\": " << obs::format_double(jain_fairness) << ",\n";
  os << "  \"virtual_end_s\": " << obs::format_double(virtual_end) << ",\n";
  os << "  \"fingerprint\": \"" << std::hex << fingerprint << std::dec
     << "\",\n";
  os << "  \"wall\": {\n";
  os << "    \"seconds\": " << obs::format_double(wall_seconds) << ",\n";
  os << "    \"decisions_per_sec\": "
     << obs::format_double(decisions_per_wall_sec) << ",\n";
  os << "    \"events_per_sec\": "
     << obs::format_double(events_per_wall_sec) << "\n";
  os << "  }\n";
  os << "}\n";
  return os.str();
}

FleetReport run_fleet(const FleetConfig& config, std::size_t jobs,
                      obs::Observability* session) {
  auto scenario = std::make_shared<FleetScenario>(config);
  FleetWorld world(std::move(scenario), session);
  std::unique_ptr<exec::ThreadPool> pool;
  if (jobs > 1) pool = std::make_unique<exec::ThreadPool>(jobs);
  return world.finish(pool.get());
}

}  // namespace spectra::scenario
