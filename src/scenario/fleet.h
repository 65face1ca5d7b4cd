// Fleet-scale worlds: N Spectra clients against a shared server pool.
//
// The paper's testbeds are one client and a couple of servers; the fleet
// layer scales the world model to thousands of concurrent clients whose
// remote-execution decisions contend for the same pool. Three pieces:
//
//   * FleetScenario — a seeded generator that turns a FleetConfig into a
//     heterogeneous device mix (Itsy-class handhelds, ThinkPad-class
//     laptops, modern wall-powered boxes), per-client arrival schedules
//     (thinned-Poisson processes modulated by a diurnal wave and seeded
//     flash crowds), and a pool of shared servers. Everything is a pure
//     function of the seed.
//
//   * FleetWorld — a tick-based simulator over that scenario, sharded into
//     islands (scenario::plan_islands) that advance independently on
//     sim::IslandExecutor / exec::ThreadPool workers and synchronize at a
//     conservative lookahead horizon. Each island tick: the island's slice
//     of the fault stream applies, its servers serve their admission queues
//     (core::AdmissionQueue — bounded run queue, FIFO or weighted-fair),
//     completions are credited back, every island client with due arrivals
//     runs its decision pipeline against the last tick's published views of
//     its own servers (monitor::LoadBoard) plus barrier-frozen views of
//     remote islands' servers, and accepted island-local decisions are
//     submitted in deterministic (arrival time, client) order. Cross-island
//     effects — submissions to remote servers, completions/crash aborts of
//     remote clients' jobs — ride outboxes that the sequential barrier
//     exchange delivers in island index order. Server load observed by
//     clients is therefore genuine multi-tenant contention, not a scripted
//     background factor.
//
//   * FleetReport — fleet-level metrics: p50/p99 end-to-end operation
//     latency (virtual, deterministic), server utilization, aggregate
//     energy, Jain's fairness index across clients, and the run's wall
//     time and throughput (real, never in goldens or stdout tables; no
//     decision is timed on its own).
//
// Determinism: the island partition and lookahead are pure functions of the
// scenario (never of --jobs), decisions are pure functions of (client
// state, frozen views), per-island and per-client observability shards
// merge into the session in fixed index order, and every cross-island
// interaction happens in the sequential barrier with a fixed order — so
// traces, metrics, and reports are byte-identical for any --jobs, and a
// cloned world replays bit-identically. With a single island the pipeline
// reduces exactly (byte for byte) to the sequential tick pipeline.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/admission.h"
#include "exec/thread_pool.h"
#include "fault/fault_plan.h"
#include "hw/power.h"
#include "monitor/load_board.h"
#include "obs/obs.h"
#include "scenario/islands.h"
#include "sim/island_exec.h"
#include "util/arena.h"
#include "util/interner.h"
#include "util/stats.h"
#include "util/units.h"

namespace spectra::scenario {

// ----------------------------------------------------------------- scenario

enum class DeviceClass { kItsy, kThinkpad, kModern };

const char* to_string(DeviceClass device);

// Operation shape the generator draws: kMixed is the interactive blend the
// fleet ladder has always used; kSpeech draws Janus-recognition-shaped ops
// (heavier, FP-dominated, larger uploads) so a figure-scale workload can be
// run at fleet scale.
enum class FleetWorkload { kMixed, kSpeech };

const char* to_string(FleetWorkload workload);

struct FleetClientProfile {
  DeviceClass device = DeviceClass::kThinkpad;
  util::Symbol name;  // interned, e.g. "itsy-0042"
  util::Hertz cpu_hz = 0.0;
  double fp_penalty = 1.0;
  hw::PowerModel power;
  // Admission weight under the weighted-fair policy.
  double weight = 1.0;
  bool on_battery = false;
  // Energy-conservation importance c in the decision's utility product.
  double energy_importance = 0.0;
  // Per-client arrival-rate multiplier (some users are chattier).
  double rate_scale = 1.0;
};

// One operation arrival: the client must run `cycles` of work, shipping
// `bytes` over the shared medium if it executes remotely.
struct FleetOp {
  util::Seconds at = 0.0;
  util::Cycles cycles = 0.0;
  util::Bytes bytes = 0.0;
  bool fp_heavy = false;
};

struct FleetServerSpec {
  util::Symbol name;
  util::Hertz cpu_hz = 0.0;
  hw::PowerModel power;
};

struct FleetConfig {
  std::size_t clients = 1000;
  std::size_t servers = 8;
  std::uint64_t seed = 1;
  util::Seconds horizon = 300.0;
  util::Seconds tick = 0.5;
  core::AdmissionConfig admission;

  // Island-parallel execution: number of islands (0 = auto, see
  // auto_island_count) and the conservative lookahead horizon between
  // island barriers (0 = auto, see derive_lookahead). Both are pure
  // functions of the scenario/config — never of --jobs — so any worker
  // count produces byte-identical output.
  std::size_t islands = 0;
  util::Seconds lookahead = 0.0;

  // Operation shape drawn by the generator.
  FleetWorkload workload = FleetWorkload::kMixed;

  // Arrival process: per-client base rate, modulated by a diurnal sine wave
  // and flash crowds (seeded windows where the rate multiplies).
  double ops_per_client_hz = 0.04;
  double diurnal_amplitude = 0.6;       // rate *= 1 + A*sin(2*pi*t/period)
  util::Seconds diurnal_period = 120.0;
  int flash_crowds = 1;
  double flash_multiplier = 6.0;
  util::Seconds flash_duration = 10.0;

  // Device mix fractions (remainder is kModern).
  double itsy_fraction = 0.4;
  double thinkpad_fraction = 0.4;

  // Shared wireless medium (paper-shaped 2 Mb/s) and its base round trip.
  util::BytesPerSec bandwidth = 250e3;
  util::Seconds rtt = 0.02;

  // Optional fault plan: server_crash/server_restart address pool servers
  // by index, latency/bandwidth faults scale the shared medium, link faults
  // partition the medium outright. A battery_cliff addresses client
  // (a mod clients): its charge collapsed, so the radio goes dark and every
  // decision is forced local until the cliff's `duration` elapses (no
  // duration = the rest of the run).
  std::optional<fault::FaultPlan> fault_plan;
};

class FleetScenario {
 public:
  explicit FleetScenario(FleetConfig config);

  const FleetConfig& config() const { return config_; }
  const std::vector<FleetClientProfile>& profiles() const { return profiles_; }
  const std::vector<FleetServerSpec>& servers() const { return servers_; }
  // Client `c`'s arrival schedule, sorted by time. All schedules live in
  // one flat array sliced by offset — at 100k clients the former
  // vector-of-vectors layout cost a heap block and 24-byte header per
  // client and scattered the ops the tick loop walks.
  std::span<const FleetOp> schedule(std::size_t client) const {
    return {schedule_ops_.data() + schedule_off_[client],
            schedule_off_[client + 1] - schedule_off_[client]};
  }
  const std::vector<std::pair<util::Seconds, util::Seconds>>& flash_windows()
      const {
    return flash_windows_;
  }

  // Arrival-rate multiplier at time t (diurnal wave x flash crowds), before
  // the per-client rate scale. Exposed for tests.
  double rate_multiplier(util::Seconds t) const;

  std::size_t total_ops() const;

 private:
  FleetConfig config_;
  std::vector<FleetClientProfile> profiles_;
  std::vector<FleetServerSpec> servers_;
  // Flat arrival storage: client c's ops occupy
  // [schedule_off_[c], schedule_off_[c+1]).
  std::vector<FleetOp> schedule_ops_;
  std::vector<std::uint32_t> schedule_off_;
  std::vector<std::pair<util::Seconds, util::Seconds>> flash_windows_;
};

// ------------------------------------------------------------------- report

struct FleetReport {
  // Shape echo.
  std::size_t clients = 0;
  std::size_t servers = 0;
  core::AdmissionPolicy policy = core::AdmissionPolicy::kFifo;
  util::Seconds horizon = 0.0;
  std::size_t islands = 0;
  util::Seconds lookahead_s = 0.0;

  // Deterministic aggregates (safe for goldens and --jobs identity).
  std::uint64_t decisions = 0;
  std::uint64_t ops_completed = 0;
  std::uint64_t ops_local = 0;     // completed locally (chosen or fallback)
  std::uint64_t ops_remote = 0;    // completed on a pool server
  std::uint64_t ops_rejected = 0;  // admission rejections (fell back local)
  std::uint64_t ops_aborted = 0;   // lost to a server crash, rerun locally
  std::uint64_t ops_cross_island = 0;  // submitted to another island's server
  std::uint64_t battery_cliffs = 0;  // cliff events applied to clients
  double latency_p50_s = 0.0;      // end-to-end, virtual time
  double latency_p99_s = 0.0;
  double latency_mean_s = 0.0;
  double server_utilization_mean = 0.0;
  double server_utilization_min = 0.0;
  double server_utilization_max = 0.0;
  util::Joules aggregate_energy_j = 0.0;
  double jain_fairness = 0.0;  // over per-client mean slowdown, in (0, 1]
  util::Seconds virtual_end = 0.0;
  // FNV-1a over per-client and per-server outcome state; equal fingerprints
  // mean bit-identical fleet execution.
  std::uint64_t fingerprint = 0;

  // Wall-clock measurements (real time; never in goldens or stdout tables).
  double wall_seconds = 0.0;
  double decisions_per_wall_sec = 0.0;
  // Simulation throughput: (decisions + completions) per wall second — the
  // scaling-curve metric events/sec-vs-cores benches track.
  double events_per_wall_sec = 0.0;

  // Machine-readable form: deterministic fields first, wall-clock fields
  // under a "wall" object so consumers can strip them for identity checks.
  std::string to_json() const;
};

// -------------------------------------------------------------------- world

class FleetWorld {
 public:
  // `session` (nullable) receives merged per-client metrics and traces when
  // the run finishes. Tracing must be enabled before run_until is called.
  FleetWorld(std::shared_ptr<const FleetScenario> scenario,
             obs::Observability* session);

  const FleetScenario& scenario() const { return *scenario_; }
  const IslandPlan& plan() const { return plan_; }
  util::Seconds now() const { return exec_.now(); }
  bool finished() const { return finished_; }

  // Advance every island until virtual time reaches `until` (clamped to
  // the horizon), synchronizing at each lookahead barrier. Islands fan out
  // across `pool` (null runs everything inline — the sequential reference
  // path).
  void run_until(util::Seconds until, exec::ThreadPool* pool);

  // Run to the horizon, settle outstanding cross-island mail, merge
  // per-island and per-client shards into the session bundle (in index
  // order), and build the report. Idempotent.
  FleetReport finish(exec::ThreadPool* pool);

  // Deep-copy mid-run state into a fresh world reporting to `obs`. The
  // clone continues bit-identically to this world: same decisions, same
  // admissions, same completions, same trace bytes from the start of the
  // run (per-client shard buffers are carried over).
  std::unique_ptr<FleetWorld> clone(obs::Observability* obs) const;

  // FNV-1a over mutable outcome state; exposed for clone/replay tests.
  std::uint64_t state_fingerprint() const;

 private:
  struct LocalRun {
    util::Seconds finish = 0.0;
    util::Seconds arrived = 0.0;
    util::Joules energy = 0.0;
    util::Seconds ideal = 0.0;  // best unloaded placement time for the op
    bool fallback = false;      // admission rejection or crash rerun
  };

  // A queued local run, linked into its client's FIFO through the owning
  // pool's node store (see PoolStore::run_nodes).
  struct RunNode {
    LocalRun run;
    std::int32_t next = -1;
  };

  // Per-client mutable state, struct-of-arrays: every field is a flat
  // vector indexed by client. The former per-client struct scattered three
  // heap vectors and a trace shard per client — at 100k clients most of the
  // resident set was headers and fragmentation, and the tick loop walked
  // pointers instead of rows. Counters are 32-bit (a client cannot complete
  // more ops than its schedule holds, and fingerprints widen to 64-bit at
  // mix time, so the folded values are unchanged). Workers touch only rows
  // of clients they own.
  struct ClientStore {
    std::vector<std::uint32_t> next_op;  // cursor into the arrival schedule
    std::vector<double> local_free_at;
    // Battery-cliff degradation: decisions for ops arriving before
    // `forced_local_until` skip every remote alternative (radio dark).
    std::vector<double> forced_local_until;
    // Head/tail of the client's local-run FIFO in its pool's node store
    // (-1 = empty).
    std::vector<std::int32_t> run_head;
    std::vector<std::int32_t> run_tail;
    // Outcome accounting (drives the report and the fingerprint).
    std::vector<std::uint32_t> decisions;
    std::vector<std::uint32_t> completed;
    std::vector<std::uint32_t> completed_local;
    std::vector<std::uint32_t> completed_remote;
    std::vector<std::uint32_t> rejected;
    std::vector<std::uint32_t> aborted;
    std::vector<std::uint32_t> battery_cliffs;
    std::vector<double> latency_sum_s;
    std::vector<double> slowdown_sum;  // ideal/actual per completed op
    std::vector<double> energy_j;

    void resize(std::size_t n);
  };

  // One completed-op latency sample. Samples accumulate per pool in credit
  // order and are re-sorted by client at finish(), which reproduces the
  // exact per-client-then-chronological stream the per-client vectors used
  // to yield (each client lives in exactly one pool, and a stable sort by
  // client preserves its chronological pool order).
  struct LatSample {
    std::uint32_t client = 0;
    double latency_s = 0.0;
  };

  struct Decision;

  // Per-island append buffers and the local-run node store. Each island's
  // pool is written only by the worker advancing that island, and the
  // island partition is a pure function of the scenario — never of --jobs.
  // Buffers are reserved up front to their op bound (one entry per
  // scheduled op at most), so steady-state ticks never touch the
  // allocator.
  struct PoolStore {
    std::vector<RunNode> run_nodes;  // arena of queued local runs
    std::int32_t run_free = -1;      // free-list head into run_nodes
    std::vector<Decision> decisions;     // remote picks, drained every tick
    std::vector<LatSample> latencies;    // per completed op, virtual time
    std::size_t op_bound = 0;  // total scheduled ops over member clients

    std::int32_t alloc_run() {
      if (run_free >= 0) {
        const std::int32_t n = run_free;
        run_free = run_nodes[static_cast<std::size_t>(n)].next;
        return n;
      }
      run_nodes.emplace_back();
      return static_cast<std::int32_t>(run_nodes.size() - 1);
    }
    void free_run(std::int32_t n) {
      run_nodes[static_cast<std::size_t>(n)].next = run_free;
      run_free = n;
    }
    void reserve_bound() {
      run_nodes.reserve(op_bound);
      decisions.reserve(op_bound);
      latencies.reserve(op_bound);
    }
  };

  struct RemoteMeta {
    std::uint32_t client = 0;
    util::Seconds arrived = 0.0;
    util::Bytes bytes = 0.0;
    util::Seconds net_time = 0.0;  // uplink time already spent
    util::Cycles cycles = 0.0;
    bool fp_heavy = false;
  };

  struct ServerState {
    core::AdmissionQueue queue;
    bool up = true;
    // Job metadata by slot (AdmissionJob::cookie). Slots recycle through
    // `free_meta` as jobs finish, so the table is bounded by concurrent
    // in-flight jobs (queue bound + service slots) instead of growing with
    // every job ever admitted.
    std::vector<RemoteMeta> meta;
    std::vector<std::uint32_t> free_meta;
    util::Seconds busy_last = 0.0;  // busy_time() at the last publish
    ServerState(const core::AdmissionConfig& cfg) : queue(cfg) {}
  };

  // One decision produced by the parallel stage, applied sequentially.
  struct Decision {
    std::uint32_t client = 0;
    FleetOp op;
    int server = -1;  // -1 = local
    double predicted_s = 0.0;
    double net_time_s = 0.0;  // predicted uplink time, charged on admit
  };

  // Cross-island mail, accumulated in per-island outboxes during a step
  // and delivered by the sequential barrier exchange.
  struct CrossSubmission {
    std::uint32_t client = 0;   // origin client (another island)
    std::uint32_t server = 0;   // target server (this mail's destination)
    FleetOp op;
    double net_time_s = 0.0;
  };
  struct CrossCompletion {
    std::uint32_t client = 0;
    util::Seconds arrived = 0.0;
    util::Seconds finished = 0.0;
    util::Joules energy = 0.0;
    util::Seconds ideal = 0.0;
    int server = -1;
  };
  struct CrossAbort {
    std::uint32_t client = 0;
    FleetOp op;
  };

  // Everything one island owns between barriers. Workers touch only their
  // own island (plus the disjoint client/server slices it owns). Tick-
  // lifetime scratch lives on the island's arena instead, so this struct
  // stays copyable for clone().
  struct IslandState {
    explicit IslandState(std::size_t nservers) : board(nservers) {}

    util::Seconds now = 0.0;
    // Published views of this island's own servers (island-local index).
    monitor::LoadBoard board;
    // Replicated medium state: every island applies the same link/latency/
    // bandwidth events from the shared expanded stream via its own cursor,
    // so the factors agree at identical ticks without any sharing.
    bool medium_up = true;
    double rtt_factor = 1.0;
    double bandwidth_factor = 1.0;
    std::size_t next_fault = 0;  // cursor into fault_events_
    // Successful remote submissions per tick since the last barrier fold
    // (position-wise summed across islands into the shared-medium EWMA).
    std::vector<std::size_t> tick_transfers;
    // Fault events this island owns the trace line for.
    obs::TraceShard fault_trace;
    // Outboxes, drained at the next barrier.
    std::vector<CrossSubmission> out_submissions;
    std::vector<CrossCompletion> out_completions;
    std::vector<CrossAbort> out_aborts;
  };

  // ---- island step (parallel; touches only island-owned state) ----------
  void island_advance(std::size_t island, util::Seconds target);
  void island_tick(std::size_t island, util::Seconds t0, util::Seconds t1);
  void apply_island_faults(std::size_t island, util::Seconds t0,
                           util::Seconds t1);
  void serve_island(std::size_t island, util::Seconds t0, util::Seconds t1);
  void island_decisions(std::size_t island, util::Seconds t1);
  void island_submit(std::size_t island);
  void publish_island(std::size_t island, util::Seconds t0,
                      util::Seconds t1);

  // ---- barrier exchange (sequential) ------------------------------------
  void exchange(util::Seconds t);
  void fold_medium();
  void deliver_mail(util::Seconds t);
  // Submit to `server` (must be up) with the old-path bookkeeping; falls
  // back to local execution from `reject_from` on queue rejection. Returns
  // whether the job was admitted (counts as a medium transfer).
  bool submit_remote(std::uint32_t client, std::size_t server,
                     const FleetOp& op, double net_time_s,
                     util::Seconds reject_from);

  // ---- client-side pieces (called from island steps; touch only the
  // client's own state plus read-only frozen views) -----------------------
  void complete_local(std::uint32_t client, util::Seconds t1);
  Decision decide(std::size_t island, std::uint32_t client, const FleetOp& op,
                  util::Seconds step_end);
  void run_local(std::uint32_t client, const FleetOp& op, util::Seconds from,
                 bool fallback);
  // `server` is the pool index for remote completions, -1 for plain local,
  // -2 for a local fallback (rejection or crash rerun).
  void credit_completion(std::uint32_t client, util::Seconds arrived,
                         util::Seconds finished, util::Joules energy,
                         util::Seconds ideal, int server);
  double ideal_time(std::uint32_t client, const FleetOp& op) const;
  static FleetOp meta_op(const RemoteMeta& meta);

  std::shared_ptr<const FleetScenario> scenario_;
  obs::Observability* session_;
  IslandPlan plan_;
  ClientStore store_;
  // Per-client trace shards, sized only when tracing is on (an empty
  // vector otherwise — 100k clients must not pay for shards they never
  // write). Merged into the session at finish() in client index order.
  std::vector<obs::TraceShard> traces_;
  // Per-island append buffers, indexed like plan_.clients.
  std::vector<PoolStore> pools_;
  std::vector<ServerState> servers_;
  std::vector<IslandState> islands_;
  // Tick-lifetime scratch arenas: one per island (reset after every tick)
  // plus one for the sequential barrier exchange. Outside IslandState so
  // island state stays copyable; arenas hold no live data between ticks.
  std::vector<std::unique_ptr<util::Arena>> arenas_;
  util::Arena barrier_arena_;
  // Fastest pool server, precomputed: ideal_time() is on the completion
  // path and must not rescan the pool per op.
  double best_server_hz_ = 0.0;
  // Barrier-frozen views of every server, for cross-island decisions (own
  // servers read the island board instead). Rebuilt at each exchange.
  std::vector<monitor::ServerLoadView> frozen_views_;
  // Shared-medium congestion estimate: EWMA of concurrent remote transfers
  // per tick, folded position-wise across islands at each barrier; islands
  // read the same frozen value between barriers.
  util::Ewma medium_est_{0.4};
  // World-level medium availability at barrier time (its own cursor over
  // the link events), for admitting ferried cross-island submissions.
  bool barrier_medium_up_ = true;
  std::size_t barrier_fault_cursor_ = 0;
  // Expanded fault events (absolute time, stable order).
  std::vector<fault::FaultEvent> fault_events_;
  std::uint64_t cross_submissions_ = 0;
  bool finished_ = false;
  bool trace_on_ = false;
  double wall_seconds_ = 0.0;
  FleetReport report_;  // cached by finish()
  sim::IslandExecutor exec_;  // last: hooks bind to *this
};

// Convenience: build scenario + world, run to the horizon with `jobs`
// workers, and return the report (the `spectra fleet` entry point).
FleetReport run_fleet(const FleetConfig& config, std::size_t jobs,
                      obs::Observability* session);

}  // namespace spectra::scenario
