// Per-server health tracking for placement decisions (ISSUE 4 tentpole).
//
// Spectra's solver must not keep proposing servers that just failed: the
// paper's hostile-environment premise (§4.6) and the self-aware-runtime
// literature both argue that failure history has to feed back into the
// placement decision itself. This tracker maintains, per compute server:
//
//   * an EWMA transport-failure rate fed by RPC retry exhaustion and failed
//     status polls;
//   * a phi-accrual-style suspicion level derived from the gap since the
//     server was last heard from, normalised by the observed heartbeat
//     (status-poll) interval;
//   * a circuit breaker (closed -> open -> half-open) with seeded,
//     escalating cooldowns. Open servers are excluded from the candidate
//     set entirely; half-open servers admit a single probe (the next status
//     poll) which closes the breaker on success or reopens it with a longer
//     cooldown on failure.
//
// Everything runs in virtual time and draws jitter from its own forked RNG,
// so seeded runs (and their clones) stay bit-identical. Application-level
// errors (rpc::ErrorKind::kApplication) never count against a server: the
// transport did its job.
#pragma once

#include <map>
#include <string>

#include "hw/machine.h"
#include "obs/obs.h"
#include "rpc/rpc.h"
#include "sim/engine.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"

namespace spectra::core {

using hw::MachineId;
using util::Seconds;

struct ServerHealthConfig {
  bool enabled = true;

  // EWMA weight of a new outcome sample (1 = failure, 0 = success).
  double failure_alpha = 0.3;
  // Open the breaker after this many consecutive transport failures...
  int open_after_failures = 3;
  // ...or once the EWMA failure rate crosses this threshold.
  double open_failure_rate = 0.65;

  // First cooldown before a half-open probe is allowed; each reopen
  // multiplies the cooldown by `cooldown_backoff`, capped at `cooldown_max`.
  Seconds open_cooldown = 5.0;
  double cooldown_backoff = 2.0;
  Seconds cooldown_max = 60.0;
  // Cooldowns are jittered by +/- this fraction (seeded) so probes to
  // several dead servers don't synchronise.
  double probe_jitter = 0.2;

  // Suspicion (phi) above this level starts penalising a server's predicted
  // time; each unit of phi above the threshold adds `suspect_penalty` to the
  // multiplicative penalty factor, which is capped at `penalty_max`.
  double suspect_phi = 2.0;
  double suspect_penalty = 0.25;
  // The EWMA failure rate also contributes: factor += weight * rate.
  double failure_penalty_weight = 1.0;
  double penalty_max = 4.0;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

class ServerHealthTracker {
 public:
  ServerHealthTracker(sim::Engine& engine, util::Rng rng,
                      ServerHealthConfig config);

  const ServerHealthConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled; }

  // Resolve counter handles once; no-op when `obs` is null.
  void attach_obs(obs::Observability* obs);

  void add_server(MachineId id);
  bool tracks(MachineId id) const { return entries_.count(id) > 0; }

  // A successful transport interaction. `heartbeat` successes (status poll
  // replies) also feed the heartbeat-interval estimate behind suspicion;
  // operation RPCs pass false — they refresh last_heard and close the
  // breaker but arrive in bursts that would corrupt the interval estimate.
  void record_success(MachineId id, bool heartbeat = true);
  // `failures` transport-level failures of kind `kind` (attempts of one
  // exhausted call arrive as a batch). kApplication/kNone are ignored.
  void record_failure(MachineId id, rpc::ErrorKind kind, int failures = 1);

  // Current breaker state; lazily reports kHalfOpen once the cooldown of an
  // open breaker has elapsed (no scheduled event needed).
  BreakerState state(MachineId id) const;
  // False only while the breaker is open and the cooldown has not elapsed.
  bool allows(MachineId id) const { return state(id) != BreakerState::kOpen; }

  double failure_rate(MachineId id) const;
  // Phi-accrual-style suspicion: (now - last_heard) / mean heard interval.
  // Zero until the server has been heard from twice.
  double suspicion(MachineId id) const;
  // Multiplicative penalty applied to a candidate's predicted time by the
  // solver's evaluation function. Exactly 1.0 for a healthy server so the
  // fault-free decision pipeline is bit-identical with health tracking on.
  double penalty_factor(MachineId id) const;

  // Suppress suspicion growth while the client is inside an operation (status
  // polls are suppressed then, so silence is expected, not suspicious).
  void pause(Seconds now);
  void resume(Seconds now);

  // Structural copy for World::clone; engine reference stays the clone's own.
  void copy_state_from(const ServerHealthTracker& other);

 private:
  struct Entry {
    double failure_rate = 0.0;
    int consecutive_failures = 0;
    // Reopen count since the last success; escalates the cooldown.
    int reopen_count = 0;
    BreakerState breaker = BreakerState::kClosed;
    Seconds opened_at = 0.0;
    Seconds probe_at = 0.0;
    Seconds last_heard = 0.0;
    bool ever_heard = false;
    util::Ewma heard_interval{0.3};
  };

  BreakerState effective_state(const Entry& e) const;
  double suspicion_of(const Entry& e) const;
  void open_breaker(Entry& e);

  sim::Engine& engine_;
  util::Rng rng_;
  ServerHealthConfig config_;
  std::map<MachineId, Entry> entries_;
  // < 0 when not paused; otherwise the virtual time pause() was called.
  Seconds paused_at_ = -1.0;

  obs::Counter* m_opens_ = nullptr;
  obs::Counter* m_reopens_ = nullptr;
  obs::Counter* m_closes_ = nullptr;
};

}  // namespace spectra::core
