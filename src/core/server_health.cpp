#include "core/server_health.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace spectra::core {

ServerHealthTracker::ServerHealthTracker(sim::Engine& engine, util::Rng rng,
                                         ServerHealthConfig config)
    : engine_(engine), rng_(rng), config_(config) {}

void ServerHealthTracker::attach_obs(obs::Observability* obs) {
  if (obs == nullptr) return;
  m_opens_ = &obs->metrics().counter("health.breaker_opens");
  m_reopens_ = &obs->metrics().counter("health.breaker_reopens");
  m_closes_ = &obs->metrics().counter("health.breaker_closes");
}

void ServerHealthTracker::add_server(MachineId id) { entries_[id]; }

void ServerHealthTracker::record_success(MachineId id, bool heartbeat) {
  if (!config_.enabled) return;
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  const Seconds now = engine_.now();
  if (e.breaker != BreakerState::kClosed) {
    e.breaker = BreakerState::kClosed;
    if (m_closes_ != nullptr) m_closes_->add();
  }
  e.consecutive_failures = 0;
  e.reopen_count = 0;
  e.failure_rate *= 1.0 - config_.failure_alpha;
  if (heartbeat && e.ever_heard && now > e.last_heard) {
    e.heard_interval.add(now - e.last_heard);
  }
  if (now > e.last_heard) e.last_heard = now;
  e.ever_heard = true;
}

void ServerHealthTracker::record_failure(MachineId id, rpc::ErrorKind kind,
                                         int failures) {
  if (!config_.enabled) return;
  if (kind == rpc::ErrorKind::kNone || kind == rpc::ErrorKind::kApplication) {
    return;
  }
  auto it = entries_.find(id);
  if (it == entries_.end() || failures <= 0) return;
  Entry& e = it->second;
  for (int i = 0; i < failures; ++i) {
    e.failure_rate =
        config_.failure_alpha + (1.0 - config_.failure_alpha) * e.failure_rate;
  }
  e.consecutive_failures += failures;
  switch (effective_state(e)) {
    case BreakerState::kHalfOpen:
      // Failed probe: reopen with an escalated cooldown.
      open_breaker(e);
      break;
    case BreakerState::kClosed:
      if (e.consecutive_failures >= config_.open_after_failures ||
          e.failure_rate >= config_.open_failure_rate) {
        open_breaker(e);
      }
      break;
    case BreakerState::kOpen:
      // Stragglers from an in-flight call; the cooldown keeps running.
      break;
  }
}

void ServerHealthTracker::open_breaker(Entry& e) {
  const bool reopen = e.reopen_count > 0;
  e.breaker = BreakerState::kOpen;
  e.opened_at = engine_.now();
  ++e.reopen_count;
  Seconds cooldown = config_.open_cooldown *
                     std::pow(config_.cooldown_backoff, e.reopen_count - 1);
  cooldown = std::min(cooldown, config_.cooldown_max);
  const double jitter =
      1.0 + config_.probe_jitter * (2.0 * rng_.uniform() - 1.0);
  e.probe_at = e.opened_at + cooldown * jitter;
  if (reopen) {
    if (m_reopens_ != nullptr) m_reopens_->add();
  } else if (m_opens_ != nullptr) {
    m_opens_->add();
  }
}

BreakerState ServerHealthTracker::effective_state(const Entry& e) const {
  if (e.breaker != BreakerState::kOpen) return e.breaker;
  return engine_.now() >= e.probe_at ? BreakerState::kHalfOpen
                                     : BreakerState::kOpen;
}

BreakerState ServerHealthTracker::state(MachineId id) const {
  if (!config_.enabled) return BreakerState::kClosed;
  auto it = entries_.find(id);
  if (it == entries_.end()) return BreakerState::kClosed;
  return effective_state(it->second);
}

double ServerHealthTracker::failure_rate(MachineId id) const {
  auto it = entries_.find(id);
  return it == entries_.end() ? 0.0 : it->second.failure_rate;
}

double ServerHealthTracker::suspicion_of(const Entry& e) const {
  if (!e.ever_heard || e.heard_interval.empty()) return 0.0;
  // While paused (client inside an operation, polls suppressed) suspicion is
  // frozen at its value when the pause began: silence is expected then.
  const Seconds now = paused_at_ >= 0.0
                          ? std::max(paused_at_, e.last_heard)
                          : engine_.now();
  const double mean = e.heard_interval.value();
  if (mean <= 0.0) return 0.0;
  return std::max(0.0, now - e.last_heard) / mean;
}

double ServerHealthTracker::suspicion(MachineId id) const {
  auto it = entries_.find(id);
  return it == entries_.end() ? 0.0 : suspicion_of(it->second);
}

double ServerHealthTracker::penalty_factor(MachineId id) const {
  if (!config_.enabled) return 1.0;
  auto it = entries_.find(id);
  if (it == entries_.end()) return 1.0;
  const Entry& e = it->second;
  double factor = 1.0;
  const double phi = suspicion_of(e);
  if (phi > config_.suspect_phi) {
    factor += config_.suspect_penalty * (phi - config_.suspect_phi);
  }
  if (e.failure_rate > 0.0) {
    factor += config_.failure_penalty_weight * e.failure_rate;
  }
  return std::min(factor, config_.penalty_max);
}

void ServerHealthTracker::pause(Seconds now) {
  if (paused_at_ >= 0.0) return;
  paused_at_ = now;
}

void ServerHealthTracker::resume(Seconds now) {
  if (paused_at_ < 0.0) return;
  const Seconds shift = now - paused_at_;
  paused_at_ = -1.0;
  if (shift <= 0.0) return;
  // Shift last_heard forward by the pause duration so the silent stretch
  // does not count toward suspicion; successes recorded during the pause
  // already carry a later timestamp, hence the clamp.
  for (auto& [id, e] : entries_) {
    (void)id;
    if (!e.ever_heard) continue;
    e.last_heard = std::min(now, e.last_heard + shift);
  }
}

void ServerHealthTracker::copy_state_from(const ServerHealthTracker& other) {
  rng_ = other.rng_;
  config_ = other.config_;
  entries_ = other.entries_;
  paused_at_ = other.paused_at_;
}

}  // namespace spectra::core
