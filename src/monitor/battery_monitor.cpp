#include "monitor/battery_monitor.h"

#include <algorithm>
#include <limits>

#include "util/assert.h"

namespace spectra::monitor {

GoalDirectedAdaptation::GoalDirectedAdaptation(sim::Engine& engine,
                                               hw::Machine& machine,
                                               hw::EnergyDriver& driver,
                                               GoalAdaptationConfig config)
    : engine_(engine),
      machine_(machine),
      driver_(driver),
      config_(config),
      demand_rate_(config.demand_alpha) {
  ticker_ =
      engine_.schedule_periodic(config_.tick_period, [this] { tick(); },
                                "battery.goal_tick");
  last_consumed_ = driver_.read_consumed();
  last_tick_ = engine_.now();
}

GoalDirectedAdaptation::~GoalDirectedAdaptation() { engine_.cancel(ticker_); }

void GoalDirectedAdaptation::set_goal(Seconds duration) {
  SPECTRA_REQUIRE(duration > 0.0, "goal duration must be positive");
  goal_active_ = true;
  goal_end_ = engine_.now() + duration;
}

void GoalDirectedAdaptation::pin_importance(double c) {
  SPECTRA_REQUIRE(c < 0.0 || c <= 1.0, "importance must be in [0,1]");
  pinned_importance_ = c;
}

Seconds GoalDirectedAdaptation::predicted_lifetime() {
  hw::Battery* battery = machine_.battery();
  if (battery == nullptr || demand_rate_.empty() ||
      demand_rate_.value() <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return battery->remaining() / demand_rate_.value();
}

void GoalDirectedAdaptation::tick() {
  const Seconds now = engine_.now();
  const Seconds dt = now - last_tick_;
  const hw::Joules consumed = driver_.read_consumed();
  if (dt > 0.0) demand_rate_.add((consumed - last_consumed_) / dt);
  last_tick_ = now;
  last_consumed_ = consumed;

  if (!goal_active_ || !machine_.on_battery()) {
    importance_ = 0.0;
    return;
  }
  const Seconds goal_remaining = goal_end_ - now;
  if (goal_remaining <= 0.0) {
    // Goal met; conserve nothing.
    importance_ = std::max(0.0, importance_ - config_.gain * 0.1);
    return;
  }
  const Seconds lifetime = predicted_lifetime();
  // Relative shortfall: positive when the battery will die before the goal.
  const double error = (goal_remaining - lifetime) / goal_remaining;
  importance_ = std::clamp(importance_ + config_.gain * error, 0.0, 1.0);
}

namespace {
std::unique_ptr<hw::EnergyDriver> require_driver(
    std::unique_ptr<hw::EnergyDriver> driver) {
  SPECTRA_REQUIRE(driver != nullptr, "battery monitor needs a driver");
  return driver;
}
}  // namespace

BatteryMonitor::BatteryMonitor(sim::Engine& engine, hw::Machine& machine,
                               std::unique_ptr<hw::EnergyDriver> driver,
                               GoalAdaptationConfig config)
    : machine_(machine),
      driver_(require_driver(std::move(driver))),
      adaptation_(engine, machine, *driver_, config) {}

void BatteryMonitor::predict_avail(ResourceSnapshot& snapshot) {
  hw::Battery* battery = machine_.battery();
  snapshot.battery_remaining =
      battery != nullptr ? battery->remaining() : 0.0;
  snapshot.energy_importance = adaptation_.importance();
}

void BatteryMonitor::start_op() {
  consumed_at_start_ = driver_->read_consumed();
  overlap_seen_ = concurrent_ops_ > 0;
}

void BatteryMonitor::stop_op(OperationUsage& usage) {
  usage.energy = driver_->read_consumed() - consumed_at_start_;
  usage.energy_valid = !overlap_seen_ && concurrent_ops_ == 0;
}

void GoalDirectedAdaptation::copy_state_from(
    const GoalDirectedAdaptation& src) {
  goal_active_ = src.goal_active_;
  goal_end_ = src.goal_end_;
  importance_ = src.importance_;
  pinned_importance_ = src.pinned_importance_;
  demand_rate_ = src.demand_rate_;
  last_consumed_ = src.last_consumed_;
  last_tick_ = src.last_tick_;
}

void BatteryMonitor::copy_state_from(const ResourceMonitor& src) {
  const auto* other = dynamic_cast<const BatteryMonitor*>(&src);
  SPECTRA_REQUIRE(other != nullptr, "monitor type mismatch in copy_state_from");
  driver_->copy_state_from(*other->driver_);
  adaptation_.copy_state_from(other->adaptation_);
  consumed_at_start_ = other->consumed_at_start_;
  concurrent_ops_ = other->concurrent_ops_;
  overlap_seen_ = other->overlap_seen_;
}

}  // namespace spectra::monitor
