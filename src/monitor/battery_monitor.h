// Battery monitor and goal-directed energy adaptation (§3.3.3).
//
// Availability: the energy remaining in the client's battery, plus the
// current *importance of energy conservation* c ∈ [0,1]. c comes from
// goal-directed adaptation (Flinn & Satyanarayanan, SOSP'99): the user
// states how long the battery must last; a feedback loop compares the
// predicted lifetime (remaining energy / smoothed demand rate) against the
// remaining goal and nudges c up when the battery will fall short, down
// when there is slack. On wall power c is 0.
//
// Usage: reads the platform's energy instrument (ACPI, SmartBattery, or an
// external multimeter — chosen per platform, each modeled with its own
// quantization) before and after the operation. Energy of concurrently
// executing operations cannot be separated, so such samples are flagged
// invalid and skipped by the demand predictors.
#pragma once

#include <memory>
#include <string>

#include "hw/energy.h"
#include "hw/machine.h"
#include "monitor/monitor.h"
#include "sim/engine.h"
#include "util/stats.h"

namespace spectra::monitor {

struct GoalAdaptationConfig {
  Seconds tick_period = 5.0;
  double demand_alpha = 0.3;  // smoothing of the observed demand rate
  double gain = 0.5;          // feedback gain on the relative lifetime error
};

class GoalDirectedAdaptation {
 public:
  GoalDirectedAdaptation(sim::Engine& engine, hw::Machine& machine,
                         hw::EnergyDriver& driver,
                         GoalAdaptationConfig config = {});
  ~GoalDirectedAdaptation();

  // The battery must last `duration` seconds from now.
  void set_goal(Seconds duration);

  // Pin c to a fixed value, bypassing the feedback loop. Experiment
  // scenarios use this for reproducibility (the paper does not report the
  // converged c of its energy scenarios); pass a negative value to unpin.
  void pin_importance(double c);
  bool pinned() const { return pinned_importance_ >= 0.0; }

  // Current importance of energy conservation, c in [0,1].
  double importance() const {
    return pinned() ? pinned_importance_ : importance_;
  }

  // Predicted battery lifetime at the current demand rate (for telemetry);
  // +inf when no demand has been observed.
  Seconds predicted_lifetime();

  // Copy the feedback-loop state from the same adaptation in another world.
  void copy_state_from(const GoalDirectedAdaptation& src);

 private:
  void tick();

  sim::Engine& engine_;
  hw::Machine& machine_;
  hw::EnergyDriver& driver_;
  GoalAdaptationConfig config_;
  sim::EventId ticker_ = 0;

  bool goal_active_ = false;
  Seconds goal_end_ = 0.0;
  double importance_ = 0.0;
  double pinned_importance_ = -1.0;
  util::Ewma demand_rate_;
  hw::Joules last_consumed_ = 0.0;
  Seconds last_tick_ = 0.0;
};

class BatteryMonitor : public ResourceMonitor {
 public:
  BatteryMonitor(sim::Engine& engine, hw::Machine& machine,
                 std::unique_ptr<hw::EnergyDriver> driver,
                 GoalAdaptationConfig config = {});

  const std::string& name() const override { return name_; }

  void predict_avail(ResourceSnapshot& snapshot) override;
  void start_op() override;
  void stop_op(OperationUsage& usage) override;
  void copy_state_from(const ResourceMonitor& src) override;

  GoalDirectedAdaptation& adaptation() { return adaptation_; }
  hw::EnergyDriver& driver() { return *driver_; }

  // Concurrency bracketing: when more than one operation is in flight the
  // energy sample is invalid (§3.3.3).
  void note_concurrent_op_started() { ++concurrent_ops_; }
  void note_concurrent_op_finished() { --concurrent_ops_; }

 private:
  std::string name_ = "battery";
  hw::Machine& machine_;
  std::unique_ptr<hw::EnergyDriver> driver_;
  GoalDirectedAdaptation adaptation_;
  hw::Joules consumed_at_start_ = 0.0;
  int concurrent_ops_ = 0;
  bool overlap_seen_ = false;
};

}  // namespace spectra::monitor
