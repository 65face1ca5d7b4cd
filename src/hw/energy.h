// Energy metering.
//
// EnergyMeter integrates a machine's power draw over virtual time. Spectra
// never reads the meter directly: it reads through an EnergyDriver, which
// models the measurement modality available on each platform (SmartBattery
// chip on the Itsy, ACPI on newer laptops, an external multimeter for the
// 560X, which has no power instrumentation). Drivers quantize and lag the
// true value, so Spectra's energy models are learned from realistic,
// imperfect measurements — as in the paper.
#pragma once

#include <memory>
#include <string>

#include "sim/engine.h"
#include "util/units.h"

namespace spectra::hw {

using util::Joules;
using util::Seconds;
using util::Watts;

class EnergyMeter {
 public:
  explicit EnergyMeter(sim::Engine& engine) : engine_(engine) {}

  // Update the instantaneous power draw; integrates the previous draw up to
  // the current virtual time first.
  void set_power(Watts p);

  // True cumulative energy consumed since construction.
  Joules total_consumed();

  // Copy the integration state from a meter attached to another engine.
  // Copies raw members only — never calls total_consumed() (which
  // integrates), so many clones may copy from one shared const template
  // concurrently without racing.
  void copy_state_from(const EnergyMeter& src) {
    power_ = src.power_;
    last_t_ = src.last_t_;
    total_ = src.total_;
  }

 private:
  void integrate();

  sim::Engine& engine_;
  Watts power_ = 0.0;
  Seconds last_t_ = 0.0;
  Joules total_ = 0.0;
};

// Measurement interface through which monitors observe energy.
class EnergyDriver {
 public:
  virtual ~EnergyDriver() = default;

  // Name of the measurement methodology ("acpi", "smart_battery", ...).
  virtual const std::string& name() const = 0;

  // Cumulative energy consumed as reported by this instrument.
  virtual Joules read_consumed() = 0;

  // Copy mutable measurement state (caches, refresh timestamps) from a
  // same-type driver in another world. Stateless drivers need no override.
  virtual void copy_state_from(const EnergyDriver& /*src*/) {}
};

// ACPI battery interface: reports in coarse mWh quanta and refreshes its
// reading at a bounded rate.
class AcpiDriver : public EnergyDriver {
 public:
  AcpiDriver(sim::Engine& engine, EnergyMeter& meter,
             Joules quantum = 3.6 /* 1 mWh */,
             Seconds refresh_period = 0.25);

  const std::string& name() const override { return name_; }
  Joules read_consumed() override;
  void copy_state_from(const EnergyDriver& src) override;

 private:
  std::string name_ = "acpi";
  sim::Engine& engine_;
  EnergyMeter& meter_;
  Joules quantum_;
  Seconds refresh_period_;
  Seconds last_refresh_ = -1.0;
  Joules cached_ = 0.0;
};

// SmartBattery chip: finer quanta, fast refresh.
class SmartBatteryDriver : public EnergyDriver {
 public:
  SmartBatteryDriver(sim::Engine& engine, EnergyMeter& meter,
                     Joules quantum = 0.5);

  const std::string& name() const override { return name_; }
  Joules read_consumed() override;

 private:
  std::string name_ = "smart_battery";
  sim::Engine& engine_;
  EnergyMeter& meter_;
  Joules quantum_;
};

// External multimeter: effectively exact (used for the 560X experiments).
class MultimeterDriver : public EnergyDriver {
 public:
  explicit MultimeterDriver(EnergyMeter& meter) : meter_(meter) {}

  const std::string& name() const override { return name_; }
  Joules read_consumed() override { return meter_.total_consumed(); }

 private:
  std::string name_ = "multimeter";
  EnergyMeter& meter_;
};

}  // namespace spectra::hw
