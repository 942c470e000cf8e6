#include "core/config.hpp"

#include <stdexcept>
#include <string>

namespace continu::core {

namespace {

void require(bool ok, const char* field, const char* rule) {
  if (!ok) {
    throw std::invalid_argument(std::string("SystemConfig: ") + field + " " + rule);
  }
}

[[nodiscard]] bool is_probability(double x) noexcept { return x >= 0.0 && x <= 1.0; }

}  // namespace

void SystemConfig::validate() const {
  require(connected_neighbors > 0, "connected_neighbors", "must be positive");
  require(backup_replicas > 0, "backup_replicas", "must be positive");
  require(is_probability(fault.loss_rate), "fault.loss_rate", "must be in [0, 1]");
  require(is_probability(fault.burst_rate), "fault.burst_rate", "must be in [0, 1]");
  require(fault.burst_period >= 0.0, "fault.burst_period", "must be non-negative");
  require(fault.burst_duration >= 0.0, "fault.burst_duration", "must be non-negative");
  if (fault.burst_rate > 0.0) {
    // A burst only ever raises the loss rate, so one at or below it is
    // inert. A zero period or duration never bursts; a duration
    // covering the whole period bursts forever.
    require(fault.burst_rate > fault.loss_rate, "fault.burst_rate",
            "must exceed fault.loss_rate when positive");
    require(fault.burst_period > 0.0, "fault.burst_period",
            "must be positive when fault.burst_rate > 0");
    require(fault.burst_duration > 0.0, "fault.burst_duration",
            "must be positive when fault.burst_rate > 0");
    require(fault.burst_duration < fault.burst_period, "fault.burst_duration",
            "must be shorter than fault.burst_period");
  } else {
    require(fault.burst_period == 0.0, "fault.burst_period",
            "must be 0 when fault.burst_rate is 0");
    require(fault.burst_duration == 0.0, "fault.burst_duration",
            "must be 0 when fault.burst_rate is 0");
  }
  for (const auto& crash : fault.crashes) {
    require(crash.time > 0.0, "fault.crashes.time", "must be positive");
    require(crash.fraction > 0.0 && crash.fraction <= 1.0, "fault.crashes.fraction",
            "must be in (0, 1]");
  }
  for (const auto& partition : fault.partitions) {
    require(partition.regions >= 2, "fault.partitions.regions", "must be at least 2");
    require(partition.heal > partition.start, "fault.partitions.heal",
            "must be after start");
  }
  for (const auto& spike : fault.spikes) {
    require(spike.duration >= 0.0, "fault.spikes.duration", "must be non-negative");
    require(spike.extra_ms >= 0.0, "fault.spikes.extra_ms", "must be non-negative");
  }
}

}  // namespace continu::core
