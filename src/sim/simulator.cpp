#include "sim/simulator.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

namespace continu::sim {

void Simulator::schedule_deferred(std::vector<EventQueue::Deferred>& batch) {
  for (EventQueue::Deferred& deferred : batch) {
    if (deferred.time < now_) deferred.time = now_;
  }
  queue_.push_all(batch);
}

bool Simulator::execute_next(SimTime horizon) {
  EventQueue::DueEvent due;
  if (!queue_.acquire_due(horizon, due)) return false;
  now_ = due.time;
  ++executed_;
  queue_.execute_and_release(due);
  return true;
}

std::size_t Simulator::drain(SimTime horizon) {
  std::size_t ran = 0;
  while (execute_next(horizon)) ++ran;
  return ran;
}

std::size_t Simulator::run_until(SimTime horizon) {
  const std::size_t ran = drain(horizon);
  if (now_ < horizon) now_ = horizon;
  return ran;
}

std::size_t Simulator::run_all() {
  return drain(std::numeric_limits<SimTime>::infinity());
}

PeriodicProcess::PeriodicProcess(Simulator& sim, SimTime period, EventAction tick)
    : sim_(sim), period_(period), tick_(std::move(tick)) {
  if (period_ <= 0.0) {
    throw std::invalid_argument("PeriodicProcess: period must be positive");
  }
  if (!tick_) {
    throw std::invalid_argument("PeriodicProcess: empty tick");
  }
}

PeriodicProcess::~PeriodicProcess() { stop(); }

void PeriodicProcess::start(SimTime initial_delay) {
  if (running_) return;
  running_ = true;
  arm(initial_delay);
}

void PeriodicProcess::stop() {
  if (!running_) return;
  running_ = false;
  if (pending_event_ != kInvalidEvent) {
    sim_.cancel(pending_event_);
    pending_event_ = kInvalidEvent;
  }
}

void PeriodicProcess::arm(SimTime delay) {
  pending_event_ = sim_.schedule_in(delay, [this] { fire(); });
}

void PeriodicProcess::fire() {
  pending_event_ = kInvalidEvent;
  if (!running_) return;
  tick_();
  if (running_) arm(period_);
}

}  // namespace continu::sim
