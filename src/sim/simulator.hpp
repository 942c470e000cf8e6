#pragma once
// Deterministic discrete-event simulator: virtual clock + event queue.
//
// Everything in the reproduction — buffer-map exchanges, segment
// transfers, DHT routing hops, churn, playback ticks — executes as
// events on one Simulator instance, so a (seed, config) pair fully
// determines a run.
//
// Scheduling is allocation-free for ordinary captures: actions are
// EventActions (small-buffer optimized) stored directly in the queue's
// slot pool, and cancel() is an O(1) slot write.

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "sim/event_queue.hpp"
#include "util/types.hpp"

namespace continu::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time in seconds.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `f` to run at now() + delay (delay clamped to >= 0).
  /// Returns a handle usable with cancel(). Accepts any callable;
  /// captures up to EventAction::kInlineCapacity bytes never allocate
  /// (the callable is constructed directly in the queue's slot pool).
  template <typename F>
  EventId schedule_in(SimTime delay, F&& f) {
    validate_callable(f);
    if (delay < 0.0) delay = 0.0;
    return queue_.emplace(now_ + delay, std::forward<F>(f));
  }

  /// Schedules `f` at an absolute time (clamped to >= now()).
  template <typename F>
  EventId schedule_at(SimTime when, F&& f) {
    validate_callable(f);
    if (when < now_) when = now_;
    return queue_.emplace(when, std::forward<F>(f));
  }

  /// Schedules a batch of deferred emissions in order (times clamped to
  /// >= now()) and clears the batch. This is the merge half of the
  /// fork/join deferred-emission protocol: shards buffer emissions,
  /// the join commits each shard's buffer in shard order, and sequence
  /// numbers come out identical to serial execution.
  void schedule_deferred(std::vector<EventQueue::Deferred>& batch);

  /// Cancels a pending event; returns true iff it was still pending.
  bool cancel(EventId id) noexcept { return queue_.cancel(id); }

  /// Runs events until the queue drains or the clock passes `horizon`.
  /// Events at exactly `horizon` still run. Returns events executed.
  std::size_t run_until(SimTime horizon);

  /// Runs until the queue is empty. Returns events executed.
  std::size_t run_all();

  /// Live events still pending.
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

  /// High-water mark of pending events since construction.
  [[nodiscard]] std::size_t peak_pending() const noexcept {
    return queue_.peak_size();
  }

  /// Total events executed since construction.
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

 private:
  /// Rejects the one empty callable the API can meet (a null
  /// std::function) before it reaches the queue; an empty EventAction
  /// is rejected by the queue itself.
  template <typename F>
  static void validate_callable(const F& f) {
    if constexpr (std::is_same_v<std::decay_t<F>, std::function<void()>>) {
      if (!f) throw std::invalid_argument("Simulator: empty action");
    }
  }

  /// Executes the earliest pending event iff its time <= horizon:
  /// stamps the clock, counts it, runs it in place. The only way an
  /// event executes; returns whether one ran.
  bool execute_next(SimTime horizon);

  /// The one run loop: execute_next until nothing is due by `horizon`.
  /// Returns events executed.
  std::size_t drain(SimTime horizon);

  EventQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t executed_ = 0;
};

/// Repeating event helper: reschedules itself every `period` until
/// stop() or the owning simulator drains. One pending event at a time;
/// re-arming reuses the inline [this] capture, so ticking never
/// allocates. Used for source emission and ad-hoc periodic work; fleets
/// of same-period ticks belong on a RoundScheduler instead.
class PeriodicProcess {
 public:
  PeriodicProcess(Simulator& sim, SimTime period, EventAction tick);
  ~PeriodicProcess();
  PeriodicProcess(const PeriodicProcess&) = delete;
  PeriodicProcess& operator=(const PeriodicProcess&) = delete;

  /// Starts with the first tick after `initial_delay`.
  void start(SimTime initial_delay = 0.0);

  /// Cancels the pending tick; further ticks stop.
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_; }
  [[nodiscard]] SimTime period() const noexcept { return period_; }

 private:
  void arm(SimTime delay);
  void fire();

  Simulator& sim_;
  SimTime period_;
  EventAction tick_;
  EventId pending_event_ = kInvalidEvent;
  bool running_ = false;
};

}  // namespace continu::sim
