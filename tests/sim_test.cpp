// Unit tests for the discrete-event engine: slot-pool event queue, the
// inline action (as event and as delivery handler), simulator
// semantics, periodic processes and the batched RoundScheduler.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/delivery.hpp"
#include "net/latency_model.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/parallel/executor.hpp"
#include "sim/round_scheduler.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace continu::sim {
namespace {

// The small-buffer action is one template with two instantiations:
// EventAction (void(), the queue's payload) and net::DeliveryAction
// (void(DeliveryContext&), a buffered sharded delivery). Every case
// runs against both; the test callables are generic lambdas that
// ignore their arguments, so one body serves either signature.
struct EventActionCase {
  using Action = EventAction;
  using Function = std::function<void()>;
  static void call(Action& a) { a(); }
  static void consume(Action& a) { a.consume(); }
};

struct DeliveryActionCase {
  using Action = net::DeliveryAction;
  using Function = std::function<void(net::DeliveryContext&)>;
  // A DeliveryContext exists only inside a delivery: post a local
  // continuation on a continuous-mode network and call from there.
  template <typename Body>
  static void with_context(Body body) {
    Simulator sim;
    parallel::ParallelExecutor exec(1);
    net::Network network(sim, exec, net::LatencyModel({10.0, 11.0}));
    network.post_sharded(0, 0.0, [&body](net::DeliveryContext& ctx) { body(ctx); });
    sim.run_all();
  }
  static void call(Action& a) {
    with_context([&a](net::DeliveryContext& ctx) { a(ctx); });
  }
  static void consume(Action& a) {
    with_context([&a](net::DeliveryContext& ctx) { a.consume(ctx); });
  }
};

template <typename Case>
class InlineActionTest : public ::testing::Test {};
using ActionCases = ::testing::Types<EventActionCase, DeliveryActionCase>;
TYPED_TEST_SUITE(InlineActionTest, ActionCases);

TYPED_TEST(InlineActionTest, InlineForSmallCaptures) {
  using Action = typename TypeParam::Action;
  int hits = 0;
  // 48-byte payload + pointer capture: the size of the largest
  // protocol capture (DHT route hop + delivery wrapper). Must never
  // allocate.
  std::array<std::uint64_t, 6> payload{};
  Action small([&hits](auto&...) { ++hits; });
  Action big([&hits, payload](auto&...) { hits += static_cast<int>(payload[0]) + 1; });
  EXPECT_TRUE(small.stored_inline());
  EXPECT_TRUE(big.stored_inline());
  TypeParam::call(small);
  TypeParam::call(big);
  EXPECT_EQ(hits, 2);
}

TYPED_TEST(InlineActionTest, HeapFallbackForOversizedCaptures) {
  using Action = typename TypeParam::Action;
  int hits = 0;
  std::array<std::uint64_t, 32> payload{};  // 256 bytes: exceeds inline
  payload[31] = 41;
  Action action([&hits, payload](auto&...) { hits = static_cast<int>(payload[31]) + 1; });
  EXPECT_TRUE(static_cast<bool>(action));
  EXPECT_FALSE(action.stored_inline());
  TypeParam::call(action);
  EXPECT_EQ(hits, 42);
}

TYPED_TEST(InlineActionTest, MoveTransfersOwnership) {
  using Action = typename TypeParam::Action;
  std::vector<int> order;
  Action a([&order](auto&...) { order.push_back(1); });
  Action b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  TypeParam::call(b);
  TypeParam::call(b);  // repeat invocation is allowed
  EXPECT_EQ(order, (std::vector<int>{1, 1}));

  Action c;
  c = std::move(b);
  ASSERT_TRUE(static_cast<bool>(c));
  TypeParam::call(c);
  EXPECT_EQ(order.size(), 3u);
}

TYPED_TEST(InlineActionTest, EmplacingAnActionMovesItIn) {
  // The queue's deferred-emission path emplaces pre-built actions. One
  // must be moved in, not wrapped: a wrapped action is larger than the
  // inline buffer and would cost a heap cell.
  using Action = typename TypeParam::Action;
  int hits = 0;
  std::array<std::uint64_t, 6> payload{};
  Action source([&hits, payload](auto&...) { hits += static_cast<int>(payload[0]) + 1; });
  ASSERT_TRUE(source.stored_inline());
  Action target;
  target.emplace(std::move(source));
  EXPECT_TRUE(target.stored_inline());
  EXPECT_FALSE(static_cast<bool>(source));  // NOLINT(bugprone-use-after-move)
  TypeParam::call(target);
  EXPECT_EQ(hits, 1);
}

TYPED_TEST(InlineActionTest, NonTrivialCapturesDestructRight) {
  using Action = typename TypeParam::Action;
  auto counter = std::make_shared<int>(0);
  {
    Action action([counter](auto&...) { ++*counter; });
    EXPECT_EQ(counter.use_count(), 2);
    TypeParam::call(action);
    Action moved(std::move(action));
    EXPECT_EQ(counter.use_count(), 2);
    TypeParam::call(moved);
  }
  EXPECT_EQ(counter.use_count(), 1);
  EXPECT_EQ(*counter, 2);
}

TYPED_TEST(InlineActionTest, EmptyStdFunctionStaysEmpty) {
  using Action = typename TypeParam::Action;
  Action action{typename TypeParam::Function{}};
  EXPECT_FALSE(static_cast<bool>(action));
}

TYPED_TEST(InlineActionTest, ConsumeRunsOnceAndDestroysEvenOnThrow) {
  using Action = typename TypeParam::Action;
  auto counter = std::make_shared<int>(0);
  std::array<std::uint64_t, 32> payload{};  // heap-stored variant
  Action small([counter](auto&...) { ++*counter; });
  Action big([counter, payload](auto&...) { *counter += 1 + static_cast<int>(payload[0]); });
  ASSERT_TRUE(small.stored_inline());
  ASSERT_FALSE(big.stored_inline());
  EXPECT_EQ(counter.use_count(), 3);
  TypeParam::consume(small);
  TypeParam::consume(big);
  EXPECT_FALSE(static_cast<bool>(small));
  EXPECT_FALSE(static_cast<bool>(big));
  EXPECT_EQ(*counter, 2);
  EXPECT_EQ(counter.use_count(), 1);

  // A throwing call still releases the capture.
  Action throwing([counter](auto&...) {
    ++*counter;
    throw std::runtime_error("boom");
  });
  EXPECT_EQ(counter.use_count(), 2);
  EXPECT_THROW(TypeParam::consume(throwing), std::runtime_error);
  EXPECT_FALSE(static_cast<bool>(throwing));
  EXPECT_EQ(*counter, 3);
  EXPECT_EQ(counter.use_count(), 1);
}

// The EventQueue cases drive the queue through the same insert
// (emplace) and extract (acquire_due + execute_and_release) the
// Simulator's run loop uses. Each action logs its tag; run_next runs
// one due event and returns the tag it logged.
struct TaggedQueue {
  EventQueue queue;
  std::vector<int> log;

  EventId add(SimTime time, int tag) {
    return queue.emplace(time, [this, tag] { log.push_back(tag); });
  }

  /// Runs the earliest live event due by `horizon`; nullopt when none is.
  std::optional<int> run_next(SimTime horizon = kForever) {
    EventQueue::DueEvent due;
    if (!queue.acquire_due(horizon, due)) return std::nullopt;
    const std::size_t before = log.size();
    queue.execute_and_release(due);
    EXPECT_EQ(log.size(), before + 1) << "each action logs exactly one tag";
    return log.back();
  }

  std::vector<int> drain() {
    std::vector<int> tags;
    while (const auto tag = run_next()) tags.push_back(*tag);
    return tags;
  }

  static constexpr SimTime kForever = std::numeric_limits<SimTime>::infinity();
};

TEST(EventQueue, RunsInTimeOrder) {
  TaggedQueue q;
  q.add(3.0, 3);
  q.add(1.0, 1);
  q.add(2.0, 2);
  EXPECT_EQ(q.drain(), (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(q.queue.empty());
}

TEST(EventQueue, FifoAmongEqualTimes) {
  TaggedQueue q;
  const EventId a = q.add(1.0, 0);
  const EventId b = q.add(1.0, 1);
  const EventId c = q.add(1.0, 2);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(q.drain(), (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, CancelPendingEvent) {
  TaggedQueue q;
  const EventId a = q.add(1.0, 0);
  q.add(2.0, 1);
  EXPECT_TRUE(q.queue.cancel(a));
  EXPECT_EQ(q.queue.size(), 1u);
  EXPECT_EQ(q.drain(), (std::vector<int>{1}));
}

TEST(EventQueue, CancelUnknownIsNoOp) {
  TaggedQueue q;
  q.add(1.0, 0);
  EXPECT_FALSE(q.queue.cancel(kInvalidEvent));
  EXPECT_FALSE(q.queue.cancel(0xFFFFFF000000ULL));  // never-issued id
  EXPECT_EQ(q.queue.size(), 1u);
}

TEST(EventQueue, CancelFiredIsNoOp) {
  TaggedQueue q;
  const EventId id = q.add(1.0, 0);
  EXPECT_EQ(q.run_next(), 0);
  EXPECT_FALSE(q.queue.cancel(id));
  EXPECT_TRUE(q.queue.empty());
}

TEST(EventQueue, CancelOfRunningEventIsNoOp) {
  // acquire_due de-registers the event before it runs, so an action
  // cancelling its own id changes nothing.
  EventQueue q;
  EventId self = kInvalidEvent;
  bool cancelled = true;
  self = q.emplace(1.0, [&] { cancelled = q.cancel(self); });
  EventQueue::DueEvent due;
  ASSERT_TRUE(q.acquire_due(1.0, due));
  q.execute_and_release(due);
  EXPECT_FALSE(cancelled);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DoubleCancelCountsOnce) {
  TaggedQueue q;
  const EventId a = q.add(1.0, 0);
  q.add(2.0, 1);
  EXPECT_TRUE(q.queue.cancel(a));
  EXPECT_FALSE(q.queue.cancel(a));
  EXPECT_EQ(q.queue.size(), 1u);
}

TEST(EventQueue, AcquireDueSkipsCancelled) {
  TaggedQueue q;
  const EventId a = q.add(1.0, 1);
  const EventId b = q.add(2.0, 2);
  q.add(5.0, 5);
  q.queue.cancel(a);
  q.queue.cancel(b);
  // The cancelled heads are reaped on the way to the first live event,
  // which lies beyond this horizon.
  EXPECT_EQ(q.run_next(3.0), std::nullopt);
  EXPECT_EQ(q.queue.size(), 1u);
  EXPECT_EQ(q.run_next(5.0), 5);
}

TEST(EventQueue, AcquireDueOnEmptyQueueReturnsFalse) {
  EventQueue q;
  EventQueue::DueEvent due;
  EXPECT_FALSE(q.acquire_due(TaggedQueue::kForever, due));
  // A queue whose only event was cancelled is empty too.
  const EventId id = q.emplace(1.0, [] {});
  q.cancel(id);
  EXPECT_FALSE(q.acquire_due(TaggedQueue::kForever, due));
}

TEST(EventQueue, EmptyActionRejectedConsistently) {
  TaggedQueue q;
  EXPECT_THROW((void)q.queue.emplace(1.0, std::function<void()>{}), std::invalid_argument);
  EXPECT_THROW((void)q.queue.emplace(1.0, EventAction{}), std::invalid_argument);
  std::vector<EventQueue::Deferred> batch;
  batch.push_back({1.0, EventAction{}});
  EXPECT_THROW(q.queue.push_all(batch), std::invalid_argument);
  EXPECT_TRUE(q.queue.empty());
  // No rejection leaked a pool slot: the first accepted event reuses
  // slot 0, the one every rejected insert borrowed and gave back.
  const EventId id = q.add(2.0, 7);
  EXPECT_EQ(id & EventQueue::kSlotMask, 0u);
  // The queue stays usable: the reaped heap entries must not disturb
  // later scheduling.
  EXPECT_EQ(q.drain(), (std::vector<int>{7}));
  EXPECT_TRUE(q.queue.empty());
}

TEST(Simulator, ThrowingActionLeavesQueueConsistent) {
  Simulator sim;
  int after = 0;
  sim.schedule_in(1.0, [] { throw std::runtime_error("boom"); });
  sim.schedule_in(2.0, [&after] { ++after; });
  EXPECT_THROW(sim.run_until(5.0), std::runtime_error);
  // The throwing event's slot was released; the rest of the queue
  // still runs.
  sim.run_until(5.0);
  EXPECT_EQ(after, 1);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(EventQueue, AcquireDueStopsAtHorizon) {
  TaggedQueue q;
  q.add(1.0, 1);
  q.add(3.0, 3);
  EXPECT_EQ(q.run_next(2.0), 1);
  EXPECT_EQ(q.run_next(2.0), std::nullopt);
  EXPECT_EQ(q.queue.size(), 1u);
  EXPECT_EQ(q.run_next(3.0), 3);  // an event at exactly the horizon is due
  EXPECT_EQ(q.run_next(100.0), std::nullopt);
}

// Generation stamping: a slot freed by execution or cancel and reused
// by a later emplace must reject the stale id — the regression the
// slot-pool design exists to prevent.
TEST(EventQueue, StaleCancelCannotKillSlotReuser) {
  TaggedQueue q;
  const EventId old_id = q.add(1.0, 1);
  EXPECT_EQ(q.run_next(), 1);  // frees the slot
  const EventId new_id = q.add(2.0, 2);
  EXPECT_EQ(old_id & EventQueue::kSlotMask, new_id & EventQueue::kSlotMask)
      << "test premise: the slot must be reused";
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(q.queue.cancel(old_id)) << "stale cancel must be a no-op";
  EXPECT_EQ(q.queue.size(), 1u);
  EXPECT_EQ(q.run_next(), 2);
}

TEST(EventQueue, StaleCancelAfterCancelAndReuse) {
  TaggedQueue q;
  const EventId old_id = q.add(5.0, 5);
  EXPECT_TRUE(q.queue.cancel(old_id));
  const EventId new_id = q.add(7.0, 7);
  EXPECT_EQ(old_id & EventQueue::kSlotMask, new_id & EventQueue::kSlotMask);
  EXPECT_FALSE(q.queue.cancel(old_id));
  EXPECT_EQ(q.run_next(), 7);
}

TEST(EventQueue, PeakSizeTracksHighWaterMark) {
  TaggedQueue q;
  for (int i = 0; i < 8; ++i) q.add(i, i);
  for (int i = 0; i < 4; ++i) (void)q.run_next();
  q.add(99.0, 99);
  EXPECT_EQ(q.queue.peak_size(), 8u);
  EXPECT_EQ(q.queue.size(), 5u);
}

// Property test: N randomized schedule/cancel/run interleavings must
// produce exactly the execution order of a reference model (stable
// sort by (time, schedule order), minus cancelled entries). Tags are
// schedule positions, so model[tag] is the entry an executed tag names.
TEST(EventQueue, RandomizedInterleavingsMatchReferenceModel) {
  struct ModelEntry {
    double time;
    EventId id;
    bool cancelled = false;
    bool executed = false;
  };
  util::Rng rng(0xE7E77u);
  for (int trial = 0; trial < 100; ++trial) {
    TaggedQueue q;
    std::vector<ModelEntry> model;   // schedule order; index = tag
    std::vector<int> live;           // tags that are candidates for cancellation

    const int ops = 120;
    for (int op = 0; op < ops; ++op) {
      const double roll = rng.next_double();
      if (roll < 0.55) {
        // Schedule at a coarse-grained time so equal-time ties are common.
        const double time = static_cast<double>(rng.next_below(16));
        const int tag = static_cast<int>(model.size());
        model.push_back(ModelEntry{time, q.add(time, tag)});
        live.push_back(tag);
      } else if (roll < 0.75 && !live.empty()) {
        // Cancel a random outstanding id (may already have run).
        ModelEntry& entry = model[live[rng.next_below(live.size())]];
        const bool was_pending = q.queue.cancel(entry.id);
        EXPECT_EQ(was_pending, !entry.executed && !entry.cancelled);
        if (was_pending) entry.cancelled = true;
      } else if (const auto tag = q.run_next()) {
        // The event run must be the pending minimum by (time, id).
        ModelEntry& ran = model[static_cast<std::size_t>(*tag)];
        EXPECT_FALSE(ran.cancelled);
        EXPECT_FALSE(ran.executed);
        for (const ModelEntry& other : model) {
          if (other.cancelled || other.executed || &other == &ran) continue;
          EXPECT_TRUE(ran.time < other.time ||
                      (ran.time == other.time && ran.id < other.id))
              << "trial " << trial;
        }
        ran.executed = true;
      }
    }
    const std::vector<int> rest = q.drain();

    // Reference order of the final drain: stable sort of what is still
    // pending by time (tags are schedule order), skipping cancelled
    // and already-run entries.
    std::vector<int> expected;
    for (int tag = 0; tag < static_cast<int>(model.size()); ++tag) {
      const ModelEntry& entry = model[static_cast<std::size_t>(tag)];
      if (!entry.cancelled && !entry.executed) expected.push_back(tag);
    }
    std::stable_sort(expected.begin(), expected.end(), [&model](int a, int b) {
      return model[static_cast<std::size_t>(a)].time <
             model[static_cast<std::size_t>(b)].time;
    });
    ASSERT_EQ(rest, expected) << "trial " << trial;
    EXPECT_TRUE(q.queue.empty());
  }
}

// Slot reuse under heavy churn: the pool stays compact and ids never
// collide even when most emplaces land on recycled slots.
TEST(EventQueue, HeavySlotRecyclingKeepsIdsUnique) {
  TaggedQueue q;
  util::Rng rng(99);
  std::vector<EventId> pending;
  std::vector<EventId> all_ids;
  for (int round = 0; round < 2000; ++round) {
    const EventId id = q.add(rng.next_double() * 100.0, round);
    all_ids.push_back(id);
    pending.push_back(id);
    if (pending.size() > 32) {
      const std::size_t pick = rng.next_below(pending.size());
      q.queue.cancel(pending[pick]);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (round % 3 == 0) (void)q.run_next();
  }
  std::sort(all_ids.begin(), all_ids.end());
  EXPECT_TRUE(std::adjacent_find(all_ids.begin(), all_ids.end()) == all_ids.end())
      << "EventIds must be globally unique across slot reuse";
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  double observed = -1.0;
  sim.schedule_in(2.5, [&] { observed = sim.now(); });
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(observed, 2.5);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(1.0, [&] { ++fired; });
  sim.schedule_in(5.0, [&] { ++fired; });
  sim.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(10.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventAtExactHorizonRuns) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(3.0, [&] { fired = true; });
  sim.run_until(3.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.schedule_in(1.0, [] {});
  sim.run_until(1.0);
  bool fired = false;
  sim.schedule_in(-5.0, [&] { fired = true; });
  sim.run_until(1.0);
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(Simulator, ScheduledActionsCanSchedule) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_in(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule_in(1.0, [&] { times.push_back(sim.now()); });
  });
  sim.run_all();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_in(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run_all();
  EXPECT_FALSE(fired);
}

TEST(Simulator, EmptyActionRejected) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_in(1.0, std::function<void()>{}), std::invalid_argument);
}

TEST(Simulator, ExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_in(i, [] {});
  sim.run_all();
  EXPECT_EQ(sim.executed(), 5u);
}

TEST(Simulator, PeakPendingHighWaterMark) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_in(i, [] {});
  sim.run_all();
  EXPECT_EQ(sim.peak_pending(), 7u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, DeterministicTieBreaking) {
  // Two events at the same instant run in scheduling order.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(PeriodicProcess, TicksAtPeriod) {
  Simulator sim;
  std::vector<double> ticks;
  PeriodicProcess p(sim, 1.0, [&] { ticks.push_back(sim.now()); });
  p.start(0.5);
  sim.run_until(4.0);
  EXPECT_EQ(ticks, (std::vector<double>{0.5, 1.5, 2.5, 3.5}));
}

TEST(PeriodicProcess, StopHaltsTicks) {
  Simulator sim;
  int count = 0;
  PeriodicProcess p(sim, 1.0, [&] { ++count; });
  p.start(1.0);
  sim.run_until(2.5);
  p.stop();
  sim.run_until(10.0);
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(p.running());
}

TEST(PeriodicProcess, StopFromWithinTick) {
  Simulator sim;
  int count = 0;
  PeriodicProcess p(sim, 1.0, [&] {
    ++count;
    if (count == 3) p.stop();
  });
  p.start(1.0);
  sim.run_until(100.0);
  EXPECT_EQ(count, 3);
}

TEST(PeriodicProcess, RestartAfterStop) {
  Simulator sim;
  int count = 0;
  PeriodicProcess p(sim, 1.0, [&] { ++count; });
  p.start(1.0);
  sim.run_until(1.5);
  p.stop();
  p.start(1.0);
  sim.run_until(3.0);
  EXPECT_EQ(count, 2);  // one before stop, one after restart (t=2.5)
}

TEST(PeriodicProcess, DoubleStartIsNoOp) {
  Simulator sim;
  int count = 0;
  PeriodicProcess p(sim, 1.0, [&] { ++count; });
  p.start(1.0);
  p.start(0.1);  // ignored
  sim.run_until(1.0);
  EXPECT_EQ(count, 1);
}

TEST(PeriodicProcess, RejectsBadArguments) {
  Simulator sim;
  EXPECT_THROW(PeriodicProcess(sim, 0.0, [] {}), std::invalid_argument);
  EXPECT_THROW(PeriodicProcess(sim, 1.0, std::function<void()>{}), std::invalid_argument);
}

TEST(PeriodicProcess, DestructorCancelsPendingTick) {
  Simulator sim;
  int count = 0;
  {
    PeriodicProcess p(sim, 1.0, [&] { ++count; });
    p.start(1.0);
  }
  sim.run_until(10.0);
  EXPECT_EQ(count, 0);
}

// --- RoundScheduler --------------------------------------------------------

/// Batch callback that flattens each batch into one tick(user) call per
/// user, in batch (= add) order.
RoundScheduler::BatchTick each_user(std::function<void(std::size_t)> tick) {
  return [tick = std::move(tick)](const std::vector<std::size_t>& users) {
    for (const std::size_t user : users) tick(user);
  };
}

TEST(RoundScheduler, TicksMatchEquivalentPeriodicProcesses) {
  // The determinism contract: a RoundScheduler fleet fires at exactly
  // the times (and in exactly the order) the per-participant
  // PeriodicProcess fleet it replaces would.
  Simulator ref_sim;
  std::vector<std::pair<double, std::size_t>> ref_ticks;
  std::vector<std::unique_ptr<PeriodicProcess>> procs;
  const std::array<double, 3> phases = {0.31, 0.07, 0.83};
  for (std::size_t i = 0; i < phases.size(); ++i) {
    procs.push_back(std::make_unique<PeriodicProcess>(
        ref_sim, 1.0, [&ref_ticks, &ref_sim, i] {
          ref_ticks.emplace_back(ref_sim.now(), i);
        }));
    procs[i]->start(phases[i]);
  }
  ref_sim.run_until(5.0);

  Simulator sim;
  std::vector<std::pair<double, std::size_t>> ticks;
  RoundScheduler rounds(sim, 1.0, each_user([&ticks, &sim](std::size_t user) {
    ticks.emplace_back(sim.now(), user);
  }));
  for (std::size_t i = 0; i < phases.size(); ++i) (void)rounds.add(phases[i], i);
  sim.run_until(5.0);

  EXPECT_EQ(ticks, ref_ticks);
  // And it does so with a single pending proxy event instead of three.
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(RoundScheduler, EqualPhasesBatchInAddOrder) {
  Simulator sim;
  std::vector<std::size_t> order;
  RoundScheduler rounds(sim, 2.0, each_user([&order](std::size_t user) {
    order.push_back(user);
  }));
  (void)rounds.add(0.5, 7);
  (void)rounds.add(0.5, 3);
  (void)rounds.add(0.5, 9);
  sim.run_until(3.0);  // two full rounds (t = 0.5 and t = 2.5)
  EXPECT_EQ(order, (std::vector<std::size_t>{7, 3, 9, 7, 3, 9}));
  // Batched: both rounds were driven by one proxy event per round.
  EXPECT_EQ(sim.executed(), 2u);
}

TEST(RoundScheduler, RemoveStopsTicks) {
  Simulator sim;
  int a_count = 0;
  int b_count = 0;
  RoundScheduler rounds(sim, 1.0, each_user([&](std::size_t user) {
    if (user == 0) ++a_count;
    if (user == 1) ++b_count;
  }));
  const auto a = rounds.add(0.25, 0);
  (void)rounds.add(0.5, 1);
  sim.run_until(2.0);
  EXPECT_EQ(a_count, 2);
  EXPECT_TRUE(rounds.remove(a));
  EXPECT_FALSE(rounds.remove(a)) << "double remove must be a no-op";
  EXPECT_EQ(rounds.active(), 1u);
  sim.run_until(5.0);
  EXPECT_EQ(a_count, 2);
  EXPECT_EQ(b_count, 5);
}

TEST(RoundScheduler, StaleHandleCannotRemoveSlotReuser) {
  Simulator sim;
  std::vector<std::size_t> ticked;
  RoundScheduler rounds(sim, 1.0,
                        each_user([&](std::size_t user) { ticked.push_back(user); }));
  const auto first = rounds.add(0.5, 100);
  EXPECT_TRUE(rounds.remove(first));
  const auto second = rounds.add(0.5, 200);  // reuses the freed slot
  EXPECT_EQ(first.slot, second.slot) << "test premise: slot must be reused";
  EXPECT_FALSE(rounds.remove(first)) << "stale handle must not hit the reuser";
  EXPECT_TRUE(rounds.contains(second));
  EXPECT_FALSE(rounds.contains(first));
  sim.run_until(0.6);
  EXPECT_EQ(ticked, (std::vector<std::size_t>{200}));
}

TEST(RoundScheduler, AddAndRemoveFromWithinTick) {
  // Models a churn tick: user 0's first tick joins a new participant
  // (user 5, first fire at 0.2 + 0.4 = 0.6) and removes itself.
  Simulator sim;
  std::vector<std::size_t> ticked;
  RoundScheduler* rptr = nullptr;
  RoundScheduler::Handle h0;
  RoundScheduler rounds(sim, 1.0, each_user([&](std::size_t user) {
    ticked.push_back(user);
    if (user == 0) {
      (void)rptr->add(0.4, 5);
      rptr->remove(h0);
    }
  }));
  rptr = &rounds;
  h0 = rounds.add(0.2, 0);
  (void)rounds.add(0.6, 1);
  sim.run_until(3.0);
  // t=0.2: user 0 (once, then gone). t=0.6: user 1 before user 5 at the
  // equal instant (added earlier); both repeat at 1.6 and 2.6.
  EXPECT_EQ(ticked,
            (std::vector<std::size_t>{0, 1, 5, 1, 5, 1, 5}));
  EXPECT_EQ(rounds.active(), 2u);
}

TEST(RoundScheduler, RemoveOutsideTickNeverTicksSurvivorsEarly) {
  // Regression: removing the participant the proxy is armed for (from
  // an unrelated event, not from within a tick) must not make the
  // proxy fire the NEXT participant ahead of its time.
  Simulator sim;
  std::vector<std::pair<double, std::size_t>> ticks;
  RoundScheduler rounds(sim, 10.0, each_user([&](std::size_t user) {
    ticks.emplace_back(sim.now(), user);
  }));
  const auto a = rounds.add(1.0, 0);  // proxy armed for t=1.0
  (void)rounds.add(2.0, 1);
  sim.schedule_at(0.5, [&] { rounds.remove(a); });
  sim.run_until(5.0);
  EXPECT_EQ(ticks, (std::vector<std::pair<double, std::size_t>>{{2.0, 1}}));
}

TEST(RoundScheduler, SelfRemovalFromOwnTickStopsRearm) {
  Simulator sim;
  int count = 0;
  RoundScheduler* rptr = nullptr;
  RoundScheduler::Handle self;
  RoundScheduler rounds(sim, 1.0, each_user([&](std::size_t) {
    ++count;
    if (count == 2) rptr->remove(self);
  }));
  rptr = &rounds;
  self = rounds.add(0.5, 0);
  sim.run_until(10.0);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(rounds.active(), 0u);
}

TEST(RoundScheduler, DestructionCancelsArmedProxy) {
  Simulator sim;
  int ticks = 0;
  {
    RoundScheduler rounds(sim, 1.0, each_user([&](std::size_t) { ++ticks; }));
    (void)rounds.add(0.5, 0);
  }
  sim.run_until(10.0);  // must not fire into the destroyed scheduler
  EXPECT_EQ(ticks, 0);
}

TEST(RoundScheduler, RejectsBadArguments) {
  Simulator sim;
  EXPECT_THROW(RoundScheduler(sim, 0.0, each_user([](std::size_t) {})),
               std::invalid_argument);
  EXPECT_THROW(RoundScheduler(sim, 1.0, RoundScheduler::BatchTick{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace continu::sim
