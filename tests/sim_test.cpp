// Unit tests for the discrete-event engine: slot-pool event queue, the
// inline action (as event and as delivery handler), simulator
// semantics, periodic processes and the batched RoundScheduler.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/delivery.hpp"
#include "net/latency_model.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
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
    net::Network network(sim, net::LatencyModel({10.0, 11.0}));
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

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<double> popped;
  q.push(3.0, [] {});
  q.push(1.0, [] {});
  q.push(2.0, [] {});
  while (!q.empty()) popped.push_back(q.pop().time);
  EXPECT_EQ(popped, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(EventQueue, FifoAmongEqualTimes) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  const EventId b = q.push(1.0, [] {});
  const EventId c = q.push(1.0, [] {});
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  std::vector<EventId> order;
  while (!q.empty()) order.push_back(q.pop().id);
  EXPECT_EQ(order, (std::vector<EventId>{a, b, c}));
}

TEST(EventQueue, CancelPendingEvent) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  const EventId b = q.push(2.0, [] {});
  EXPECT_TRUE(q.cancel(a));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().id, b);
}

TEST(EventQueue, CancelUnknownIsNoOp) {
  EventQueue q;
  q.push(1.0, [] {});
  EXPECT_FALSE(q.cancel(kInvalidEvent));
  EXPECT_FALSE(q.cancel(0xFFFFFF000000ULL));  // never-issued id
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelFiredIsNoOp) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  (void)q.pop();
  EXPECT_FALSE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DoubleCancelCountsOnce) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  q.push(2.0, [] {});
  EXPECT_TRUE(q.cancel(a));
  EXPECT_FALSE(q.cancel(a));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  q.push(5.0, [] {});
  q.cancel(a);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.pop(), std::logic_error);
}

TEST(EventQueue, EmptyActionRejectedConsistently) {
  EventQueue q;
  EXPECT_THROW((void)q.emplace(1.0, std::function<void()>{}), std::invalid_argument);
  EXPECT_THROW((void)q.push(1.0, EventAction{}), std::invalid_argument);
  EXPECT_TRUE(q.empty());
  // The queue stays usable: the reaped heap entry must not disturb
  // later scheduling.
  bool fired = false;
  (void)q.emplace(2.0, [&fired] { fired = true; });
  Event e = q.pop();
  e.action();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(q.empty());
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

TEST(EventQueue, PopUntilRespectsHorizon) {
  EventQueue q;
  q.push(1.0, [] {});
  q.push(3.0, [] {});
  Event e;
  EXPECT_TRUE(q.pop_until(2.0, e));
  EXPECT_DOUBLE_EQ(e.time, 1.0);
  EXPECT_FALSE(q.pop_until(2.0, e));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.pop_until(3.0, e));
  EXPECT_FALSE(q.pop_until(100.0, e));
}

// Generation stamping: a slot freed by pop or cancel and reused by a
// later push must reject the stale id — the regression the slot-pool
// design exists to prevent.
TEST(EventQueue, StaleCancelCannotKillSlotReuser) {
  EventQueue q;
  const EventId old_id = q.push(1.0, [] {});
  (void)q.pop();  // frees the slot
  bool fired = false;
  const EventId new_id = q.push(2.0, [&fired] { fired = true; });
  EXPECT_EQ(old_id & EventQueue::kSlotMask, new_id & EventQueue::kSlotMask)
      << "test premise: the slot must be reused";
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(q.cancel(old_id)) << "stale cancel must be a no-op";
  EXPECT_EQ(q.size(), 1u);
  Event e = q.pop();
  EXPECT_EQ(e.id, new_id);
  e.action();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, StaleCancelAfterCancelAndReuse) {
  EventQueue q;
  const EventId old_id = q.push(5.0, [] {});
  EXPECT_TRUE(q.cancel(old_id));
  const EventId new_id = q.push(7.0, [] {});
  EXPECT_EQ(old_id & EventQueue::kSlotMask, new_id & EventQueue::kSlotMask);
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_EQ(q.pop().id, new_id);
}

TEST(EventQueue, PeakSizeTracksHighWaterMark) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(q.push(i, [] {}));
  for (int i = 0; i < 4; ++i) (void)q.pop();
  q.push(99.0, [] {});
  EXPECT_EQ(q.peak_size(), 8u);
  EXPECT_EQ(q.size(), 5u);
}

// Property test: N randomized schedule/cancel/pop interleavings must
// produce exactly the execution order of a reference model (stable
// sort by (time, schedule order), minus cancelled entries).
TEST(EventQueue, RandomizedInterleavingsMatchReferenceModel) {
  struct ModelEntry {
    double time;
    EventId id;
    bool cancelled = false;
  };
  util::Rng rng(0xE7E77u);
  for (int trial = 0; trial < 100; ++trial) {
    EventQueue q;
    std::vector<ModelEntry> model;   // schedule order
    std::vector<EventId> executed;   // ids popped from the queue
    std::vector<EventId> live;       // candidates for cancellation

    const int ops = 120;
    for (int op = 0; op < ops; ++op) {
      const double roll = rng.next_double();
      if (roll < 0.55) {
        // Schedule at a coarse-grained time so equal-time ties are common.
        const double time = static_cast<double>(rng.next_below(16));
        const EventId id = q.push(time, [] {});
        model.push_back(ModelEntry{time, id});
        live.push_back(id);
      } else if (roll < 0.75 && !live.empty()) {
        // Cancel a random outstanding id (may already be popped).
        const std::size_t pick = rng.next_below(live.size());
        const EventId id = live[pick];
        const bool was_pending = q.cancel(id);
        for (auto& entry : model) {
          if (entry.id != id) continue;
          const bool already_done =
              std::find(executed.begin(), executed.end(), id) != executed.end();
          EXPECT_EQ(was_pending, !already_done && !entry.cancelled);
          if (was_pending) entry.cancelled = true;
        }
      } else if (!q.empty()) {
        executed.push_back(q.pop().id);
      }
    }
    while (!q.empty()) executed.push_back(q.pop().id);

    // Reference order: stable sort by time (ids are schedule order),
    // skipping cancelled entries. Pops interleaved with pushes only ever
    // remove the current minimum, so the global pop sequence must still
    // respect (time, id) order among the events each pop could see —
    // and the FULL drain at the end makes the total sets comparable.
    std::vector<ModelEntry> expected(model);
    std::stable_sort(expected.begin(), expected.end(),
                     [](const ModelEntry& a, const ModelEntry& b) {
                       if (a.time != b.time) return a.time < b.time;
                       return a.id < b.id;
                     });
    std::vector<EventId> expected_ids;
    for (const auto& entry : expected) {
      if (!entry.cancelled) expected_ids.push_back(entry.id);
    }
    // Interleaved pops always remove the pending minimum, so the full
    // run must execute exactly the non-cancelled multiset...
    std::vector<EventId> sorted_exec(executed);
    std::sort(sorted_exec.begin(), sorted_exec.end());
    std::vector<EventId> sorted_expect(expected_ids);
    std::sort(sorted_expect.begin(), sorted_expect.end());
    ASSERT_EQ(sorted_exec, sorted_expect) << "trial " << trial;

    // ...and replaying the same schedule/cancel sequence with no
    // interleaved pops must drain in exactly the reference order.
    EventQueue q2;
    std::vector<std::pair<EventId, EventId>> idmap;  // original -> new
    for (const auto& entry : model) {
      const EventId nid = q2.push(entry.time, [] {});
      idmap.emplace_back(entry.id, nid);
    }
    for (std::size_t i = 0; i < model.size(); ++i) {
      if (model[i].cancelled) q2.cancel(idmap[i].second);
    }
    std::vector<EventId> drained;
    while (!q2.empty()) drained.push_back(q2.pop().id);
    std::vector<EventId> expected_new;
    for (const auto& entry : expected) {
      if (entry.cancelled) continue;
      for (const auto& [orig, nid] : idmap) {
        if (orig == entry.id) expected_new.push_back(nid);
      }
    }
    ASSERT_EQ(drained, expected_new) << "trial " << trial;
  }
}

// Slot reuse under heavy churn: the pool stays compact and ids never
// collide even when most pushes land on recycled slots.
TEST(EventQueue, HeavySlotRecyclingKeepsIdsUnique) {
  EventQueue q;
  util::Rng rng(99);
  std::vector<EventId> pending;
  std::vector<EventId> all_ids;
  for (int round = 0; round < 2000; ++round) {
    const EventId id = q.push(rng.next_double() * 100.0, [] {});
    all_ids.push_back(id);
    pending.push_back(id);
    if (pending.size() > 32) {
      const std::size_t pick = rng.next_below(pending.size());
      q.cancel(pending[pick]);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (round % 3 == 0 && !q.empty()) (void)q.pop();
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

TEST(Simulator, StepRunsOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(1.0, [&] { ++fired; });
  sim.schedule_in(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
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
