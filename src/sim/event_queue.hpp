#pragma once
// Slot-pool event queue: a binary implicit heap (std::push_heap /
// std::pop_heap) of 16-byte (time, id) entries over a generation-
// stamped pool of event slots.
//
// Design, and why it beats the previous binary heap of whole events +
// two unordered_sets:
//   * The heap holds only (time, id) — 16 bytes per entry instead of a
//     48+ byte Event with its action, so sift paths touch 3x fewer
//     cache lines.
//   * Actions live in a chunked slot pool with stable addresses. An
//     EventId packs (sequence << 24 | slot): the monotonic sequence
//     gives deterministic FIFO tie-breaking among equal times, the low
//     bits find the slot in O(1).
//   * cancel() is one compare + one array write (free the slot); the
//     heap entry dies lazily when it surfaces, validated by a single
//     id compare against the slot. No side tables, no hashing.
//
// Cancellation matters: a node that leaves the overlay abandons its
// pending periodic events; cancelling an already-fired or stale id is
// a strict no-op (the slot's current id no longer matches).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "util/types.hpp"

namespace continu::sim {

class EventQueue {
 public:
  /// Slot-index bits in an EventId: up to ~16.7M concurrently pending
  /// events; the 40-bit sequence above them outlasts any plausible run.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1u;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// The one insert: schedules `f` at `time` and returns the unique
  /// handle. The callable is constructed directly in its pool slot
  /// (zero moves, zero allocations for inline-sized captures; a
  /// pre-built EventAction is moved in, not wrapped). The slot line is
  /// prefetched while the heap insertion runs. Empty actions throw.
  template <typename F>
  EventId emplace(SimTime time, F&& f) {
    if (free_head_ == kNoFree) grow_pool();  // links a fresh slot as the head
    const std::uint32_t index = free_head_;
    Slot& s = slot(index);  // blocks are stable; heap growth can't move it
    __builtin_prefetch(&s, 1);
    const EventId id = (next_seq_++ << kSlotBits) | index;
    heap_.push_back(HeapEntry{time, id});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    // Construct the action BEFORE unlinking the slot: if the capture's
    // construction throws (or was an empty std::function), the slot is
    // still the free head and reads as free (id mismatch), so the heap
    // entry above is lazily reaped and no slot leaks — the queue stays
    // consistent.
    s.action.emplace(std::forward<F>(f));
    if (!s.action) {
      throw std::invalid_argument("EventQueue: empty action");
    }
    free_head_ = s.next_free;
    // Chain-prefetch the next free slot: it gets a whole push of lead
    // time before the next emplace writes it.
    if (free_head_ != kNoFree) __builtin_prefetch(&slot(free_head_), 1);
    s.id = id;
    ++live_;
    if (live_ > peak_live_) peak_live_ = live_;
    return id;
  }

  /// Deferred-emission record: a (time, action) pair captured OFF the
  /// queue. Worker shards of a fork/join phase must not touch the queue
  /// (sequence numbers are global mutable state), so they buffer their
  /// emissions as Deferred entries and the join pushes each shard's
  /// buffer in shard order — reproducing exactly the sequence-number
  /// assignment serial execution would have produced.
  struct Deferred {
    SimTime time = 0.0;
    EventAction action;
  };

  /// Emplaces every deferred emission in order (sequence numbers are
  /// assigned here, at insert time) and clears the batch. Entries with
  /// an empty action are rejected like any other emplace.
  void push_all(std::vector<Deferred>& batch);

  /// The one extract, as the simulator's run loop drives it. A due
  /// event (the earliest live one, iff its time <= horizon) is
  /// acquired — de-queued, de-registered so cancels no-op — and then
  /// executed IN PLACE in its slot; the action is never moved.
  /// acquire_due returns false when the queue is empty or the next
  /// live event lies beyond the horizon. Every acquire_due must be
  /// paired with exactly one execute_and_release before the next
  /// acquire.
  struct DueEvent {
    SimTime time = 0.0;
    std::uint32_t slot_index = 0;
  };
  bool acquire_due(SimTime horizon, DueEvent& out);
  void execute_and_release(const DueEvent& due);

  /// Cancels a pending event in O(1). Returns true iff the id was
  /// live; fired, cancelled or stale ids are ignored.
  bool cancel(EventId id) noexcept;

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// High-water mark of live events since construction.
  [[nodiscard]] std::size_t peak_size() const noexcept { return peak_live_; }

 private:
  /// 16 bytes; the heap orders by (time, id) and id order among live
  /// entries is schedule order (the sequence occupies the high bits).
  struct HeapEntry {
    SimTime time;
    EventId id;
  };

  struct Slot {
    EventAction action;
    EventId id = kInvalidEvent;  ///< live id; kInvalidEvent when free
    std::uint32_t next_free = kNoFree;
  };

  static constexpr std::uint32_t kNoFree = 0xFFFFFFFFu;
  /// Slots per pool block. Blocks never move, so an action executing in
  /// its slot stays put even while it schedules new events.
  static constexpr std::size_t kBlockShift = 9;
  static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockShift;

  [[nodiscard]] Slot& slot(std::uint32_t index) noexcept {
    return blocks_[index >> kBlockShift][index & (kBlockSize - 1)];
  }

  /// Max-heap comparator for std::push_heap/std::pop_heap: "later
  /// fires last" makes the std heap a min-heap on (time, id).
  struct Later {
    [[nodiscard]] bool operator()(const HeapEntry& a,
                                  const HeapEntry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  /// Appends a fresh slot (and a new block at block boundaries) and
  /// links it onto the freelist.
  void grow_pool();
  void release_slot(std::uint32_t index) noexcept;

  void remove_top() noexcept;

  std::vector<std::unique_ptr<Slot[]>> blocks_;
  std::vector<HeapEntry> heap_;
  std::uint32_t free_head_ = kNoFree;
  std::uint32_t slot_count_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
};

}  // namespace continu::sim
