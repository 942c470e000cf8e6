#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace continu::sim {

void EventQueue::grow_pool() {
  if (slot_count_ > kSlotMask) {
    throw std::length_error("EventQueue: pending-event slot pool exhausted");
  }
  if ((slot_count_ & (kBlockSize - 1)) == 0) {
    blocks_.push_back(std::make_unique<Slot[]>(kBlockSize));
  }
  release_slot(slot_count_++);
}

void EventQueue::release_slot(std::uint32_t index) noexcept {
  Slot& s = slot(index);
  s.id = kInvalidEvent;
  s.next_free = free_head_;
  free_head_ = index;
}

void EventQueue::push_all(std::vector<Deferred>& batch) {
  for (Deferred& deferred : batch) {
    (void)emplace(deferred.time, std::move(deferred.action));
  }
  batch.clear();
}

void EventQueue::remove_top() noexcept {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

bool EventQueue::acquire_due(SimTime horizon, DueEvent& out) {
  for (;;) {
    if (heap_.empty()) return false;
    const HeapEntry top = heap_.front();
    // A stale (cancelled) top beyond the horizon is left in place; a
    // later acquire with a wider horizon reaps it.
    if (top.time > horizon) return false;
    const std::uint32_t index = top.id & kSlotMask;
    Slot& s = slot(index);
    // Start the slot-line fill now; the heap percolation below hides
    // most of its latency.
    __builtin_prefetch(&s, 1);
    remove_top();
    if (s.id != top.id) continue;  // cancelled or stale: discard lazily
    // De-register but do NOT free: the slot must not be reused while
    // its action runs, and a cancel() of the running id must no-op.
    s.id = kInvalidEvent;
    --live_;
    out.time = top.time;
    out.slot_index = index;
    // Start fetching the NEXT event's slot a whole pop early — the
    // caller's action execution plus the next heap percolation give
    // the line a full miss latency of lead time.
    if (!heap_.empty()) {
      __builtin_prefetch(&slot(heap_.front().id & kSlotMask), 1);
    }
    return true;
  }
}

void EventQueue::execute_and_release(const DueEvent& due) {
  // The slot returns to the freelist even if the action throws —
  // consume() likewise destroys the capture on the throw path, so a
  // throwing action cannot leak queue state.
  struct ReleaseGuard {
    EventQueue* queue;
    std::uint32_t index;
    ~ReleaseGuard() { queue->release_slot(index); }
  } guard{this, due.slot_index};
  // Slot blocks never move, so the reference stays valid even if the
  // action schedules new events (growing the pool or the heap).
  slot(due.slot_index).action.consume();
}

bool EventQueue::cancel(EventId id) noexcept {
  if (id == kInvalidEvent) return false;
  const std::uint32_t index = id & kSlotMask;
  if (index >= slot_count_) return false;
  Slot& s = slot(index);
  if (s.id != id) return false;
  s.action.reset();
  release_slot(index);
  --live_;
  return true;
}

}  // namespace continu::sim
