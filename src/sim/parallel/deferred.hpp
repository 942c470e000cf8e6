#pragma once
// The "merge in shard order" half of the determinism contract for the
// fork/join phases of a parallel session.
//
// Worker shards may not touch shared mutable engine state (the event
// queue's sequence counter, the session's stats, a collector). Instead
// each shard owns its own buffers, records what it WOULD have done, and
// after the join the caller applies every buffer in shard order: event
// emissions as EventQueue::Deferred records handed to
// Simulator::schedule_deferred, stats deltas through reduce_in_order.
// Because shard boundaries depend only on (count, grain) — see
// ParallelExecutor::shard_count — the applied order is identical at
// every thread count, so event sequence numbers and floating-point
// accumulations reproduce serial execution exactly.

#include <vector>

namespace continu::sim::parallel {

/// Ordered reduction helper: folds per-shard partials into `total` in
/// shard order with `total += partial`. Trivial on purpose — the value
/// is the NAME at call sites: it marks the spots whose correctness
/// depends on the fixed shard structure, not on thread count.
template <typename T>
void reduce_in_order(std::vector<T>& partials, T& total) {
  for (T& partial : partials) {
    total += partial;
  }
}

}  // namespace continu::sim::parallel
