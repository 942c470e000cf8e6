#pragma once
// Data scheduling (paper Section 4.2, Algorithm 1) and the
// CoolStreaming rarest-first baseline, as pure functions over value
// inputs so both are unit-testable without a simulator.
//
// The underlying assignment problem (pick a supplier per segment to
// minimize deadline/replacement misses) is NP-hard — it contains
// parallel machine scheduling — so, as in the paper, a greedy pass
// assigns high-priority segments first, tracking a per-supplier queue
// time tau(j) and refusing assignments that cannot complete within the
// scheduling period tau (kSchedulingPeriod, core/params.hpp).

#include <vector>

#include "core/priority.hpp"
#include "util/types.hpp"

namespace continu::core {

struct ScheduleRequest {
  /// Candidate segments (each with its supplier offers).
  std::vector<Candidate> candidates;
  PriorityInputs priority_inputs;
  /// Inbound budget for this period, in segments (I * tau, minus
  /// whatever in-flight transfers already claim).
  std::size_t inbound_budget = 0;
  /// Relative rank jitter in [0, 1): scores are scaled by a
  /// deterministic per-(seed, segment) factor in [1 - j/2, 1 + j/2).
  /// Gossip depends on neighbors making DIFFERENT choices — without
  /// jitter, identically-ranked requesters pull identical prefixes and
  /// have nothing left to exchange with each other.
  double rank_jitter = 0.0;
  /// Seed for the jitter hash (typically the requester's node id).
  std::uint64_t jitter_seed = 0;
};

struct Assignment {
  SegmentId segment = kInvalidSegment;
  NodeId supplier = kInvalidNode;
  /// Expected completion time offset within the period (t_min in
  /// Algorithm 1): queueing at the supplier + transfer.
  double expected_time = 0.0;
  /// The priority that ranked this segment (for diagnostics/tests).
  double priority = 0.0;
};

struct ScheduleResult {
  std::vector<Assignment> assignments;
  /// Candidates considered but left unassigned (no supplier could
  /// deliver within the period, or budget exhausted).
  std::size_t unassigned = 0;
};

/// ContinuStreaming's scheduler: rank by priority = max(urgency, rarity)
/// then run the greedy supplier-selection pass of Algorithm 1.
[[nodiscard]] ScheduleResult schedule_continu(const ScheduleRequest& request);

/// CoolStreaming baseline: rank by rarest-first (1/n_i, ties broken by
/// earlier deadline i.e. smaller id), same greedy supplier pass.
[[nodiscard]] ScheduleResult schedule_coolstreaming(const ScheduleRequest& request);

}  // namespace continu::core
