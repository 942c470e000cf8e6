#include "core/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/params.hpp"
#include "util/flat_map.hpp"
#include "util/hash.hpp"

namespace continu::core {

namespace {

struct Ranked {
  std::size_t index = 0;   ///< into request.candidates
  double score = 0.0;
};

/// The greedy supplier-selection pass shared by both systems
/// (Algorithm 1 lines 2-15).
[[nodiscard]] ScheduleResult greedy_assign(const ScheduleRequest& request,
                                           std::vector<Ranked> ranked) {
  ScheduleResult result;
  // Line 1: the maximum number of inbound segments this period.
  const std::size_t limit = std::min(ranked.size(), request.inbound_budget);

  // Queuing time per supplier, tau(j), initially 0. A flat map: one
  // allocation for the handful of suppliers a round sees, on the
  // hottest per-round path in the system.
  util::FlatMap<NodeId, double> queue_time;

  for (std::size_t r = 0; r < ranked.size(); ++r) {
    if (result.assignments.size() >= limit) {
      result.unassigned += ranked.size() - r;
      break;
    }
    const Candidate& candidate = request.candidates[ranked[r].index];
    double t_min = std::numeric_limits<double>::infinity();
    NodeId chosen = kInvalidNode;
    for (const auto& offer : candidate.offers) {
      if (offer.rate <= 0.0) continue;
      const double t_trans = 1.0 / offer.rate;
      const double queued = queue_time[offer.supplier];
      const double total = t_trans + queued;
      // Line 7: must beat the best so far AND finish within the period.
      if (total < t_min && total < kSchedulingPeriod) {
        t_min = total;
        chosen = offer.supplier;
      }
    }
    if (chosen == kInvalidNode) {
      ++result.unassigned;
      continue;
    }
    queue_time[chosen] = t_min;  // line 13: tau(supplier) <- t_min
    result.assignments.push_back(
        Assignment{candidate.id, chosen, t_min, ranked[r].score});
  }
  return result;
}

[[nodiscard]] std::vector<Ranked> rank_by(const ScheduleRequest& request,
                                          double (*score_fn)(const Candidate&,
                                                             const PriorityInputs&)) {
  std::vector<Ranked> ranked;
  ranked.reserve(request.candidates.size());
  for (std::size_t i = 0; i < request.candidates.size(); ++i) {
    double score = score_fn(request.candidates[i], request.priority_inputs);
    if (request.rank_jitter > 0.0) {
      const auto h = util::mix64(request.jitter_seed ^
                                 static_cast<std::uint64_t>(request.candidates[i].id));
      const double centered =
          static_cast<double>(h >> 11) * 0x1.0p-53 - 0.5;  // [-0.5, 0.5)
      score *= 1.0 + request.rank_jitter * centered;
    }
    ranked.push_back(Ranked{i, score});
  }
  // Descending score; ties broken by smaller segment id (earlier
  // deadline) for a deterministic, sensible order.
  std::sort(ranked.begin(), ranked.end(), [&](const Ranked& a, const Ranked& b) {
    if (a.score != b.score) return a.score > b.score;
    return request.candidates[a.index].id < request.candidates[b.index].id;
  });
  return ranked;
}

}  // namespace

ScheduleResult schedule_continu(const ScheduleRequest& request) {
  return greedy_assign(request, rank_by(request, [](const Candidate& c,
                                                    const PriorityInputs& in) {
                         return priority(c, in);
                       }));
}

ScheduleResult schedule_coolstreaming(const ScheduleRequest& request) {
  return greedy_assign(request, rank_by(request, [](const Candidate& c,
                                                    const PriorityInputs&) {
                         return rarest_first_score(c);
                       }));
}

}  // namespace continu::core
