#pragma once
// Urgent Line (paper Section 4.3, Figure 4 and equations 4, 8-9).
//
// The buffer region [id_head, id_head + alpha*B] is "urgent": any
// segment still missing there is predicted to be missed by the gossip
// scheduler and becomes a pre-fetch candidate. alpha adapts online:
//   * initial / lower bound: alpha = (p/B) * max(tau, t_fetch)  (eq. 9)
//   * a pre-fetched segment that arrives after its deadline means the
//     line is too short  -> alpha += p*t_hop/B   (case 1, overdue)
//   * a pre-fetched segment that gossip also delivers in time means the
//     line is too long   -> alpha -= p*t_hop/B   (case 2, repeated)

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace continu::core {

/// The line's two estimated inputs; p, B and tau are the constants of
/// core/params.hpp.
struct UrgentLineConfig {
  double t_fetch = 0.4;               ///< expected on-demand fetch time (s)
  double t_hop = 0.05;                ///< average one-hop latency (s)
};

class UrgentLine {
 public:
  explicit UrgentLine(const UrgentLineConfig& config);

  /// Current urgent ratio alpha in [lower_bound, 1].
  [[nodiscard]] double alpha() const noexcept { return alpha_; }

  /// The eq. 9 lower bound (also the initial value).
  [[nodiscard]] double lower_bound() const noexcept { return lower_bound_; }

  /// id_urgent = id_head + alpha * B (eq. 4).
  [[nodiscard]] SegmentId urgent_id(SegmentId id_head) const noexcept;

  /// Case 1: a pre-fetched segment arrived past its deadline.
  void on_overdue_prefetch() noexcept;

  /// Case 2: gossip delivered a pre-fetch-tagged segment in time.
  void on_repeated_prefetch() noexcept;

  /// Adaptation step p * t_hop / B.
  [[nodiscard]] double step() const noexcept { return step_; }

  [[nodiscard]] std::uint64_t overdue_events() const noexcept { return overdue_; }
  [[nodiscard]] std::uint64_t repeated_events() const noexcept { return repeated_; }

 private:
  void clamp() noexcept;

  double alpha_;
  double lower_bound_;
  double step_;
  std::uint64_t overdue_ = 0;
  std::uint64_t repeated_ = 0;
};

/// Pre-fetch trigger decision (Section 4.3 cases): given the number of
/// predicted-missed segments and the per-invocation cap l, returns how
/// many to fetch — 0 when n_miss == 0 (case 1) or n_miss > l (case 3,
/// to avoid pre-fetch storms), n_miss otherwise (case 2).
[[nodiscard]] std::size_t prefetch_quota(std::size_t n_miss, std::size_t limit) noexcept;

}  // namespace continu::core
