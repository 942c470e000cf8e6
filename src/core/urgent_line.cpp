#include "core/urgent_line.hpp"

#include <algorithm>
#include <cmath>

#include "core/params.hpp"

namespace continu::core {

UrgentLine::UrgentLine(const UrgentLineConfig& config) {
  const double p = static_cast<double>(kPlaybackRate);
  const double b = static_cast<double>(kBufferCapacity);
  lower_bound_ = p / b * std::max(kSchedulingPeriod, config.t_fetch);
  lower_bound_ = std::min(lower_bound_, 1.0);
  step_ = p * config.t_hop / b;
  alpha_ = lower_bound_;
}

SegmentId UrgentLine::urgent_id(SegmentId id_head) const noexcept {
  return id_head + static_cast<SegmentId>(std::llround(alpha_ * static_cast<double>(kBufferCapacity)));
}

void UrgentLine::on_overdue_prefetch() noexcept {
  ++overdue_;
  alpha_ += step_;
  clamp();
}

void UrgentLine::on_repeated_prefetch() noexcept {
  ++repeated_;
  alpha_ -= step_;
  clamp();
}

void UrgentLine::clamp() noexcept {
  alpha_ = std::clamp(alpha_, lower_bound_, 1.0);
}

std::size_t prefetch_quota(std::size_t n_miss, std::size_t limit) noexcept {
  if (n_miss == 0) return 0;       // case 1: nothing predicted missed
  if (n_miss > limit) return 0;    // case 3: too many — avoid traffic burst
  return n_miss;                   // case 2: fetch them all in parallel
}

}  // namespace continu::core
