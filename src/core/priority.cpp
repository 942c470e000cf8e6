#include "core/priority.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/params.hpp"

namespace continu::core {

namespace {
[[nodiscard]] double best_rate(const Candidate& candidate) {
  double best = 0.0;
  for (const auto& offer : candidate.offers) {
    best = std::max(best, offer.rate);
  }
  return best;
}
}  // namespace

double expected_slack(const Candidate& candidate, const PriorityInputs& in) {
  if (candidate.offers.empty()) {
    throw std::invalid_argument("expected_slack: candidate without suppliers");
  }
  const double r = best_rate(candidate);
  if (r <= 0.0) return -1.0;
  const double distance =
      static_cast<double>(candidate.id - in.play_point) / static_cast<double>(kPlaybackRate);
  return distance - 1.0 / r;
}

double urgency(const Candidate& candidate, const PriorityInputs& in, double max_urgency) {
  if (in.play_point == kInvalidSegment) return 0.0;  // playback not started
  const double t = expected_slack(candidate, in);
  if (t <= 0.0) return max_urgency;
  return std::min(1.0 / t, max_urgency);
}

double rarity(const Candidate& candidate) {
  if (candidate.offers.empty()) {
    throw std::invalid_argument("rarity: candidate without suppliers");
  }
  double product = 1.0;
  for (const auto& offer : candidate.offers) {
    const auto pos = std::clamp<std::size_t>(offer.buffer_position, 1, kBufferCapacity);
    product *= static_cast<double>(pos) / static_cast<double>(kBufferCapacity);
  }
  return product;
}

double priority(const Candidate& candidate, const PriorityInputs& in) {
  double score = std::max(urgency(candidate, in), rarity(candidate));
  if (in.rarest_weight > 0.0) {
    score = std::max(score, in.rarest_weight * rarest_first_score(candidate));
  }
  return score;
}

double rarest_first_score(const Candidate& candidate) {
  if (candidate.offers.empty()) {
    throw std::invalid_argument("rarest_first_score: candidate without suppliers");
  }
  return 1.0 / static_cast<double>(candidate.offers.size());
}

}  // namespace continu::core
