#include "trace/topology.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace continu::trace {

Topology::Topology(const TraceSnapshot& snapshot, std::size_t min_degree, util::Rng& rng)
    : adjacency_(snapshot.node_count()), ping_ms_(snapshot.node_count()) {
  const std::size_t n = snapshot.node_count();
  if (n < 2) throw std::invalid_argument("Topology: need at least 2 nodes");
  for (std::size_t i = 0; i < n; ++i) {
    ping_ms_[i] = snapshot.nodes()[i].ping_ms;
  }
  for (const auto& [a, b] : snapshot.edges()) {
    if (!has_edge(a, b)) add_edge(a, b);
  }

  // Random-edge augmentation: for each deficient node draw random
  // partners until it reaches min_degree. Mirrors the paper's "we add
  // random edges into the overlay to let every node hold M connected
  // neighbors".
  const std::size_t effective_min = std::min(min_degree, n - 1);
  for (std::uint32_t v = 0; v < n; ++v) {
    std::size_t guard = 0;
    while (adjacency_[v].size() < effective_min && guard < 100 * n) {
      const auto u = static_cast<std::uint32_t>(rng.next_below(n));
      ++guard;
      if (u == v || has_edge(v, u)) continue;
      add_edge(v, u);
    }
  }
  for (auto& list : adjacency_) {
    std::sort(list.begin(), list.end());
  }
}

void Topology::add_edge(std::uint32_t a, std::uint32_t b) {
  adjacency_[a].push_back(b);
  adjacency_[b].push_back(a);
}

const std::vector<std::uint32_t>& Topology::neighbors(std::uint32_t node) const {
  return adjacency_.at(node);
}

double Topology::average_degree() const noexcept {
  if (adjacency_.empty()) return 0.0;
  std::size_t total = 0;
  for (const auto& list : adjacency_) total += list.size();
  return static_cast<double>(total) / static_cast<double>(adjacency_.size());
}

std::size_t Topology::min_degree() const noexcept {
  std::size_t best = adjacency_.empty() ? 0 : adjacency_.front().size();
  for (const auto& list : adjacency_) best = std::min(best, list.size());
  return best;
}

double Topology::latency_ms(std::uint32_t a, std::uint32_t b) const {
  const double diff = std::abs(ping_ms_.at(a) - ping_ms_.at(b));
  return std::max(diff, kLatencyFloorMs);
}

double Topology::ping_ms(std::uint32_t node) const { return ping_ms_.at(node); }

bool Topology::has_edge(std::uint32_t a, std::uint32_t b) const {
  const auto& list = adjacency_.at(a);
  return std::find(list.begin(), list.end(), b) != list.end();
}

}  // namespace continu::trace
