#pragma once
// Overlay topology derived from a trace snapshot.
//
// Streaming needs more connectivity than the crawled edge set provides,
// so — exactly as the paper does — random edges are added until every
// node has at least M connected neighbors. The topology also exposes the
// latency estimator the paper uses: the physical latency between two
// overlay nodes is the difference of their central-crawler ping times.

#include <vector>

#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace continu::trace {

class Topology {
 public:
  /// Builds adjacency from the snapshot and augments with random edges
  /// until min_degree(M) holds everywhere (or the graph is complete).
  Topology(const TraceSnapshot& snapshot, std::size_t min_degree, util::Rng& rng);

  [[nodiscard]] std::size_t node_count() const noexcept { return adjacency_.size(); }

  /// Neighbor trace-ids of `node` (sorted ascending).
  [[nodiscard]] const std::vector<std::uint32_t>& neighbors(std::uint32_t node) const;

  [[nodiscard]] double average_degree() const noexcept;
  [[nodiscard]] std::size_t min_degree() const noexcept;

  /// Latency estimate between two overlay nodes (paper Section 5.2):
  /// |ping_a - ping_b| clamped below by `floor_ms`. Symmetric.
  [[nodiscard]] double latency_ms(std::uint32_t a, std::uint32_t b) const;

  /// Ping time of one node (used when a latency to "anywhere" is needed,
  /// e.g. the RP server).
  [[nodiscard]] double ping_ms(std::uint32_t node) const;

  /// True iff the undirected edge exists.
  [[nodiscard]] bool has_edge(std::uint32_t a, std::uint32_t b) const;

  /// Default latency floor: two hosts behind the same modem still need
  /// a few milliseconds.
  static constexpr double kLatencyFloorMs = 5.0;

 private:
  void add_edge(std::uint32_t a, std::uint32_t b);

  std::vector<std::vector<std::uint32_t>> adjacency_;
  std::vector<double> ping_ms_;
};

}  // namespace continu::trace
