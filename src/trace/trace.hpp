#pragma once
// Overlay trace snapshots in the style of the clip2.com Gnutella crawls
// the paper evaluated on (Dec 2000 - Jun 2001; the site is long gone).
//
// The paper consumes only each node's ID, IP and ping time (measured
// from a central crawler) plus the overlay edge set, and then adds
// random edges until every node has M connected neighbors because the
// crawled average degree (< 1 to 3.5) is too small for streaming. We
// substitute synthetic snapshots with matching shape (trace/generator.hpp;
// docs/ARCHITECTURE.md lists the subsystem).

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace continu::trace {

/// One crawled host record.
struct TraceNode {
  std::uint32_t trace_id = 0;   ///< crawl-assigned id (dense, 0-based)
  std::uint32_t ipv4 = 0;       ///< host address (opaque; kept for realism)
  double ping_ms = 0.0;         ///< ping time from the central crawler
  double speed_kbps = 0.0;      ///< advertised link speed from the crawl
};

/// Undirected overlay edge between trace ids.
using TraceEdge = std::pair<std::uint32_t, std::uint32_t>;

/// A full crawl snapshot: hosts + overlay edges.
class TraceSnapshot {
 public:
  TraceSnapshot() = default;
  TraceSnapshot(std::vector<TraceNode> nodes, std::vector<TraceEdge> edges);

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }
  [[nodiscard]] const std::vector<TraceNode>& nodes() const noexcept { return nodes_; }
  [[nodiscard]] const std::vector<TraceEdge>& edges() const noexcept { return edges_; }

  /// Average undirected degree 2|E|/|V| (the crawls report < 1 to 3.5).
  [[nodiscard]] double average_degree() const noexcept;

  /// Serializes as a line-oriented text format:
  ///   "node <id> <ipv4> <ping_ms> <speed_kbps>" / "edge <a> <b>".
  void save(std::ostream& out) const;
  [[nodiscard]] static TraceSnapshot load(std::istream& in);

  /// Convenience file wrapper around load().
  [[nodiscard]] static TraceSnapshot load_file(const std::string& path);

 private:
  void validate() const;

  std::vector<TraceNode> nodes_;
  std::vector<TraceEdge> edges_;
};

/// Formats an IPv4 address for display ("a.b.c.d").
[[nodiscard]] std::string format_ipv4(std::uint32_t ip);

}  // namespace continu::trace
