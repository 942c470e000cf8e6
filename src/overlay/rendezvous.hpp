#pragma once
// Rendezvous Point (RP) server — the paper's join bootstrap.
//
// The RP lists every joined node until it leaves or is reported dead,
// assigns each newcomer a unique ID in the DHT space, and hands it a
// short list of existing nodes with nearby IDs. The newcomer PINGs
// those to find the nearest alive one, copies its Peer Table as a
// seed, and reports dead entries back to the RP.

#include <optional>
#include <vector>

#include "dht/id_space.hpp"
#include "dht/ring_directory.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace continu::overlay {

class RendezvousServer {
 public:
  RendezvousServer(const dht::IdSpace& space, util::Rng rng);

  /// Allocates a fresh, currently-unused ID uniformly at random.
  /// Throws when the ID space is exhausted.
  [[nodiscard]] NodeId assign_id();

  /// Registers a successfully joined node.
  void register_node(NodeId id);

  /// Removes a node reported dead (or leaving).
  void report_failure(NodeId id);

  /// Up to `count` known node ids with IDs closest (on the ring) to
  /// `target` — the "short list of several existing nodes which have
  /// close IDs" from the paper.
  [[nodiscard]] std::vector<NodeId> close_nodes(NodeId target, std::size_t count) const;

  [[nodiscard]] bool knows(NodeId id) const { return known_.contains(id); }

 private:
  const dht::IdSpace* space_;
  util::Rng rng_;
  dht::RingDirectory known_;        // nodes the RP currently lists
  dht::RingDirectory ever_issued_;  // all IDs ever assigned (uniqueness)
};

}  // namespace continu::overlay
