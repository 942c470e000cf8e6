#include "overlay/rendezvous.hpp"

#include <algorithm>
#include <stdexcept>

namespace continu::overlay {

RendezvousServer::RendezvousServer(const dht::IdSpace& space, util::Rng rng)
    : space_(&space), rng_(rng), known_(space), ever_issued_(space) {}

NodeId RendezvousServer::assign_id() {
  if (ever_issued_.size() >= space_->size()) {
    throw std::runtime_error("RendezvousServer: ID space exhausted");
  }
  // Rejection-sample a free ID; with the paper's sparse occupancy this
  // terminates almost immediately, and the directory check makes the
  // uniqueness guarantee absolute.
  for (;;) {
    const auto candidate = static_cast<NodeId>(rng_.next_below(space_->size()));
    if (!ever_issued_.contains(candidate)) {
      ever_issued_.insert(candidate);
      return candidate;
    }
  }
}

void RendezvousServer::register_node(NodeId id) {
  if (known_.contains(id)) return;
  known_.insert(id);
}

void RendezvousServer::report_failure(NodeId id) {
  known_.erase(id);
  // The ID-space position frees up for later joiners (like an expired
  // lease) — without this, long churn-heavy runs would exhaust N.
  ever_issued_.erase(id);
}

std::vector<NodeId> RendezvousServer::close_nodes(NodeId target, std::size_t count) const {
  std::vector<NodeId> out;
  if (known_.empty() || count == 0) return out;
  // Walk outward from the target alternating predecessor/successor.
  const auto members = known_.members();  // ascending
  // Find insertion point.
  auto it = std::lower_bound(members.begin(), members.end(), target);
  std::size_t right = static_cast<std::size_t>(it - members.begin()) % members.size();
  std::size_t left = (right + members.size() - 1) % members.size();
  while (out.size() < std::min(count, members.size())) {
    // Compare ring distances on both sides; take the closer.
    const std::uint64_t dr = space_->distance(target, members[right]);
    const std::uint64_t dl = space_->distance(members[left], target);
    if (dr <= dl) {
      out.push_back(members[right]);
      right = (right + 1) % members.size();
    } else {
      out.push_back(members[left]);
      left = (left + members.size() - 1) % members.size();
    }
    if (out.size() >= members.size()) break;
  }
  // Deduplicate while preserving order (small lists).
  std::vector<NodeId> unique;
  for (const NodeId id : out) {
    if (std::find(unique.begin(), unique.end(), id) == unique.end()) {
      unique.push_back(id);
    }
  }
  unique.resize(std::min(unique.size(), count));
  return unique;
}

}  // namespace continu::overlay
