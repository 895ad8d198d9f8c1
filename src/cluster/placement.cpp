#include "cluster/placement.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "hash/hash.hpp"

namespace kvscale {

std::string_view PlacementKindName(PlacementKind kind) {
  switch (kind) {
    case PlacementKind::kDhtRandom:
      return "dht-random";
    case PlacementKind::kTokenRing:
      return "token-ring";
    case PlacementKind::kRoundRobin:
      return "round-robin";
    case PlacementKind::kLeastLoaded:
      return "least-loaded";
    case PlacementKind::kPowerOfTwo:
      return "power-of-two";
    case PlacementKind::kJumpHash:
      return "jump-hash";
  }
  return "?";
}

PlacementPolicy::PlacementPolicy(PlacementKind kind, uint32_t nodes,
                                 uint64_t seed, uint32_t vnodes_per_node)
    : kind_(kind),
      nodes_(nodes),
      rng_(seed),
      ring_(vnodes_per_node),
      outstanding_(nodes, 0) {
  KV_CHECK(nodes >= 1);
  if (kind_ == PlacementKind::kTokenRing) {
    for (uint32_t n = 0; n < nodes; ++n) KV_CHECK(ring_.AddNode(n).ok());
  }
}

NodeId PlacementPolicy::Place(std::string_view key) {
  switch (kind_) {
    case PlacementKind::kDhtRandom:
      return static_cast<NodeId>(Token(key) % nodes_);
    case PlacementKind::kTokenRing:
      return ring_.OwnerOfKey(key);
    case PlacementKind::kRoundRobin: {
      const NodeId node = next_rr_;
      next_rr_ = (next_rr_ + 1) % nodes_;
      return node;
    }
    case PlacementKind::kLeastLoaded: {
      // Ties broken by lowest id: deterministic given the load history.
      const auto it =
          std::min_element(outstanding_.begin(), outstanding_.end());
      return static_cast<NodeId>(it - outstanding_.begin());
    }
    case PlacementKind::kPowerOfTwo: {
      // Two *hash-derived* choices (so each key's candidates are fixed, as
      // in Kinesis), pick the currently less loaded one.
      const Hash128 h = Murmur3_128(key);
      const NodeId a = static_cast<NodeId>(h.lo % nodes_);
      NodeId b = static_cast<NodeId>(h.hi % nodes_);
      if (nodes_ > 1 && b == a) b = (b + 1) % nodes_;
      return outstanding_[a] <= outstanding_[b] ? a : b;
    }
    case PlacementKind::kJumpHash:
      return JumpConsistentHash(Token(key), nodes_);
  }
  return 0;
}

void PlacementPolicy::OnDispatch(NodeId node, uint64_t count) {
  KV_CHECK(node < nodes_);
  outstanding_[node] += static_cast<int64_t>(count);
}

void PlacementPolicy::OnComplete(NodeId node) {
  KV_CHECK(node < nodes_);
  KV_CHECK(outstanding_[node] > 0);
  --outstanding_[node];
}

void PlacementPolicy::GrowTo(uint32_t nodes) {
  if (nodes <= nodes_) return;
  nodes_ = nodes;
  outstanding_.resize(nodes, 0);
}

}  // namespace kvscale
