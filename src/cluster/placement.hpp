// Partition-to-node placement policies (Section VIII's design space).
//
//  * kDhtRandom        — hash the key, take it modulo n: the idealised
//                        single-choice balls-into-bins placement Formula 1
//                        analyses.
//  * kTokenRing        — Cassandra-style consistent hashing with virtual
//                        nodes; converges to kDhtRandom as vnodes grow.
//  * kRoundRobin       — global-master style perfect rotation (needs
//                        central coordination; zero key imbalance).
//  * kLeastLoaded      — replica-selection: send to the least-loaded of
//                        all nodes (upper bound of what a master with
//                        perfect load knowledge can do).
//  * kPowerOfTwo       — Mitzenmacher's two random choices; O(log log n)
//                        imbalance at the cost of double bookkeeping.
//  * kJumpHash         — Lamping-Veach jump consistent hash: tableless,
//                        minimal movement on resize; same balls-into-bins
//                        load profile as kDhtRandom.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "hash/token_ring.hpp"

namespace kvscale {

enum class PlacementKind {
  kDhtRandom,
  kTokenRing,
  kRoundRobin,
  kLeastLoaded,
  kPowerOfTwo,
  kJumpHash,
};

std::string_view PlacementKindName(PlacementKind kind);

/// Stateful placement of partition keys onto `nodes` nodes. Load-aware
/// policies consume the feedback calls.
class PlacementPolicy {
 public:
  PlacementPolicy(PlacementKind kind, uint32_t nodes, uint64_t seed,
                  uint32_t vnodes_per_node = 256);

  /// Chooses the node for `key`. Deterministic for the hash-based kinds;
  /// load-dependent for kLeastLoaded / kPowerOfTwo.
  NodeId Place(std::string_view key);

  /// Load feedback: `count` requests were dispatched to / one completed
  /// on `node`.
  void OnDispatch(NodeId node, uint64_t count = 1);
  void OnComplete(NodeId node);

  /// Widens the node-id space to `nodes` (no-op if already that wide).
  /// Elastic membership appends node ids; the load-feedback tallies must
  /// have a slot for each before feedback for it arrives.
  void GrowTo(uint32_t nodes);

  PlacementKind kind() const { return kind_; }
  uint32_t nodes() const { return nodes_; }
  const std::vector<int64_t>& outstanding() const { return outstanding_; }

 private:
  PlacementKind kind_;
  uint32_t nodes_;
  Rng rng_;
  TokenRing ring_;
  uint32_t next_rr_ = 0;
  std::vector<int64_t> outstanding_;
};

}  // namespace kvscale
