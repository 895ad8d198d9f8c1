// Live partition migration: checksummed block streaming between nodes.
//
// When the cluster's membership changes, the partitions whose ownership
// moves must reach their new owner before the routing directory flips —
// otherwise a gather racing the move would hit an authoritative miss on
// a node that never received the data. This engine performs that
// transfer on the real wire path: partitions are read from a surviving
// replica, batched into MigrationBlock messages (wire/messages.hpp),
// encoded through the same envelope framing the query path uses, and
// applied to the target store only after the per-block FNV-1a checksum
// verifies on arrival.
//
// Fault tolerance mirrors a production rebalance:
//   * a block whose frame is corrupted in flight
//     (FaultConfig::migration_corrupt_rate) fails checksum validation on
//     the target and is re-sent — bounded attempts, never applied
//     unverified;
//   * a source that dies mid-stream (FaultInjector kill, or an armed
//     ArmMigrationSourceKill) is replaced by the next live replica
//     holding the same partitions; only when no replica survives is the
//     partition reported skipped (genuine data loss, e.g. replication=1).
//
// The engine never mutates routing state: the cluster flips directory
// entries and bumps the ring epoch only after Run() returns OK, so an
// aborted migration leaves ownership — and every in-flight gather —
// exactly where it was.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "fault/fault_injector.hpp"
#include "hash/token_ring.hpp"
#include "store/local_store.hpp"
#include "wire/envelope.hpp"

namespace kvscale {

/// One partition's move order: copy `key`'s columns of `table` to
/// `target`, readable from any of `sources` (preference order; dead
/// replicas are skipped at stream time).
struct PartitionMove {
  std::string table;
  std::string key;
  NodeId target = 0;
  std::vector<NodeId> sources;
};

/// What one migration stream actually shipped.
struct MigrationStreamStats {
  uint64_t blocks = 0;             ///< checksum-verified blocks applied
  uint64_t partitions = 0;         ///< (table, key) pairs applied
  uint64_t columns = 0;            ///< columns written to targets
  uint64_t bytes = 0;              ///< block frame bytes (re-sends included)
  uint64_t block_retries = 0;      ///< blocks re-sent after checksum failure
  uint64_t source_failovers = 0;   ///< streams restarted off a dying source
  uint64_t partitions_skipped = 0; ///< no live replica held the partition
  std::vector<std::string> skipped_keys;  ///< keys behind the skips

  void MergeFrom(const MigrationStreamStats& other);
};

/// Streams planned partition moves between the cluster's stores.
class MigrationEngine {
 public:
  struct Options {
    /// Partitions coalesced into one MigrationBlock frame.
    size_t keys_per_block = 32;
    /// Total send attempts per block (first try + checksum re-sends).
    uint32_t max_block_attempts = 5;
    /// Wire codec for the stream's frames.
    WireCodecKind codec = WireCodecKind::kCompact;
  };

  /// Maps a node id to its store (null = node does not exist / is gone).
  using StoreAccessor = std::function<std::shared_ptr<LocalStore>(NodeId)>;

  /// `registry` must have RegisterClusterMessages applied and outlive the
  /// engine; `injector` may be null (a fault-free stream).
  MigrationEngine(StoreAccessor stores, const CompactCodec& registry,
                  FaultInjector* injector, Options options);
  MigrationEngine(StoreAccessor stores, const CompactCodec& registry,
                  FaultInjector* injector);

  /// Executes every move, grouped by (table, target) and batched into
  /// checksummed blocks. Fails — applying nothing further — only when a
  /// block exhausted its attempts without a verified delivery; partitions
  /// with no live source are skipped and reported, not fatal.
  Result<MigrationStreamStats> Run(uint64_t migration_id,
                                   std::vector<PartitionMove> moves);

 private:
  /// Ships one assembled block through encode -> (fault) -> decode ->
  /// checksum -> apply, re-sending on validation failure.
  Status ShipBlock(uint64_t migration_id, uint32_t seq, NodeId source,
                   NodeId target, const std::string& table,
                   std::vector<std::string> keys,
                   std::vector<std::string> payloads,
                   MigrationStreamStats& stats);

  StoreAccessor stores_;
  const CompactCodec& registry_;
  FaultInjector* injector_;  ///< may be null
  Options options_;
};

}  // namespace kvscale
