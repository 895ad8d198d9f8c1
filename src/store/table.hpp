// A wide-column table: memtable + immutable segments + block cache.
//
// This is the per-node storage engine the simulated slaves conceptually run;
// it is also used directly (in-process) by the calibration benches and the
// examples. Every read goes through Table::Read: a partition held by one
// segment and no memtable entry (the state after a flush or compaction) is
// read in place from the shared decoded blocks; any other layout is merged,
// newest write winning on (partition, clustering) collisions. Thread-safe:
// writes and structural changes take an exclusive lock, opening a read a
// shared one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"
#include "store/block_cache.hpp"
#include "store/memtable.hpp"
#include "store/segment.hpp"

namespace kvscale {

class MetricsRegistry;       // telemetry/metrics_registry.hpp
struct StoreInstruments;     // store/store_metrics.hpp
class Rng;                   // common/rng.hpp

/// Tuning knobs of a table.
struct TableOptions {
  SegmentOptions segment;
  size_t memtable_flush_bytes = 8 * kMiB; ///< auto-flush threshold
  bool auto_flush = true;                 ///< flush when the memtable fills
  /// Size-tiered compaction (Cassandra's STCS): after a flush, if at
  /// least `compaction_min_segments` segments fall in the same size tier
  /// (within `compaction_size_ratio` of each other), they are merged into
  /// one. 0 disables automatic compaction (Compact() still works).
  uint32_t compaction_min_segments = 4;
  double compaction_size_ratio = 2.0;
  /// When set, the table records read latency histograms plus cache /
  /// bloom / flush / compaction counters into this registry (must
  /// outlive the table). Null keeps the hot path uninstrumented.
  MetricsRegistry* metrics = nullptr;
};

/// Count-by-type aggregation result: type id -> element count.
using TypeCounts = std::map<uint32_t, uint64_t>;

/// The live columns of one partition with clustering key in [lo, hi], as
/// Table::Read opened them. The view holds shared decoded blocks, so it
/// stays valid while the table flushes, compacts, evicts or reloads; the
/// columns it lends out live as long as the view.
class ColumnView {
 public:
  /// Calls `fn(const Column&)` on each live column in ascending
  /// clustering order until `fn` returns false.
  template <typename Fn>
  void ForEach(Fn&& fn) const;

  /// Same, in descending clustering order.
  template <typename Fn>
  void ForEachDescending(Fn&& fn) const;

  /// Copies the live columns out, ascending.
  std::vector<Column> ToVector() const;

  /// (type id, live column count) pairs, ascending by type id.
  std::vector<std::pair<uint32_t, uint64_t>> CountTypes() const;

 private:
  friend class Table;
  ColumnView(uint64_t lo, uint64_t hi) : lo_(lo), hi_(hi) {}

  /// Ascending, non-overlapping sorted runs. They may hold tombstones
  /// and columns outside [lo_, hi_]; iteration skips both.
  std::vector<BlockHandle> blocks_;
  uint64_t lo_;
  uint64_t hi_;
};

class Table {
 public:
  /// `cache` may be null (no block caching) and must outlive the table.
  Table(std::string name, TableOptions options, BlockCache* cache);
  ~Table();

  /// Inserts or overwrites one column.
  void Put(std::string_view partition_key, Column column);

  /// Deletes (partition, clustering) by writing a tombstone: the marker
  /// shadows older values in any segment and is purged by Compact().
  /// Deleting a non-existent cell is a no-op that still writes the marker
  /// (Cassandra semantics: deletes cannot check existence cheaply).
  void Delete(std::string_view partition_key, uint64_t clustering);

  /// The one read primitive; every read below is built on it. Opens the
  /// live columns of `partition_key` with clustering key in [lo, hi].
  /// When exactly one segment and no memtable entry hold the partition,
  /// the view shares that segment's decoded blocks and copies nothing.
  /// Otherwise the sources are merged newest-wins, tombstones shadowing
  /// older cells, into one private block. NotFound if no source has the
  /// partition; kInvalidArgument if lo > hi.
  Result<ColumnView> Read(std::string_view partition_key, uint64_t lo,
                          uint64_t hi, ReadProbe* probe = nullptr) const;

  /// Reads a whole partition (merged across memtable and segments);
  /// NotFound if no source has it.
  Result<std::vector<Column>> GetPartition(std::string_view partition_key,
                                           ReadProbe* probe = nullptr) const;

  /// Reads columns with clustering key in [lo, hi].
  Result<std::vector<Column>> Slice(std::string_view partition_key,
                                    uint64_t lo, uint64_t hi,
                                    ReadProbe* probe = nullptr) const;

  /// The paper's benchmark aggregation: counts elements per type within
  /// one partition.
  Result<TypeCounts> CountByType(std::string_view partition_key,
                                 ReadProbe* probe = nullptr) const;

  /// Bounded range scan: columns with clustering key in [lo, hi],
  /// ascending, truncated to the first `limit` rows (0 = unbounded).
  /// The per-node body of the kOpRangeScan operator — the limit caps
  /// what one node ships back; the master merges and re-limits.
  Result<std::vector<Column>> ScanRange(std::string_view partition_key,
                                        uint64_t lo, uint64_t hi,
                                        uint32_t limit,
                                        ReadProbe* probe = nullptr) const;

  /// The `k` columns with the largest clustering keys, descending.
  /// The per-node body of the kOpTopK operator; the master k-way merges
  /// the per-partition candidates.
  Result<std::vector<Column>> TopKByClustering(
      std::string_view partition_key, uint32_t k,
      ReadProbe* probe = nullptr) const;

  bool HasPartition(std::string_view partition_key) const;

  /// Freezes the memtable into a new segment (no-op when empty).
  void Flush();

  /// Merges all segments (and the memtable) into one segment, purging
  /// tombstones. A segment with a corrupt block is not compacted away:
  /// the segments stay as they are and its reads keep failing with
  /// kCorruption.
  void Compact();

  /// Total automatic (size-tiered) compactions performed so far.
  uint64_t auto_compactions() const;

  /// Persists the table (memtable flushed first) to `path` as a
  /// checksummed snapshot of its segments.
  Status SaveSnapshot(const std::string& path);

  /// Replaces this table's contents with a snapshot written by
  /// SaveSnapshot. Fails with kCorruption on damaged files, leaving the
  /// table unchanged.
  Status LoadSnapshot(const std::string& path);

  /// FAULT INJECTION ONLY: flips one bit in roughly `fraction` of this
  /// table's segment blocks (at least one when fraction > 0 and any
  /// block exists) and evicts the touched segments from the block cache,
  /// so subsequent reads hit the stale checksum and fail with
  /// kCorruption. Returns the number of blocks corrupted.
  uint64_t CorruptBlocksForFaultInjection(double fraction, Rng& rng);

  /// FAULT INJECTION ONLY: precise single-block variant — corrupts bit
  /// `bit_index` of block `block_no` of segment `segment_index` (oldest
  /// first). Fails with kOutOfRange on bad indices.
  Status CorruptBlockForFaultInjection(size_t segment_index,
                                       uint32_t block_no, uint64_t bit_index);

  const std::string& name() const { return name_; }
  size_t segment_count() const;
  size_t memtable_bytes() const;
  uint64_t column_count() const;
  uint64_t put_count() const;
  /// Union of partition keys across memtable and segments, sorted.
  std::vector<std::string> PartitionKeys() const;
  /// Encoded size of one partition on "disk" (0 if absent or memtable-only).
  uint64_t PartitionEncodedBytes(std::string_view partition_key) const;

 private:
  /// Read's uninstrumented body; Read adds wall-clock timing, probe
  /// accounting and the corruption count when telemetry is attached.
  Result<ColumnView> ReadUninstrumented(std::string_view partition_key,
                                        uint64_t lo, uint64_t hi,
                                        ReadProbe* probe) const;

  void FlushLocked() KV_REQUIRES(mu_);

  /// Size-tiered compaction pass; merges one tier if one qualifies.
  /// Tombstones are kept (only a full Compact may purge them safely).
  void MaybeCompactLocked() KV_REQUIRES(mu_);

  /// Merges the given segment indices (ascending) into one new segment,
  /// streaming one partition at a time in key order.
  /// `purge_tombstones` only when merging *all* segments. Fails with
  /// kCorruption, merging nothing, if any input block fails its checksum.
  Result<std::shared_ptr<const Segment>> MergeSegmentsLocked(
      const std::vector<size_t>& indices, bool purge_tombstones)
      KV_REQUIRES(mu_);

  /// Drops the cached blocks of `segment` (no-op without a cache).
  void EvictFromCache(const Segment& segment) const;

  std::string name_;
  TableOptions options_;
  CacheRef cache_;  ///< this table's namespace in the store's cache
  std::unique_ptr<StoreInstruments> instruments_;  ///< null = no telemetry
  mutable SharedMutex mu_;
  Memtable memtable_ KV_GUARDED_BY(mu_);
  // oldest first
  std::vector<std::shared_ptr<const Segment>> segments_ KV_GUARDED_BY(mu_);
  uint64_t next_segment_id_ KV_GUARDED_BY(mu_) = 1;
  uint64_t put_count_ KV_GUARDED_BY(mu_) = 0;
  uint64_t auto_compactions_ KV_GUARDED_BY(mu_) = 0;
};

template <typename Fn>
void ColumnView::ForEach(Fn&& fn) const {
  for (const BlockHandle& block : blocks_) {
    auto it = std::lower_bound(
        block->begin(), block->end(), lo_,
        [](const Column& c, uint64_t v) { return c.clustering < v; });
    for (; it != block->end() && it->clustering <= hi_; ++it) {
      if (it->tombstone) continue;
      if (!fn(*it)) return;
    }
  }
}

template <typename Fn>
void ColumnView::ForEachDescending(Fn&& fn) const {
  for (auto b = blocks_.rbegin(); b != blocks_.rend(); ++b) {
    const std::vector<Column>& block = **b;
    auto it = std::upper_bound(
        block.begin(), block.end(), hi_,
        [](uint64_t v, const Column& c) { return v < c.clustering; });
    while (it != block.begin()) {
      --it;
      if (it->clustering < lo_) break;
      if (it->tombstone) continue;
      if (!fn(*it)) return;
    }
  }
}

}  // namespace kvscale
