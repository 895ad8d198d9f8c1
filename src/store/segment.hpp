// Immutable on-"disk" segment (SSTable equivalent).
//
// A segment stores partitions contiguously, each packed into one or more
// fixed-size blocks of encoded columns. Following Cassandra's
// `column_index_size_in_kb` behaviour described in Section V of the paper:
// partitions whose encoded size exceeds the column-index threshold (default
// 64 KB) get a per-block *column index* (first/last clustering key of each
// block), enabling block-granular slices; smaller partitions are not
// indexed, so any read must decode the whole partition. That asymmetry is
// the mechanism behind the response-time discontinuity at ~1425 elements
// that the paper's Figure 6 reports.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "store/block_cache.hpp"
#include "store/bloom.hpp"
#include "store/memtable.hpp"
#include "store/row.hpp"

namespace kvscale {

/// Build-time knobs for segments.
struct SegmentOptions {
  size_t block_size = 64 * kKiB;             ///< max encoded bytes per block
  size_t column_index_threshold = 64 * kKiB; ///< partitions above get an index
  double bloom_fp_rate = 0.01;
};

/// Telemetry of a single read, accumulated across memtable/segments/cache.
struct ReadProbe {
  uint64_t segments_consulted = 0;
  uint64_t bloom_negatives = 0;   ///< segments skipped by bloom filter
  uint64_t index_probes = 0;      ///< column-index binary searches
  uint64_t blocks_decoded = 0;    ///< blocks actually deserialized
  uint64_t blocks_from_cache = 0; ///< decoded blocks served by the cache
  uint64_t bytes_decoded = 0;
  uint64_t columns_returned = 0;

  void MergeFrom(const ReadProbe& other);
};

/// Immutable sorted segment.
class Segment {
 public:
  /// Per-block column-index entry (only for indexed partitions).
  struct ColumnIndexEntry {
    uint64_t first_clustering = 0;
    uint64_t last_clustering = 0;
    uint32_t block = 0;  ///< absolute block number within the segment
  };

  /// Directory entry for one partition.
  struct PartitionMeta {
    uint32_t first_block = 0;
    uint32_t block_count = 0;
    uint64_t column_count = 0;
    uint64_t encoded_bytes = 0;
    bool has_column_index = false;
    std::vector<ColumnIndexEntry> column_index;
  };

  /// (partition key, directory entry) pairs, ascending by key: one
  /// contiguous array, binary-searched, with no per-partition node.
  using Directory = std::vector<std::pair<std::string, PartitionMeta>>;

  /// Streams partitions, in ascending key order, into a new segment, so
  /// a flush or compaction holds one partition's columns at a time.
  class Writer {
   public:
    Writer(uint64_t segment_id, const SegmentOptions& options);

    /// Appends one partition. `columns` must be sorted by clustering key
    /// and are only read during the call; an empty partition is skipped.
    void Add(std::string_view key, std::span<const Column* const> columns);

    /// Seals the segment (the bloom filter is sized to what was added).
    std::shared_ptr<const Segment> Finish();

   private:
    std::shared_ptr<Segment> segment_;
  };

  /// Freezes a memtable into a segment, one partition at a time.
  static std::shared_ptr<const Segment> Build(const Memtable& memtable,
                                              uint64_t segment_id,
                                              const SegmentOptions& options);

  /// Bloom-filter pre-check; false means the partition is definitely not
  /// in this segment.
  bool MayContain(std::string_view partition_key) const;

  /// The decoded blocks a read of clustering keys [lo, hi] of one
  /// partition touches, ascending, through `cache` when it has one. For
  /// indexed partitions only the overlapping blocks are read; unindexed
  /// partitions read every block (the 64 KB threshold effect). Blocks
  /// may hold columns outside [lo, hi] and tombstones: callers filter.
  /// NotFound if the partition is absent.
  Result<std::vector<BlockHandle>> ReadBlocks(std::string_view partition_key,
                                              uint64_t lo, uint64_t hi,
                                              CacheRef cache,
                                              ReadProbe* probe) const;
  Result<std::vector<BlockHandle>> ReadBlocks(const PartitionMeta& meta,
                                              uint64_t lo, uint64_t hi,
                                              CacheRef cache,
                                              ReadProbe* probe) const;

  bool HasPartition(std::string_view partition_key) const;
  const PartitionMeta* FindMeta(std::string_view partition_key) const;

  /// Serialises the whole segment (directory, column indexes, blocks,
  /// per-block checksums) into `out`; Deserialize restores an identical
  /// segment (the bloom filter is rebuilt from the keys) and rejects
  /// blocks whose stored checksum no longer matches their bytes. This is
  /// the snapshot format used by Table::SaveSnapshot.
  void SerializeTo(WireBuffer& out) const;
  static Result<std::shared_ptr<const Segment>> Deserialize(
      std::span<const std::byte> data);

  /// FAULT INJECTION ONLY: flips one bit of block `block_no`'s encoded
  /// bytes while leaving the stored checksum untouched, so the next
  /// uncached read of that block fails verification with kCorruption.
  /// Must not race with reads of this segment.
  void FlipBlockBitForFaultInjection(uint32_t block_no, uint64_t bit_index);

  uint64_t id() const { return id_; }
  size_t partition_count() const { return directory_.size(); }
  size_t block_count() const { return blocks_.size(); }
  uint64_t column_count() const { return total_columns_; }
  uint64_t encoded_bytes() const { return total_bytes_; }
  const Directory& directory() const { return directory_; }

 private:
  Segment(uint64_t id, const SegmentOptions& options, size_t partitions)
      : id_(id),
        options_(options),
        bloom_(std::max<size_t>(partitions, 1), options.bloom_fp_rate) {}

  void AddPartition(std::string_view key,
                    std::span<const Column* const> columns);

  /// Decodes block `block_no`, through `cache` when it has one. Verifies
  /// the block's checksum before every decode (a cache hit needs none:
  /// the shared block was verified when it was decoded) and surfaces a
  /// mismatch as kCorruption instead of returning damaged columns.
  Result<BlockHandle> ReadBlock(uint32_t block_no, CacheRef cache,
                                ReadProbe* probe) const;

  uint64_t id_;
  SegmentOptions options_;
  BloomFilter bloom_;
  Directory directory_;
  std::vector<std::vector<std::byte>> blocks_;  // encoded column runs
  std::vector<uint64_t> block_checksums_;       // fnv1a of each block
  uint64_t total_columns_ = 0;
  uint64_t total_bytes_ = 0;
};

}  // namespace kvscale
