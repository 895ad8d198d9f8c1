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
#include "store/mapped_buffer.hpp"
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

/// Immutable sorted segment, stored as one flat image in one anonymous
/// mapping (store/mapped_buffer.hpp):
///
///   [block bytes][block end offsets][block checksums]
///   [directory records][column-index entries][key bytes]
///
/// Every partition costs one fixed-size directory record, its key bytes,
/// and 16 bytes per block (end offset + checksum) on top of its encoded
/// blocks — no per-partition or per-block heap node.
class Segment {
 public:
  /// Per-block column-index entry (only for indexed partitions).
  struct ColumnIndexEntry {
    uint64_t first_clustering = 0;
    uint64_t last_clustering = 0;
    uint32_t block = 0;  ///< absolute block number within the segment
  };

  /// Fixed-size directory record for one partition. The key and the
  /// column index live in the image's side arrays: Key() and
  /// ColumnIndex() resolve them.
  struct PartitionMeta {
    uint64_t column_count = 0;
    uint64_t encoded_bytes = 0;
    uint64_t key_offset = 0;   ///< into the key bytes
    uint32_t key_size = 0;
    uint32_t first_block = 0;
    uint32_t block_count = 0;
    uint32_t index_begin = 0;  ///< into the column-index entries
    uint32_t index_count = 0;
    bool has_column_index = false;
  };

  /// Directory records, ascending by key: binary-searched in place.
  using Directory = std::span<const PartitionMeta>;

 private:
  /// The arrays a segment is built from before Seal lays them out as one
  /// image. Each sits in its own mapping while it grows.
  struct Staging {
    MappedBuffer blocks;                  ///< concatenated block bytes
    MappedArray<uint64_t> block_ends;     ///< end offset of each block
    MappedArray<uint64_t> checksums;      ///< fnv1a of each block
    MappedArray<PartitionMeta> records;
    MappedArray<ColumnIndexEntry> index;
    MappedBuffer keys;                    ///< concatenated partition keys

    void AddBlock(std::span<const std::byte> bytes, uint64_t checksum);
    /// Appends `meta` for `key`, filling in its key and index offsets.
    void AddRecord(std::string_view key, PartitionMeta meta,
                   std::span<const ColumnIndexEntry> index_entries);
    std::string_view last_key() const;
  };

 public:
  /// Streams partitions, in ascending key order, into a new segment, so
  /// a flush or compaction holds one partition's columns at a time.
  class Writer {
   public:
    Writer(uint64_t segment_id, const SegmentOptions& options);

    /// Appends one partition. `columns` must be sorted by clustering key
    /// and are only read during the call; an empty partition is skipped.
    void Add(std::string_view key, std::span<const Column* const> columns);

    /// Appends `meta`'s partition of `source` as it is stored there: its
    /// encoded blocks, their stored checksums and its column index
    /// (rebased to this segment's block numbers), without decoding. The
    /// output bytes equal what Add would write for the same columns when
    /// `source` has this writer's block size and index threshold (see
    /// CanCopyFrom). Each block's checksum is verified first; a mismatch
    /// fails with kCorruption and appends nothing.
    Status CopyPartition(const Segment& source, const PartitionMeta& meta);

    /// True when CopyPartition from `source` writes the same bytes a
    /// decode and re-encode would.
    bool CanCopyFrom(const Segment& source) const;

    /// Seals the segment (the bloom filter is sized to what was added).
    std::shared_ptr<const Segment> Finish();

   private:
    uint64_t segment_id_;
    SegmentOptions options_;
    Staging staging_;
    WireBuffer scratch_;  ///< one block's encoding, reused
    std::vector<ColumnIndexEntry> index_scratch_;
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

  /// The key of a directory record of this segment. The view points into
  /// the image: it is valid while the segment is.
  std::string_view Key(const PartitionMeta& meta) const {
    return {keys_ + meta.key_offset, meta.key_size};
  }
  /// The column index of a directory record (empty when unindexed).
  std::span<const ColumnIndexEntry> ColumnIndex(
      const PartitionMeta& meta) const {
    return column_index_.subspan(meta.index_begin, meta.index_count);
  }

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
  size_t block_count() const { return block_ends_.size(); }
  uint64_t column_count() const { return total_columns_; }
  uint64_t encoded_bytes() const { return total_bytes_; }
  Directory directory() const { return directory_; }
  /// Memory this segment holds: its mapped image, its bloom filter and
  /// the object itself.
  size_t footprint_bytes() const;

 private:
  Segment(uint64_t id, const SegmentOptions& options)
      : id_(id), options_(options), bloom_(1, options.bloom_fp_rate) {}

  /// Lays `staging` out as this segment's image, points the views into
  /// it, and builds the bloom filter and totals.
  static std::shared_ptr<const Segment> Seal(uint64_t id,
                                             const SegmentOptions& options,
                                             Staging staging);

  std::span<const std::byte> BlockBytes(uint32_t block_no) const;

  /// Decodes block `block_no`, through `cache` when it has one. Verifies
  /// the block's checksum before every decode (a cache hit needs none:
  /// the shared block was verified when it was decoded) and surfaces a
  /// mismatch as kCorruption instead of returning damaged columns.
  Result<BlockHandle> ReadBlock(uint32_t block_no, CacheRef cache,
                                ReadProbe* probe) const;

  uint64_t id_;
  SegmentOptions options_;
  BloomFilter bloom_;
  MappedBuffer image_;
  // Views into image_.
  std::span<const uint64_t> block_ends_;
  std::span<const uint64_t> block_checksums_;
  Directory directory_;
  std::span<const ColumnIndexEntry> column_index_;
  const char* keys_ = nullptr;
  uint64_t total_columns_ = 0;
  uint64_t total_bytes_ = 0;
};

}  // namespace kvscale
