// LRU cache of decoded blocks.
//
// Plays the role of the OS page cache + Cassandra key/row caches in the
// paper's discussion of replica selection ("spreading calls to different
// servers results in a higher page fault number"): repeated reads of the
// same partition on the same node are cheap, spreading them is not.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"
#include "store/row.hpp"

namespace kvscale {

/// One decoded block, shared and immutable: the cache and every reader
/// that still iterates it hold the same columns, so neither a hit nor an
/// eviction copies or frees them under a reader.
using BlockHandle = std::shared_ptr<const std::vector<Column>>;

/// Cache key. Segment ids are per table, so the key carries the table's
/// cache-unique id (BlockCache::NewTableId) too: two tables of one store
/// never read each other's blocks, even after a snapshot reload.
struct BlockKey {
  uint64_t table_id = 0;
  uint64_t segment_id = 0;
  uint32_t block_no = 0;
  friend bool operator==(const BlockKey&, const BlockKey&) = default;
};

/// Byte-capacity-bounded LRU over decoded column blocks. Thread-safe:
/// concurrent readers share one cache, as Cassandra's row cache does.
class BlockCache {
 public:
  explicit BlockCache(size_t capacity_bytes);

  /// A fresh id that namespaces one table's segment ids in this cache.
  uint64_t NewTableId();

  /// The cached block, or null on a miss. Promotes on hit.
  BlockHandle Lookup(const BlockKey& key);

  /// Caches `block`, evicting LRU entries as needed. Blocks larger than
  /// the whole capacity are not cached.
  void Insert(const BlockKey& key, BlockHandle block);

  /// Drops every cached block of one table's segment (compacted away,
  /// replaced by a snapshot, or deliberately corrupted).
  void EraseSegment(uint64_t table_id, uint64_t segment_id);

  size_t entry_count() const;
  size_t used_bytes() const;
  size_t capacity_bytes() const { return capacity_bytes_; }
  uint64_t hits() const;
  uint64_t misses() const;
  double hit_rate() const;

  /// Resets hit/miss counters (per-experiment bookkeeping).
  void ResetStats();

 private:
  struct KeyHash {
    size_t operator()(const BlockKey& k) const {
      return std::hash<uint64_t>{}(
          (k.table_id * 0x9e3779b97f4a7c15ULL + k.segment_id) *
              0x9e3779b97f4a7c15ULL +
          k.block_no);
    }
  };
  struct Entry {
    BlockKey key;
    BlockHandle block;
    size_t bytes;
  };

  static size_t SizeOf(const std::vector<Column>& columns);
  void EvictTo(size_t target_bytes) KV_REQUIRES(mu_);

  mutable Mutex mu_;
  const size_t capacity_bytes_;  ///< immutable after construction
  std::list<Entry> lru_ KV_GUARDED_BY(mu_);  // front = most recent
  std::unordered_map<BlockKey, std::list<Entry>::iterator, KeyHash> map_
      KV_GUARDED_BY(mu_);
  size_t used_bytes_ KV_GUARDED_BY(mu_) = 0;
  uint64_t hits_ KV_GUARDED_BY(mu_) = 0;
  uint64_t misses_ KV_GUARDED_BY(mu_) = 0;
  uint64_t next_table_id_ KV_GUARDED_BY(mu_) = 1;
};

/// One table's view of its store's block cache: the cache (null = no
/// caching) plus the id that keeps the table's segment ids apart.
struct CacheRef {
  BlockCache* cache = nullptr;
  uint64_t table_id = 0;
};

}  // namespace kvscale
