// Wide-column data model.
//
// Mirrors Cassandra's layout as described in Section II of the paper: an
// outer *partition key* decides which node (and which hash bucket) owns the
// data; within a partition, *columns* are kept sorted by a clustering key so
// ranges of grouped elements can be read efficiently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "wire/buffer.hpp"

namespace kvscale {

/// One cell: a clustering-keyed element inside a partition. A cell can be
/// a *tombstone* — a deletion marker that shadows any older value with the
/// same clustering key until compaction purges both (Cassandra's delete
/// semantics: immutable segments cannot remove data in place).
struct Column {
  uint64_t clustering = 0;        ///< clustering key (sorted within partition)
  uint32_t type_id = 0;           ///< element type (the count-by-type label)
  bool tombstone = false;         ///< deletion marker
  std::vector<std::byte> payload; ///< opaque value bytes (empty for tombstones)

  /// Approximate on-disk footprint, used for block packing and the 64 KB
  /// column-index threshold.
  size_t EncodedSize() const { return 16 + payload.size(); }

  /// Deletion marker for `clustering`.
  static Column Tombstone(uint64_t clustering) {
    Column c;
    c.clustering = clustering;
    c.tombstone = true;
    return c;
  }

  friend bool operator==(const Column& a, const Column& b) {
    return a.clustering == b.clustering && a.type_id == b.type_id &&
           a.tombstone == b.tombstone && a.payload == b.payload;
  }
};

/// Encodes a run of columns into `out` (clustering keys delta-encoded).
/// Columns must be sorted by clustering key.
void EncodeColumns(const std::vector<Column>& columns, WireBuffer& out);
/// Same, over borrowed columns (a flush or compaction streams without copies).
void EncodeColumnRefs(std::span<const Column* const> columns, WireBuffer& out);

/// Decodes all columns from `data`; returns kCorruption on malformed input.
Result<std::vector<Column>> DecodeColumns(std::span<const std::byte> data);

/// Builds a payload of `payload_bytes` pseudo-random bytes derived from
/// (partition seed, clustering); deterministic, for datasets and tests.
std::vector<std::byte> MakePayload(uint64_t seed, uint64_t clustering,
                                   size_t payload_bytes);

}  // namespace kvscale
