// In-memory write buffer (memtable).
//
// Writes land here first; when the approximate footprint passes the flush
// threshold the Table freezes it into an immutable Segment. Columns are kept
// sorted per partition, so flushes stream in clustering order.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "store/row.hpp"

namespace kvscale {

/// Sorted in-memory partition -> columns map.
class Memtable {
 public:
  /// Inserts or overwrites (partition, clustering) with the column value.
  void Put(std::string_view partition_key, Column column);

  /// Columns with clustering key in [lo, hi], sorted; empty if absent.
  std::vector<Column> Slice(std::string_view partition_key, uint64_t lo,
                            uint64_t hi) const;

  bool Contains(std::string_view partition_key) const;

  size_t partition_count() const { return partitions_.size(); }
  size_t column_count() const { return column_count_; }
  /// Approximate heap footprint of buffered data.
  size_t approximate_bytes() const { return approximate_bytes_; }
  bool empty() const { return partitions_.empty(); }

  /// Sorted partition keys (flush order).
  std::vector<std::string> PartitionKeys() const;

  /// Calls fn(key, clustering -> column) for every partition in key
  /// order, without copying: a flush streams straight from here.
  template <typename Fn>
  void ForEachPartition(Fn&& fn) const {
    for (const auto& [key, columns] : partitions_) fn(key, columns);
  }

  void Clear();

 private:
  // partition key -> (clustering -> column)
  std::map<std::string, std::map<uint64_t, Column>, std::less<>> partitions_;
  size_t column_count_ = 0;
  size_t approximate_bytes_ = 0;
};

}  // namespace kvscale
