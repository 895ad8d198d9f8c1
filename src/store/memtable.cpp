#include "store/memtable.hpp"

namespace kvscale {

void Memtable::Put(std::string_view partition_key, Column column) {
  auto it = partitions_.find(partition_key);
  if (it == partitions_.end()) {
    it = partitions_.emplace(std::string(partition_key),
                             std::map<uint64_t, Column>{})
             .first;
    approximate_bytes_ += partition_key.size() + 48;  // node overhead guess
  }
  auto [cit, inserted] = it->second.try_emplace(column.clustering);
  if (inserted) {
    ++column_count_;
  } else {
    approximate_bytes_ -= cit->second.EncodedSize();
  }
  approximate_bytes_ += column.EncodedSize();
  cit->second = std::move(column);
}

std::vector<Column> Memtable::Slice(std::string_view partition_key,
                                    uint64_t lo, uint64_t hi) const {
  std::vector<Column> out;
  auto it = partitions_.find(partition_key);
  if (it == partitions_.end()) return out;
  for (auto cit = it->second.lower_bound(lo);
       cit != it->second.end() && cit->first <= hi; ++cit) {
    out.push_back(cit->second);
  }
  return out;
}

bool Memtable::Contains(std::string_view partition_key) const {
  return partitions_.find(partition_key) != partitions_.end();
}

std::vector<std::string> Memtable::PartitionKeys() const {
  std::vector<std::string> keys;
  keys.reserve(partitions_.size());
  for (const auto& [key, columns] : partitions_) keys.push_back(key);
  return keys;
}

void Memtable::Clear() {
  partitions_.clear();
  column_count_ = 0;
  approximate_bytes_ = 0;
}

}  // namespace kvscale
