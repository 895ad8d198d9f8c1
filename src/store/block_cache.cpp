#include "store/block_cache.hpp"

#include "common/check.hpp"

namespace kvscale {

BlockCache::BlockCache(size_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {}

size_t BlockCache::SizeOf(const std::vector<Column>& columns) {
  size_t bytes = sizeof(Entry);
  for (const Column& c : columns) bytes += c.EncodedSize() + 16;
  return bytes;
}

uint64_t BlockCache::NewTableId() {
  MutexLock lock(mu_);
  return next_table_id_++;
}

BlockHandle BlockCache::Lookup(const BlockKey& key) {
  MutexLock lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);  // promote
  return it->second->block;
}

void BlockCache::Insert(const BlockKey& key, BlockHandle block) {
  KV_CHECK(block != nullptr);
  const size_t bytes = SizeOf(*block);
  MutexLock lock(mu_);
  if (map_.find(key) != map_.end()) return;  // already cached
  if (bytes > capacity_bytes_) return;  // would evict everything: skip
  EvictTo(capacity_bytes_ - bytes);
  lru_.push_front(Entry{key, std::move(block), bytes});
  map_[key] = lru_.begin();
  used_bytes_ += bytes;
}

void BlockCache::EvictTo(size_t target_bytes) {
  while (used_bytes_ > target_bytes && !lru_.empty()) {
    const Entry& victim = lru_.back();
    used_bytes_ -= victim.bytes;
    map_.erase(victim.key);
    lru_.pop_back();
  }
}

void BlockCache::EraseSegment(uint64_t table_id, uint64_t segment_id) {
  MutexLock lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->key.table_id == table_id && it->key.segment_id == segment_id) {
      used_bytes_ -= it->bytes;
      map_.erase(it->key);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t BlockCache::entry_count() const {
  MutexLock lock(mu_);
  return map_.size();
}

size_t BlockCache::used_bytes() const {
  MutexLock lock(mu_);
  return used_bytes_;
}

uint64_t BlockCache::hits() const {
  MutexLock lock(mu_);
  return hits_;
}

uint64_t BlockCache::misses() const {
  MutexLock lock(mu_);
  return misses_;
}

double BlockCache::hit_rate() const {
  MutexLock lock(mu_);
  const uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0
                    : static_cast<double>(hits_) / static_cast<double>(total);
}

void BlockCache::ResetStats() {
  MutexLock lock(mu_);
  hits_ = 0;
  misses_ = 0;
}

}  // namespace kvscale
