#include "store/segment.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "hash/hash.hpp"
#include "store/block_cache.hpp"

namespace kvscale {

void ReadProbe::MergeFrom(const ReadProbe& other) {
  segments_consulted += other.segments_consulted;
  bloom_negatives += other.bloom_negatives;
  index_probes += other.index_probes;
  blocks_decoded += other.blocks_decoded;
  blocks_from_cache += other.blocks_from_cache;
  bytes_decoded += other.bytes_decoded;
  columns_returned += other.columns_returned;
}

void Segment::Staging::AddBlock(std::span<const std::byte> bytes,
                                uint64_t checksum) {
  blocks.Append(bytes);
  block_ends.push_back(blocks.size());
  checksums.push_back(checksum);
}

void Segment::Staging::AddRecord(
    std::string_view key, PartitionMeta meta,
    std::span<const ColumnIndexEntry> index_entries) {
  meta.key_offset = keys.size();
  meta.key_size = static_cast<uint32_t>(key.size());
  meta.index_begin = static_cast<uint32_t>(index.size());
  meta.index_count = static_cast<uint32_t>(index_entries.size());
  keys.Append(std::as_bytes(std::span<const char>(key.data(), key.size())));
  for (const ColumnIndexEntry& entry : index_entries) index.push_back(entry);
  records.push_back(meta);
}

std::string_view Segment::Staging::last_key() const {
  KV_CHECK(!records.empty());
  const PartitionMeta& last = records.view().back();
  return {reinterpret_cast<const char*>(keys.data()) + last.key_offset,
          last.key_size};
}

Segment::Writer::Writer(uint64_t segment_id, const SegmentOptions& options)
    : segment_id_(segment_id), options_(options) {
  KV_CHECK(options.block_size > 0);
}

void Segment::Writer::Add(std::string_view key,
                          std::span<const Column* const> columns) {
  KV_CHECK(staging_.records.empty() || staging_.last_key() < key);
  KV_CHECK(std::is_sorted(columns.begin(), columns.end(),
                          [](const Column* a, const Column* b) {
                            return a->clustering < b->clustering;
                          }));
  if (columns.empty()) return;

  PartitionMeta meta;
  meta.first_block = static_cast<uint32_t>(staging_.block_ends.size());
  meta.column_count = columns.size();

  // Pack columns into blocks of at most block_size encoded bytes.
  size_t pending_begin = 0;
  size_t pending_bytes = 0;
  index_scratch_.clear();
  auto flush_block = [&](size_t pending_end) {
    if (pending_end == pending_begin) return;
    const auto pending =
        columns.subspan(pending_begin, pending_end - pending_begin);
    scratch_.clear();
    EncodeColumnRefs(pending, scratch_);
    ColumnIndexEntry entry;
    entry.first_clustering = pending.front()->clustering;
    entry.last_clustering = pending.back()->clustering;
    entry.block = static_cast<uint32_t>(staging_.block_ends.size());
    index_scratch_.push_back(entry);
    staging_.AddBlock(scratch_.data(), Fnv1a64(scratch_.data()));
    meta.encoded_bytes += scratch_.size();
    pending_begin = pending_end;
    pending_bytes = 0;
  };

  for (size_t i = 0; i < columns.size(); ++i) {
    const size_t sz = columns[i]->EncodedSize();
    if (i > pending_begin && pending_bytes + sz > options_.block_size) {
      flush_block(i);
    }
    pending_bytes += sz;
  }
  flush_block(columns.size());

  meta.block_count =
      static_cast<uint32_t>(staging_.block_ends.size()) - meta.first_block;
  // Cassandra's column_index_size_in_kb rule: only partitions larger than
  // the threshold carry a column index.
  meta.has_column_index = meta.encoded_bytes > options_.column_index_threshold;
  staging_.AddRecord(key, meta,
                     meta.has_column_index
                         ? std::span<const ColumnIndexEntry>(index_scratch_)
                         : std::span<const ColumnIndexEntry>());
}

bool Segment::Writer::CanCopyFrom(const Segment& source) const {
  // Block packing and the index rule depend on these two knobs only, so
  // equal knobs re-encode a partition into exactly its stored blocks.
  return source.options_.block_size == options_.block_size &&
         source.options_.column_index_threshold ==
             options_.column_index_threshold;
}

Status Segment::Writer::CopyPartition(const Segment& source,
                                      const PartitionMeta& meta) {
  const std::string_view key = source.Key(meta);
  KV_CHECK(staging_.records.empty() || staging_.last_key() < key);
  const uint32_t end = meta.first_block + meta.block_count;
  // Verify every block before appending any: a damaged copy must abort
  // the merge, not land in the output under a valid checksum.
  for (uint32_t b = meta.first_block; b < end; ++b) {
    if (Fnv1a64(source.BlockBytes(b)) != source.block_checksums_[b]) {
      return Status::Corruption("segment " + std::to_string(source.id_) +
                                " block " + std::to_string(b) +
                                " checksum mismatch");
    }
  }
  PartitionMeta copy = meta;
  copy.first_block = static_cast<uint32_t>(staging_.block_ends.size());
  for (uint32_t b = meta.first_block; b < end; ++b) {
    staging_.AddBlock(source.BlockBytes(b), source.block_checksums_[b]);
  }
  index_scratch_.clear();
  for (ColumnIndexEntry entry : source.ColumnIndex(meta)) {
    entry.block = entry.block - meta.first_block + copy.first_block;
    index_scratch_.push_back(entry);
  }
  staging_.AddRecord(key, copy, index_scratch_);
  return Status::Ok();
}

std::shared_ptr<const Segment> Segment::Writer::Finish() {
  return Seal(segment_id_, options_, std::move(staging_));
}

std::shared_ptr<const Segment> Segment::Seal(uint64_t id,
                                             const SegmentOptions& options,
                                             Staging staging) {
  // Private constructor: cannot use make_shared.
  std::shared_ptr<Segment> segment(new Segment(id, options));
  const size_t blocks = staging.block_ends.size();
  const size_t partitions = staging.records.size();
  const size_t index_entries = staging.index.size();
  // The block bytes stay where they were written: the image grows past
  // them (mremap moves pages, not bytes) and the side arrays are copied
  // in behind, each 8-byte aligned.
  const size_t ends_at = (staging.blocks.size() + 7) & ~size_t{7};
  const size_t checksums_at = ends_at + blocks * sizeof(uint64_t);
  const size_t records_at = checksums_at + blocks * sizeof(uint64_t);
  const size_t index_at = records_at + partitions * sizeof(PartitionMeta);
  const size_t keys_at = index_at + index_entries * sizeof(ColumnIndexEntry);
  MappedBuffer image = std::move(staging.blocks);
  image.Resize(keys_at + staging.keys.size());
  auto place = [&image](size_t at, std::span<const std::byte> bytes) {
    if (!bytes.empty()) std::memcpy(image.data() + at, bytes.data(), bytes.size());
  };
  place(ends_at, staging.block_ends.bytes());
  place(checksums_at, staging.checksums.bytes());
  place(records_at, staging.records.bytes());
  place(index_at, staging.index.bytes());
  place(keys_at, {staging.keys.data(), staging.keys.size()});
  image.ShrinkToFit();

  Segment& s = *segment;
  s.image_ = std::move(image);
  const std::byte* base = s.image_.data();
  s.block_ends_ = {reinterpret_cast<const uint64_t*>(base + ends_at), blocks};
  s.block_checksums_ = {reinterpret_cast<const uint64_t*>(base + checksums_at),
                        blocks};
  s.directory_ = {reinterpret_cast<const PartitionMeta*>(base + records_at),
                  partitions};
  s.column_index_ = {
      reinterpret_cast<const ColumnIndexEntry*>(base + index_at),
      index_entries};
  s.keys_ = reinterpret_cast<const char*>(base + keys_at);
  s.bloom_ =
      BloomFilter(std::max<size_t>(partitions, 1), options.bloom_fp_rate);
  for (const PartitionMeta& meta : s.directory_) {
    s.bloom_.Add(s.Key(meta));
    s.total_columns_ += meta.column_count;
    s.total_bytes_ += meta.encoded_bytes;
  }
  return segment;
}

std::shared_ptr<const Segment> Segment::Build(const Memtable& memtable,
                                              uint64_t segment_id,
                                              const SegmentOptions& options) {
  Writer writer(segment_id, options);
  std::vector<const Column*> columns;
  memtable.ForEachPartition(
      [&](const std::string& key, const std::map<uint64_t, Column>& cells) {
        columns.clear();
        for (const auto& [clustering, column] : cells) {
          columns.push_back(&column);
        }
        writer.Add(key, columns);
      });
  return writer.Finish();
}

std::span<const std::byte> Segment::BlockBytes(uint32_t block_no) const {
  const uint64_t begin = block_no == 0 ? 0 : block_ends_[block_no - 1];
  return {image_.data() + begin, block_ends_[block_no] - begin};
}

size_t Segment::footprint_bytes() const {
  return image_.mapped_bytes() + bloom_.memory_bytes() + sizeof(Segment);
}

bool Segment::MayContain(std::string_view partition_key) const {
  return bloom_.MayContain(partition_key);
}

bool Segment::HasPartition(std::string_view partition_key) const {
  return FindMeta(partition_key) != nullptr;
}

const Segment::PartitionMeta* Segment::FindMeta(
    std::string_view partition_key) const {
  auto it = std::lower_bound(directory_.begin(), directory_.end(),
                             partition_key,
                             [this](const PartitionMeta& meta,
                                    std::string_view key) {
                               return Key(meta) < key;
                             });
  return it == directory_.end() || Key(*it) != partition_key ? nullptr
                                                             : &*it;
}

void Segment::SerializeTo(WireBuffer& out) const {
  out.WriteU64(id_);
  out.WriteVarint(options_.block_size);
  out.WriteVarint(options_.column_index_threshold);
  out.WriteF64(options_.bloom_fp_rate);
  out.WriteVarint(directory_.size());
  for (const PartitionMeta& meta : directory_) {
    out.WriteString(Key(meta));
    out.WriteVarint(meta.first_block);
    out.WriteVarint(meta.block_count);
    out.WriteVarint(meta.column_count);
    out.WriteVarint(meta.encoded_bytes);
    out.WriteU8(meta.has_column_index ? 1 : 0);
    out.WriteVarint(meta.index_count);
    for (const ColumnIndexEntry& entry : ColumnIndex(meta)) {
      out.WriteVarint(entry.first_clustering);
      out.WriteVarint(entry.last_clustering);
      out.WriteVarint(entry.block);
    }
  }
  out.WriteVarint(block_count());
  for (uint32_t b = 0; b < block_count(); ++b) out.WriteBytes(BlockBytes(b));
  for (uint64_t checksum : block_checksums_) out.WriteU64(checksum);
}

Result<std::shared_ptr<const Segment>> Segment::Deserialize(
    std::span<const std::byte> data) {
  WireReader r(data);
  const uint64_t id = r.ReadU64();
  SegmentOptions options;
  options.block_size = r.ReadVarint();
  options.column_index_threshold = r.ReadVarint();
  options.bloom_fp_rate = r.ReadF64();
  const uint64_t partitions = r.ReadVarint();
  if (!r.ok() || partitions > data.size()) {
    return Status::Corruption("segment header");
  }

  Staging staging;
  std::vector<ColumnIndexEntry> entries;
  for (uint64_t p = 0; p < partitions; ++p) {
    const auto key_bytes = r.ReadBytesView();
    const std::string_view key(reinterpret_cast<const char*>(key_bytes.data()),
                               key_bytes.size());
    PartitionMeta meta;
    meta.first_block = static_cast<uint32_t>(r.ReadVarint());
    meta.block_count = static_cast<uint32_t>(r.ReadVarint());
    meta.column_count = r.ReadVarint();
    meta.encoded_bytes = r.ReadVarint();
    meta.has_column_index = r.ReadU8() == 1;
    const uint64_t index_entries = r.ReadVarint();
    if (!r.ok() || index_entries > data.size()) {
      return Status::Corruption("segment directory");
    }
    entries.clear();
    for (uint64_t e = 0; e < index_entries; ++e) {
      ColumnIndexEntry entry;
      entry.first_clustering = r.ReadVarint();
      entry.last_clustering = r.ReadVarint();
      entry.block = static_cast<uint32_t>(r.ReadVarint());
      entries.push_back(entry);
    }
    if (!staging.records.empty() && !(staging.last_key() < key)) {
      return Status::Corruption("segment directory out of order");
    }
    staging.AddRecord(key, meta, entries);
  }
  const uint64_t block_count = r.ReadVarint();
  if (!r.ok() || block_count > data.size()) {
    return Status::Corruption("segment block table");
  }
  std::vector<std::span<const std::byte>> blocks;
  blocks.reserve(block_count);
  for (uint64_t b = 0; b < block_count; ++b) {
    blocks.push_back(r.ReadBytesView());
  }
  for (uint64_t b = 0; b < block_count; ++b) {
    const uint64_t checksum = r.ReadU64();
    if (!r.ok() || Fnv1a64(blocks[b]) != checksum) {
      return Status::Corruption("segment block checksum mismatch");
    }
    staging.AddBlock(blocks[b], checksum);
  }
  if (!r.AtEnd()) return Status::Corruption("segment trailing bytes");
  // Validate directory block ranges against the block table.
  for (const PartitionMeta& meta : staging.records.view()) {
    if (static_cast<uint64_t>(meta.first_block) + meta.block_count >
        block_count) {
      return Status::Corruption("segment directory out of range");
    }
  }
  for (const ColumnIndexEntry& entry : staging.index.view()) {
    if (entry.block >= block_count) {
      return Status::Corruption("segment column index out of range");
    }
  }
  return Seal(id, options, std::move(staging));
}

void Segment::FlipBlockBitForFaultInjection(uint32_t block_no,
                                            uint64_t bit_index) {
  KV_CHECK(block_no < block_count());
  const std::span<const std::byte> block = BlockBytes(block_no);
  KV_CHECK(!block.empty());
  const uint64_t bit = bit_index % (block.size() * 8);
  // The image is this segment's own writable mapping.
  std::byte* bytes = image_.data() + (block.data() - image_.data());
  bytes[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
}

Result<BlockHandle> Segment::ReadBlock(uint32_t block_no, CacheRef cache,
                                      ReadProbe* probe) const {
  KV_CHECK(block_no < block_count());
  const BlockKey key{cache.table_id, id_, block_no};
  if (cache.cache != nullptr) {
    if (BlockHandle cached = cache.cache->Lookup(key)) {
      if (probe != nullptr) ++probe->blocks_from_cache;
      return cached;
    }
  }
  const std::span<const std::byte> bytes = BlockBytes(block_no);
  if (Fnv1a64(bytes) != block_checksums_[block_no]) {
    return Status::Corruption("segment " + std::to_string(id_) + " block " +
                              std::to_string(block_no) +
                              " checksum mismatch");
  }
  auto decoded = DecodeColumns(bytes);
  if (!decoded.ok()) return decoded.status();
  if (probe != nullptr) {
    ++probe->blocks_decoded;
    probe->bytes_decoded += bytes.size();
  }
  BlockHandle block = std::make_shared<const std::vector<Column>>(
      std::move(decoded).value());
  if (cache.cache != nullptr) cache.cache->Insert(key, block);
  return block;
}

Result<std::vector<BlockHandle>> Segment::ReadBlocks(
    std::string_view partition_key, uint64_t lo, uint64_t hi, CacheRef cache,
    ReadProbe* probe) const {
  const PartitionMeta* meta = FindMeta(partition_key);
  if (meta == nullptr) {
    return Status::NotFound(std::string(partition_key));
  }
  return ReadBlocks(*meta, lo, hi, cache, probe);
}

Result<std::vector<BlockHandle>> Segment::ReadBlocks(const PartitionMeta& meta,
                                                     uint64_t lo, uint64_t hi,
                                                     CacheRef cache,
                                                     ReadProbe* probe) const {
  if (lo > hi) return Status::InvalidArgument("slice lo > hi");
  std::vector<BlockHandle> out;
  auto read = [&](uint32_t block_no) -> Status {
    auto block = ReadBlock(block_no, cache, probe);
    if (!block.ok()) return block.status();
    out.push_back(std::move(block).value());
    return Status::Ok();
  };
  const bool whole_partition = lo == 0 && hi == UINT64_MAX;
  if (meta.has_column_index && !whole_partition) {
    // Indexed partition: binary-search the column index, read only the
    // blocks overlapping [lo, hi].
    if (probe != nullptr) ++probe->index_probes;
    const auto index = ColumnIndex(meta);
    auto first = std::lower_bound(index.begin(), index.end(), lo,
                                  [](const ColumnIndexEntry& e, uint64_t v) {
                                    return e.last_clustering < v;
                                  });
    for (auto it = first; it != index.end() && it->first_clustering <= hi;
         ++it) {
      KV_RETURN_IF_ERROR(read(it->block));
    }
  } else {
    // A whole-partition read, or an unindexed (< 64 KB) partition:
    // every block must be decoded.
    for (uint32_t b = meta.first_block; b < meta.first_block + meta.block_count;
         ++b) {
      KV_RETURN_IF_ERROR(read(b));
    }
  }
  if (probe != nullptr) {
    for (const BlockHandle& block : out) {
      const auto by_clustering = [](const Column& c, uint64_t v) {
        return c.clustering < v;
      };
      const auto first =
          std::lower_bound(block->begin(), block->end(), lo, by_clustering);
      const auto last = std::upper_bound(
          first, block->end(), hi,
          [](uint64_t v, const Column& c) { return v < c.clustering; });
      probe->columns_returned += static_cast<uint64_t>(last - first);
    }
  }
  return out;
}

}  // namespace kvscale
