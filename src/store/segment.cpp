#include "store/segment.hpp"

#include <algorithm>

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

Segment::Writer::Writer(uint64_t segment_id, const SegmentOptions& options) {
  KV_CHECK(options.block_size > 0);
  // Private constructor: cannot use make_shared. The bloom filter is
  // rebuilt in Finish, once the partition count is known.
  segment_.reset(new Segment(segment_id, options, 1));
}

void Segment::Writer::Add(std::string_view key,
                          std::span<const Column* const> columns) {
  KV_CHECK(segment_ != nullptr);
  KV_CHECK(segment_->directory_.empty() ||
           segment_->directory_.back().first < key);
  KV_CHECK(std::is_sorted(columns.begin(), columns.end(),
                          [](const Column* a, const Column* b) {
                            return a->clustering < b->clustering;
                          }));
  segment_->AddPartition(key, columns);
}

std::shared_ptr<const Segment> Segment::Writer::Finish() {
  KV_CHECK(segment_ != nullptr);
  Segment& segment = *segment_;
  segment.directory_.shrink_to_fit();
  segment.bloom_ = BloomFilter(std::max<size_t>(segment.directory_.size(), 1),
                               segment.options_.bloom_fp_rate);
  for (const auto& [key, meta] : segment.directory_) segment.bloom_.Add(key);
  return std::move(segment_);
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

void Segment::AddPartition(std::string_view key,
                           std::span<const Column* const> columns) {
  if (columns.empty()) return;

  PartitionMeta meta;
  meta.first_block = static_cast<uint32_t>(blocks_.size());
  meta.column_count = columns.size();

  // Pack columns into blocks of at most block_size encoded bytes.
  size_t pending_begin = 0;
  size_t pending_bytes = 0;
  std::vector<ColumnIndexEntry> index;
  auto flush_block = [&](size_t pending_end) {
    if (pending_end == pending_begin) return;
    const auto pending =
        columns.subspan(pending_begin, pending_end - pending_begin);
    WireBuffer buf;
    EncodeColumnRefs(pending, buf);
    ColumnIndexEntry entry;
    entry.first_clustering = pending.front()->clustering;
    entry.last_clustering = pending.back()->clustering;
    entry.block = static_cast<uint32_t>(blocks_.size());
    index.push_back(entry);
    auto span = buf.data();
    blocks_.emplace_back(span.begin(), span.end());
    block_checksums_.push_back(Fnv1a64(blocks_.back()));
    meta.encoded_bytes += blocks_.back().size();
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

  meta.block_count = static_cast<uint32_t>(blocks_.size()) - meta.first_block;
  // Cassandra's column_index_size_in_kb rule: only partitions larger than
  // the threshold carry a column index.
  meta.has_column_index = meta.encoded_bytes > options_.column_index_threshold;
  if (meta.has_column_index) meta.column_index = std::move(index);

  total_columns_ += meta.column_count;
  total_bytes_ += meta.encoded_bytes;
  directory_.emplace_back(std::string(key), std::move(meta));
}

bool Segment::MayContain(std::string_view partition_key) const {
  return bloom_.MayContain(partition_key);
}

bool Segment::HasPartition(std::string_view partition_key) const {
  return FindMeta(partition_key) != nullptr;
}

const Segment::PartitionMeta* Segment::FindMeta(
    std::string_view partition_key) const {
  auto it = std::lower_bound(
      directory_.begin(), directory_.end(), partition_key,
      [](const auto& entry, std::string_view key) { return entry.first < key; });
  return it == directory_.end() || it->first != partition_key ? nullptr
                                                              : &it->second;
}

void Segment::SerializeTo(WireBuffer& out) const {
  out.WriteU64(id_);
  out.WriteVarint(options_.block_size);
  out.WriteVarint(options_.column_index_threshold);
  out.WriteF64(options_.bloom_fp_rate);
  out.WriteVarint(directory_.size());
  for (const auto& [key, meta] : directory_) {
    out.WriteString(key);
    out.WriteVarint(meta.first_block);
    out.WriteVarint(meta.block_count);
    out.WriteVarint(meta.column_count);
    out.WriteVarint(meta.encoded_bytes);
    out.WriteU8(meta.has_column_index ? 1 : 0);
    out.WriteVarint(meta.column_index.size());
    for (const auto& entry : meta.column_index) {
      out.WriteVarint(entry.first_clustering);
      out.WriteVarint(entry.last_clustering);
      out.WriteVarint(entry.block);
    }
  }
  out.WriteVarint(blocks_.size());
  for (const auto& block : blocks_) out.WriteBytes(block);
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

  std::shared_ptr<Segment> segment(
      new Segment(id, options, std::max<size_t>(partitions, 1)));
  for (uint64_t p = 0; p < partitions; ++p) {
    std::string key = r.ReadString();
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
    meta.column_index.reserve(index_entries);
    for (uint64_t e = 0; e < index_entries; ++e) {
      ColumnIndexEntry entry;
      entry.first_clustering = r.ReadVarint();
      entry.last_clustering = r.ReadVarint();
      entry.block = static_cast<uint32_t>(r.ReadVarint());
      meta.column_index.push_back(entry);
    }
    Directory& directory = segment->directory_;
    if (!directory.empty() && !(directory.back().first < key)) {
      return Status::Corruption("segment directory out of order");
    }
    segment->total_columns_ += meta.column_count;
    segment->total_bytes_ += meta.encoded_bytes;
    segment->bloom_.Add(key);
    directory.emplace_back(std::move(key), std::move(meta));
  }
  const uint64_t block_count = r.ReadVarint();
  if (!r.ok() || block_count > data.size()) {
    return Status::Corruption("segment block table");
  }
  segment->blocks_.reserve(block_count);
  for (uint64_t b = 0; b < block_count; ++b) {
    segment->blocks_.push_back(r.ReadBytes());
  }
  segment->block_checksums_.reserve(block_count);
  for (uint64_t b = 0; b < block_count; ++b) {
    const uint64_t checksum = r.ReadU64();
    if (!r.ok() || Fnv1a64(segment->blocks_[b]) != checksum) {
      return Status::Corruption("segment block checksum mismatch");
    }
    segment->block_checksums_.push_back(checksum);
  }
  if (!r.AtEnd()) return Status::Corruption("segment trailing bytes");
  // Validate directory block ranges against the block table.
  for (const auto& [key, meta] : segment->directory_) {
    if (static_cast<uint64_t>(meta.first_block) + meta.block_count >
        segment->blocks_.size()) {
      return Status::Corruption("segment directory out of range");
    }
  }
  return std::shared_ptr<const Segment>(std::move(segment));
}

void Segment::FlipBlockBitForFaultInjection(uint32_t block_no,
                                            uint64_t bit_index) {
  KV_CHECK(block_no < blocks_.size());
  auto& block = blocks_[block_no];
  KV_CHECK(!block.empty());
  const uint64_t bit = bit_index % (block.size() * 8);
  block[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
}

Result<BlockHandle> Segment::ReadBlock(uint32_t block_no, CacheRef cache,
                                      ReadProbe* probe) const {
  KV_CHECK(block_no < blocks_.size());
  const BlockKey key{cache.table_id, id_, block_no};
  if (cache.cache != nullptr) {
    if (BlockHandle cached = cache.cache->Lookup(key)) {
      if (probe != nullptr) ++probe->blocks_from_cache;
      return cached;
    }
  }
  if (Fnv1a64(blocks_[block_no]) != block_checksums_[block_no]) {
    return Status::Corruption("segment " + std::to_string(id_) + " block " +
                              std::to_string(block_no) +
                              " checksum mismatch");
  }
  auto decoded = DecodeColumns(blocks_[block_no]);
  if (!decoded.ok()) return decoded.status();
  if (probe != nullptr) {
    ++probe->blocks_decoded;
    probe->bytes_decoded += blocks_[block_no].size();
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
    const auto& index = meta.column_index;
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
