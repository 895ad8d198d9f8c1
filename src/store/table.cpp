#include "store/table.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <numeric>
#include <set>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "hash/hash.hpp"
#include "store/store_metrics.hpp"

namespace kvscale {

namespace {

using ReadClock = std::chrono::steady_clock;

double ElapsedMicros(ReadClock::time_point since) {
  return std::chrono::duration<double, std::micro>(ReadClock::now() - since)
      .count();
}

/// Per-read telemetry deltas: probes may arrive pre-populated by a
/// caller accumulating across reads, so only the growth since `before`
/// belongs to this read.
ReadProbe ProbeDelta(const ReadProbe& before, const ReadProbe& after) {
  ReadProbe delta;
  delta.segments_consulted = after.segments_consulted - before.segments_consulted;
  delta.bloom_negatives = after.bloom_negatives - before.bloom_negatives;
  delta.index_probes = after.index_probes - before.index_probes;
  delta.blocks_decoded = after.blocks_decoded - before.blocks_decoded;
  delta.blocks_from_cache = after.blocks_from_cache - before.blocks_from_cache;
  delta.bytes_decoded = after.bytes_decoded - before.bytes_decoded;
  delta.columns_returned = after.columns_returned - before.columns_returned;
  return delta;
}

/// One source's sorted run of columns, spread over shared blocks.
class RunCursor {
 public:
  explicit RunCursor(const std::vector<BlockHandle>& blocks)
      : blocks_(&blocks) {
    SkipExhausted();
  }

  /// The current column, or null once the run is exhausted.
  const Column* Peek() const {
    return block_ < blocks_->size() ? &(*(*blocks_)[block_])[index_]
                                    : nullptr;
  }

  void Advance() {
    ++index_;
    SkipExhausted();
  }

 private:
  void SkipExhausted() {
    while (block_ < blocks_->size() && index_ >= (*blocks_)[block_]->size()) {
      ++block_;
      index_ = 0;
    }
  }

  const std::vector<BlockHandle>* blocks_;
  size_t block_ = 0;
  size_t index_ = 0;
};

/// Newest-wins k-way merge of sorted runs (`runs` oldest first): calls
/// `emit(const Column&)` once per clustering key, ascending, with the
/// newest run's cell for that key, tombstones included.
template <typename Emit>
void MergeNewestWins(std::vector<RunCursor>& runs, Emit&& emit) {
  for (;;) {
    const Column* winner = nullptr;
    for (const RunCursor& run : runs) {  // oldest -> newest: ties go newer
      const Column* c = run.Peek();
      if (c != nullptr &&
          (winner == nullptr || c->clustering <= winner->clustering)) {
        winner = c;
      }
    }
    if (winner == nullptr) return;
    emit(*winner);
    const uint64_t clustering = winner->clustering;
    for (RunCursor& run : runs) {
      const Column* c = run.Peek();
      if (c != nullptr && c->clustering == clustering) run.Advance();
    }
  }
}

}  // namespace

Table::Table(std::string name, TableOptions options, BlockCache* cache)
    : name_(std::move(name)),
      options_(options),
      cache_{cache, cache != nullptr ? cache->NewTableId() : 0} {
  if (options_.metrics != nullptr) {
    instruments_ = std::make_unique<StoreInstruments>(
        StoreInstruments::Resolve(*options_.metrics));
  }
}

Table::~Table() = default;

void Table::Put(std::string_view partition_key, Column column) {
  WriterMutexLock lock(mu_);
  memtable_.Put(partition_key, std::move(column));
  ++put_count_;
  if (options_.auto_flush &&
      memtable_.approximate_bytes() >= options_.memtable_flush_bytes) {
    FlushLocked();
  }
}

void Table::FlushLocked() {
  if (memtable_.empty()) return;
  const auto t0 = ReadClock::now();
  segments_.push_back(
      Segment::Build(memtable_, next_segment_id_++, options_.segment));
  memtable_.Clear();
  if (options_.compaction_min_segments > 0) MaybeCompactLocked();
  if (instruments_ != nullptr) {
    instruments_->memtable_flushes->Increment();
    instruments_->flush_latency->Record(ElapsedMicros(t0));
  }
}

Result<std::shared_ptr<const Segment>> Table::MergeSegmentsLocked(
    const std::vector<size_t>& indices, bool purge_tombstones) {
  // A k-way walk over the run's sorted directories: each partition key is
  // written out before the next, so one partition is live at a time. A
  // key only one input holds is copied through as its stored blocks when
  // nothing is purged; any other key is decoded from every input that
  // holds it, merged and re-encoded.
  struct DirectoryCursor {
    const Segment* segment;
    Segment::Directory left;  ///< records not yet merged
  };
  std::vector<DirectoryCursor> cursors;
  cursors.reserve(indices.size());
  for (size_t idx : indices) {  // ascending = oldest first
    cursors.push_back({segments_[idx].get(), segments_[idx]->directory()});
  }
  Segment::Writer writer(next_segment_id_++, options_.segment);
  std::vector<DirectoryCursor*> holders;
  std::vector<std::vector<BlockHandle>> sources;
  std::vector<RunCursor> runs;
  std::vector<const Column*> kept;
  for (;;) {
    // `key` views a segment image, which outlives the merge.
    std::string_view key;
    holders.clear();
    for (DirectoryCursor& c : cursors) {
      if (c.left.empty()) continue;
      const std::string_view k = c.segment->Key(c.left.front());
      if (holders.empty() || k < key) {
        key = k;
        holders.assign(1, &c);
      } else if (k == key) {
        holders.push_back(&c);
      }
    }
    if (holders.empty()) break;
    if (holders.size() == 1 && !purge_tombstones &&
        writer.CanCopyFrom(*holders.front()->segment)) {
      // A checksum mismatch aborts the merge, like a failed decode below.
      KV_RETURN_IF_ERROR(writer.CopyPartition(*holders.front()->segment,
                                              holders.front()->left.front()));
    } else {
      sources.clear();
      for (const DirectoryCursor* c : holders) {
        // Uncached: compaction output replaces these segments' blocks. A
        // copy that fails its checksum aborts the merge: dropping it
        // would let an older value resurface, silently.
        auto blocks = c->segment->ReadBlocks(c->left.front(), 0, UINT64_MAX,
                                             CacheRef{}, nullptr);
        if (!blocks.ok()) return blocks.status();
        sources.push_back(std::move(blocks).value());
      }
      runs.clear();
      for (const auto& source : sources) runs.emplace_back(source);
      kept.clear();
      MergeNewestWins(runs, [&](const Column& column) {
        if (!(purge_tombstones && column.tombstone)) kept.push_back(&column);
      });
      writer.Add(key, kept);
    }
    for (DirectoryCursor* c : holders) c->left = c->left.subspan(1);
  }
  return writer.Finish();
}

void Table::MaybeCompactLocked() {
  // Size-tiered selection restricted to *age-contiguous* runs: without
  // per-cell timestamps, merging non-adjacent segments could promote an
  // old cell past a newer overwrite that sits between them. A contiguous
  // run preserves newer-wins by construction.
  const size_t want = options_.compaction_min_segments;
  if (segments_.size() < want) return;
  for (size_t start = 0; start + want <= segments_.size(); ++start) {
    uint64_t smallest = UINT64_MAX;
    uint64_t largest = 0;
    for (size_t i = start; i < start + want; ++i) {
      const uint64_t bytes = std::max<uint64_t>(
          segments_[i]->encoded_bytes(), 1);
      smallest = std::min(smallest, bytes);
      largest = std::max(largest, bytes);
    }
    if (static_cast<double>(largest) / static_cast<double>(smallest) >
        options_.compaction_size_ratio) {
      continue;
    }

    // Merge the run. Tombstones survive: older data may live in segments
    // outside the run.
    std::vector<size_t> run;
    run.reserve(want);
    for (size_t i = start; i < start + want; ++i) run.push_back(i);
    auto merged = MergeSegmentsLocked(run, /*purge_tombstones=*/false);
    if (!merged.ok()) return;  // corrupt input: reads keep failing loudly
    for (size_t idx : run) EvictFromCache(*segments_[idx]);
    segments_[start] = std::move(merged).value();
    segments_.erase(
        segments_.begin() + static_cast<ptrdiff_t>(start + 1),
        segments_.begin() + static_cast<ptrdiff_t>(start + want));
    ++auto_compactions_;
    if (instruments_ != nullptr) instruments_->compactions->Increment();
    return;  // one run per flush keeps the pause bounded
  }
}

uint64_t Table::CorruptBlocksForFaultInjection(double fraction, Rng& rng) {
  WriterMutexLock lock(mu_);
  uint64_t corrupted = 0;
  bool any_block = false;
  for (auto& segment : segments_) {
    bool touched = false;
    for (uint32_t b = 0; b < segment->block_count(); ++b) {
      any_block = true;
      if (!rng.Chance(fraction)) continue;
      // Segments are shared as immutable; deliberate damage is the one
      // sanctioned exception, applied under the exclusive table lock.
      const_cast<Segment&>(*segment).FlipBlockBitForFaultInjection(
          b, rng.Next());
      ++corrupted;
      touched = true;
    }
    if (touched) EvictFromCache(*segment);
  }
  if (corrupted == 0 && fraction > 0.0 && any_block) {
    // Guarantee at least one casualty so a chaos run always has teeth.
    std::vector<size_t> candidates;
    for (size_t s = 0; s < segments_.size(); ++s) {
      if (segments_[s]->block_count() > 0) candidates.push_back(s);
    }
    auto& segment = segments_[candidates[rng.Below(candidates.size())]];
    const auto block =
        static_cast<uint32_t>(rng.Below(segment->block_count()));
    const_cast<Segment&>(*segment).FlipBlockBitForFaultInjection(block,
                                                                 rng.Next());
    EvictFromCache(*segment);
    corrupted = 1;
  }
  return corrupted;
}

Status Table::CorruptBlockForFaultInjection(size_t segment_index,
                                            uint32_t block_no,
                                            uint64_t bit_index) {
  WriterMutexLock lock(mu_);
  if (segment_index >= segments_.size()) {
    return Status::OutOfRange("segment index " +
                              std::to_string(segment_index));
  }
  auto& segment = segments_[segment_index];
  if (block_no >= segment->block_count()) {
    return Status::OutOfRange("block " + std::to_string(block_no));
  }
  const_cast<Segment&>(*segment).FlipBlockBitForFaultInjection(block_no,
                                                               bit_index);
  EvictFromCache(*segment);
  return Status::Ok();
}

uint64_t Table::auto_compactions() const {
  ReaderMutexLock lock(mu_);
  return auto_compactions_;
}

namespace {
constexpr uint32_t kSnapshotMagic = 0x4b565353;  // "KVSS"
// v2 added per-block checksums to the segment wire format.
constexpr uint32_t kSnapshotVersion = 2;
}  // namespace

Status Table::SaveSnapshot(const std::string& path) {
  WriterMutexLock lock(mu_);
  FlushLocked();

  WireBuffer out;
  out.WriteU32(kSnapshotMagic);
  out.WriteU32(kSnapshotVersion);
  out.WriteString(name_);
  out.WriteVarint(next_segment_id_);
  out.WriteVarint(segments_.size());
  for (const auto& segment : segments_) {
    WireBuffer body;
    segment->SerializeTo(body);
    out.WriteU64(Fnv1a64(body.data()));
    out.WriteBytes(body.data());
  }

  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::Unavailable("cannot create snapshot: " + path);
  }
  const auto data = out.data();
  const bool ok =
      std::fwrite(data.data(), 1, data.size(), file) == data.size();
  const bool closed = std::fclose(file) == 0;
  if (!ok || !closed) {
    return Status::Unavailable("snapshot write failed: " + path);
  }
  return Status::Ok();
}

Status Table::LoadSnapshot(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("snapshot: " + path);
  }
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fseek(file, 0, SEEK_SET);
  std::vector<std::byte> bytes(static_cast<size_t>(std::max(size, 0L)));
  const bool read_ok =
      std::fread(bytes.data(), 1, bytes.size(), file) == bytes.size();
  std::fclose(file);
  if (!read_ok) return Status::Unavailable("snapshot read failed: " + path);

  WireReader r(bytes);
  if (r.ReadU32() != kSnapshotMagic || r.ReadU32() != kSnapshotVersion) {
    return Status::Corruption("snapshot header: " + path);
  }
  // kvscale-lint: allow(discarded-status) stored table name is informational
  (void)r.ReadString();
  const uint64_t next_id = r.ReadVarint();
  const uint64_t segment_count = r.ReadVarint();
  if (!r.ok() || segment_count > bytes.size()) {
    return Status::Corruption("snapshot directory: " + path);
  }
  std::vector<std::shared_ptr<const Segment>> loaded;
  loaded.reserve(segment_count);
  for (uint64_t s = 0; s < segment_count; ++s) {
    const uint64_t checksum = r.ReadU64();
    const std::vector<std::byte> body = r.ReadBytes();
    if (!r.ok()) return Status::Corruption("snapshot truncated: " + path);
    if (Fnv1a64(body) != checksum) {
      return Status::Corruption("snapshot checksum mismatch: " + path);
    }
    auto segment = Segment::Deserialize(body);
    if (!segment.ok()) return segment.status();
    loaded.push_back(std::move(segment).value());
  }

  WriterMutexLock lock(mu_);
  for (const auto& segment : segments_) EvictFromCache(*segment);
  memtable_.Clear();
  segments_ = std::move(loaded);
  next_segment_id_ = std::max<uint64_t>(next_id, 1);
  return Status::Ok();
}

void Table::Flush() {
  WriterMutexLock lock(mu_);
  FlushLocked();
}

void Table::Delete(std::string_view partition_key, uint64_t clustering) {
  Put(partition_key, Column::Tombstone(clustering));
}

void Table::EvictFromCache(const Segment& segment) const {
  if (cache_.cache != nullptr) {
    cache_.cache->EraseSegment(cache_.table_id, segment.id());
  }
}

std::vector<Column> ColumnView::ToVector() const {
  std::vector<Column> out;
  ForEach([&out](const Column& column) {
    out.push_back(column);
    return true;
  });
  return out;
}

std::vector<std::pair<uint32_t, uint64_t>> ColumnView::CountTypes() const {
  // Type ids are small in practice: they are counted in a flat array,
  // any larger id in a map. A sorted vector or a map for every id costs
  // more than the read itself (branchy searches, one node per type).
  constexpr uint32_t kDirectTypes = 64;
  std::array<uint64_t, kDirectTypes> direct{};
  std::map<uint32_t, uint64_t> larger;
  ForEach([&](const Column& column) {
    if (column.type_id < kDirectTypes) {
      ++direct[column.type_id];
    } else {
      ++larger[column.type_id];
    }
    return true;
  });
  std::vector<std::pair<uint32_t, uint64_t>> counts;
  for (uint32_t type = 0; type < kDirectTypes; ++type) {
    if (direct[type] > 0) counts.emplace_back(type, direct[type]);
  }
  counts.insert(counts.end(), larger.begin(), larger.end());
  return counts;
}

Result<ColumnView> Table::Read(std::string_view partition_key, uint64_t lo,
                               uint64_t hi, ReadProbe* probe) const {
  if (instruments_ == nullptr) {
    return ReadUninstrumented(partition_key, lo, hi, probe);
  }
  ReadProbe local;
  ReadProbe* target = probe != nullptr ? probe : &local;
  const ReadProbe before = *target;
  const auto t0 = ReadClock::now();
  auto result = ReadUninstrumented(partition_key, lo, hi, target);
  instruments_->RecordRead(ProbeDelta(before, *target), ElapsedMicros(t0));
  if (!result.ok() && result.status().code() == StatusCode::kCorruption) {
    instruments_->corruption_errors->Increment();
  }
  return result;
}

Result<ColumnView> Table::ReadUninstrumented(std::string_view partition_key,
                                             uint64_t lo, uint64_t hi,
                                             ReadProbe* probe) const {
  if (lo > hi) return Status::InvalidArgument("slice lo > hi");
  ReaderMutexLock lock(mu_);
  std::vector<std::vector<BlockHandle>> sources;  // oldest -> newest
  for (const auto& segment : segments_) {
    if (!segment->MayContain(partition_key)) {
      if (probe != nullptr) ++probe->bloom_negatives;
      continue;
    }
    if (probe != nullptr) ++probe->segments_consulted;
    auto blocks = segment->ReadBlocks(partition_key, lo, hi, cache_, probe);
    if (!blocks.ok()) {
      if (blocks.status().code() == StatusCode::kNotFound) continue;  // bloom FP
      return blocks.status();
    }
    sources.push_back(std::move(blocks).value());
  }
  const bool in_memtable = memtable_.Contains(partition_key);
  if (sources.empty() && !in_memtable) {
    return Status::NotFound(std::string(partition_key));
  }

  ColumnView view(lo, hi);
  if (sources.size() == 1 && !in_memtable) {
    // One segment holds every copy: nothing to shadow, read in place.
    view.blocks_ = std::move(sources.front());
    return view;
  }
  if (in_memtable) {
    sources.push_back({std::make_shared<const std::vector<Column>>(
        memtable_.Slice(partition_key, lo, hi))});
  }
  std::vector<RunCursor> runs;
  runs.reserve(sources.size());
  for (const auto& source : sources) runs.emplace_back(source);
  auto merged = std::make_shared<std::vector<Column>>();
  MergeNewestWins(runs, [&](const Column& column) {
    if (!column.tombstone && column.clustering >= lo &&
        column.clustering <= hi) {
      merged->push_back(column);
    }
  });
  view.blocks_.push_back(std::move(merged));
  return view;
}

Result<std::vector<Column>> Table::GetPartition(std::string_view partition_key,
                                                ReadProbe* probe) const {
  return Slice(partition_key, 0, UINT64_MAX, probe);
}

Result<std::vector<Column>> Table::Slice(std::string_view partition_key,
                                         uint64_t lo, uint64_t hi,
                                         ReadProbe* probe) const {
  auto view = Read(partition_key, lo, hi, probe);
  if (!view.ok()) return view.status();
  return view.value().ToVector();
}

Result<TypeCounts> Table::CountByType(std::string_view partition_key,
                                      ReadProbe* probe) const {
  auto view = Read(partition_key, 0, UINT64_MAX, probe);
  if (!view.ok()) return view.status();
  const auto counts = view.value().CountTypes();
  return TypeCounts(counts.begin(), counts.end());
}

Result<std::vector<Column>> Table::ScanRange(std::string_view partition_key,
                                             uint64_t lo, uint64_t hi,
                                             uint32_t limit,
                                             ReadProbe* probe) const {
  auto view = Read(partition_key, lo, hi, probe);
  if (!view.ok()) return view.status();
  // Ascending order, so the first `limit` rows are the range's smallest —
  // exactly what a bounded forward scan keeps.
  std::vector<Column> out;
  view.value().ForEach([&](const Column& column) {
    out.push_back(column);
    return limit == 0 || out.size() < limit;
  });
  return out;
}

Result<std::vector<Column>> Table::TopKByClustering(
    std::string_view partition_key, uint32_t k, ReadProbe* probe) const {
  if (k == 0) return Status::InvalidArgument("top-k with k == 0");
  auto view = Read(partition_key, 0, UINT64_MAX, probe);
  if (!view.ok()) return view.status();
  std::vector<Column> out;
  view.value().ForEachDescending([&](const Column& column) {
    out.push_back(column);
    return out.size() < k;
  });
  return out;
}

bool Table::HasPartition(std::string_view partition_key) const {
  ReaderMutexLock lock(mu_);
  if (memtable_.Contains(partition_key)) return true;
  for (const auto& segment : segments_) {
    if (segment->HasPartition(partition_key)) return true;
  }
  return false;
}

void Table::Compact() {
  WriterMutexLock lock(mu_);
  FlushLocked();
  if (segments_.empty()) return;

  // A full compaction sees every copy, so tombstones (and what they
  // shadow) are purged for good and fully deleted partitions disappear.
  std::vector<size_t> all(segments_.size());
  std::iota(all.begin(), all.end(), size_t{0});
  auto merged = MergeSegmentsLocked(all, /*purge_tombstones=*/true);
  if (!merged.ok()) return;  // corrupt input: reads keep failing loudly
  for (const auto& segment : segments_) EvictFromCache(*segment);
  segments_.clear();
  if (merged.value()->partition_count() > 0) {
    segments_.push_back(std::move(merged).value());
  }
  if (instruments_ != nullptr) instruments_->compactions->Increment();
}

size_t Table::segment_count() const {
  ReaderMutexLock lock(mu_);
  return segments_.size();
}

size_t Table::memtable_bytes() const {
  ReaderMutexLock lock(mu_);
  return memtable_.approximate_bytes();
}

uint64_t Table::column_count() const {
  ReaderMutexLock lock(mu_);
  uint64_t total = memtable_.column_count();
  for (const auto& segment : segments_) total += segment->column_count();
  return total;  // note: counts duplicates across segments until compaction
}

uint64_t Table::put_count() const {
  ReaderMutexLock lock(mu_);
  return put_count_;
}

std::vector<std::string> Table::PartitionKeys() const {
  ReaderMutexLock lock(mu_);
  std::set<std::string> keys;
  for (auto& key : memtable_.PartitionKeys()) keys.insert(std::move(key));
  for (const auto& segment : segments_) {
    for (const auto& meta : segment->directory()) {
      keys.emplace(segment->Key(meta));
    }
  }
  return {keys.begin(), keys.end()};
}

uint64_t Table::PartitionEncodedBytes(std::string_view partition_key) const {
  ReaderMutexLock lock(mu_);
  uint64_t bytes = 0;
  for (const auto& segment : segments_) {
    if (const auto* meta = segment->FindMeta(partition_key)) {
      bytes += meta->encoded_bytes;
    }
  }
  return bytes;
}

}  // namespace kvscale
