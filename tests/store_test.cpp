// Tests for src/store: memtable, bloom, segments (column-index threshold),
// block cache, table read/write/flush/compact paths.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "store/block_cache.hpp"
#include "store/bloom.hpp"
#include "store/local_store.hpp"
#include "store/memtable.hpp"
#include "store/row.hpp"
#include "store/segment.hpp"
#include "store/table.hpp"

namespace kvscale {
namespace {

Column MakeColumn(uint64_t clustering, uint32_t type, size_t payload = 30) {
  Column c;
  c.clustering = clustering;
  c.type_id = type;
  c.payload = MakePayload(1, clustering, payload);
  return c;
}

TEST(RowCodecTest, EncodeDecodeRoundTrip) {
  std::vector<Column> cols;
  for (uint64_t i = 0; i < 100; ++i) cols.push_back(MakeColumn(i * 3, i % 5));
  WireBuffer buf;
  EncodeColumns(cols, buf);
  auto decoded = DecodeColumns(buf.data());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), cols);
}

TEST(RowCodecTest, RejectsCorruptedCount) {
  WireBuffer buf;
  buf.WriteVarint(1000000);  // claims a million columns in 2 bytes
  auto decoded = DecodeColumns(buf.data());
  EXPECT_FALSE(decoded.ok());
}

TEST(RowCodecTest, EmptyRoundTrip) {
  WireBuffer buf;
  EncodeColumns({}, buf);
  auto decoded = DecodeColumns(buf.data());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(MemtableTest, PutGetSorted) {
  Memtable mt;
  mt.Put("p1", MakeColumn(5, 0));
  mt.Put("p1", MakeColumn(1, 1));
  mt.Put("p1", MakeColumn(3, 2));
  const auto cols = mt.Slice("p1", 0, UINT64_MAX);
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_EQ(cols[0].clustering, 1u);
  EXPECT_EQ(cols[1].clustering, 3u);
  EXPECT_EQ(cols[2].clustering, 5u);
  EXPECT_TRUE(mt.Slice("absent", 0, UINT64_MAX).empty());
}

TEST(MemtableTest, OverwriteKeepsSingleColumn) {
  Memtable mt;
  mt.Put("p", MakeColumn(1, 0));
  mt.Put("p", MakeColumn(1, 9));
  const auto cols = mt.Slice("p", 0, UINT64_MAX);
  ASSERT_EQ(cols.size(), 1u);
  EXPECT_EQ(cols[0].type_id, 9u);
  EXPECT_EQ(mt.column_count(), 1u);
}

TEST(MemtableTest, SliceBounds) {
  Memtable mt;
  for (uint64_t i = 0; i < 10; ++i) mt.Put("p", MakeColumn(i * 10, 0));
  const auto cols = mt.Slice("p", 25, 60);
  ASSERT_EQ(cols.size(), 4u);  // 30, 40, 50, 60
  EXPECT_EQ(cols.front().clustering, 30u);
  EXPECT_EQ(cols.back().clustering, 60u);
}

TEST(MemtableTest, ApproximateBytesGrowsAndClears) {
  Memtable mt;
  EXPECT_EQ(mt.approximate_bytes(), 0u);
  mt.Put("p", MakeColumn(1, 0));
  const size_t one = mt.approximate_bytes();
  EXPECT_GT(one, 0u);
  mt.Put("p", MakeColumn(2, 0));
  EXPECT_GT(mt.approximate_bytes(), one);
  mt.Clear();
  EXPECT_EQ(mt.approximate_bytes(), 0u);
  EXPECT_TRUE(mt.empty());
}

TEST(BloomFilterTest, NoFalseNegativesEver) {
  BloomFilter bloom(1000, 0.01);
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) keys.push_back("key-" + std::to_string(i));
  for (const auto& k : keys) bloom.Add(k);
  for (const auto& k : keys) EXPECT_TRUE(bloom.MayContain(k)) << k;
}

TEST(BloomFilterTest, FalsePositiveRateNearTarget) {
  BloomFilter bloom(5000, 0.01);
  for (int i = 0; i < 5000; ++i) bloom.Add("present-" + std::to_string(i));
  std::vector<std::string> absent;
  for (int i = 0; i < 20000; ++i) absent.push_back("absent-" + std::to_string(i));
  const double fp = bloom.MeasureFpRate(absent);
  EXPECT_LT(fp, 0.03);
}

TEST(BloomFilterTest, SizingScalesWithItems) {
  BloomFilter small(100, 0.01), large(10000, 0.01);
  EXPECT_GT(large.memory_bytes(), small.memory_bytes());
  EXPECT_GE(small.hash_count(), 1u);
}

SegmentOptions SmallBlockOptions() {
  SegmentOptions opt;
  opt.block_size = 1024;             // force multi-block partitions
  opt.column_index_threshold = 4096; // and a low index threshold
  return opt;
}

/// The columns of `key` with clustering in [lo, hi], read block by block
/// from `segment` without a cache.
Result<std::vector<Column>> SegmentSlice(const Segment& segment,
                                         std::string_view key, uint64_t lo,
                                         uint64_t hi, ReadProbe* probe) {
  auto blocks = segment.ReadBlocks(key, lo, hi, CacheRef{}, probe);
  if (!blocks.ok()) return blocks.status();
  std::vector<Column> out;
  for (const BlockHandle& block : blocks.value()) {
    for (const Column& c : *block) {
      if (c.clustering >= lo && c.clustering <= hi) out.push_back(c);
    }
  }
  return out;
}

TEST(SegmentTest, GetPartitionReturnsAllColumns) {
  Memtable mt;
  for (uint64_t i = 0; i < 200; ++i) mt.Put("p1", MakeColumn(i, i % 4));
  auto segment = Segment::Build(mt, 1, SmallBlockOptions());
  ReadProbe probe;
  auto cols = SegmentSlice(*segment, "p1", 0, UINT64_MAX, &probe);
  ASSERT_TRUE(cols.ok());
  EXPECT_EQ(cols.value().size(), 200u);
  EXPECT_GT(probe.blocks_decoded, 1u);  // small blocks => several decodes
  EXPECT_EQ(probe.columns_returned, 200u);
  EXPECT_EQ(SegmentSlice(*segment, "absent", 0, UINT64_MAX, nullptr)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(SegmentTest, ColumnIndexOnlyAboveThreshold) {
  // This is the Cassandra column_index_size_in_kb behaviour behind the
  // paper's Figure 6 discontinuity.
  Memtable mt;
  for (uint64_t i = 0; i < 50; ++i) mt.Put("small", MakeColumn(i, 0));
  for (uint64_t i = 0; i < 500; ++i) mt.Put("big", MakeColumn(i, 0));
  auto segment = Segment::Build(mt, 1, SmallBlockOptions());
  const auto* small_meta = segment->FindMeta("small");
  const auto* big_meta = segment->FindMeta("big");
  ASSERT_NE(small_meta, nullptr);
  ASSERT_NE(big_meta, nullptr);
  EXPECT_FALSE(small_meta->has_column_index);
  EXPECT_TRUE(big_meta->has_column_index);
  EXPECT_EQ(segment->ColumnIndex(*big_meta).size(), big_meta->block_count);
}

TEST(SegmentTest, IndexedSliceDecodesFewerBlocks) {
  Memtable mt;
  for (uint64_t i = 0; i < 1000; ++i) mt.Put("big", MakeColumn(i, 0));
  auto segment = Segment::Build(mt, 1, SmallBlockOptions());
  ASSERT_TRUE(segment->FindMeta("big")->has_column_index);

  ReadProbe narrow_probe;
  auto narrow = SegmentSlice(*segment, "big", 10, 20, &narrow_probe);
  ASSERT_TRUE(narrow.ok());
  EXPECT_EQ(narrow.value().size(), 11u);
  EXPECT_EQ(narrow_probe.index_probes, 1u);
  EXPECT_LT(narrow_probe.blocks_decoded,
            segment->FindMeta("big")->block_count);
}

TEST(SegmentTest, UnindexedSliceDecodesAllBlocks) {
  SegmentOptions opt;
  opt.block_size = 512;
  opt.column_index_threshold = 1 * kMiB;  // nothing gets indexed
  Memtable mt;
  for (uint64_t i = 0; i < 300; ++i) mt.Put("p", MakeColumn(i, 0));
  auto segment = Segment::Build(mt, 1, opt);
  const auto* meta = segment->FindMeta("p");
  ASSERT_FALSE(meta->has_column_index);
  ReadProbe probe;
  auto narrow = SegmentSlice(*segment, "p", 5, 6, &probe);
  ASSERT_TRUE(narrow.ok());
  EXPECT_EQ(narrow.value().size(), 2u);
  // The whole partition had to be decoded despite the tiny slice.
  EXPECT_EQ(probe.blocks_decoded, meta->block_count);
  EXPECT_EQ(probe.index_probes, 0u);
}

TEST(SegmentTest, BlocksRespectSizeLimit) {
  Memtable mt;
  for (uint64_t i = 0; i < 2000; ++i) mt.Put("p", MakeColumn(i, 0, 60));
  SegmentOptions opt;
  opt.block_size = 2048;
  auto segment = Segment::Build(mt, 1, opt);
  const auto* meta = segment->FindMeta("p");
  // Each column encodes to ~77 bytes; blocks must hold at most ~26 each.
  EXPECT_GT(meta->block_count, 2000u * 70 / 2048 / 2);
}

TEST(SegmentTest, BloomSkipsAbsentPartitions) {
  Memtable mt;
  for (int p = 0; p < 50; ++p) {
    mt.Put("part-" + std::to_string(p), MakeColumn(1, 0));
  }
  auto segment = Segment::Build(mt, 1, SegmentOptions{});
  for (int p = 0; p < 50; ++p) {
    EXPECT_TRUE(segment->MayContain("part-" + std::to_string(p)));
  }
  int false_positives = 0;
  for (int p = 0; p < 2000; ++p) {
    false_positives += segment->MayContain("nope-" + std::to_string(p));
  }
  EXPECT_LT(false_positives, 2000 * 0.05);
}

TEST(SegmentTest, FootprintStaysWithin96BytesPerPartition) {
  // The ingest writer's shape: 17-character keys, 8 small columns each.
  constexpr size_t kPartitions = 10000;
  Memtable mt;
  char key[32];
  for (size_t p = 0; p < kPartitions; ++p) {
    std::snprintf(key, sizeof(key), "writer-%010zu", p);
    for (uint64_t c = 0; c < 8; ++c) mt.Put(key, MakeColumn(c, c % 3));
  }
  auto segment = Segment::Build(mt, 1, SegmentOptions{});
  ASSERT_EQ(segment->partition_count(), kPartitions);
  EXPECT_LE(segment->footprint_bytes(),
            segment->encoded_bytes() + 96 * kPartitions);
  EXPECT_GE(segment->footprint_bytes(), segment->encoded_bytes());
}

/// Partitions of every shape a copy can meet: one small block, several
/// indexed blocks, tombstones.
Memtable MixedMemtable() {
  Memtable mt;
  for (uint64_t i = 0; i < 20; ++i) mt.Put("a-small", MakeColumn(i, i % 3));
  for (uint64_t i = 0; i < 600; ++i) mt.Put("b-big", MakeColumn(i, i % 5));
  for (uint64_t i = 0; i < 30; ++i) mt.Put("c-graves", MakeColumn(i, 1));
  for (uint64_t i = 0; i < 30; i += 3) {
    mt.Put("c-graves", Column::Tombstone(i));
  }
  return mt;
}

std::vector<std::byte> Serialized(const Segment& segment) {
  WireBuffer out;
  segment.SerializeTo(out);
  return {out.data().begin(), out.data().end()};
}

TEST(SegmentTest, CopyThroughMatchesDecodeAndReencode) {
  auto source = Segment::Build(MixedMemtable(), 1, SmallBlockOptions());
  ASSERT_TRUE(source->FindMeta("b-big")->has_column_index);
  Segment::Writer copied(2, SmallBlockOptions());
  Segment::Writer reencoded(2, SmallBlockOptions());
  ASSERT_TRUE(copied.CanCopyFrom(*source));
  for (const auto& meta : source->directory()) {
    ASSERT_TRUE(copied.CopyPartition(*source, meta).ok());
    auto blocks = source->ReadBlocks(meta, 0, UINT64_MAX, CacheRef{}, nullptr);
    ASSERT_TRUE(blocks.ok());
    std::vector<const Column*> columns;
    for (const BlockHandle& block : blocks.value()) {
      for (const Column& c : *block) columns.push_back(&c);
    }
    reencoded.Add(source->Key(meta), columns);
  }
  const auto a = copied.Finish();
  const auto b = reencoded.Finish();
  EXPECT_EQ(Serialized(*a), Serialized(*b));
  // Other packing knobs would re-encode differently: no copy then.
  SegmentOptions other = SmallBlockOptions();
  other.block_size *= 2;
  EXPECT_FALSE(Segment::Writer(3, other).CanCopyFrom(*source));
}

TEST(SegmentTest, CopyOfACorruptBlockFailsAndAppendsNothing) {
  auto built = Segment::Build(MixedMemtable(), 1, SmallBlockOptions());
  const auto* meta = built->FindMeta("b-big");
  ASSERT_NE(meta, nullptr);
  const_cast<Segment&>(*built).FlipBlockBitForFaultInjection(
      meta->first_block + 1, 5);
  Segment::Writer writer(2, SmallBlockOptions());
  EXPECT_EQ(writer.CopyPartition(*built, *meta).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(writer.Finish()->partition_count(), 0u);
}

TEST(SegmentTest, SerializeRoundTripIsByteIdentical) {
  auto built = Segment::Build(MixedMemtable(), 7, SmallBlockOptions());
  const std::vector<std::byte> bytes = Serialized(*built);
  auto restored = Segment::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(Serialized(*restored.value()), bytes);
  EXPECT_EQ(restored.value()->footprint_bytes(), built->footprint_bytes());
}

BlockHandle MakeBlock(std::vector<Column> columns) {
  return std::make_shared<const std::vector<Column>>(std::move(columns));
}

TEST(BlockCacheTest, HitAfterInsert) {
  BlockCache cache(1 * kMiB);
  const BlockHandle block = MakeBlock({MakeColumn(1, 0), MakeColumn(2, 1)});
  cache.Insert({1, 7, 0}, block);
  const BlockHandle hit = cache.Lookup({1, 7, 0});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), block.get());  // shared, not copied
  EXPECT_EQ(cache.Lookup({1, 7, 1}), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);
}

TEST(BlockCacheTest, EvictsLeastRecentlyUsed) {
  BlockCache cache(640);  // fits two ~300-byte blocks, not three
  const BlockHandle block = MakeBlock({MakeColumn(1, 0, 200)});
  cache.Insert({1, 1, 0}, block);
  cache.Insert({1, 1, 1}, block);
  ASSERT_NE(cache.Lookup({1, 1, 0}), nullptr);  // promote block 0
  cache.Insert({1, 1, 2}, block);               // must evict block 1
  EXPECT_NE(cache.Lookup({1, 1, 0}), nullptr);
  EXPECT_EQ(cache.Lookup({1, 1, 1}), nullptr);
  EXPECT_NE(cache.Lookup({1, 1, 2}), nullptr);
}

TEST(BlockCacheTest, OversizedBlockNotCached) {
  BlockCache cache(100);
  std::vector<Column> huge;
  for (int i = 0; i < 100; ++i) huge.push_back(MakeColumn(i, 0, 100));
  cache.Insert({1, 1, 0}, MakeBlock(std::move(huge)));
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(BlockCacheTest, EraseSegmentDropsOnlyThatSegment) {
  BlockCache cache(1 * kMiB);
  const BlockHandle block = MakeBlock({MakeColumn(1, 0)});
  cache.Insert({1, 1, 0}, block);
  cache.Insert({1, 2, 0}, block);
  cache.Insert({2, 1, 0}, block);  // another table's segment 1
  cache.EraseSegment(1, 1);
  EXPECT_EQ(cache.Lookup({1, 1, 0}), nullptr);
  EXPECT_NE(cache.Lookup({1, 2, 0}), nullptr);
  EXPECT_NE(cache.Lookup({2, 1, 0}), nullptr);
}

TEST(BlockCacheTest, EvictedHandleStaysReadable) {
  BlockCache cache(640);
  const BlockHandle held = MakeBlock({MakeColumn(1, 3, 200)});
  cache.Insert({1, 1, 0}, held);
  cache.Insert({1, 1, 1}, MakeBlock({MakeColumn(2, 0, 200)}));
  cache.Insert({1, 1, 2}, MakeBlock({MakeColumn(3, 0, 200)}));  // evicts 0
  EXPECT_EQ(cache.Lookup({1, 1, 0}), nullptr);
  ASSERT_EQ(held->size(), 1u);
  EXPECT_EQ((*held)[0].type_id, 3u);
}

TableOptions SmallTableOptions() {
  TableOptions opt;
  opt.segment = SegmentOptions{};
  opt.memtable_flush_bytes = 16 * kKiB;
  // These tests assert exact segment counts: keep compaction manual.
  opt.compaction_min_segments = 0;
  return opt;
}

TEST(TableTest, ReadYourWritesAcrossFlush) {
  Table table("t", SmallTableOptions(), nullptr);
  for (uint64_t i = 0; i < 100; ++i) table.Put("p", MakeColumn(i, i % 3));
  table.Flush();
  for (uint64_t i = 100; i < 150; ++i) table.Put("p", MakeColumn(i, i % 3));

  auto cols = table.GetPartition("p");
  ASSERT_TRUE(cols.ok());
  EXPECT_EQ(cols.value().size(), 150u);
  for (size_t i = 1; i < cols.value().size(); ++i) {
    EXPECT_LT(cols.value()[i - 1].clustering, cols.value()[i].clustering);
  }
}

TEST(TableTest, NewestWriteWinsAcrossSegments) {
  Table table("t", SmallTableOptions(), nullptr);
  table.Put("p", MakeColumn(7, 1));
  table.Flush();
  table.Put("p", MakeColumn(7, 2));
  table.Flush();
  table.Put("p", MakeColumn(7, 3));  // stays in memtable
  auto cols = table.GetPartition("p");
  ASSERT_TRUE(cols.ok());
  ASSERT_EQ(cols.value().size(), 1u);
  EXPECT_EQ(cols.value()[0].type_id, 3u);
}

TEST(TableTest, AutoFlushCreatesSegments) {
  TableOptions opt = SmallTableOptions();
  opt.memtable_flush_bytes = 2 * kKiB;
  Table table("t", opt, nullptr);
  for (uint64_t i = 0; i < 500; ++i) {
    table.Put("p" + std::to_string(i % 7), MakeColumn(i, 0));
  }
  EXPECT_GT(table.segment_count(), 1u);
  for (int p = 0; p < 7; ++p) {
    auto cols = table.GetPartition("p" + std::to_string(p));
    ASSERT_TRUE(cols.ok());
  }
}

TEST(TableTest, CompactMergesToOneSegment) {
  Table table("t", SmallTableOptions(), nullptr);
  for (int round = 0; round < 4; ++round) {
    for (uint64_t i = 0; i < 50; ++i) {
      table.Put("p" + std::to_string(i % 3),
                MakeColumn(round * 100 + i, round));
    }
    table.Flush();
  }
  EXPECT_EQ(table.segment_count(), 4u);
  const auto before = table.GetPartition("p0");
  table.Compact();
  EXPECT_EQ(table.segment_count(), 1u);
  const auto after = table.GetPartition("p0");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before.value(), after.value());
}

TEST(TableTest, CompactResolvesOverwrites) {
  Table table("t", SmallTableOptions(), nullptr);
  table.Put("p", MakeColumn(1, 1));
  table.Flush();
  table.Put("p", MakeColumn(1, 2));
  table.Flush();
  table.Compact();
  auto cols = table.GetPartition("p");
  ASSERT_TRUE(cols.ok());
  ASSERT_EQ(cols.value().size(), 1u);
  EXPECT_EQ(cols.value()[0].type_id, 2u);
}

TEST(TableTest, CountByTypeAggregates) {
  Table table("t", SmallTableOptions(), nullptr);
  for (uint64_t i = 0; i < 90; ++i) table.Put("p", MakeColumn(i, i % 3));
  table.Flush();
  auto counts = table.CountByType("p");
  ASSERT_TRUE(counts.ok());
  ASSERT_EQ(counts.value().size(), 3u);
  for (const auto& [type, count] : counts.value()) EXPECT_EQ(count, 30u);
}

TEST(TableTest, SliceMergesMemtableAndSegments) {
  Table table("t", SmallTableOptions(), nullptr);
  for (uint64_t i = 0; i < 50; ++i) table.Put("p", MakeColumn(i * 2, 0));
  table.Flush();
  for (uint64_t i = 0; i < 50; ++i) table.Put("p", MakeColumn(i * 2 + 1, 1));
  auto cols = table.Slice("p", 10, 19);
  ASSERT_TRUE(cols.ok());
  ASSERT_EQ(cols.value().size(), 10u);
  for (const auto& c : cols.value()) {
    EXPECT_EQ(c.type_id, c.clustering % 2);
  }
}

TEST(TableTest, SliceRejectsInvertedBounds) {
  Table table("t", SmallTableOptions(), nullptr);
  table.Put("p", MakeColumn(1, 0));
  EXPECT_EQ(table.Slice("p", 10, 5).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TableTest, MissingPartitionIsNotFound) {
  Table table("t", SmallTableOptions(), nullptr);
  table.Put("p", MakeColumn(1, 0));
  table.Flush();
  EXPECT_EQ(table.GetPartition("q").status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(table.HasPartition("q"));
  EXPECT_TRUE(table.HasPartition("p"));
}

TEST(TableTest, CacheServesRepeatedReads) {
  BlockCache cache(8 * kMiB);
  Table table("t", SmallTableOptions(), &cache);
  for (uint64_t i = 0; i < 200; ++i) table.Put("p", MakeColumn(i, 0));
  table.Flush();
  ReadProbe cold, warm;
  ASSERT_TRUE(table.GetPartition("p", &cold).ok());
  ASSERT_TRUE(table.GetPartition("p", &warm).ok());
  EXPECT_GT(cold.blocks_decoded, 0u);
  EXPECT_EQ(warm.blocks_decoded, 0u);
  EXPECT_GT(warm.blocks_from_cache, 0u);
}

TEST(TableTest, PartitionKeysUnion) {
  Table table("t", SmallTableOptions(), nullptr);
  table.Put("b", MakeColumn(1, 0));
  table.Flush();
  table.Put("a", MakeColumn(1, 0));
  const auto keys = table.PartitionKeys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a");
  EXPECT_EQ(keys[1], "b");
}

TEST(SizeTieredCompactionTest, SimilarSizedRunsAreMerged) {
  TableOptions opt = SmallTableOptions();
  opt.compaction_min_segments = 4;
  opt.compaction_size_ratio = 2.0;
  Table table("t", opt, nullptr);
  for (int round = 0; round < 4; ++round) {
    for (uint64_t i = 0; i < 100; ++i) {
      table.Put("p" + std::to_string(i % 5),
                MakeColumn(round * 1000 + i, round));
    }
    table.Flush();
  }
  // The fourth flush created a tier of four similar segments -> merged.
  EXPECT_EQ(table.auto_compactions(), 1u);
  EXPECT_EQ(table.segment_count(), 1u);
  // All data still readable with newest-wins intact.
  auto cols = table.GetPartition("p0");
  ASSERT_TRUE(cols.ok());
  EXPECT_EQ(cols.value().size(), 80u);  // 20 per round x 4 rounds
}

TEST(SizeTieredCompactionTest, CorruptBlockOnTheCopyPathKeepsTheInputs) {
  TableOptions opt = SmallTableOptions();
  opt.compaction_min_segments = 4;
  opt.auto_flush = false;
  Table table("t", opt, nullptr);
  // Disjoint keys per flush: every partition takes the copy path.
  auto flush_round = [&table](int round) {
    for (uint64_t i = 0; i < 40; ++i) {
      table.Put("r" + std::to_string(round) + "-" + std::to_string(i % 4),
                MakeColumn(i, round));
    }
    table.Flush();
  };
  for (int round = 0; round < 3; ++round) flush_round(round);
  ASSERT_TRUE(table.CorruptBlockForFaultInjection(0, 0, 9).ok());
  flush_round(3);
  EXPECT_EQ(table.auto_compactions(), 0u);
  EXPECT_EQ(table.segment_count(), 4u);
  EXPECT_EQ(table.GetPartition("r0-0").status().code(),
            StatusCode::kCorruption);
  auto intact = table.GetPartition("r3-1");
  ASSERT_TRUE(intact.ok());
  EXPECT_EQ(intact.value().size(), 10u);
}

TEST(SizeTieredCompactionTest, SnapshotRoundTripIsByteIdentical) {
  TableOptions opt = SmallTableOptions();
  opt.compaction_min_segments = 4;
  Table table("t", opt, nullptr);
  for (int round = 0; round < 5; ++round) {
    for (uint64_t i = 0; i < 60; ++i) {
      table.Put("p" + std::to_string((round * 7 + i) % 9),
                MakeColumn(round * 100 + i, round));
    }
    table.Delete("p1", round * 100 + 3);
    table.Flush();
  }
  const std::string base =
      "/tmp/kvscale_store_test_snapshot_" + std::to_string(::getpid());
  ASSERT_TRUE(table.SaveSnapshot(base + ".a").ok());
  Table restored("t", opt, nullptr);
  ASSERT_TRUE(restored.LoadSnapshot(base + ".a").ok());
  ASSERT_TRUE(restored.SaveSnapshot(base + ".b").ok());
  auto slurp = [](const std::string& path) {
    std::vector<char> bytes;
    if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
      char buf[4096];
      size_t n = 0;
      while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        bytes.insert(bytes.end(), buf, buf + n);
      }
      std::fclose(f);
    }
    return bytes;
  };
  const std::vector<char> a = slurp(base + ".a");
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, slurp(base + ".b"));
  std::remove((base + ".a").c_str());
  std::remove((base + ".b").c_str());
}

TEST(SizeTieredCompactionTest, DissimilarSizesAreLeftAlone) {
  TableOptions opt = SmallTableOptions();
  opt.compaction_min_segments = 2;
  opt.compaction_size_ratio = 1.5;
  opt.auto_flush = false;  // only explicit flushes create segments here
  Table table("t", opt, nullptr);
  // One big segment, then one tiny one: ratio >> 1.5, no merge.
  for (uint64_t i = 0; i < 2000; ++i) table.Put("big", MakeColumn(i, 0));
  table.Flush();
  table.Put("small", MakeColumn(1, 0));
  table.Flush();
  EXPECT_EQ(table.auto_compactions(), 0u);
  EXPECT_EQ(table.segment_count(), 2u);
}

TEST(SizeTieredCompactionTest, PreservesNewestWinsAndTombstones) {
  TableOptions opt = SmallTableOptions();
  opt.compaction_min_segments = 3;
  opt.compaction_size_ratio = 4.0;
  Table table("t", opt, nullptr);
  table.Put("p", MakeColumn(1, 1));
  table.Flush();
  table.Put("p", MakeColumn(1, 2));  // overwrite in a newer segment
  table.Delete("p", 9);              // tombstone for a cell that never existed
  table.Flush();
  table.Put("p", MakeColumn(2, 7));
  table.Flush();  // third flush: tier of three merges
  EXPECT_GE(table.auto_compactions(), 1u);
  auto cols = table.GetPartition("p");
  ASSERT_TRUE(cols.ok());
  ASSERT_EQ(cols.value().size(), 2u);
  EXPECT_EQ(cols.value()[0].type_id, 2u);  // the overwrite won
  EXPECT_EQ(cols.value()[1].clustering, 2u);
}

TEST(SizeTieredCompactionTest, BoundsSegmentCountUnderSustainedWrites) {
  TableOptions opt;
  opt.memtable_flush_bytes = 4 * kKiB;  // frequent flushes
  opt.compaction_min_segments = 4;
  Table table("t", opt, nullptr);
  for (uint64_t i = 0; i < 5000; ++i) {
    table.Put("p" + std::to_string(i % 11), MakeColumn(i, 0));
  }
  // Without STCS this produces dozens of segments; with it the count
  // stays bounded by roughly the tier width times the tier count.
  EXPECT_LE(table.segment_count(), 12u);
  EXPECT_GE(table.auto_compactions(), 1u);
  // Full data still present.
  uint64_t total = 0;
  for (int p = 0; p < 11; ++p) {
    auto counts = table.CountByType("p" + std::to_string(p));
    ASSERT_TRUE(counts.ok());
    for (const auto& [type, count] : counts.value()) total += count;
  }
  EXPECT_EQ(total, 5000u);
}

TEST(TableDeleteTest, DeleteHidesTheCell) {
  Table table("t", SmallTableOptions(), nullptr);
  for (uint64_t i = 0; i < 10; ++i) table.Put("p", MakeColumn(i, 0));
  table.Delete("p", 4);
  auto cols = table.GetPartition("p");
  ASSERT_TRUE(cols.ok());
  EXPECT_EQ(cols.value().size(), 9u);
  for (const auto& c : cols.value()) EXPECT_NE(c.clustering, 4u);
}

TEST(TableDeleteTest, TombstoneShadowsOlderSegments) {
  Table table("t", SmallTableOptions(), nullptr);
  table.Put("p", MakeColumn(7, 1));
  table.Flush();  // the value is sealed in a segment
  table.Delete("p", 7);
  table.Flush();  // the tombstone is sealed in a newer segment
  auto cols = table.GetPartition("p");
  ASSERT_TRUE(cols.ok());
  EXPECT_TRUE(cols.value().empty());
  auto slice = table.Slice("p", 0, 100);
  ASSERT_TRUE(slice.ok());
  EXPECT_TRUE(slice.value().empty());
}

TEST(TableDeleteTest, ReinsertAfterDeleteWins) {
  Table table("t", SmallTableOptions(), nullptr);
  table.Put("p", MakeColumn(1, 1));
  table.Flush();
  table.Delete("p", 1);
  table.Flush();
  table.Put("p", MakeColumn(1, 9));  // newest write revives the cell
  auto cols = table.GetPartition("p");
  ASSERT_TRUE(cols.ok());
  ASSERT_EQ(cols.value().size(), 1u);
  EXPECT_EQ(cols.value()[0].type_id, 9u);
}

TEST(TableDeleteTest, CompactionPurgesTombstones) {
  Table table("t", SmallTableOptions(), nullptr);
  for (uint64_t i = 0; i < 100; ++i) table.Put("p", MakeColumn(i, 0));
  table.Flush();
  for (uint64_t i = 0; i < 50; ++i) table.Delete("p", i * 2);
  table.Flush();
  const uint64_t before = table.column_count();  // values + tombstones
  table.Compact();
  // After a full compaction only the 50 live cells remain on disk.
  EXPECT_EQ(table.column_count(), 50u);
  EXPECT_LT(table.column_count(), before);
  auto counts = table.CountByType("p");
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ(counts.value().at(0), 50u);
}

TEST(TableDeleteTest, FullyDeletedPartitionDisappearsAfterCompaction) {
  Table table("t", SmallTableOptions(), nullptr);
  table.Put("doomed", MakeColumn(1, 0));
  table.Put("kept", MakeColumn(1, 0));
  table.Flush();
  table.Delete("doomed", 1);
  table.Compact();
  EXPECT_FALSE(table.HasPartition("doomed"));
  EXPECT_TRUE(table.HasPartition("kept"));
}

TEST(TableDeleteTest, DeleteOfAbsentCellIsHarmless) {
  Table table("t", SmallTableOptions(), nullptr);
  table.Put("p", MakeColumn(1, 0));
  table.Delete("p", 999);
  auto cols = table.GetPartition("p");
  ASSERT_TRUE(cols.ok());
  EXPECT_EQ(cols.value().size(), 1u);
}

TEST(RowCodecTest, TombstonesRoundTrip) {
  std::vector<Column> cols{MakeColumn(1, 3), Column::Tombstone(2),
                           MakeColumn(5, 1)};
  WireBuffer buf;
  EncodeColumns(cols, buf);
  auto decoded = DecodeColumns(buf.data());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), cols);
  EXPECT_TRUE(decoded.value()[1].tombstone);
}

TEST(LocalStoreTest, CreatesAndFindsTables) {
  LocalStore store;
  Table& t1 = store.GetOrCreateTable("alpha");
  Table& t2 = store.GetOrCreateTable("alpha");
  EXPECT_EQ(&t1, &t2);
  EXPECT_EQ(store.table_count(), 1u);
  EXPECT_TRUE(store.FindTable("alpha").ok());
  EXPECT_EQ(store.FindTable("beta").status().code(), StatusCode::kNotFound);
}

TEST(LocalStoreTest, FlushAllFlushesEveryTable) {
  LocalStore store;
  store.GetOrCreateTable("a").Put("p", MakeColumn(1, 0));
  store.GetOrCreateTable("b").Put("p", MakeColumn(1, 0));
  store.FlushAll();
  EXPECT_EQ(store.GetOrCreateTable("a").segment_count(), 1u);
  EXPECT_EQ(store.GetOrCreateTable("b").segment_count(), 1u);
}

TEST(LocalStoreTest, ZeroCacheBytesDisablesCache) {
  StoreOptions opt;
  opt.block_cache_bytes = 0;
  LocalStore store(opt);
  EXPECT_EQ(store.cache(), nullptr);
}

/// Regression: one store's cache is shared by all its tables, whose
/// segment ids collide (each table's first flush is segment 1). Every
/// read must still return its own table's rows, from a warm cache and
/// after a snapshot reload that brings colliding ids back.
TEST(LocalStoreTest, TablesWithCollidingSegmentIdsReadTheirOwnBlocks) {
  LocalStore store;
  Table& a = store.GetOrCreateTable("a");
  Table& b = store.GetOrCreateTable("b");
  for (uint64_t i = 0; i < 40; ++i) {
    a.Put("p", MakeColumn(i, 1));
    b.Put("p", MakeColumn(i, 2));
  }
  store.FlushAll();
  ASSERT_EQ(a.segment_count(), 1u);
  ASSERT_EQ(b.segment_count(), 1u);

  auto expect_own_rows = [](const Table& table, uint32_t type) {
    for (int round = 0; round < 2; ++round) {  // cold, then cached
      auto counts = table.CountByType("p");
      ASSERT_TRUE(counts.ok()) << table.name();
      EXPECT_EQ(counts.value(), (TypeCounts{{type, 40}})) << table.name();
      auto top = table.TopKByClustering("p", 1);
      ASSERT_TRUE(top.ok()) << table.name();
      ASSERT_EQ(top.value().size(), 1u) << table.name();
      EXPECT_EQ(top.value()[0].type_id, type) << table.name();
    }
  };
  expect_own_rows(a, 1);
  expect_own_rows(b, 2);
  EXPECT_GT(store.cache()->hits(), 0u);

  // A third table's snapshot, loaded into b: its segment id 1 collides
  // with a's live (and cached) segment 1 again.
  Table c("c", TableOptions{}, nullptr);
  for (uint64_t i = 0; i < 40; ++i) c.Put("p", MakeColumn(i, 3));
  const std::string path =
      "/tmp/kvscale_store_test_collide_" + std::to_string(::getpid());
  ASSERT_TRUE(c.SaveSnapshot(path).ok());
  ASSERT_TRUE(b.LoadSnapshot(path).ok());
  std::remove(path.c_str());
  expect_own_rows(a, 1);
  expect_own_rows(b, 3);

  // And a's own round trip keeps both apart.
  ASSERT_TRUE(a.SaveSnapshot(path).ok());
  ASSERT_TRUE(a.LoadSnapshot(path).ok());
  std::remove(path.c_str());
  expect_own_rows(a, 1);
  expect_own_rows(b, 3);
}

/// The storage mechanism behind Figure 6: with ~46-byte elements, rows
/// around 1425 elements cross the 64 KB threshold and gain a column index.
TEST(TableTest, RealisticRowsCrossIndexThresholdNear1425Elements) {
  TableOptions opt;  // default 64 KiB block/threshold
  Table table("t", opt, nullptr);
  // 43-byte payloads encode to ~46 bytes/element, the dataset's row
  // density (see workload/alya.hpp).
  for (uint64_t i = 0; i < 1200; ++i) {
    table.Put("below", MakeColumn(i, 0, 43));
  }
  for (uint64_t i = 0; i < 1700; ++i) {
    table.Put("above", MakeColumn(i, 0, 43));
  }
  table.Flush();
  EXPECT_LT(table.PartitionEncodedBytes("below"), 64 * kKiB);
  EXPECT_GT(table.PartitionEncodedBytes("above"), 64 * kKiB);
}

}  // namespace
}  // namespace kvscale
