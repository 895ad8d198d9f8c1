// Randomized reference-model test: the Table must behave exactly like a
// simple in-memory oracle (map of maps) under arbitrary interleavings of
// Put / Delete / Flush / Compact, checked after every step through every
// read: GetPartition, Slice, CountByType, ScanRange, TopKByClustering and
// the per-node operators (ExecuteOperator). This is the strongest
// correctness net over the storage engine: any divergence in merge order,
// tombstone shadowing, block packing, caching, compaction, or between the
// in-place read path (one segment, no memtable entry) and the merge path
// shows up as an oracle mismatch. Every case runs with no cache and with a
// tiny cache that evicts on almost every insert.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cluster/query_ops.hpp"
#include "common/rng.hpp"
#include "store/local_store.hpp"

namespace kvscale {
namespace {

/// The oracle: partition -> clustering -> column (no tombstones; deletes
/// erase directly).
using Oracle = std::map<std::string, std::map<uint64_t, Column>>;

constexpr size_t kPartitions = 6;
constexpr uint64_t kClusterings = 64;
/// Holds one or two small blocks: nearly every insert evicts.
constexpr size_t kTinyCacheBytes = 4 * kKiB;

Column RandomColumn(Rng& rng, uint64_t clustering) {
  Column c;
  c.clustering = clustering;
  // Mostly small type ids, some past CountTypes' flat array.
  c.type_id = static_cast<uint32_t>(rng.Chance(0.9) ? rng.Below(6)
                                                     : 60 + rng.Below(8));
  c.payload = MakePayload(rng.Next(), clustering, 8 + rng.Below(60));
  return c;
}

std::string PartitionKey(size_t p) { return "p" + std::to_string(p); }

std::string RandomPartition(Rng& rng) {
  return PartitionKey(rng.Below(kPartitions));
}

/// The oracle's live columns of `key` with clustering in [lo, hi].
std::vector<Column> Expected(const Oracle& oracle, const std::string& key,
                             uint64_t lo = 0, uint64_t hi = UINT64_MAX) {
  std::vector<Column> out;
  auto it = oracle.find(key);
  if (it == oracle.end()) return out;
  for (auto cit = it->second.lower_bound(lo);
       cit != it->second.end() && cit->first <= hi; ++cit) {
    out.push_back(cit->second);
  }
  return out;
}

/// A partition never written, or written and fully deleted, may read as
/// NotFound (after compaction) or as empty; anything else must match.
template <typename T>
void ExpectMatches(const Result<T>& stored, const T& expected,
                   const std::string& what) {
  if (!stored.ok()) {
    EXPECT_EQ(stored.status().code(), StatusCode::kNotFound) << what;
    EXPECT_TRUE(expected.empty()) << what;
    return;
  }
  EXPECT_EQ(stored.value(), expected) << what;
}

/// (clustering, type_id) rows, the wire form of the row operators.
OperatorResult Rows(const std::vector<Column>& columns) {
  OperatorResult out;
  for (const Column& c : columns) {
    out.col_a.push_back(c.clustering);
    out.col_b.push_back(c.type_id);
  }
  return out;
}

void ExpectOperator(const Table& table, const std::string& key, uint32_t op,
                    uint64_t lo, uint64_t hi, uint32_t limit,
                    const OperatorResult& expected, const std::string& what) {
  auto stored = ExecuteOperator(table, key, op, lo, hi, limit, nullptr);
  if (!stored.ok()) {
    EXPECT_EQ(stored.status().code(), StatusCode::kNotFound) << what;
    EXPECT_TRUE(expected.col_a.empty()) << what;
    return;
  }
  EXPECT_EQ(stored.value().col_a, expected.col_a) << what;
  EXPECT_EQ(stored.value().col_b, expected.col_b) << what;
}

/// Every read of one partition against the oracle; `rng` picks the
/// slice bounds, scan limit and top-k depth.
void CheckPartition(const Table& table, const Oracle& oracle,
                    const std::string& key, Rng& rng) {
  const std::vector<Column> all = Expected(oracle, key);
  ExpectMatches(table.GetPartition(key), all, key + " get");

  const uint64_t lo = rng.Below(kClusterings);
  const uint64_t hi = lo + rng.Below(kClusterings - lo + 1);
  const std::vector<Column> range = Expected(oracle, key, lo, hi);
  const std::string where =
      key + " [" + std::to_string(lo) + "," + std::to_string(hi) + "]";
  ExpectMatches(table.Slice(key, lo, hi), range, where + " slice");

  TypeCounts counts;
  for (const Column& c : all) ++counts[c.type_id];
  ExpectMatches(table.CountByType(key), counts, key + " count");
  OperatorResult count_rows;
  for (const auto& [type, count] : counts) {
    count_rows.col_a.push_back(type);
    count_rows.col_b.push_back(count);
  }
  ExpectOperator(table, key, kOpCountByType, 0, 0, 0, count_rows,
                 key + " count op");

  const auto limit = static_cast<uint32_t>(rng.Below(8));  // 0 = unbounded
  std::vector<Column> scan = range;
  if (limit > 0 && scan.size() > limit) scan.resize(limit);
  ExpectMatches(table.ScanRange(key, lo, hi, limit), scan,
                where + " scan limit " + std::to_string(limit));
  ExpectOperator(table, key, kOpRangeScan, lo, hi, limit, Rows(scan),
                 where + " scan op");

  const auto k = static_cast<uint32_t>(1 + rng.Below(10));
  std::vector<Column> top(all.rbegin(), all.rend());
  if (top.size() > k) top.resize(k);
  ExpectMatches(table.TopKByClustering(key, k), top,
                key + " top " + std::to_string(k));
  ExpectOperator(table, key, kOpTopK, 0, 0, k, Rows(top), key + " top op");
}

void CheckAll(const Table& table, const Oracle& oracle, Rng& rng) {
  for (size_t p = 0; p < kPartitions; ++p) {
    CheckPartition(table, oracle, PartitionKey(p), rng);
  }
}

/// The two cache configurations every case runs under.
enum class CacheMode { kNone, kTiny };

std::string Name(CacheMode mode) {
  return mode == CacheMode::kNone ? "no cache" : "tiny cache";
}

class StoreModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StoreModelTest, RandomOperationsMatchOracle) {
  for (CacheMode mode : {CacheMode::kNone, CacheMode::kTiny}) {
    SCOPED_TRACE(Name(mode));
    Rng rng(GetParam());
    // Small blocks + low thresholds exercise multi-block partitions and
    // the column-index path even with modest data.
    TableOptions options;
    options.segment.block_size = 1 + rng.Below(3000);
    options.segment.column_index_threshold = 1 + rng.Below(8000);
    options.memtable_flush_bytes = 1 + rng.Below(32 * 1024);
    options.auto_flush = rng.Chance(0.5);
    options.compaction_min_segments =
        rng.Chance(0.5) ? 0 : static_cast<uint32_t>(2 + rng.Below(3));
    BlockCache cache(kTinyCacheBytes);
    Table table("t", options, mode == CacheMode::kTiny ? &cache : nullptr);

    Oracle oracle;
    constexpr int kOperations = 1500;
    for (int op = 0; op < kOperations; ++op) {
      const uint64_t dice = rng.Below(100);
      if (dice < 65) {  // Put
        const std::string key = RandomPartition(rng);
        const Column column = RandomColumn(rng, rng.Below(kClusterings));
        oracle[key][column.clustering] = column;
        table.Put(key, column);
      } else if (dice < 88) {  // Delete
        const std::string key = RandomPartition(rng);
        const uint64_t clustering = rng.Below(kClusterings);
        oracle[key].erase(clustering);
        table.Delete(key, clustering);
      } else if (dice < 96) {  // Flush
        table.Flush();
      } else {  // Compact
        table.Compact();
      }
      CheckAll(table, oracle, rng);
      if (::testing::Test::HasFailure()) {
        FAIL() << "first mismatch after operation " << op;
      }
    }
    // And once more after a final compaction.
    table.Compact();
    CheckAll(table, oracle, rng);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreModelTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

/// Deterministic layouts for each read path, under both cache modes.
class StoreReadPathTest : public ::testing::TestWithParam<CacheMode> {
 protected:
  StoreReadPathTest() : cache_(kTinyCacheBytes) {
    options_.segment.block_size = 256;  // several blocks per partition
    options_.segment.column_index_threshold = 1024;  // some are indexed
    options_.auto_flush = false;
    options_.compaction_min_segments = 0;  // tests compact on purpose
  }

  std::unique_ptr<Table> MakeTable() {
    return std::make_unique<Table>(
        "t", options_, GetParam() == CacheMode::kTiny ? &cache_ : nullptr);
  }

  void Put(Table& table, const std::string& key, const Column& column) {
    oracle_[key][column.clustering] = column;
    table.Put(key, column);
  }

  void Delete(Table& table, const std::string& key, uint64_t clustering) {
    oracle_[key].erase(clustering);
    table.Delete(key, clustering);
  }

  /// Writes `count` random columns into every partition.
  void Fill(Table& table, int count) {
    for (size_t p = 0; p < kPartitions; ++p) {
      for (int i = 0; i < count; ++i) {
        Put(table, PartitionKey(p), RandomColumn(rng_, rng_.Below(kClusterings)));
      }
    }
  }

  /// Checks every partition several times (different bounds each time).
  void CheckAllRepeatedly(const Table& table) {
    for (int round = 0; round < 8; ++round) CheckAll(table, oracle_, rng_);
  }

  TableOptions options_;
  BlockCache cache_;
  Oracle oracle_;
  Rng rng_{0x5eed};
};

TEST_P(StoreReadPathTest, InPlaceReadOfOneFlushedSegment) {
  auto table = MakeTable();
  Fill(*table, 40);
  Delete(*table, "p0", 3);  // a tombstone the in-place path must skip
  table->Flush();
  ASSERT_EQ(table->segment_count(), 1u);
  ASSERT_EQ(table->memtable_bytes(), 0u);
  CheckAllRepeatedly(*table);
}

TEST_P(StoreReadPathTest, InPlaceReadOfOneCompactedSegment) {
  auto table = MakeTable();
  for (int round = 0; round < 4; ++round) {
    Fill(*table, 12);
    Delete(*table, PartitionKey(static_cast<size_t>(round)), 5);
    table->Flush();
  }
  table->Compact();
  ASSERT_EQ(table->segment_count(), 1u);
  CheckAllRepeatedly(*table);
}

TEST_P(StoreReadPathTest, MergeOfMemtableOverlay) {
  auto table = MakeTable();
  Fill(*table, 40);
  table->Flush();
  Fill(*table, 10);  // overwrites and new cells, still in the memtable
  Delete(*table, "p1", 7);
  ASSERT_GT(table->memtable_bytes(), 0u);
  CheckAllRepeatedly(*table);
}

TEST_P(StoreReadPathTest, MergeOfTombstoneInNewerSegment) {
  auto table = MakeTable();
  Fill(*table, 40);
  table->Flush();
  for (uint64_t c = 0; c < kClusterings; c += 3) Delete(*table, "p2", c);
  table->Flush();
  ASSERT_EQ(table->segment_count(), 2u);
  CheckAllRepeatedly(*table);
}

TEST_P(StoreReadPathTest, MergeOfPartiallyCompactedRuns) {
  // Runs of three equal flushes merge; the merged run then sits beside
  // newer, smaller segments it is too large to tier with.
  options_.compaction_min_segments = 3;
  options_.compaction_size_ratio = 2.0;
  auto table = MakeTable();
  for (int round = 0; round < 5; ++round) {
    Fill(*table, 8);
    Delete(*table, PartitionKey(static_cast<size_t>(round) % kPartitions), 1);
    table->Flush();
  }
  EXPECT_GT(table->auto_compactions(), 0u);
  EXPECT_GT(table->segment_count(), 1u);  // tombstones kept across runs
  Fill(*table, 3);                        // plus a memtable overlay
  CheckAllRepeatedly(*table);
}

INSTANTIATE_TEST_SUITE_P(
    CacheModes, StoreReadPathTest,
    ::testing::Values(CacheMode::kNone, CacheMode::kTiny),
    [](const ::testing::TestParamInfo<CacheMode>& param) {
      return param.param == CacheMode::kNone ? std::string("NoCache")
                                            : std::string("TinyCache");
    });

}  // namespace
}  // namespace kvscale
