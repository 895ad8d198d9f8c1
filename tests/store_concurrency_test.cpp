// Concurrency tests for the storage engine: the Table promises thread-safe
// reads/writes (shared lock for reads, exclusive for writes/flush/compact),
// the BlockCache promises internally synchronised access, and a read's
// shared block handles stay valid whatever the table does after it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "store/local_store.hpp"
#include "store/row.hpp"
#include "store/segment.hpp"

namespace kvscale {
namespace {

Column MakeColumn(uint64_t clustering, uint32_t type) {
  Column c;
  c.clustering = clustering;
  c.type_id = type;
  c.payload = MakePayload(9, clustering, 24);
  return c;
}

TEST(StoreConcurrencyTest, ParallelReadersSeeConsistentPartitions) {
  Table table("t", TableOptions{}, nullptr);
  constexpr uint64_t kColumns = 2000;
  for (uint64_t i = 0; i < kColumns; ++i) {
    table.Put("p", MakeColumn(i, i % 4));
  }
  table.Flush();

  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&table, &failures] {
      for (int iter = 0; iter < 50; ++iter) {
        auto cols = table.GetPartition("p");
        if (!cols.ok() || cols.value().size() != kColumns) {
          ++failures;
          continue;
        }
        auto counts = table.CountByType("p");
        if (!counts.ok() || counts.value().at(0) != kColumns / 4) ++failures;
      }
    });
  }
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(StoreConcurrencyTest, WritersAndReadersInterleaveSafely) {
  TableOptions options;
  options.memtable_flush_bytes = 32 * kKiB;  // force flushes mid-run
  Table table("t", options, nullptr);
  // Seed one stable partition the readers can verify.
  for (uint64_t i = 0; i < 500; ++i) table.Put("stable", MakeColumn(i, 0));

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread writer([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      table.Put("hot-" + std::to_string(i % 16), MakeColumn(i, 1));
      ++i;
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      for (int iter = 0; iter < 200; ++iter) {
        auto cols = table.GetPartition("stable");
        if (!cols.ok() || cols.value().size() != 500) ++failures;
        auto slice = table.Slice("stable", 100, 199);
        if (!slice.ok() || slice.value().size() != 100) ++failures;
      }
    });
  }
  for (auto& reader : readers) reader.join();
  stop = true;
  writer.join();
  EXPECT_EQ(failures.load(), 0);
  // All hot writes are still readable afterwards.
  for (int p = 0; p < 16; ++p) {
    EXPECT_TRUE(table.HasPartition("hot-" + std::to_string(p)));
  }
}

TEST(StoreConcurrencyTest, SharedCacheSurvivesParallelReaders) {
  BlockCache cache(16 * kMiB);
  TableOptions options;
  Table table("t", options, &cache);
  for (int part = 0; part < 8; ++part) {
    for (uint64_t i = 0; i < 300; ++i) {
      table.Put("p" + std::to_string(part), MakeColumn(i, 0));
    }
  }
  table.Flush();

  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&table, &failures, t] {
      for (int iter = 0; iter < 100; ++iter) {
        const std::string key = "p" + std::to_string((iter + t) % 8);
        auto cols = table.GetPartition(key);
        if (!cols.ok() || cols.value().size() != 300) ++failures;
      }
    });
  }
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(cache.hits(), 0u);
}

TEST(StoreConcurrencyTest, CompactionDuringReads) {
  Table table("t", TableOptions{}, nullptr);
  for (int round = 0; round < 4; ++round) {
    for (uint64_t i = 0; i < 400; ++i) {
      table.Put("p", MakeColumn(round * 1000 + i, round));
    }
    table.Flush();
  }

  std::atomic<int> failures{0};
  std::thread compactor([&table] { table.Compact(); });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&table, &failures] {
      for (int iter = 0; iter < 100; ++iter) {
        auto cols = table.GetPartition("p");
        if (!cols.ok() || cols.value().size() != 1600) ++failures;
      }
    });
  }
  for (auto& reader : readers) reader.join();
  compactor.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(table.segment_count(), 1u);
}

/// The shared-block drill (run under TSan by tools/race_check.sh).
/// Readers open a partition and keep iterating the same view — the
/// shared decoded blocks — while other threads compact segments away
/// (EraseSegment), corrupt blocks and reload a clean snapshot
/// (LoadSnapshot), and churn a tiny cache shared with a second table so
/// LRU eviction drops blocks readers still hold. Every read either
/// fails loudly or returns exactly the stable rows, and a held view
/// never changes under its reader.
TEST(StoreConcurrencyTest, HeldBlockHandlesSurviveCompactionCorruptionReloadAndEviction) {
  constexpr uint64_t kColumns = 600;
  BlockCache cache(16 * kKiB);  // a few blocks: eviction on every read
  TableOptions options;
  options.segment.block_size = 2 * kKiB;  // ~60 columns per block
  options.compaction_min_segments = 2;
  options.auto_flush = false;
  Table table("t", options, &cache);
  Table churn("churn", options, &cache);
  for (uint64_t i = 0; i < kColumns; ++i) {
    table.Put("stable", MakeColumn(i, i % 4));
    churn.Put("c" + std::to_string(i % 8), MakeColumn(i, 0));
  }
  table.Flush();
  churn.Flush();
  const std::string snapshot =
      "/tmp/kvscale_block_drill_" + std::to_string(::getpid());
  ASSERT_TRUE(table.SaveSnapshot(snapshot).ok());

  // True when `view` holds exactly the stable rows.
  auto stable_rows = [](const ColumnView& view) {
    uint64_t next = 0;
    bool same = true;
    view.ForEach([&](const Column& c) {
      same = same && c.clustering == next && c.type_id == next % 4 &&
             c.payload == MakePayload(9, next, 24);
      ++next;
      return same;
    });
    return same && next == kColumns;
  };

  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::atomic<uint64_t> held_rereads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto view = table.Read("stable", 0, UINT64_MAX);
        if (!view.ok()) {
          // Corruption fails loudly, never wrong. Back off so the
          // reload's exclusive lock is not starved by failing readers.
          if (view.status().code() != StatusCode::kCorruption) ++wrong;
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          continue;
        }
        if (!stable_rows(view.value())) ++wrong;
        std::this_thread::yield();  // let the mutators run underneath
        if (!stable_rows(view.value())) ++wrong;  // same handles, later
        held_rereads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  threads.emplace_back([&] {  // compaction: EraseSegment under readers
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      table.Put("hot-" + std::to_string(i % 4), MakeColumn(i, 1));
      table.Flush();  // size-tiered runs of two merge on the way
      if (++i % 8 == 0) table.Compact();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  threads.emplace_back([&] {  // corruption, then a clean reload
    Rng rng(7);
    while (!stop.load(std::memory_order_relaxed)) {
      table.CorruptBlocksForFaultInjection(0.2, rng);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      if (!table.LoadSnapshot(snapshot).ok()) ++wrong;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  threads.emplace_back([&] {  // LRU churn from a second table
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto counts = churn.CountByType("c" + std::to_string(i++ % 8));
      if (!counts.ok()) ++wrong;
    }
  });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (held_rereads.load() < 300 && wrong.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop = true;
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(held_rereads.load(), 0u);
  // Each corruption round ended in a clean reload: the stable rows read.
  ASSERT_TRUE(table.LoadSnapshot(snapshot).ok());
  std::remove(snapshot.c_str());
  auto view = table.Read("stable", 0, UINT64_MAX);
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(stable_rows(view.value()));
}

// Segment images live in anonymous mappings that are unmapped the moment
// the last owner drops them, and ASan does not watch mapped pages: the
// lifetime of everything a reader holds must follow ownership. Readers
// keep ColumnViews of several partitions and re-read them while
// size-tiered compaction (disjoint keys: the copy-through path) retires
// and unmaps the segments they came from, corruption damages blocks and
// snapshot reloads swap every segment out.
TEST(StoreConcurrencyTest, HeldViewsSurviveSegmentUnmapByCopyThroughCompaction) {
  constexpr uint64_t kColumns = 200;
  TableOptions options;
  options.segment.block_size = 1 * kKiB;
  options.compaction_min_segments = 4;
  options.compaction_size_ratio = 4.0;
  options.auto_flush = false;
  Table table("t", options, nullptr);
  for (int p = 0; p < 4; ++p) {
    for (uint64_t i = 0; i < kColumns; ++i) {
      table.Put("stable-" + std::to_string(p), MakeColumn(i, i % 3));
    }
    table.Flush();  // four segments: the fourth flush merges them
  }
  const std::string snapshot =
      "/tmp/kvscale_unmap_drill_" + std::to_string(::getpid());
  ASSERT_TRUE(table.SaveSnapshot(snapshot).ok());

  auto stable_rows = [](const ColumnView& view) {
    uint64_t next = 0;
    bool same = true;
    view.ForEach([&](const Column& c) {
      same = same && c.clustering == next && c.type_id == next % 3 &&
             c.payload == MakePayload(9, next, 24);
      ++next;
      return same;
    });
    return same && next == kColumns;
  };

  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::atomic<uint64_t> held_rereads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<ColumnView> held;
        for (int p = 0; p < 4; ++p) {
          auto view = table.Read("stable-" + std::to_string(p), 0, UINT64_MAX);
          if (!view.ok()) {
            if (view.status().code() != StatusCode::kCorruption) ++wrong;
            continue;
          }
          held.push_back(std::move(view).value());
        }
        // Every key a directory lists is a view into a mapped image.
        for (const std::string& key : table.PartitionKeys()) {
          if (key.empty()) ++wrong;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        for (const ColumnView& view : held) {
          if (!stable_rows(view)) ++wrong;  // after the segments changed
        }
        if (!held.empty()) {
          held_rereads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  threads.emplace_back([&] {  // fresh keys each flush: copy-through merges
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      table.Put("fresh-" + std::to_string(i), MakeColumn(i, 1));
      table.Flush();
      ++i;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  threads.emplace_back([&] {  // corruption, then a clean reload
    Rng rng(11);
    while (!stop.load(std::memory_order_relaxed)) {
      table.CorruptBlocksForFaultInjection(0.1, rng);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      if (!table.LoadSnapshot(snapshot).ok()) ++wrong;
      std::this_thread::sleep_for(std::chrono::microseconds(700));
    }
  });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (held_rereads.load() < 200 && wrong.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop = true;
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(held_rereads.load(), 0u);
  EXPECT_GT(table.auto_compactions(), 0u);
  std::remove(snapshot.c_str());
}

// Directory key views point into a segment's image: they are valid for
// as long as the reader holds the segment. Threads each take their own
// reference and walk keys and blocks while the others drop theirs; the
// image is unmapped by whichever drop is last.
TEST(StoreConcurrencyTest, SegmentKeyViewsLiveAsLongAsTheirOwner) {
  for (int round = 0; round < 20; ++round) {
    Memtable memtable;
    for (int p = 0; p < 64; ++p) {
      for (uint64_t c = 0; c < 4; ++c) {
        memtable.Put("key-" + std::to_string(1000 + p), MakeColumn(c, 2));
      }
    }
    auto segment = Segment::Build(memtable, 1, SegmentOptions{});
    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([owned = segment, &wrong] {
        std::vector<std::string_view> keys;
        for (const auto& meta : owned->directory()) {
          keys.push_back(owned->Key(meta));
        }
        for (size_t k = 0; k < keys.size(); ++k) {
          if (keys[k] != "key-" + std::to_string(1000 + k)) ++wrong;
          auto blocks =
              owned->ReadBlocks(keys[k], 0, UINT64_MAX, CacheRef{}, nullptr);
          if (!blocks.ok() || blocks.value().front()->size() != 4) ++wrong;
        }
      });
    }
    segment.reset();  // the threads' copies keep the image mapped
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(wrong.load(), 0);
  }
}

}  // namespace
}  // namespace kvscale
