// Storage-engine micro-benchmarks: put/read/slice/count paths and the
// cache effect. These are host-dependent numbers (not paper figures); they
// document the real engine's costs and back the calibration path.
#include <benchmark/benchmark.h>

#include "common/check.hpp"
#include "store/local_store.hpp"
#include "store/row.hpp"
#include "telemetry/metrics_registry.hpp"

namespace kvscale {
namespace {

Column MakeColumn(uint64_t clustering) {
  Column c;
  c.clustering = clustering;
  c.type_id = static_cast<uint32_t>(clustering % 8);
  c.payload = MakePayload(1, clustering, 43);
  return c;
}

/// Builds a flushed table with one partition of `elements` columns.
/// `metrics` non-null wires the table into a registry (the telemetry-on
/// configuration; null is the default no-telemetry path).
std::unique_ptr<Table> BuildRow(uint64_t elements, BlockCache* cache,
                                MetricsRegistry* metrics = nullptr) {
  TableOptions options;
  options.metrics = metrics;
  auto table = std::make_unique<Table>("bench", options, cache);
  for (uint64_t i = 0; i < elements; ++i) table->Put("row", MakeColumn(i));
  table->Flush();
  return table;
}

void BM_Put(benchmark::State& state) {
  Table table("bench", TableOptions{}, nullptr);
  uint64_t i = 0;
  for (auto _ : state) {
    table.Put("row-" + std::to_string(i % 64), MakeColumn(i));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_Put);

void BM_CountByTypeCold(benchmark::State& state) {
  const auto elements = static_cast<uint64_t>(state.range(0));
  auto table = BuildRow(elements, nullptr);
  for (auto _ : state) {
    auto counts = table->CountByType("row");
    benchmark::DoNotOptimize(counts);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(elements));
}
BENCHMARK(BM_CountByTypeCold)->Arg(100)->Arg(1000)->Arg(1425)->Arg(10000);

void BM_CountByTypeCached(benchmark::State& state) {
  const auto elements = static_cast<uint64_t>(state.range(0));
  BlockCache cache(256 * kMiB);
  auto table = BuildRow(elements, &cache);
  KV_CHECK(table->CountByType("row").ok());  // warm the cache
  for (auto _ : state) {
    auto counts = table->CountByType("row");
    benchmark::DoNotOptimize(counts);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(elements));
}
BENCHMARK(BM_CountByTypeCached)->Arg(100)->Arg(1000)->Arg(10000);

// Same cached read with full metrics recording (counters + latency
// histogram per read). Compare against BM_CountByTypeCached to see the
// telemetry cost; BM_CountByTypeCached itself measures the disabled
// path (a single null-pointer branch).
void BM_CountByTypeCachedTelemetry(benchmark::State& state) {
  const auto elements = static_cast<uint64_t>(state.range(0));
  MetricsRegistry registry;
  BlockCache cache(256 * kMiB);
  auto table = BuildRow(elements, &cache, &registry);
  KV_CHECK(table->CountByType("row").ok());  // warm the cache
  for (auto _ : state) {
    auto counts = table->CountByType("row");
    benchmark::DoNotOptimize(counts);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(elements));
}
BENCHMARK(BM_CountByTypeCachedTelemetry)->Arg(100)->Arg(1000)->Arg(10000);

// A cached 256-row range scan (the coarse_mix scan operator's limit) out
// of a flushed row: read in place from the shared blocks.
void BM_ScanRangeCached(benchmark::State& state) {
  const auto elements = static_cast<uint64_t>(state.range(0));
  BlockCache cache(256 * kMiB);
  auto table = BuildRow(elements, &cache);
  KV_CHECK(table->CountByType("row").ok());  // warm the cache
  uint64_t lo = 0;
  for (auto _ : state) {
    auto rows = table->ScanRange("row", lo, lo + 511, 256);
    benchmark::DoNotOptimize(rows);
    lo = (lo + 97) % elements;
  }
}
BENCHMARK(BM_ScanRangeCached)->Arg(1000)->Arg(10000);

// A cached top-32 by clustering key: the newest rows, read backwards.
void BM_TopKCached(benchmark::State& state) {
  const auto elements = static_cast<uint64_t>(state.range(0));
  BlockCache cache(256 * kMiB);
  auto table = BuildRow(elements, &cache);
  KV_CHECK(table->CountByType("row").ok());  // warm the cache
  for (auto _ : state) {
    auto rows = table->TopKByClustering("row", 32);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_TopKCached)->Arg(1000)->Arg(10000);

void BM_SliceIndexedRow(benchmark::State& state) {
  // 10k elements: well above the 64 KB threshold, so the column index
  // narrows a 10-element slice to one block.
  auto table = BuildRow(10000, nullptr);
  uint64_t lo = 0;
  for (auto _ : state) {
    auto cols = table->Slice("row", lo, lo + 9);
    benchmark::DoNotOptimize(cols);
    lo = (lo + 97) % 9900;
  }
}
BENCHMARK(BM_SliceIndexedRow);

void BM_SliceUnindexedRow(benchmark::State& state) {
  // 1000 elements (< 64 KB): every slice decodes the whole row.
  auto table = BuildRow(1000, nullptr);
  uint64_t lo = 0;
  for (auto _ : state) {
    auto cols = table->Slice("row", lo, lo + 9);
    benchmark::DoNotOptimize(cols);
    lo = (lo + 97) % 900;
  }
}
BENCHMARK(BM_SliceUnindexedRow);

void BM_BloomNegativeLookup(benchmark::State& state) {
  auto table = std::make_unique<Table>("bench", TableOptions{}, nullptr);
  for (int p = 0; p < 1000; ++p) {
    table->Put("part-" + std::to_string(p), MakeColumn(1));
  }
  table->Flush();
  uint64_t i = 0;
  for (auto _ : state) {
    auto missing = table->GetPartition("absent-" + std::to_string(i++));
    benchmark::DoNotOptimize(missing);
  }
}
BENCHMARK(BM_BloomNegativeLookup);

/// Four flushed segments of 2000 columns over 16 partitions each: the
/// same keys in every segment (`overlapping`), so compaction decodes and
/// merges them, or keys of their own (`disjoint`), so a size-tiered
/// merge copies every partition through as stored blocks.
void FillFourSegments(Table& table, bool overlapping) {
  for (int round = 0; round < 4; ++round) {
    for (uint64_t i = 0; i < 2000; ++i) {
      const std::string key =
          overlapping ? "p" + std::to_string(i % 16)
                      : "r" + std::to_string(round) + "-p" + std::to_string(i % 16);
      table.Put(key, MakeColumn(round * 10000 + i));
    }
    if (round < 3) table.Flush();
  }
}

/// The size-tiered merge the fourth flush triggers (tombstones kept, so
/// disjoint partitions take the copy path).
void BM_Compaction(benchmark::State& state) {
  const bool overlapping = state.range(0) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    TableOptions options;
    options.auto_flush = false;
    Table table("bench", options, nullptr);
    FillFourSegments(table, overlapping);
    state.ResumeTiming();
    table.Flush();  // the fourth segment completes the tier: merge
    benchmark::DoNotOptimize(table.segment_count());
  }
  state.SetItemsProcessed(state.iterations() * 4 * 2000);
}
BENCHMARK(BM_Compaction)->ArgName("overlapping")->Arg(0)->Arg(1);

/// Freezing a memtable of `range(0)` small partitions (8 columns each,
/// the ingest writer's shape) into a segment.
void BM_Flush(benchmark::State& state) {
  const int64_t partitions = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    TableOptions options;
    options.auto_flush = false;
    Table table("bench", options, nullptr);
    for (int64_t p = 0; p < partitions; ++p) {
      for (uint64_t c = 0; c < 8; ++c) {
        table.Put("writer-" + std::to_string(1000000000 + p), MakeColumn(c));
      }
    }
    state.ResumeTiming();
    table.Flush();
    benchmark::DoNotOptimize(table.segment_count());
  }
  state.SetItemsProcessed(state.iterations() * partitions);
}
BENCHMARK(BM_Flush)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace kvscale

BENCHMARK_MAIN();
