// Tests for the fault-injection subsystem and the fault-tolerant
// scatter/gather: deterministic fault decisions, replica failover,
// corruption detection, crash/restart via the WAL, hedged reads,
// deadlines, and the degraded-result accounting invariant.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/in_process_cluster.hpp"
#include "common/rng.hpp"
#include "store/row.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics_registry.hpp"

namespace kvscale {
namespace {

/// Loads `partitions` partitions of `columns` columns each and returns the
/// matching workload; `truth` (if given) accumulates the expected
/// count-by-type aggregation.
WorkloadSpec LoadUniform(InProcessCluster& cluster, int partitions,
                         int columns, TypeCounts* truth = nullptr) {
  WorkloadSpec workload;
  workload.table = "t";
  for (int part = 0; part < partitions; ++part) {
    const std::string key = "p" + std::to_string(part);
    for (int i = 0; i < columns; ++i) {
      Column c;
      c.clustering = i;
      c.type_id = i % 5;
      c.payload = MakePayload(part, i, 24);
      EXPECT_TRUE(cluster.Put("t", key, std::move(c)).ok());
      if (truth != nullptr) ++(*truth)[i % 5];
    }
    workload.partitions.push_back(
        PartitionRef{key, static_cast<uint32_t>(columns)});
  }
  return workload;
}

std::string TempPath(const char* tag) {
  return std::string("/tmp/kvscale_fault_") + tag + "_" +
         std::to_string(::getpid());
}

TEST(FaultInjectorTest, DecisionsAreDeterministicAndSeedDependent) {
  FaultConfig config;
  config.seed = 77;
  config.read_error_rate = 0.3;
  config.latency_spike_rate = 0.2;
  const FaultInjector a(config);
  const FaultInjector b(config);
  config.seed = 78;
  const FaultInjector other(config);

  int differs_from_other_seed = 0;
  for (uint32_t node = 0; node < 4; ++node) {
    for (int key = 0; key < 20; ++key) {
      const std::string partition = "p" + std::to_string(key);
      for (uint32_t attempt = 0; attempt < 3; ++attempt) {
        const auto fa = a.OnRead(node, partition, attempt);
        const auto fb = b.OnRead(node, partition, attempt);
        EXPECT_EQ(fa.status.code(), fb.status.code());
        EXPECT_DOUBLE_EQ(fa.extra_latency_us, fb.extra_latency_us);
        const auto fo = other.OnRead(node, partition, attempt);
        if (fa.status.code() != fo.status.code()) ++differs_from_other_seed;
      }
    }
  }
  EXPECT_GT(differs_from_other_seed, 0);  // the seed decorrelates runs
}

TEST(FaultInjectorTest, RetriesRerollTheDice) {
  FaultConfig config;
  config.read_error_rate = 0.5;
  const FaultInjector injector(config);
  // With a 50% error rate, some key must see attempt 0 fail and attempt 1
  // succeed — retries are independent rolls, not a replay of the same fate.
  bool saw_recovery = false;
  for (int key = 0; key < 64 && !saw_recovery; ++key) {
    const std::string partition = "p" + std::to_string(key);
    saw_recovery = !injector.OnRead(0, partition, 0).status.ok() &&
                   injector.OnRead(0, partition, 1).status.ok();
  }
  EXPECT_TRUE(saw_recovery);
}

TEST(FaultInjectorTest, DeadNodesRejectEveryRead) {
  FaultInjector injector;
  EXPECT_FALSE(injector.IsNodeDown(2));
  EXPECT_TRUE(injector.OnRead(2, "p", 0).status.ok());

  injector.KillNode(2);
  EXPECT_TRUE(injector.IsNodeDown(2));
  const auto fault = injector.OnRead(2, "p", 0);
  EXPECT_EQ(fault.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(injector.OnRead(1, "p", 0).status.ok());  // others unaffected
  EXPECT_EQ(injector.rejected_dead_node_reads(), 1u);

  injector.ReviveNode(2);
  EXPECT_FALSE(injector.IsNodeDown(2));
  EXPECT_TRUE(injector.OnRead(2, "p", 0).status.ok());
}

/// Digest of every OnRead decision over six nodes (node 5 down), 200
/// keys and four attempts, plus the tallies they left.
uint64_t SweepDigest(const FaultConfig& config) {
  FaultInjector injector(config);
  injector.KillNode(5);
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t word) {
    h ^= word;
    h *= 0x100000001b3ULL;
  };
  for (uint32_t node = 0; node < 6; ++node) {
    for (int key = 0; key < 200; ++key) {
      const std::string partition = "k" + std::to_string(key);
      for (uint32_t attempt = 0; attempt < 4; ++attempt) {
        const FaultInjector::ReadFault f =
            injector.OnRead(node, partition, attempt);
        mix(static_cast<uint64_t>(f.status.code()));
        mix(static_cast<uint64_t>(f.extra_latency_us * 1000.0));
      }
    }
  }
  mix(injector.injected_errors());
  mix(injector.injected_spikes());
  mix(injector.rejected_dead_node_reads());
  return h;
}

TEST(FaultInjectorTest, OnReadSweepKeepsItsDecisions) {
  // The digests were taken from the injector before its liveness check
  // and its healthy-rate shortcut skipped work: both are pure fast paths,
  // so every decision and every tally must stay what it was.
  struct Case {
    double error_rate;
    double spike_rate;
    uint64_t digest;
  };
  const Case cases[] = {
      {0.0, 0.0, 0xc0e5040fcdcbc1d7ULL},
      {0.1, 0.0, 0xcb9b99dbc0283c15ULL},
      {0.0, 0.25, 0x6e079ef00848b8a7ULL},
      {0.05, 0.3, 0xf951a8d7aa0a647fULL},
  };
  for (const Case& c : cases) {
    FaultConfig config;
    config.seed = 2026;
    config.read_error_rate = c.error_rate;
    config.latency_spike_rate = c.spike_rate;
    EXPECT_EQ(SweepDigest(config), c.digest)
        << "error " << c.error_rate << " spike " << c.spike_rate;
  }
}

TEST(FaultInjectorTest, AKillIsSeenByEveryReadThatStartsAfterIt) {
  // Readers race kills and revives of node 1 (node 0 stays up). Each
  // round publishes "killed" only after KillNode returned, so a reader
  // that sees the round must see the node down: the lock-free liveness
  // path may never report a stale "up". Under TSan this is also the
  // race check of that path.
  FaultInjector injector;
  constexpr int kRounds = 200;
  constexpr int kReaders = 3;
  std::atomic<int> killed_round{-1};
  std::atomic<int> done_readers{0};
  std::atomic<int> stale{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      int seen = -1;
      while (seen < kRounds - 1) {
        const int round = killed_round.load(std::memory_order_acquire);
        // Node 0 is never down; node 1's answer here races the churn.
        if (!injector.OnRead(0, "p", 0).status.ok()) stale.fetch_add(1);
        // kvscale-lint: allow(discarded-status) a racing read: its answer depends on the interleaving
        (void)injector.OnRead(1, "p", 0);
        if (round == seen) continue;
        // Node 1 stays down until every reader checked this round.
        if (!injector.IsNodeDown(1) || injector.OnRead(1, "p", 0).status.ok()) {
          stale.fetch_add(1);
        }
        if (injector.IsNodeDown(0)) stale.fetch_add(1);
        seen = round;
        done_readers.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }
  for (int round = 0; round < kRounds; ++round) {
    injector.KillNode(1);
    killed_round.store(round, std::memory_order_release);
    while (done_readers.load(std::memory_order_acquire) <
           kReaders * (round + 1)) {
      std::this_thread::yield();
    }
    injector.ReviveNode(1);
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(stale.load(), 0);
  EXPECT_FALSE(injector.IsNodeDown(1));
}

TEST(FaultInjectorTest, ErrorRateIsRoughlyHonoured) {
  FaultConfig config;
  config.read_error_rate = 0.2;
  const FaultInjector injector(config);
  int errors = 0;
  const int samples = 4000;
  for (int i = 0; i < samples; ++i) {
    if (!injector.OnRead(i % 8, "key-" + std::to_string(i), 0).status.ok()) {
      ++errors;
    }
  }
  const double rate = static_cast<double>(errors) / samples;
  EXPECT_NEAR(rate, 0.2, 0.05);
  EXPECT_EQ(injector.injected_errors(), static_cast<uint64_t>(errors));
}

TEST(FaultInjectorTest, TruncateFileTailClampsToFileSize) {
  const std::string path = TempPath("truncate");
  {
    std::ofstream out(path, std::ios::binary);
    out << std::string(100, 'x');
  }
  ASSERT_TRUE(FaultInjector::TruncateFileTail(path, 40).ok());
  EXPECT_EQ(std::filesystem::file_size(path), 60u);
  ASSERT_TRUE(FaultInjector::TruncateFileTail(path, 10000).ok());
  EXPECT_EQ(std::filesystem::file_size(path), 0u);
  EXPECT_EQ(FaultInjector::TruncateFileTail("/tmp/kvscale_no_such_file", 1)
                .code(),
            StatusCode::kNotFound);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Cluster-level fault tolerance over real data.

// The headline chaos run: replication 3, one node killed, a 1% injected
// read-error rate, and one corrupted segment block — the gather must
// return the *exact* healthy answer, with zero failed sub-queries and the
// recovery work visible in the counters and exported metrics.
TEST(ClusterFaultToleranceTest, ChaosGatherMatchesHealthyRunExactly) {
  MetricsRegistry registry;
  InProcessCluster cluster(6, PlacementKind::kDhtRandom, StoreOptions{}, 7,
                           3);
  cluster.AttachTelemetry(nullptr, &registry);
  TypeCounts truth;
  const WorkloadSpec workload = LoadUniform(cluster, 60, 30, &truth);
  cluster.FlushAll();

  const GatherResult healthy = cluster.CountByTypeAll(workload);
  ASSERT_EQ(healthy.totals, truth);
  ASSERT_FALSE(healthy.partial);
  ASSERT_EQ(healthy.retries, 0u);

  // Unleash chaos: a flaky network, a dead node, one corrupted block.
  FaultConfig config;
  config.seed = 1234;
  config.read_error_rate = 0.01;
  FaultInjector injector(config);
  cluster.AttachFaultInjector(&injector);
  cluster.KillNode(1);
  auto table = cluster.node(0).FindTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(
      table.value()->CorruptBlockForFaultInjection(0, 0, 12345).ok());

  GatherOptions options;
  options.max_attempts = 4;
  const GatherResult chaos = cluster.CountByTypeAll(workload, options);

  EXPECT_EQ(chaos.totals, truth);  // bit-identical to the healthy run
  EXPECT_EQ(chaos.failed, 0u);
  EXPECT_FALSE(chaos.partial);
  EXPECT_GT(chaos.retries, 0u);
  EXPECT_GT(chaos.errors_per_node[1], 0u);  // the dead node was tried
  EXPECT_EQ(chaos.completed + chaos.failed, chaos.subqueries);
  EXPECT_EQ(chaos.subqueries, workload.partitions.size());

  // The failure counters made it into the registry and its JSONL export.
  EXPECT_GT(registry.GetCounter("cluster.read.errors").Value(), 0u);
  EXPECT_GT(registry.GetCounter("cluster.read.retries").Value(), 0u);
  const std::string metrics_path = TempPath("chaos_metrics");
  ASSERT_TRUE(WriteMetricsJsonl(registry, metrics_path).ok());
  std::ifstream in(metrics_path);
  std::stringstream exported;
  exported << in.rdbuf();
  EXPECT_NE(exported.str().find("cluster.read.errors"), std::string::npos);
  EXPECT_NE(exported.str().find("cluster.read.retries"), std::string::npos);
  std::remove(metrics_path.c_str());
}

TEST(ClusterFaultToleranceTest, ReplicationOneDegradesInsteadOfAborting) {
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  TypeCounts truth;
  const WorkloadSpec workload = LoadUniform(cluster, 40, 10, &truth);
  cluster.FlushAll();

  cluster.KillNode(2);
  const GatherResult result = cluster.CountByTypeAll(workload);

  // The gather completes and reports exactly what is missing.
  EXPECT_TRUE(result.partial);
  EXPECT_GT(result.failed, 0u);
  EXPECT_EQ(result.lost_partitions.size(), result.failed);
  EXPECT_EQ(result.completed + result.failed, result.subqueries);
  for (const std::string& key : result.lost_partitions) {
    EXPECT_EQ(cluster.OwnerOf(key), 2u) << key;
  }
  // Everything the dead node did not own is still counted.
  uint64_t counted = 0, expected = 0;
  for (const auto& [type, count] : result.totals) counted += count;
  for (const auto& [type, count] : truth) expected += count;
  EXPECT_EQ(counted, expected - result.failed * 10u);
}

// Satellite: a bit-flipped segment must surface kCorruption (never a
// silently wrong count) and the gather must fail over to a clean replica.
TEST(ClusterFaultToleranceTest, CorruptionIsDetectedAndFailedOver) {
  MetricsRegistry registry;
  StoreOptions store_options;
  store_options.metrics = &registry;
  InProcessCluster cluster(2, PlacementKind::kDhtRandom, store_options, 7,
                           2);
  TypeCounts truth;
  const WorkloadSpec workload = LoadUniform(cluster, 20, 40, &truth);
  cluster.FlushAll();

  // Corrupt every block on one node; its replica keeps the clean copies.
  const NodeId victim = cluster.OwnerOf(workload.partitions[0].key);
  auto table = cluster.node(victim).FindTable("t");
  ASSERT_TRUE(table.ok());
  Rng rng(99);
  EXPECT_GT(table.value()->CorruptBlocksForFaultInjection(1.0, rng), 0u);

  // Direct store read: kCorruption, not a wrong answer.
  const auto direct = table.value()->CountByType(workload.partitions[0].key);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kCorruption);
  EXPECT_GT(registry.GetCounter("store.read.corruption").Value(), 0u);

  // The gather routes around the damage and still answers exactly.
  const GatherResult result = cluster.CountByTypeAll(workload);
  EXPECT_EQ(result.totals, truth);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GT(result.retries, 0u);
  EXPECT_GT(result.errors_per_node[victim], 0u);
}

TEST(ClusterFaultToleranceTest, KillReviveReplaysTheWalAndHeals) {
  const std::string wal_prefix = TempPath("wal");
  StoreOptions store_options;
  store_options.wal_path = wal_prefix;
  TypeCounts truth;
  {
    InProcessCluster cluster(3, PlacementKind::kDhtRandom, store_options, 7);
    const WorkloadSpec workload = LoadUniform(cluster, 30, 8, &truth);
    // No FlushAll: the data lives in memtables + the per-node WALs, like
    // a node crashing mid-ingest.

    cluster.KillNode(0);
    const GatherResult degraded = cluster.CountByTypeAll(workload);
    EXPECT_TRUE(degraded.partial);
    EXPECT_GT(degraded.failed, 0u);

    // Restart: the replacement store starts empty and replays its log.
    auto recovered = cluster.ReviveNode(0);
    ASSERT_TRUE(recovered.ok());
    EXPECT_GT(recovered.value(), 0u);

    const GatherResult healed = cluster.CountByTypeAll(workload);
    EXPECT_EQ(healed.totals, truth);
    EXPECT_FALSE(healed.partial);
    EXPECT_EQ(healed.failed, 0u);
  }
  for (int n = 0; n < 3; ++n) {
    std::remove((wal_prefix + ".node" + std::to_string(n)).c_str());
  }
}

TEST(ClusterFaultToleranceTest, ParallelChaosGatherMatchesSerial) {
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 7,
                           2);
  const WorkloadSpec workload = LoadUniform(cluster, 50, 12);
  cluster.FlushAll();

  FaultConfig config;
  config.seed = 555;
  config.read_error_rate = 0.05;
  FaultInjector injector(config);
  cluster.AttachFaultInjector(&injector);
  cluster.KillNode(3);

  GatherOptions options;
  options.max_attempts = 3;
  const GatherResult serial = cluster.CountByTypeAll(workload, options);
  EXPECT_GT(serial.retries, 0u);
  for (uint32_t threads : {2u, 4u, 7u}) {
    GatherOptions parallel_options = options;
    parallel_options.transport = GatherTransport::kMessage;
    parallel_options.workers_per_node = threads;
    const GatherResult parallel =
        cluster.CountByTypeAll(workload, parallel_options);
    // Fault decisions are stateless hashes, so the chaos is bit-identical
    // regardless of how many node workers serve it.
    EXPECT_EQ(parallel.totals, serial.totals) << threads;
    EXPECT_EQ(parallel.requests_per_node, serial.requests_per_node);
    EXPECT_EQ(parallel.errors_per_node, serial.errors_per_node);
    EXPECT_EQ(parallel.completed, serial.completed);
    EXPECT_EQ(parallel.failed, serial.failed);
    EXPECT_EQ(parallel.retries, serial.retries);
    EXPECT_EQ(parallel.lost_partitions, serial.lost_partitions);
  }
}

TEST(ClusterFaultToleranceTest, HedgingCutsInjectedTailLatency) {
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 7,
                           2);
  TypeCounts truth;
  const WorkloadSpec workload = LoadUniform(cluster, 60, 6, &truth);
  cluster.FlushAll();

  FaultConfig config;
  config.seed = 9;
  config.latency_spike_rate = 0.3;
  config.latency_spike_us = 10.0 * kMillisecond;
  FaultInjector injector(config);
  cluster.AttachFaultInjector(&injector);

  GatherOptions plain;
  const GatherResult slow = cluster.CountByTypeAll(workload, plain);
  GatherOptions hedged = plain;
  hedged.hedge = true;
  hedged.hedge_threshold_us = 1.0 * kMillisecond;
  const GatherResult fast = cluster.CountByTypeAll(workload, hedged);

  EXPECT_EQ(slow.totals, truth);
  EXPECT_EQ(fast.totals, truth);  // hedging never changes the answer
  EXPECT_GT(fast.hedged, 0u);
  EXPECT_EQ(slow.hedged, 0u);
  // A hedge that wins replaces a full spike with threshold + clean read.
  EXPECT_LT(fast.virtual_latency_us, slow.virtual_latency_us);
}

TEST(ClusterFaultToleranceTest, DeadlineStopsRetryingAndDegrades) {
  InProcessCluster cluster(3, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  const WorkloadSpec workload = LoadUniform(cluster, 30, 5);
  cluster.FlushAll();
  cluster.KillNode(1);  // replication 1: those partitions cannot succeed

  GatherOptions patient;
  patient.max_attempts = 5;
  patient.backoff_base_us = 1000.0;
  const GatherResult unbounded = cluster.CountByTypeAll(workload, patient);

  GatherOptions bounded = patient;
  bounded.deadline_us = 1500.0;  // one backoff step and the budget is gone
  const GatherResult deadlined = cluster.CountByTypeAll(workload, bounded);

  // Same data lost either way, but the deadline spends far fewer retries.
  EXPECT_EQ(deadlined.totals, unbounded.totals);
  EXPECT_EQ(deadlined.failed, unbounded.failed);
  EXPECT_LT(deadlined.retries, unbounded.retries);
  EXPECT_LE(deadlined.virtual_latency_us, unbounded.virtual_latency_us);
  EXPECT_EQ(deadlined.completed + deadlined.failed, deadlined.subqueries);
}

// A failing log device must degrade the put — skip the replica, tally
// the error, surface a Status — never crash the process. (Before the
// fix, Put KV_CHECKed the WAL append and a single injected failure
// aborted the whole run.)
TEST(ClusterFaultToleranceTest, InjectedWalFailureDegradesPutNotTheProcess) {
  const std::string wal_prefix = TempPath("walfail");
  StoreOptions store_options;
  store_options.wal_path = wal_prefix;
  MetricsRegistry registry;
  InProcessCluster cluster(3, PlacementKind::kDhtRandom, store_options, 7);
  cluster.AttachTelemetry(nullptr, &registry);

  FaultConfig config;
  config.seed = 77;
  config.wal_error_rate = 0.2;
  FaultInjector injector(config);
  cluster.AttachFaultInjector(&injector);

  // OnWalWrite hashes (seed, node, key): every column of a partition
  // lands on the same decision, so with replication 1 a partition is
  // either fully written or fully refused.
  WorkloadSpec workload;
  workload.table = "t";
  TypeCounts truth;
  uint64_t lost_partitions = 0;
  uint64_t failed_puts = 0;
  for (int part = 0; part < 40; ++part) {
    const std::string key = "p" + std::to_string(part);
    bool wrote = true;
    for (int i = 0; i < 4; ++i) {
      Column c;
      c.clustering = i;
      c.type_id = i % 3;
      c.payload = MakePayload(part, i, 24);
      const PutResult put = cluster.Put("t", key, std::move(c));
      if (put.ok()) {
        ++truth[i % 3];
      } else {
        EXPECT_EQ(put.first_error.code(), StatusCode::kUnavailable);
        wrote = false;
        ++failed_puts;
      }
    }
    if (!wrote) ++lost_partitions;
    workload.partitions.push_back(PartitionRef{key, 4});
  }
  ASSERT_GT(failed_puts, 0u);  // the fault really fired...
  ASSERT_LT(lost_partitions, 40u);  // ...but not everywhere
  EXPECT_GT(injector.injected_wal_errors(), 0u);
  EXPECT_EQ(registry.GetCounter("cluster.put.errors").Value(), failed_puts);

  // The written partitions still answer exactly; the refused ones read
  // as clean authoritative misses, not errors.
  const GatherResult result = cluster.CountByTypeAll(workload);
  EXPECT_EQ(result.totals, truth);
  EXPECT_EQ(result.partitions_missing, lost_partitions);
  EXPECT_EQ(result.failed, 0u);
  for (int n = 0; n < 3; ++n) {
    std::remove((wal_prefix + ".node" + std::to_string(n)).c_str());
  }
}

}  // namespace
}  // namespace kvscale
