// Tests for the real-data sharded cluster (InProcessCluster).
#include <gtest/gtest.h>

#include <map>

#include "cluster/in_process_cluster.hpp"
#include "store/row.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/span_tracer.hpp"
#include "workload/alya.hpp"
#include "workload/d8tree.hpp"
#include "workload/granularity.hpp"

namespace kvscale {
namespace {

Column ParticleColumn(const Particle& p, uint64_t cube_seed) {
  Column c;
  c.clustering = p.id;
  c.type_id = p.type;
  c.payload = MakePayload(cube_seed, p.id, kParticlePayloadBytes);
  return c;
}

TEST(InProcessClusterTest, RoutingIsStable) {
  InProcessCluster cluster(8, PlacementKind::kDhtRandom, StoreOptions{}, 1);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_EQ(cluster.OwnerOf(key), cluster.OwnerOf(key));
    EXPECT_LT(cluster.OwnerOf(key), 8u);
  }
}

TEST(InProcessClusterTest, DistributedAggregationMatchesTruth) {
  AlyaParams params;
  params.particles = 8000;
  params.seed = 101;
  const auto particles = GenerateAlyaParticles(params);
  const D8Tree tree(particles, 3);

  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  WorkloadSpec workload;
  workload.table = "cubes";
  TypeCounts truth;
  for (const auto& [morton, count] : tree.CubeSizes(3)) {
    const std::string key = CubeKey(3, morton);
    for (uint64_t id : tree.CubeParticles(3, morton)) {
      const Particle& p = particles[id];
      EXPECT_TRUE(cluster.Put("cubes", key, ParticleColumn(p, morton)).ok());
      ++truth[p.type];
    }
    workload.partitions.push_back(PartitionRef{key, count});
  }
  cluster.FlushAll();

  const GatherResult result = cluster.CountByTypeAll(workload);
  EXPECT_EQ(result.partitions_missing, 0u);
  EXPECT_EQ(result.totals, truth);
  uint64_t requests = 0;
  for (uint64_t r : result.requests_per_node) requests += r;
  EXPECT_EQ(requests, workload.partitions.size());
}

TEST(InProcessClusterTest, ColumnsLandOnOwnersOnly) {
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  Column c;
  c.clustering = 1;
  c.type_id = 0;
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(cluster.Put("t", "part-" + std::to_string(i), c).ok());
  }
  cluster.FlushAll();
  const auto per_node = cluster.ColumnsPerNode("t");
  uint64_t total = 0;
  for (uint64_t n : per_node) total += n;
  EXPECT_EQ(total, 200u);
  // Each partition readable exactly from its owner.
  for (int i = 0; i < 200; ++i) {
    const std::string key = "part-" + std::to_string(i);
    const NodeId owner = cluster.OwnerOf(key);
    auto table = cluster.node(owner).FindTable("t");
    ASSERT_TRUE(table.ok());
    EXPECT_TRUE(table.value()->HasPartition(key)) << key;
  }
}

TEST(InProcessClusterTest, MissingPartitionsAreCounted) {
  InProcessCluster cluster(2, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  Column c;
  c.clustering = 1;
  EXPECT_TRUE(cluster.Put("t", "exists", c).ok());
  cluster.FlushAll();
  WorkloadSpec workload;
  workload.table = "t";
  workload.partitions = {PartitionRef{"exists", 1}, PartitionRef{"nope", 1}};
  const auto result = cluster.CountByTypeAll(workload);
  EXPECT_EQ(result.partitions_missing, 1u);
  EXPECT_EQ(result.totals.at(0), 1u);
}

TEST(InProcessClusterTest, ProbesRecordRealWork) {
  InProcessCluster cluster(2, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  Column c;
  c.clustering = 1;
  for (int i = 0; i < 50; ++i) {
    c.clustering = i;
    EXPECT_TRUE(cluster.Put("t", "p", c).ok());
  }
  cluster.FlushAll();
  WorkloadSpec workload;
  workload.table = "t";
  workload.partitions = {PartitionRef{"p", 50}};
  const auto result = cluster.CountByTypeAll(workload);
  uint64_t decoded = 0;
  for (const auto& probe : result.probes_per_node) {
    decoded += probe.blocks_decoded + probe.blocks_from_cache;
  }
  EXPECT_GT(decoded, 0u);
}

TEST(InProcessClusterTest, ReplicationStoresEveryCopyAndAllReplicasAgree) {
  constexpr uint32_t kReplication = 3;
  InProcessCluster cluster(5, PlacementKind::kDhtRandom, StoreOptions{}, 9,
                           kReplication);
  EXPECT_EQ(cluster.replication(), kReplication);

  WorkloadSpec workload;
  workload.table = "t";
  TypeCounts truth;
  for (int part = 0; part < 40; ++part) {
    const std::string key = "p" + std::to_string(part);
    for (int i = 0; i < 25; ++i) {
      Column c;
      c.clustering = i;
      c.type_id = i % 3;
      EXPECT_TRUE(cluster.Put("t", key, c).ok());
      ++truth[i % 3];
    }
    workload.partitions.push_back(PartitionRef{key, 25});
  }
  cluster.FlushAll();

  // The replica set is stable, distinct, primary-first.
  for (const auto& part : workload.partitions) {
    const auto& replicas = cluster.ReplicasOf(part.key);
    ASSERT_EQ(replicas.size(), kReplication);
    EXPECT_EQ(replicas.front(), cluster.OwnerOf(part.key));
    std::set<NodeId> unique(replicas.begin(), replicas.end());
    EXPECT_EQ(unique.size(), kReplication);
  }

  // Every replica serves the identical answer.
  for (uint32_t replica = 0; replica < kReplication + 1; ++replica) {
    GatherOptions options;
    options.replica = replica;
    const auto result = cluster.CountByTypeAll(workload, options);
    EXPECT_EQ(result.partitions_missing, 0u) << replica;
    EXPECT_EQ(result.totals, truth) << replica;
  }

  // Storage cost: three full copies of the data.
  uint64_t stored = 0;
  for (uint64_t c : cluster.ColumnsPerNode("t")) stored += c;
  EXPECT_EQ(stored, 40u * 25u * kReplication);
}

TEST(InProcessClusterTest, ReplicationClampedToClusterSize) {
  InProcessCluster cluster(2, PlacementKind::kDhtRandom, StoreOptions{}, 9,
                           8);
  EXPECT_EQ(cluster.replication(), 2u);
}

TEST(InProcessClusterTest, ReplicaReadsSpreadRequestLoad) {
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 9,
                           2);
  WorkloadSpec workload;
  workload.table = "t";
  for (int part = 0; part < 100; ++part) {
    const std::string key = "p" + std::to_string(part);
    Column c;
    c.clustering = 1;
    EXPECT_TRUE(cluster.Put("t", key, c).ok());
    workload.partitions.push_back(PartitionRef{key, 1});
  }
  cluster.FlushAll();
  GatherOptions second_copy;
  second_copy.replica = 1;
  const auto primary = cluster.CountByTypeAll(workload);
  const auto secondary = cluster.CountByTypeAll(workload, second_copy);
  EXPECT_EQ(primary.totals, secondary.totals);
  // Reading the second copy shifts the per-node request counts.
  EXPECT_NE(primary.requests_per_node, secondary.requests_per_node);
}

TEST(InProcessClusterTest, ParallelGatherMatchesSerial) {
  AlyaParams params;
  params.particles = 12000;
  params.seed = 55;
  const auto particles = GenerateAlyaParticles(params);
  const D8Tree tree(particles, 3);

  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  WorkloadSpec workload;
  workload.table = "cubes";
  for (const auto& [morton, count] : tree.CubeSizes(3)) {
    const std::string key = CubeKey(3, morton);
    for (uint64_t id : tree.CubeParticles(3, morton)) {
      EXPECT_TRUE(cluster.Put("cubes", key, ParticleColumn(particles[id], morton)).ok());
    }
    workload.partitions.push_back(PartitionRef{key, count});
  }
  cluster.FlushAll();

  // Node-side parallelism lives in the message transport's worker
  // pools: any pool width folds the same answer as the serial gather.
  const GatherResult serial = cluster.CountByTypeAll(workload);
  for (uint32_t threads : {1u, 2u, 4u, 7u}) {
    GatherOptions options;
    options.transport = GatherTransport::kMessage;
    options.workers_per_node = threads;
    const GatherResult parallel = cluster.CountByTypeAll(workload, options);
    EXPECT_EQ(parallel.totals, serial.totals) << threads;
    EXPECT_EQ(parallel.partitions_missing, serial.partitions_missing);
    EXPECT_EQ(parallel.requests_per_node, serial.requests_per_node);
  }
}

TEST(InProcessClusterTest, TelemetryCountersTrackTheDataPath) {
  MetricsRegistry registry;
  SpanTracer spans;
  StoreOptions options;
  options.metrics = &registry;
  InProcessCluster cluster(2, PlacementKind::kDhtRandom, options, 7);
  cluster.AttachTelemetry(&spans, &registry);

  WorkloadSpec workload;
  workload.table = "t";
  for (int part = 0; part < 20; ++part) {
    const std::string key = "p" + std::to_string(part);
    for (int i = 0; i < 30; ++i) {
      Column c;
      c.clustering = i;
      c.type_id = i % 4;
      c.payload = MakePayload(part, i, 30);
      EXPECT_TRUE(cluster.Put("t", key, c).ok());
    }
    workload.partitions.push_back(PartitionRef{key, 30});
  }
  cluster.FlushAll();
  EXPECT_GE(registry.GetCounter("store.memtable.flushes").Value(), 1u);

  // Cold round: every block is decoded (a cache miss), nothing is served
  // from the cache yet.
  const auto cold = cluster.CountByTypeAll(workload);
  EXPECT_EQ(cold.partitions_missing, 0u);
  const uint64_t cold_misses = registry.GetCounter("store.cache.misses").Value();
  const uint64_t cold_hits = registry.GetCounter("store.cache.hits").Value();
  EXPECT_GT(cold_misses, 0u);
  EXPECT_EQ(cold_hits, 0u);
  EXPECT_EQ(registry.GetCounter("cluster.subqueries").Value(), 20u);
  EXPECT_EQ(registry.GetCounter("store.read.count").Value(), 20u);

  // Warm round: the same reads now come from the block cache.
  const auto warm = cluster.CountByTypeAll(workload);
  EXPECT_EQ(warm.totals, cold.totals);
  EXPECT_GT(registry.GetCounter("store.cache.hits").Value(), cold_hits);
  EXPECT_EQ(registry.GetCounter("store.cache.misses").Value(), cold_misses);
  EXPECT_EQ(registry.GetCounter("cluster.subqueries").Value(), 40u);

  // Reads of absent partitions are answered by the bloom filter.
  WorkloadSpec absent;
  absent.table = "t";
  for (int i = 0; i < 10; ++i) {
    absent.partitions.push_back(PartitionRef{"missing-" + std::to_string(i), 1});
  }
  const auto missing = cluster.CountByTypeAll(absent);
  EXPECT_EQ(missing.partitions_missing, 10u);
  EXPECT_GT(registry.GetCounter("store.bloom.negatives").Value(), 0u);
  EXPECT_EQ(registry.GetCounter("cluster.partitions_missing").Value(), 10u);

  // The latency histogram saw every instrumented read, and the gather
  // emitted spans: 3 gathers, route + store-read per sub-query, fold for
  // the 40 sub-queries that found data.
  EXPECT_EQ(registry.GetHistogram("cluster.subquery.latency_us").Count(), 50u);
  EXPECT_GT(registry.GetHistogram("store.read.latency_us").Count(), 0u);
  EXPECT_EQ(spans.size(), 3u + 2u * 50u + 40u);

  // Detaching telemetry stops the counters without breaking reads.
  cluster.AttachTelemetry(nullptr, nullptr);
  cluster.CountByTypeAll(workload);
  EXPECT_EQ(registry.GetCounter("cluster.subqueries").Value(), 50u);
}

class PlacementKindSweep : public ::testing::TestWithParam<PlacementKind> {};

TEST_P(PlacementKindSweep, AggregationCorrectUnderEveryPolicy) {
  InProcessCluster cluster(3, GetParam(), StoreOptions{}, 11);
  WorkloadSpec workload;
  workload.table = "t";
  TypeCounts truth;
  for (int part = 0; part < 30; ++part) {
    const std::string key = "p" + std::to_string(part);
    for (int i = 0; i < 20; ++i) {
      Column c;
      c.clustering = i;
      c.type_id = i % 4;
      EXPECT_TRUE(cluster.Put("t", key, c).ok());
      ++truth[i % 4];
    }
    workload.partitions.push_back(PartitionRef{key, 20});
  }
  cluster.FlushAll();
  const auto result = cluster.CountByTypeAll(workload);
  EXPECT_EQ(result.partitions_missing, 0u);
  EXPECT_EQ(result.totals, truth);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PlacementKindSweep,
    ::testing::Values(PlacementKind::kDhtRandom, PlacementKind::kTokenRing,
                      PlacementKind::kRoundRobin,
                      PlacementKind::kJumpHash));

// A load-aware policy must see *read* traffic, not just first placements:
// dispatch feedback is recorded where requests are actually issued, so a
// hot partition's repeat traffic steers new placements away from its
// node. (Before the fix, OnDispatch only fired on a directory miss, so a
// thousand gathers over one key looked like zero load.)
TEST(InProcessClusterTest, RepeatedGathersSteerLoadAwarePlacement) {
  InProcessCluster cluster(2, PlacementKind::kLeastLoaded, StoreOptions{}, 5);
  WorkloadSpec hot;
  hot.table = "t";
  Column c;
  c.clustering = 1;
  c.type_id = 0;
  EXPECT_TRUE(cluster.Put("t", "hot", c).ok());
  hot.partitions.push_back(PartitionRef{"hot", 1});
  cluster.FlushAll();
  const NodeId hot_node = cluster.OwnerOf("hot");
  const NodeId cold_node = 1 - hot_node;

  // Hammer the hot partition: every read is dispatched load.
  for (int round = 0; round < 20; ++round) {
    const GatherResult r = cluster.CountByTypeAll(hot);
    ASSERT_EQ(r.failed, 0u);
  }
  const std::vector<int64_t> load = cluster.PlacementLoad();
  EXPECT_GE(load[hot_node], 20);  // the write + twenty reads
  EXPECT_GT(load[hot_node], load[cold_node] + 10);

  // Least-loaded now sends every fresh key to the cold node until it
  // catches up — far more than the ten we place.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(cluster.OwnerOf("fresh-" + std::to_string(i)), cold_node)
        << "fresh key " << i << " ignored the hot node's read traffic";
  }
}

}  // namespace
}  // namespace kvscale
