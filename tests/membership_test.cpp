// Tests for elastic membership: live partition migration, replica
// re-protection after permanent node loss, the shared runtime surviving
// membership changes that add no node slot, gathers racing a membership
// change (the chaos drill), and FlushAll / ReviveNode serialized against
// membership churn.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/in_process_cluster.hpp"
#include "store/row.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/timeseries.hpp"

namespace kvscale {
namespace {

/// Loads `partitions` partitions of `columns` columns each into table "t"
/// and returns the matching workload; `truth` accumulates the expected
/// fold.
WorkloadSpec LoadCluster(InProcessCluster& cluster, int partitions,
                         int columns, TypeCounts& truth) {
  WorkloadSpec workload;
  workload.table = "t";
  for (int part = 0; part < partitions; ++part) {
    const std::string key = "part-" + std::to_string(part);
    for (int i = 0; i < columns; ++i) {
      Column c;
      c.clustering = i;
      c.type_id = i % 3;
      c.payload = {std::byte{0xab}, std::byte(part & 0xff)};
      EXPECT_TRUE(cluster.Put("t", key, c).ok());
      ++truth[i % 3];
    }
    workload.partitions.push_back(
        PartitionRef{key, static_cast<uint32_t>(columns)});
  }
  cluster.FlushAll();
  return workload;
}

TEST(MembershipSmoke, AddNodeStreamsOwnershipAndGathersStayExact) {
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 11,
                           2);
  TypeCounts truth;
  const WorkloadSpec workload = LoadCluster(cluster, 60, 20, truth);
  EXPECT_EQ(cluster.ring_epoch(), 0u);

  auto joined = cluster.AddNode();
  ASSERT_TRUE(joined.ok()) << joined.status().message();
  const MembershipReport& report = joined.value();
  EXPECT_EQ(report.node, 4u);
  EXPECT_EQ(cluster.node_count(), 5u);
  EXPECT_GE(cluster.ring_epoch(), 1u);
  EXPECT_EQ(report.ring_epoch, cluster.ring_epoch());
  EXPECT_EQ(report.partitions_lost, 0u);
  EXPECT_GT(report.partitions_moved, 0u);
  EXPECT_GT(report.blocks_streamed, 0u);
  EXPECT_GT(report.bytes_streamed, 0u);
  EXPECT_EQ(cluster.Members(),
            (std::vector<NodeId>{0u, 1u, 2u, 3u, 4u}));

  // The new node actually owns data now, and every key's replica set is
  // intact and served from real copies.
  const auto per_node = cluster.ColumnsPerNode("t");
  ASSERT_EQ(per_node.size(), 5u);
  EXPECT_GT(per_node[4], 0u);
  for (const auto& part : workload.partitions) {
    const std::vector<NodeId> replicas = cluster.ReplicasOf(part.key);
    ASSERT_EQ(replicas.size(), 2u);
    for (const NodeId r : replicas) {
      auto table = cluster.node(r).FindTable("t");
      ASSERT_TRUE(table.ok());
      EXPECT_TRUE(table.value()->HasPartition(part.key))
          << part.key << " missing on node " << r;
    }
  }

  const GatherResult result = cluster.CountByTypeAll(workload);
  EXPECT_EQ(result.completed, result.subqueries);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.totals, truth);
}

TEST(MembershipSmoke, DecommissionDrainsBeforeTheNodeDies) {
  InProcessCluster cluster(5, PlacementKind::kDhtRandom, StoreOptions{}, 13,
                           2);
  TypeCounts truth;
  const WorkloadSpec workload = LoadCluster(cluster, 50, 15, truth);

  auto removed = cluster.DecommissionNode(1);
  ASSERT_TRUE(removed.ok()) << removed.status().message();
  EXPECT_EQ(removed.value().partitions_lost, 0u);
  EXPECT_TRUE(cluster.fault_injector().IsNodeDown(1));
  const std::vector<NodeId> members = cluster.Members();
  EXPECT_EQ(std::count(members.begin(), members.end(), 1u), 0);
  // Slots are append-only: the id stays allocated, just not a member.
  EXPECT_EQ(cluster.node_count(), 5u);

  // No replica set references the decommissioned node any more.
  for (const auto& part : workload.partitions) {
    const std::vector<NodeId> replicas = cluster.ReplicasOf(part.key);
    ASSERT_EQ(replicas.size(), 2u);
    EXPECT_EQ(std::count(replicas.begin(), replicas.end(), 1u), 0)
        << part.key;
  }

  const GatherResult result = cluster.CountByTypeAll(workload);
  EXPECT_EQ(result.completed, result.subqueries);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.totals, truth);
}

TEST(MembershipSmoke, MembershipOpsRefuseToBreakReplication) {
  InProcessCluster cluster(2, PlacementKind::kDhtRandom, StoreOptions{}, 17,
                           2);
  TypeCounts truth;
  LoadCluster(cluster, 10, 5, truth);

  EXPECT_EQ(cluster.DecommissionNode(0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster.FailNodePermanently(1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(cluster.DecommissionNode(9).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(cluster.FailNodePermanently(9).status().code(),
            StatusCode::kNotFound);
  // The refusals changed nothing: both nodes still serve.
  EXPECT_EQ(cluster.Members(), (std::vector<NodeId>{0u, 1u}));
  EXPECT_FALSE(cluster.fault_injector().IsNodeDown(0));
  EXPECT_FALSE(cluster.fault_injector().IsNodeDown(1));
}

TEST(MembershipSmoke, PermanentFailureReprotectsEveryPartition) {
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 19,
                           2);
  TypeCounts truth;
  const WorkloadSpec workload = LoadCluster(cluster, 60, 10, truth);

  auto failed = cluster.FailNodePermanently(2);
  ASSERT_TRUE(failed.ok()) << failed.status().message();
  const MembershipReport& report = failed.value();
  EXPECT_EQ(report.partitions_lost, 0u);
  EXPECT_TRUE(report.lost_partitions.empty());
  EXPECT_TRUE(cluster.fault_injector().IsNodeDown(2));

  // Replication is healed: every key has two live copies, neither on the
  // dead node, and both actually hold the partition.
  for (const auto& part : workload.partitions) {
    const std::vector<NodeId> replicas = cluster.ReplicasOf(part.key);
    ASSERT_EQ(replicas.size(), 2u);
    EXPECT_EQ(std::count(replicas.begin(), replicas.end(), 2u), 0)
        << part.key;
    for (const NodeId r : replicas) {
      auto table = cluster.node(r).FindTable("t");
      ASSERT_TRUE(table.ok());
      EXPECT_TRUE(table.value()->HasPartition(part.key))
          << part.key << " missing on node " << r;
    }
  }

  const GatherResult result = cluster.CountByTypeAll(workload);
  EXPECT_EQ(result.completed, result.subqueries);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.totals, truth);
}

TEST(MembershipSmoke, DecommissionAndLossKeepTheSharedRuntime) {
  // Only a new node slot needs a new runtime. A decommission or a
  // permanent loss keeps the slot count, so message gathers keep the
  // runtime they had: its workers bounce the dead node's requests.
  InProcessCluster cluster(5, PlacementKind::kDhtRandom, StoreOptions{}, 47,
                           2);
  TypeCounts truth;
  const WorkloadSpec workload = LoadCluster(cluster, 40, 6, truth);
  GatherOptions message;
  message.transport = GatherTransport::kMessage;
  message.batch = true;
  message.max_attempts = 4;
  auto expect_exact = [&](const std::string& label) {
    const GatherResult result = cluster.CountByTypeAll(workload, message);
    EXPECT_EQ(result.totals, truth) << label;
    EXPECT_EQ(result.completed, result.subqueries) << label;
    EXPECT_EQ(result.failed, 0u) << label;
    EXPECT_EQ(cluster.runtime_builds(), 1u) << label;
  };
  expect_exact("before");

  auto drained = cluster.DecommissionNode(1);
  ASSERT_TRUE(drained.ok()) << drained.status().message();
  expect_exact("after decommission");

  auto lost = cluster.FailNodePermanently(3);
  ASSERT_TRUE(lost.ok()) << lost.status().message();
  EXPECT_EQ(lost.value().partitions_lost, 0u);
  expect_exact("after permanent loss");
}

TEST(MembershipSmoke, UnreplicatedLossIsReportedNotLaundered) {
  // replication=1: partitions held only by the dead node cannot be
  // re-protected. They must be reported lost, and gathers must keep
  // failing them loudly instead of returning an authoritative miss.
  InProcessCluster cluster(3, PlacementKind::kDhtRandom, StoreOptions{}, 23,
                           1);
  TypeCounts truth;
  const WorkloadSpec workload = LoadCluster(cluster, 45, 8, truth);

  auto failed = cluster.FailNodePermanently(0);
  ASSERT_TRUE(failed.ok()) << failed.status().message();
  const MembershipReport& report = failed.value();
  EXPECT_GT(report.partitions_lost, 0u);
  EXPECT_EQ(report.lost_partitions.size(), report.partitions_lost);
  EXPECT_TRUE(std::is_sorted(report.lost_partitions.begin(),
                             report.lost_partitions.end()));

  const GatherResult result = cluster.CountByTypeAll(workload);
  EXPECT_EQ(result.completed + result.failed, result.subqueries);
  EXPECT_TRUE(result.partial);
  EXPECT_EQ(result.failed, report.partitions_lost);
  EXPECT_EQ(result.lost_partitions, report.lost_partitions);
  EXPECT_EQ(result.partitions_missing, 0u);  // loss is not a miss

  // The surviving partitions still fold exactly.
  uint64_t folded = 0;
  uint64_t expected = 0;
  for (const auto& [type, count] : result.totals) folded += count;
  for (const auto& [type, count] : truth) expected += count;
  EXPECT_EQ(folded, expected - report.partitions_lost * 8u);
}

TEST(MigrationFaultTest, CorruptedFramesAreResentNeverApplied) {
  FaultConfig config;
  config.seed = 0xc0ffee;
  config.migration_corrupt_rate = 0.4;
  FaultInjector injector(config);
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 29,
                           2);
  cluster.AttachFaultInjector(&injector);
  TypeCounts truth;
  const WorkloadSpec workload = LoadCluster(cluster, 80, 12, truth);

  auto joined = cluster.AddNode();
  ASSERT_TRUE(joined.ok()) << joined.status().message();
  EXPECT_GT(injector.corrupted_migration_frames(), 0u);
  EXPECT_GT(joined.value().block_retries, 0u);
  EXPECT_EQ(joined.value().partitions_lost, 0u);

  // Every corrupted block was re-sent and verified: the data is intact.
  const GatherResult result = cluster.CountByTypeAll(workload);
  EXPECT_EQ(result.completed, result.subqueries);
  EXPECT_EQ(result.totals, truth);
}

TEST(MigrationFaultTest, SourceDyingMidStreamFailsOverToAnotherReplica) {
  FaultInjector injector;
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 31,
                           2);
  cluster.AttachFaultInjector(&injector);
  TypeCounts truth;
  const WorkloadSpec workload = LoadCluster(cluster, 80, 12, truth);

  // The first block node 0 streams kills it: the classic "source dies
  // during rebalance". Its partitions fail over to the second replica.
  injector.ArmMigrationSourceKill(0, 1);
  auto joined = cluster.AddNode();
  ASSERT_TRUE(joined.ok()) << joined.status().message();
  EXPECT_EQ(injector.migration_source_kills(), 1u);
  EXPECT_TRUE(injector.IsNodeDown(0));
  EXPECT_GE(joined.value().source_failovers, 1u);
  EXPECT_EQ(joined.value().partitions_lost, 0u);

  // Node 0 is down but replication=2 keeps every partition readable.
  const GatherResult result = cluster.CountByTypeAll(workload);
  EXPECT_EQ(result.completed, result.subqueries);
  EXPECT_EQ(result.totals, truth);
}

TEST(MembershipTelemetryTest, RecordsAndSamplesCarryTheRingEpoch) {
  MetricsRegistry metrics;
  MetricsTimeSeries::Options ts_options;
  ts_options.interval_us = 0.0;  // sample on every gather
  MetricsTimeSeries timeseries(&metrics, ts_options);
  FlightRecorder recorder;
  InProcessCluster cluster(3, PlacementKind::kDhtRandom, StoreOptions{}, 37,
                           2);
  cluster.AttachTelemetry(nullptr, &metrics);
  cluster.AttachFlightRecorder(&recorder);
  cluster.AttachTimeSeries(&timeseries);
  TypeCounts truth;
  const WorkloadSpec workload = LoadCluster(cluster, 20, 6, truth);

  cluster.CountByTypeAll(workload);
  ASSERT_TRUE(cluster.AddNode().ok());
  cluster.CountByTypeAll(workload);

  // Loads now deposit "put" records too; the epoch tags live on the two
  // gather records bracketing the membership change.
  std::vector<QueryRecord> records;
  for (const QueryRecord& record : recorder.snapshot()) {
    if (record.query_kind != "put") records.push_back(record);
  }
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records.front().ring_epoch, 0u);
  EXPECT_EQ(records.back().ring_epoch, cluster.ring_epoch());
  EXPECT_GE(cluster.ring_epoch(), 1u);
  EXPECT_NE(recorder.ToJsonl().find("\"ring_epoch\":"), std::string::npos);

  // The trajectory tags every line, and the membership metrics moved.
  const std::string jsonl = timeseries.ToJsonl();
  EXPECT_NE(jsonl.find("\"epoch\":" + std::to_string(cluster.ring_epoch())),
            std::string::npos);
  const MetricsSnapshot snapshot = metrics.Snapshot();
  uint64_t joins = 0;
  uint64_t moved = 0;
  double epoch_gauge = -1.0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "cluster.membership.joins") joins = value;
    if (name == "cluster.migration.partitions") moved = value;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    if (name == "cluster.membership.epoch") epoch_gauge = value;
  }
  EXPECT_EQ(joins, 1u);
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(epoch_gauge, static_cast<double>(cluster.ring_epoch()));
}

TEST(MembershipChaosTest, ConcurrentGathersStayExactThroughTheDrill) {
  // The acceptance drill: 8 clients gather continuously while the
  // cluster joins a node, decommissions another, and loses a third
  // permanently. Every gather — mid-migration included — must fold the
  // exact same totals a quiet cluster folds, and the degraded-read
  // accounting must stay exact on every result.
  constexpr int kPartitions = 48;
  constexpr int kColumns = 10;
  constexpr uint64_t kSeed = 41;

  InProcessCluster quiet(4, PlacementKind::kDhtRandom, StoreOptions{}, kSeed,
                         2);
  TypeCounts truth;
  const WorkloadSpec workload = LoadCluster(quiet, kPartitions, kColumns,
                                            truth);
  const GatherResult quiet_result = quiet.CountByTypeAll(workload);
  ASSERT_EQ(quiet_result.totals, truth);

  InProcessCluster drill(4, PlacementKind::kDhtRandom, StoreOptions{}, kSeed,
                         2);
  TypeCounts drill_truth;
  LoadCluster(drill, kPartitions, kColumns, drill_truth);
  ASSERT_EQ(drill_truth, truth);

  GatherOptions options;
  options.max_attempts = 5;  // enough to ride out an epoch flip mid-query
  GatherOptions message_options = options;
  message_options.transport = GatherTransport::kMessage;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> gathers{0};
  std::atomic<uint64_t> exact{0};
  std::atomic<uint64_t> balanced{0};
  std::vector<std::thread> clients;
  clients.reserve(8);
  for (int c = 0; c < 8; ++c) {
    // Half the clients use the direct transport, half the message path.
    const GatherOptions& opts = (c % 2 == 0) ? options : message_options;
    clients.emplace_back([&, opts]() {
      while (!stop.load(std::memory_order_acquire)) {
        const GatherResult result = drill.CountByTypeAll(workload, opts);
        gathers.fetch_add(1, std::memory_order_relaxed);
        if (result.completed + result.failed == result.subqueries) {
          balanced.fetch_add(1, std::memory_order_relaxed);
        }
        if (result.totals == truth) {
          exact.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Let every client finish at least one gather first, so the drill
  // genuinely overlaps in-flight queries instead of racing thread spawn.
  while (gathers.load(std::memory_order_relaxed) < 8) {
    std::this_thread::yield();
  }

  // The drill, under continuous crossfire: join, drain, unplanned loss.
  auto joined = drill.AddNode();
  auto drained = drill.DecommissionNode(1);
  auto lost = drill.FailNodePermanently(2);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();

  ASSERT_TRUE(joined.ok()) << joined.status().message();
  ASSERT_TRUE(drained.ok()) << drained.status().message();
  ASSERT_TRUE(lost.ok()) << lost.status().message();
  EXPECT_EQ(lost.value().partitions_lost, 0u);  // replication healed it
  // Four flips: ring adoption (the join is the first elastic op), the
  // join itself, the drain, and the repair.
  EXPECT_EQ(drill.ring_epoch(), 4u);
  EXPECT_EQ(drill.Members(), (std::vector<NodeId>{0u, 3u, 4u}));

  // Every mid-drill gather balanced its accounting and folded the quiet
  // cluster's exact totals.
  EXPECT_GT(gathers.load(), 0u);
  EXPECT_EQ(balanced.load(), gathers.load());
  EXPECT_EQ(exact.load(), gathers.load());

  // Post-heal: the drilled cluster answers bit-identically to the quiet
  // one on both transports.
  const GatherResult after_direct = drill.CountByTypeAll(workload, options);
  EXPECT_EQ(after_direct.failed, 0u);
  EXPECT_EQ(after_direct.totals, quiet_result.totals);
  const GatherResult after_message =
      drill.CountByTypeAll(workload, message_options);
  EXPECT_EQ(after_message.failed, 0u);
  EXPECT_EQ(after_message.totals, quiet_result.totals);
}

TEST(MembershipChaosTest, RepeatedChurnKeepsEveryCopyReal) {
  // Grow-shrink churn: add two nodes, decommission two originals, then
  // lose one more — the surviving members must hold two real copies of
  // everything at every step.
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 43,
                           2);
  TypeCounts truth;
  const WorkloadSpec workload = LoadCluster(cluster, 40, 8, truth);

  ASSERT_TRUE(cluster.AddNode().ok());
  ASSERT_TRUE(cluster.AddNode().ok());
  ASSERT_TRUE(cluster.DecommissionNode(0).ok());
  ASSERT_TRUE(cluster.DecommissionNode(1).ok());
  auto lost = cluster.FailNodePermanently(4);
  ASSERT_TRUE(lost.ok()) << lost.status().message();
  EXPECT_EQ(lost.value().partitions_lost, 0u);
  EXPECT_EQ(cluster.Members(), (std::vector<NodeId>{2u, 3u, 5u}));
  EXPECT_EQ(cluster.ring_epoch(), 6u);  // adoption + five membership ops

  const GatherResult result = cluster.CountByTypeAll(workload);
  EXPECT_EQ(result.completed, result.subqueries);
  EXPECT_EQ(result.totals, truth);
  for (const auto& part : workload.partitions) {
    const std::vector<NodeId> replicas = cluster.ReplicasOf(part.key);
    std::set<NodeId> unique(replicas.begin(), replicas.end());
    EXPECT_EQ(unique.size(), 2u) << part.key;
    for (const NodeId r : replicas) {
      auto table = cluster.node(r).FindTable("t");
      ASSERT_TRUE(table.ok());
      EXPECT_TRUE(table.value()->HasPartition(part.key))
          << part.key << " missing on node " << r;
    }
  }
}

TEST(MembershipChaosTest, FlushAndReviveSerializeWithChurn) {
  // One thread joins and decommissions nodes while another flushes every
  // store and crash-restarts WAL-backed node 0, which the churn never
  // removes; a writer and a reader use the message transport throughout.
  // FlushAll and ReviveNode wait for a running membership change, so a
  // revive never swaps a store under a migration that plans from or
  // streams into it.
  const std::string wal =
      "/tmp/kvscale_membership_revive_" + std::to_string(::getpid());
  constexpr int kRounds = 3;
  StoreOptions store_options;
  store_options.wal_path = wal;
  {
    InProcessCluster cluster(3, PlacementKind::kDhtRandom, store_options, 53,
                             2);
    TypeCounts truth;
    const WorkloadSpec workload = LoadCluster(cluster, 24, 6, truth);
    GatherOptions message;
    message.transport = GatherTransport::kMessage;
    message.max_attempts = 4;
    PutOptions put;
    put.transport = GatherTransport::kMessage;

    std::atomic<bool> churning{true};
    std::vector<Status> churn;
    std::thread churner([&] {
      for (int round = 0; round < kRounds; ++round) {
        auto joined = cluster.AddNode();
        churn.push_back(joined.status());
        if (!joined.ok()) break;
        churn.push_back(cluster.DecommissionNode(joined.value().node).status());
      }
      churning.store(false, std::memory_order_release);
    });
    int revives = 0;
    std::thread restarter([&] {
      while (churning.load(std::memory_order_acquire) || revives == 0) {
        cluster.FlushAll();
        cluster.KillNode(0);
        EXPECT_TRUE(cluster.ReviveNode(0).ok());
        ++revives;
      }
    });
    std::vector<PutResult> puts;
    std::thread writer([&] {
      for (int i = 0; churning.load(std::memory_order_acquire) || i < 2;
           ++i) {
        std::vector<BatchPutItem> items;
        for (int k = 0; k < 4; ++k) {
          BatchPutItem item;
          item.partition_key = "w" + std::to_string(i) + "_" +
                               std::to_string(k);
          item.column.clustering = 0;
          item.column.type_id = k % 3;
          item.column.payload = {std::byte{0xcd}};
          items.push_back(std::move(item));
        }
        puts.push_back(cluster.PutBatch("w", std::move(items), put));
      }
    });
    std::vector<GatherResult> gathered;
    std::thread reader([&] {
      while (churning.load(std::memory_order_acquire) || gathered.empty()) {
        gathered.push_back(cluster.CountByTypeAll(workload, message));
      }
    });
    churner.join();
    restarter.join();
    writer.join();
    reader.join();

    ASSERT_EQ(churn.size(), static_cast<size_t>(2 * kRounds));
    for (const Status& status : churn) {
      EXPECT_TRUE(status.ok()) << status.message();
    }
    // Adoption, then one flip per join and per decommission.
    EXPECT_EQ(cluster.ring_epoch(), static_cast<uint64_t>(1 + 2 * kRounds));
    EXPECT_EQ(cluster.Members(), (std::vector<NodeId>{0u, 1u, 2u}));
    EXPECT_GT(revives, 0);
    for (const GatherResult& r : gathered) {
      EXPECT_EQ(r.completed + r.failed, r.subqueries);
    }
    for (const PutResult& p : puts) {
      EXPECT_EQ(p.replica_acks + p.replica_failures, p.replica_writes);
    }

    // Quiet again: the message path answers field by field as the direct
    // path does on the same stores.
    const GatherResult direct = cluster.CountByTypeAll(workload);
    const GatherResult after = cluster.CountByTypeAll(workload, message);
    EXPECT_EQ(after.totals, direct.totals);
    EXPECT_EQ(after.requests_per_node, direct.requests_per_node);
    EXPECT_EQ(after.errors_per_node, direct.errors_per_node);
    EXPECT_EQ(after.partitions_missing, direct.partitions_missing);
    EXPECT_EQ(after.subqueries, direct.subqueries);
    EXPECT_EQ(after.completed, direct.completed);
    EXPECT_EQ(after.failed, direct.failed);
    EXPECT_EQ(after.retries, direct.retries);
    EXPECT_EQ(after.lost_partitions, direct.lost_partitions);
    EXPECT_EQ(direct.completed, direct.subqueries);
  }
  for (int n = 0; n < 3 + kRounds; ++n) {
    std::remove((wal + ".node" + std::to_string(n)).c_str());
  }
}

// ---------------------------------------------------------------------------
// Routed plans: a plan's replica sets are resolved once per ring epoch

TEST(RoutedPlanTest, OneRoutingPerPlanPerEpoch) {
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 17,
                           2);
  TypeCounts truth;
  const WorkloadSpec workload = LoadCluster(cluster, 30, 4, truth);
  const QueryPlan plan = MakeCountPlan(workload);
  GatherOptions message;
  message.transport = GatherTransport::kMessage;
  message.batch = true;

  const uint64_t before = cluster.routed_plan_builds();
  EXPECT_EQ(cluster.Gather(plan).totals, truth);
  EXPECT_EQ(cluster.routed_plan_builds(), before + 1);
  // The same key list again — the same plan, a copy, either transport —
  // reads the routed plan instead of routing.
  EXPECT_EQ(cluster.Gather(plan).totals, truth);
  EXPECT_EQ(cluster.Gather(plan, message).totals, truth);
  const QueryPlan copy = plan;
  EXPECT_EQ(cluster.Gather(copy, message).totals, truth);
  EXPECT_EQ(cluster.routed_plan_builds(), before + 1);

  // A membership change moves the epoch: the next gather routes once.
  ASSERT_TRUE(cluster.AddNode().ok());
  EXPECT_EQ(cluster.Gather(plan, message).totals, truth);
  EXPECT_EQ(cluster.routed_plan_builds(), before + 2);
  EXPECT_EQ(cluster.Gather(plan).totals, truth);
  EXPECT_EQ(cluster.routed_plan_builds(), before + 2);
}

TEST(RoutedPlanTest, EditingAPlanInPlaceRoutesTheNewKey) {
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 19,
                           1);
  TypeCounts truth;
  WorkloadSpec workload = LoadCluster(cluster, 40, 5, truth);
  ASSERT_TRUE(cluster.AddNode().ok());  // ring routing, like perfbench's
  const WorkloadSpec first_30{workload.table,
                              {workload.partitions.begin(),
                               workload.partitions.begin() + 30}};
  QueryPlan plan = MakeCountPlan(first_30);
  GatherOptions message;
  message.transport = GatherTransport::kMessage;
  message.batch = true;
  const GatherResult before = cluster.Gather(plan, message);
  ASSERT_EQ(before.completed, 30u);
  const uint64_t builds = cluster.routed_plan_builds();

  // Swap partition 5 for one the plan never named, in the same object:
  // the routed plan of the old key list must not serve it.
  WorkloadSpec edited = first_30;
  for (int swap = 0; swap < 3; ++swap) {
    plan.partitions[5 + swap].part.key = "part-" + std::to_string(31 + swap);
    edited.partitions[5 + swap].key = plan.partitions[5 + swap].part.key;
    const GatherResult direct = cluster.Gather(MakeCountPlan(edited));
    const GatherResult routed = cluster.Gather(plan, message);
    EXPECT_EQ(routed.totals, direct.totals) << swap;
    EXPECT_EQ(routed.requests_per_node, direct.requests_per_node) << swap;
    EXPECT_EQ(routed.completed, 30u) << swap;
    EXPECT_EQ(routed.partitions_missing, 0u) << swap;
  }
  // Each edited list routed once, for the message gather and the direct
  // one of the same keys together.
  EXPECT_EQ(cluster.routed_plan_builds(), builds + 3);
}

TEST(RoutedPlanTest, GathersStayBalancedThroughChurn) {
  // Two clients gather one plan object, direct and message, while a third
  // thread joins and drains nodes: every epoch bump re-routes the plan
  // under the clients' feet.
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 23,
                           2);
  TypeCounts truth;
  const WorkloadSpec workload = LoadCluster(cluster, 32, 4, truth);
  const QueryPlan plan = MakeCountPlan(workload);
  GatherOptions direct;
  direct.max_attempts = 5;  // enough to ride out an epoch flip mid-query
  GatherOptions message = direct;
  message.transport = GatherTransport::kMessage;
  message.batch = true;

  std::atomic<bool> churning{true};
  std::atomic<uint64_t> gathers{0};
  std::atomic<uint64_t> balanced{0};
  std::atomic<uint64_t> exact{0};
  std::vector<std::thread> clients;
  for (const GatherOptions* options : {&direct, &message}) {
    clients.emplace_back([&, options] {
      while (churning.load(std::memory_order_acquire)) {
        const GatherResult r = cluster.Gather(plan, *options);
        gathers.fetch_add(1, std::memory_order_relaxed);
        if (r.completed + r.failed == r.subqueries) {
          balanced.fetch_add(1, std::memory_order_relaxed);
        }
        if (r.totals == truth) exact.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Start churning only once both clients are gathering.
  while (gathers.load(std::memory_order_relaxed) < 2) {
    std::this_thread::yield();
  }
  std::vector<Status> churn;
  for (int round = 0; round < 3; ++round) {
    auto joined = cluster.AddNode();
    churn.push_back(joined.status());
    if (!joined.ok()) break;
    churn.push_back(cluster.DecommissionNode(joined.value().node).status());
  }
  churning.store(false, std::memory_order_release);
  for (std::thread& t : clients) t.join();

  for (const Status& status : churn) {
    EXPECT_TRUE(status.ok()) << status.message();
  }
  EXPECT_EQ(cluster.ring_epoch(), 7u);  // adoption, three joins and drains
  EXPECT_GT(gathers.load(), 0u);
  EXPECT_EQ(balanced.load(), gathers.load());
  EXPECT_EQ(exact.load(), gathers.load());

  // Quiet again: the message gather equals the direct one field by field.
  const GatherResult d = cluster.Gather(plan, direct);
  const GatherResult m = cluster.Gather(plan, message);
  EXPECT_EQ(m.totals, d.totals);
  EXPECT_EQ(d.totals, truth);
  EXPECT_EQ(m.requests_per_node, d.requests_per_node);
  EXPECT_EQ(m.errors_per_node, d.errors_per_node);
  EXPECT_EQ(m.partitions_missing, d.partitions_missing);
  EXPECT_EQ(m.subqueries, d.subqueries);
  EXPECT_EQ(m.completed, d.completed);
  EXPECT_EQ(m.failed, d.failed);
  EXPECT_EQ(m.retries, d.retries);
  EXPECT_EQ(m.hedged, d.hedged);
  EXPECT_EQ(m.lost_partitions, d.lost_partitions);
  EXPECT_DOUBLE_EQ(m.virtual_latency_us, d.virtual_latency_us);
}

}  // namespace
}  // namespace kvscale
