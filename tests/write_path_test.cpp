// Tests for the batched replicated write path: PutResult accounting,
// dispatch-on-attempt load feedback, PutBatch <-> sequential-Put parity
// (healthy and under WAL/kill chaos, both transports), per-key quorum
// policies, group-commit sync amortization, torn-tail recovery, the
// epoch-retry membership drill, background flush scheduling, and reads
// and writes interleaved on one shared runtime.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cluster/in_process_cluster.hpp"
#include "store/row.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics_registry.hpp"

namespace kvscale {
namespace {

std::string TempPath(const char* tag) {
  return std::string("/tmp/kvscale_write_path_") + tag + "_" +
         std::to_string(::getpid());
}

void RemoveWals(const std::string& prefix, int nodes) {
  for (int n = 0; n < nodes; ++n) {
    std::remove((prefix + ".node" + std::to_string(n)).c_str());
  }
}

/// `partitions` one-column-per-clustering items, grouped per partition in
/// key order (the same order a sequential loop would Put them).
std::vector<BatchPutItem> MakeItems(int partitions, int columns,
                                    const char* prefix = "p") {
  std::vector<BatchPutItem> items;
  for (int part = 0; part < partitions; ++part) {
    for (int i = 0; i < columns; ++i) {
      BatchPutItem item;
      item.partition_key = prefix + std::to_string(part);
      item.column.clustering = i;
      item.column.type_id = i % 5;
      item.column.payload = MakePayload(part, i, 24);
      items.push_back(std::move(item));
    }
  }
  return items;
}

WorkloadSpec MakeWorkload(int partitions, int columns,
                          const char* prefix = "p") {
  WorkloadSpec workload;
  workload.table = "t";
  for (int part = 0; part < partitions; ++part) {
    workload.partitions.push_back(PartitionRef{
        prefix + std::to_string(part), static_cast<uint32_t>(columns)});
  }
  return workload;
}

// ---------------------------------------------------------------------------
// Satellite 1: replica failures are accounted, not collapsed

TEST(WritePathTest, DegradedPutAccountsEveryReplica) {
  InProcessCluster cluster(3, PlacementKind::kDhtRandom, StoreOptions{}, 7,
                           3);
  cluster.KillNode(1);
  cluster.KillNode(2);

  Column c;
  c.clustering = 0;
  c.type_id = 1;
  c.payload = MakePayload(0, 0, 24);
  const PutResult put = cluster.Put("t", "p0", std::move(c));

  // 2-of-3 replicas refused: the old API collapsed this into one Status;
  // the result must account every attempted copy.
  EXPECT_EQ(put.keys, 1u);
  EXPECT_EQ(put.replica_writes, 3u);
  EXPECT_EQ(put.replica_acks, 1u);
  EXPECT_EQ(put.replica_failures, 2u);
  EXPECT_EQ(put.replica_acks + put.replica_failures, put.replica_writes);
  EXPECT_EQ(put.first_error.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(put.ok());  // quorum all
  EXPECT_EQ(put.keys_quorum_failed, 1u);

  // The same degraded write under laxer quorums: 1 ack misses majority
  // (needs 2 of 3) but satisfies one.
  PutOptions majority;
  majority.quorum = PutQuorum::kMajority;
  std::vector<BatchPutItem> items = MakeItems(1, 1);
  const PutResult two_needed = cluster.PutBatch("t", items, majority);
  EXPECT_FALSE(two_needed.ok());
  EXPECT_EQ(two_needed.keys_quorum_failed, 1u);

  PutOptions one;
  one.quorum = PutQuorum::kOne;
  const PutResult one_needed = cluster.PutBatch("t", MakeItems(1, 1), one);
  EXPECT_TRUE(one_needed.ok());
  EXPECT_EQ(one_needed.keys_quorum_met, 1u);
  EXPECT_EQ(one_needed.replica_failures, 2u);  // still fully accounted
}

// ---------------------------------------------------------------------------
// Satellite 2: load feedback lands at the dispatch attempt, not on success

TEST(WritePathTest, DispatchRecordedEvenWhenTheWriteFails) {
  const std::string wal = TempPath("dispatch");
  StoreOptions store_options;
  store_options.wal_path = wal;
  InProcessCluster cluster(2, PlacementKind::kDhtRandom, store_options, 7);

  FaultConfig config;
  config.seed = 5;
  config.wal_error_rate = 1.0;  // every WAL append refused
  FaultInjector injector(config);
  cluster.AttachFaultInjector(&injector);

  const std::vector<int64_t> before = cluster.PlacementLoad();
  const int64_t before_sum =
      std::accumulate(before.begin(), before.end(), int64_t{0});
  const PutResult put = cluster.PutBatch("t", MakeItems(10, 1), PutOptions{});
  EXPECT_FALSE(put.ok());
  EXPECT_EQ(put.replica_acks, 0u);
  EXPECT_EQ(put.replica_failures, 10u);

  // Every replica write was *attempted*, so the placement policies' load
  // signal moved by exactly the attempt count — a failed node must not
  // look idle to the balancer.
  const std::vector<int64_t> after = cluster.PlacementLoad();
  const int64_t after_sum =
      std::accumulate(after.begin(), after.end(), int64_t{0});
  EXPECT_EQ(after_sum - before_sum, 10);
  RemoveWals(wal, 2);
}

// ---------------------------------------------------------------------------
// Tentpole: batched == sequential, healthy and under chaos

TEST(WritePathTest, BatchMatchesSequentialPutsHealthy) {
  const std::string wal_a = TempPath("seq");
  const std::string wal_b = TempPath("batch");
  StoreOptions options_a;
  options_a.wal_path = wal_a;
  StoreOptions options_b;
  options_b.wal_path = wal_b;
  InProcessCluster sequential(3, PlacementKind::kDhtRandom, options_a, 7, 2);
  InProcessCluster batched(3, PlacementKind::kDhtRandom, options_b, 7, 2);

  for (BatchPutItem& item : MakeItems(24, 4)) {
    ASSERT_TRUE(sequential
                    .Put("t", item.partition_key, std::move(item.column))
                    .ok());
  }
  PutOptions options;
  options.batch = 5;  // several group-committed batches per node
  const PutResult put = batched.PutBatch("t", MakeItems(24, 4), options);
  ASSERT_TRUE(put.ok());
  EXPECT_EQ(put.keys, 96u);
  EXPECT_EQ(put.replica_acks, 192u);  // 96 items x 2 replicas
  EXPECT_GT(put.batches_sent, 3u);    // batch cap really split the load

  sequential.FlushAll();
  batched.FlushAll();
  const WorkloadSpec workload = MakeWorkload(24, 4);
  const GatherResult a = sequential.CountByTypeAll(workload);
  const GatherResult b = batched.CountByTypeAll(workload);
  EXPECT_EQ(a.totals, b.totals);
  EXPECT_EQ(b.partitions_missing, 0u);
  EXPECT_EQ(sequential.ColumnsPerNode("t"), batched.ColumnsPerNode("t"));
  RemoveWals(wal_a, 3);
  RemoveWals(wal_b, 3);
}

TEST(WritePathTest, BatchMatchesSequentialPutsUnderWalChaos) {
  const std::string wal_a = TempPath("seq_chaos");
  const std::string wal_b = TempPath("batch_chaos");
  StoreOptions options_a;
  options_a.wal_path = wal_a;
  StoreOptions options_b;
  options_b.wal_path = wal_b;
  InProcessCluster sequential(3, PlacementKind::kDhtRandom, options_a, 7, 2);
  InProcessCluster batched(3, PlacementKind::kDhtRandom, options_b, 7, 2);

  // Two injectors, one config: OnWalWrite hashes (seed, node, key), so
  // both clusters refuse exactly the same (node, key) pairs no matter
  // how the writes are grouped.
  FaultConfig config;
  config.seed = 77;
  config.wal_error_rate = 0.3;
  FaultInjector injector_a(config);
  FaultInjector injector_b(config);
  sequential.AttachFaultInjector(&injector_a);
  batched.AttachFaultInjector(&injector_b);

  uint64_t sequential_failures = 0;
  for (BatchPutItem& item : MakeItems(24, 4)) {
    const PutResult put =
        sequential.Put("t", item.partition_key, std::move(item.column));
    sequential_failures += put.replica_failures;
  }
  ASSERT_GT(sequential_failures, 0u);  // the chaos really fired

  PutOptions options;
  options.batch = 7;
  const PutResult put = batched.PutBatch("t", MakeItems(24, 4), options);
  EXPECT_EQ(put.replica_failures, sequential_failures);
  EXPECT_EQ(put.replica_acks + put.replica_failures, put.replica_writes);

  sequential.FlushAll();
  batched.FlushAll();
  const WorkloadSpec workload = MakeWorkload(24, 4);
  const GatherResult a = sequential.CountByTypeAll(workload);
  const GatherResult b = batched.CountByTypeAll(workload);
  EXPECT_EQ(a.totals, b.totals);
  EXPECT_EQ(a.partitions_missing, b.partitions_missing);
  EXPECT_EQ(sequential.ColumnsPerNode("t"), batched.ColumnsPerNode("t"));
  RemoveWals(wal_a, 3);
  RemoveWals(wal_b, 3);
}

TEST(WritePathTest, MessageTransportMatchesDirect) {
  const std::string wal_a = TempPath("direct");
  const std::string wal_b = TempPath("message");
  StoreOptions options_a;
  options_a.wal_path = wal_a;
  StoreOptions options_b;
  options_b.wal_path = wal_b;
  InProcessCluster direct(3, PlacementKind::kDhtRandom, options_a, 7, 2);
  InProcessCluster message(3, PlacementKind::kDhtRandom, options_b, 7, 2);

  FaultConfig config;
  config.seed = 91;
  config.wal_error_rate = 0.2;
  FaultInjector injector_a(config);
  FaultInjector injector_b(config);
  direct.AttachFaultInjector(&injector_a);
  message.AttachFaultInjector(&injector_b);

  PutOptions direct_options;
  direct_options.batch = 6;
  const PutResult a = direct.PutBatch("t", MakeItems(20, 3), direct_options);

  PutOptions message_options;
  message_options.batch = 6;
  message_options.transport = GatherTransport::kMessage;
  message_options.workers_per_node = 2;
  const PutResult b =
      message.PutBatch("t", MakeItems(20, 3), message_options);

  // Same accounting over the wire as over plain calls...
  EXPECT_EQ(a.replica_writes, b.replica_writes);
  EXPECT_EQ(a.replica_acks, b.replica_acks);
  EXPECT_EQ(a.replica_failures, b.replica_failures);
  EXPECT_EQ(a.batches_sent, b.batches_sent);
  // ...but only the message path paid for frames.
  EXPECT_EQ(a.wire_frames_sent, 0u);
  EXPECT_EQ(b.wire_frames_sent, b.batches_sent);
  EXPECT_GT(b.wire_bytes_sent, 0u);
  EXPECT_GT(b.wire_bytes_received, 0u);

  direct.FlushAll();
  message.FlushAll();
  const WorkloadSpec workload = MakeWorkload(20, 3);
  const GatherResult ra = direct.CountByTypeAll(workload);
  const GatherResult rb = message.CountByTypeAll(workload);
  EXPECT_EQ(ra.totals, rb.totals);
  EXPECT_EQ(ra.partitions_missing, rb.partitions_missing);
  EXPECT_EQ(direct.ColumnsPerNode("t"), message.ColumnsPerNode("t"));
  RemoveWals(wal_a, 3);
  RemoveWals(wal_b, 3);
}

// ---------------------------------------------------------------------------
// Quorum accounting invariant under combined chaos

TEST(WritePathTest, QuorumInvariantHoldsUnderChaos) {
  const std::string wal = TempPath("quorum");
  StoreOptions store_options;
  store_options.wal_path = wal;
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, store_options, 11,
                           3);

  FaultConfig config;
  config.seed = 13;
  config.wal_error_rate = 0.25;
  FaultInjector injector(config);
  cluster.AttachFaultInjector(&injector);
  cluster.KillNode(1);  // one dead replica on top of flaky WALs

  PutOptions options;
  options.quorum = PutQuorum::kMajority;
  options.batch = 8;
  const PutResult put = cluster.PutBatch("t", MakeItems(30, 1), options);

  // Every attempted replica write is accounted exactly once: acked +
  // failed == replicas x keys, whether the refusal was per-key (WAL) or
  // whole-batch (dead node).
  EXPECT_EQ(put.replica_writes, 90u);  // 30 keys x 3 replicas
  EXPECT_EQ(put.replica_acks + put.replica_failures, put.replica_writes);
  EXPECT_GT(put.replica_failures, 0u);
  EXPECT_EQ(put.keys_quorum_met + put.keys_quorum_failed, put.keys);
  EXPECT_FALSE(put.first_error.ok());

  // Same invariant over the wire, against the same chaos.
  PutOptions wired = options;
  wired.transport = GatherTransport::kMessage;
  const PutResult over_wire =
      cluster.PutBatch("t", MakeItems(30, 1, "w"), wired);
  EXPECT_EQ(over_wire.replica_writes, 90u);
  EXPECT_EQ(over_wire.replica_acks + over_wire.replica_failures,
            over_wire.replica_writes);
  EXPECT_EQ(over_wire.keys_quorum_met + over_wire.keys_quorum_failed,
            over_wire.keys);
  RemoveWals(wal, 4);
}

// ---------------------------------------------------------------------------
// Group commit: one Sync per batch, not per key

TEST(WritePathTest, GroupCommitAmortizesWalSyncs) {
  const std::string wal = TempPath("group");
  MetricsRegistry registry;
  StoreOptions store_options;
  store_options.wal_path = wal;
  store_options.metrics = &registry;
  InProcessCluster cluster(2, PlacementKind::kDhtRandom, store_options, 7);

  const PutResult put = cluster.PutBatch("t", MakeItems(20, 1), PutOptions{});
  ASSERT_TRUE(put.ok());

  // batch=0: one batch (one group Sync) per node touched; still one WAL
  // append per column. A per-key-sync path would have paid 20 syncs.
  EXPECT_EQ(registry.GetCounter("store.ingest.batches").Value(),
            put.batches_sent);
  EXPECT_EQ(registry.GetCounter("store.ingest.group_syncs").Value(),
            put.batches_sent);
  EXPECT_LE(put.batches_sent, 2u);
  EXPECT_EQ(registry.GetCounter("store.ingest.columns").Value(), 20u);
  EXPECT_EQ(registry.GetCounter("store.commitlog.appends").Value(), 20u);
  EXPECT_EQ(put.sync_failures, 0u);
  RemoveWals(wal, 2);
}

// ---------------------------------------------------------------------------
// Torn WAL tail: a crash mid-batch replays the intact prefix

TEST(WritePathTest, TornWalTailRecoversThePrefix) {
  const std::string wal = TempPath("torn");
  StoreOptions store_options;
  store_options.wal_path = wal;
  InProcessCluster cluster(1, PlacementKind::kDhtRandom, store_options, 7);

  const PutResult put = cluster.PutBatch("t", MakeItems(8, 1), PutOptions{});
  ASSERT_TRUE(put.ok());

  // Crash before any flush, tearing the last append mid-record.
  cluster.KillNode(0);
  ASSERT_TRUE(FaultInjector::TruncateFileTail(wal + ".node0", 3).ok());
  const Result<uint64_t> recovered = cluster.ReviveNode(0);
  ASSERT_TRUE(recovered.ok());
  EXPECT_LT(recovered.value(), 8u);  // the torn record is gone...
  EXPECT_GE(recovered.value(), 7u);  // ...and only the torn record

  // The intact prefix serves; the torn key reads as a clean miss.
  const GatherResult result = cluster.CountByTypeAll(MakeWorkload(8, 1));
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.partitions_missing, 8u - recovered.value());
  uint64_t total = 0;
  for (const auto& [type, count] : result.totals) total += count;
  EXPECT_EQ(total, recovered.value());
  RemoveWals(wal, 1);
}

// ---------------------------------------------------------------------------
// Satellite 3: writes racing a membership change chase the epoch

TEST(WritePathTest, PutsLandDuringAMembershipChange) {
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 37,
                           2);
  TypeCounts truth;
  for (BatchPutItem& item : MakeItems(30, 3, "a")) {
    ++truth[item.column.type_id];
    ASSERT_TRUE(
        cluster.Put("t", item.partition_key, std::move(item.column)).ok());
  }

  // A node joins while fresh keys keep arriving in small batches. Every
  // put must account all its replicas and meet quorum all — whether it
  // ran before, during, or after the ring flip (a flip observed
  // mid-write triggers the epoch-retry rounds).
  std::atomic<bool> joined{false};
  std::thread membership([&] {
    ASSERT_TRUE(cluster.AddNode().ok());
    joined.store(true, std::memory_order_release);
  });
  int batches = 0;
  while (!joined.load(std::memory_order_acquire) && batches < 200) {
    std::vector<BatchPutItem> items;
    for (int i = 0; i < 2; ++i) {
      BatchPutItem item;
      item.partition_key = "b" + std::to_string(batches * 2 + i);
      item.column.clustering = 0;
      item.column.type_id = i % 5;
      item.column.payload = MakePayload(batches, i, 24);
      items.push_back(std::move(item));
    }
    for (const BatchPutItem& item : items) ++truth[item.column.type_id];
    const PutResult put = cluster.PutBatch("t", std::move(items), PutOptions{});
    EXPECT_TRUE(put.ok());
    EXPECT_EQ(put.replica_acks, put.replica_writes);
    ++batches;
  }
  membership.join();
  EXPECT_GE(cluster.ring_epoch(), 1u);

  // Nothing was lost to the race: the post-join gather folds every key
  // written on either side of the flip.
  WorkloadSpec workload = MakeWorkload(30, 3, "a");
  for (int b = 0; b < batches * 2; ++b) {
    workload.partitions.push_back(PartitionRef{"b" + std::to_string(b), 1});
  }
  const GatherResult result = cluster.CountByTypeAll(workload);
  EXPECT_EQ(result.completed, result.subqueries);
  EXPECT_EQ(result.partitions_missing, 0u);
  EXPECT_EQ(result.totals, truth);
}

TEST(WritePathTest, EpochRetryRewritesToTheNewOwners) {
  InProcessCluster cluster(3, PlacementKind::kDhtRandom, StoreOptions{}, 7,
                           2);
  for (BatchPutItem& item : MakeItems(12, 2)) {
    ASSERT_TRUE(
        cluster.Put("t", item.partition_key, std::move(item.column)).ok());
  }
  // Become elastic: writes after the flip resolve through the ring and
  // still satisfy quorum all against the current epoch's owners.
  ASSERT_TRUE(cluster.AddNode().ok());
  ASSERT_GE(cluster.ring_epoch(), 1u);
  const PutResult put =
      cluster.PutBatch("t", MakeItems(12, 2, "post"), PutOptions{});
  EXPECT_TRUE(put.ok());
  EXPECT_EQ(put.replica_acks, 48u);  // 24 items x 2 replicas
  EXPECT_EQ(put.epoch_retries, 0u);  // no flip raced this one

  const GatherResult result =
      cluster.CountByTypeAll(MakeWorkload(12, 2, "post"));
  EXPECT_EQ(result.completed, result.subqueries);
  EXPECT_EQ(result.partitions_missing, 0u);
}

// ---------------------------------------------------------------------------
// Background maintenance: flushes ride the node's own worker pool

TEST(WritePathTest, WatermarkSchedulesBackgroundFlush) {
  MetricsRegistry registry;
  InProcessCluster cluster(2, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  cluster.AttachTelemetry(nullptr, &registry);

  PutOptions options;
  options.transport = GatherTransport::kMessage;
  options.flush_watermark_bytes = 1;  // any write crosses it
  options.workers_per_node = 1;       // FIFO per node: put #2 drains #1's step
  ASSERT_TRUE(cluster.PutBatch("t", MakeItems(12, 2), options).ok());
  ASSERT_TRUE(cluster.PutBatch("t", MakeItems(12, 2, "q"), options).ok());

  // The first put's maintenance step was enqueued behind its batch and
  // ahead of the second put's, so by now at least one ran: some memtable
  // was frozen into a segment by a node worker, not by the master.
  EXPECT_GE(registry.GetCounter("cluster.maintenance.runs").Value(), 1u);
  uint64_t segments = 0;
  for (uint32_t n = 0; n < cluster.node_count(); ++n) {
    auto found = cluster.node(n).FindTable("t");
    if (found.ok()) segments += found.value()->segment_count();
  }
  EXPECT_GE(segments, 1u);
}

// ---------------------------------------------------------------------------
// Observability: puts deposit flight records

TEST(WritePathTest, PutsDepositFlightRecords) {
  FlightRecorder recorder;
  InProcessCluster cluster(2, PlacementKind::kDhtRandom, StoreOptions{}, 7,
                           2);
  cluster.AttachFlightRecorder(&recorder);

  ASSERT_TRUE(cluster.PutBatch("t", MakeItems(4, 1), PutOptions{}).ok());
  PutOptions wired;
  wired.transport = GatherTransport::kMessage;
  ASSERT_TRUE(cluster.PutBatch("t", MakeItems(4, 1, "w"), wired).ok());

  const auto records = recorder.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].query_kind, "put");
  EXPECT_EQ(records[0].transport, "direct");
  EXPECT_EQ(records[0].subqueries, 8u);  // 4 keys x 2 replicas
  EXPECT_EQ(records[0].completed, 8u);
  EXPECT_EQ(records[1].transport, "message");
  EXPECT_GT(records[1].wire_bytes_sent, 0u);
}

// ---------------------------------------------------------------------------
// Load shedding stays load shedding on the write side

TEST(WritePathTest, RejectedWriteBatchesCountAsReplicaFailures) {
  InProcessCluster cluster(1, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  PutOptions options;
  options.transport = GatherTransport::kMessage;
  options.queue_depth = 1;
  options.queue_policy = QueueFullPolicy::kReject;
  options.batch = 1;  // one frame per key: the master outruns the worker
  options.quorum = PutQuorum::kOne;
  const PutResult put = cluster.PutBatch("t", MakeItems(200, 4), options);

  // How many sends bounce depends on scheduling, but a bounced batch is
  // never applied behind the caller's back: the node stores exactly the
  // acked copies, and every refusal is a shed, not a silent direct write.
  EXPECT_EQ(put.replica_acks + put.replica_failures, put.replica_writes);
  EXPECT_EQ(put.keys_quorum_met + put.keys_quorum_failed, put.keys);
  EXPECT_EQ(put.keys_quorum_failed, put.replica_failures);  // 1 replica/key
  EXPECT_EQ(cluster.ColumnsPerNode("t")[0], put.replica_acks);
  if (put.replica_failures > 0) {
    EXPECT_EQ(put.first_error.code(), StatusCode::kResourceExhausted);
    EXPECT_FALSE(put.ok());
  }
}

// ---------------------------------------------------------------------------
// Reads and writes share the node workers: one serve loop, one reply format

TEST(WritePathTest, ReadsAndWritesShareNodeWorkers) {
  const std::string wal = TempPath("shared");
  StoreOptions store_options;
  store_options.wal_path = wal;
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, store_options, 19,
                           2);
  // Table "b" is loaded up front and only read; table "a" is only written.
  for (BatchPutItem& item : MakeItems(24, 4, "r")) {
    ASSERT_TRUE(
        cluster.Put("b", item.partition_key, std::move(item.column)).ok());
  }
  cluster.FlushAll();
  // Then flaky WALs, so acks carry refused key indices through the shared
  // loop; reads never consult the WAL, so they stay fault-free.
  FaultConfig config;
  config.seed = 23;
  config.wal_error_rate = 0.1;
  FaultInjector injector(config);
  cluster.AttachFaultInjector(&injector);
  WorkloadSpec reads = MakeWorkload(24, 4, "r");
  reads.table = "b";
  const GatherResult reference = cluster.CountByTypeAll(reads);
  ASSERT_EQ(reference.partitions_missing, 0u);

  GatherOptions gather;
  gather.transport = GatherTransport::kMessage;
  gather.batch = true;
  gather.workers_per_node = 2;
  PutOptions put;
  put.transport = GatherTransport::kMessage;
  put.workers_per_node = 2;
  put.batch = 8;
  put.flush_watermark_bytes = 2048;  // maintenance joins the mix
  ASSERT_EQ(cluster.CountByTypeAll(reads, gather).totals, reference.totals);
  ASSERT_EQ(cluster.runtime_builds(), 1u);

  constexpr int kPuts = 24;
  std::atomic<bool> writing{true};
  std::vector<PutResult> puts;
  std::thread writer([&] {
    for (int i = 0; i < kPuts; ++i) {
      const std::string prefix = "w" + std::to_string(i) + "_";
      puts.push_back(
          cluster.PutBatch("a", MakeItems(8, 2, prefix.c_str()), put));
    }
    writing.store(false, std::memory_order_release);
  });
  std::vector<std::vector<GatherResult>> gathered(2);
  std::vector<std::thread> readers;
  for (std::vector<GatherResult>& mine : gathered) {
    readers.emplace_back([&cluster, &reads, &gather, &writing, &mine] {
      while (writing.load(std::memory_order_acquire) || mine.size() < 3) {
        mine.push_back(cluster.CountByTypeAll(reads, gather));
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();

  // One runtime served both kinds: no rebuild between reads and writes.
  EXPECT_EQ(cluster.runtime_builds(), 1u);
  for (const std::vector<GatherResult>& mine : gathered) {
    for (const GatherResult& r : mine) {
      EXPECT_EQ(r.totals, reference.totals);
      EXPECT_EQ(r.requests_per_node, reference.requests_per_node);
      EXPECT_EQ(r.errors_per_node, reference.errors_per_node);
      EXPECT_EQ(r.partitions_missing, reference.partitions_missing);
      EXPECT_EQ(r.subqueries, reference.subqueries);
      EXPECT_EQ(r.completed, reference.completed);
      EXPECT_EQ(r.failed, reference.failed);
      EXPECT_EQ(r.retries, reference.retries);
      EXPECT_DOUBLE_EQ(r.virtual_latency_us, reference.virtual_latency_us);
    }
  }
  uint64_t acks = 0;
  uint64_t failures = 0;
  ASSERT_EQ(puts.size(), static_cast<size_t>(kPuts));
  for (const PutResult& p : puts) {
    EXPECT_EQ(p.replica_writes, 32u);  // 16 items x 2 replicas
    EXPECT_EQ(p.replica_acks + p.replica_failures, p.replica_writes);
    acks += p.replica_acks;
    failures += p.replica_failures;
  }
  EXPECT_GT(failures, 0u);  // the WAL chaos really fired
  // Every acked copy, and only those, reached a store: a dropped or
  // misread refused index would count an unwritten copy as acked.
  uint64_t stored = 0;
  for (const uint64_t columns : cluster.ColumnsPerNode("a")) {
    stored += columns;
  }
  EXPECT_EQ(stored, acks);
  RemoveWals(wal, 4);
}

}  // namespace
}  // namespace kvscale
