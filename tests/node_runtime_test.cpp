// Tests for the message-driven node runtime and the message-transport
// gather: bounded-queue semantics, backpressure policies, codec/batch
// parity with the direct gather (healthy and under chaos), deadline
// sheds, in-flight reply corruption, and the real four-stage timestamps.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <latch>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cluster/in_process_cluster.hpp"
#include "cluster/node_runtime.hpp"
#include "fault/fault_injector.hpp"
#include "store/row.hpp"
#include "telemetry/metrics_registry.hpp"
#include "trace/stage_trace.hpp"
#include "wire/messages.hpp"

namespace kvscale {
namespace {

/// Same loader the fault-injection suite uses: `partitions` partitions of
/// `columns` columns, five type ids, with the expected aggregation in
/// `truth`.
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

/// Field-by-field comparison of the accounting two gathers produced.
void ExpectSameAccounting(const GatherResult& a, const GatherResult& b,
                          const std::string& label) {
  EXPECT_EQ(a.totals, b.totals) << label;
  EXPECT_EQ(a.requests_per_node, b.requests_per_node) << label;
  EXPECT_EQ(a.errors_per_node, b.errors_per_node) << label;
  EXPECT_EQ(a.partitions_missing, b.partitions_missing) << label;
  EXPECT_EQ(a.subqueries, b.subqueries) << label;
  EXPECT_EQ(a.completed, b.completed) << label;
  EXPECT_EQ(a.failed, b.failed) << label;
  EXPECT_EQ(a.retries, b.retries) << label;
  EXPECT_EQ(a.hedged, b.hedged) << label;
  EXPECT_EQ(a.partial, b.partial) << label;
  EXPECT_EQ(a.lost_partitions, b.lost_partitions) << label;
  EXPECT_DOUBLE_EQ(a.virtual_latency_us, b.virtual_latency_us) << label;
}

// ---------------------------------------------------------------------------
// BoundedQueue

TEST(BoundedQueueTest, PushPopIsFifo) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.Push(i));
  EXPECT_EQ(queue.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    auto item = queue.Pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueueTest, TryPushRejectsExactlyAtCapacity) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // full: deterministic, no consumer racing
  ASSERT_TRUE(queue.Pop().has_value());
  EXPECT_TRUE(queue.TryPush(4));  // one slot freed, one accepted again
}

TEST(BoundedQueueTest, BlockingPushWaitsForASlot) {
  BoundedQueue<int> queue(1);
  EXPECT_TRUE(queue.Push(1));
  std::thread producer([&] { EXPECT_TRUE(queue.Push(2)); });  // must block
  // The consumer drains both items; the producer can only finish if its
  // blocked Push was woken by the first Pop.
  EXPECT_EQ(queue.Pop().value(), 1);
  EXPECT_EQ(queue.Pop().value(), 2);
  producer.join();
}

TEST(BoundedQueueTest, CloseDrainsRemainingItemsThenSignalsEnd) {
  BoundedQueue<int> queue(4);
  EXPECT_TRUE(queue.Push(7));
  queue.Close();
  EXPECT_FALSE(queue.Push(8));     // closed: producers are refused
  EXPECT_FALSE(queue.TryPush(9));
  EXPECT_EQ(queue.Pop().value(), 7);        // the backlog still drains
  EXPECT_FALSE(queue.Pop().has_value());    // then the end is signalled
}

TEST(BoundedQueueTest, OnEnqueueHookRunsBeforeInsertion) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.Push(1, [](int& v) { v *= 10; }));
  EXPECT_TRUE(queue.TryPush(2, [](int& v) { v *= 10; }));
  EXPECT_EQ(queue.Pop().value(), 10);
  EXPECT_EQ(queue.Pop().value(), 20);
}

// ---------------------------------------------------------------------------
// NodeRuntime

TEST(NodeRuntimeTest, DispatchRoundTripsOneSubQuery) {
  CompactCodec registry;
  RegisterClusterMessages(registry);
  MetricsRegistry metrics;
  TransportOptions options;
  NodeRuntime runtime(
      2, options,
      [](uint32_t, const std::string&) -> TableReader {
        return [](const SubQueryBatch& frame, size_t item,
                  ReadProbe* probe) -> Result<OperatorResult> {
          probe->columns_returned = frame.expected_elements[item];
          return OperatorResult{{3}, {frame.expected_elements[item]}};
        };
      },
      registry, nullptr, &metrics, nullptr);
  auto query = runtime.BeginQuery(42, NodeRuntime::QueryOptions{});
  ASSERT_TRUE(query.ok());

  SubQueryBatch batch;
  batch.query_id = 42;
  batch.table = "t";
  batch.Append(/*sub_id=*/7, /*attempt=*/0, "p7", /*elements=*/11);
  const Micros extra = 0.0;
  ASSERT_TRUE(runtime
                  .Dispatch(query.value(), 1, batch,
                            std::span<const Micros>(&extra, 1))
                  .ok());

  const TransportReply reply = runtime.Await(query.value());
  EXPECT_EQ(reply.trace.node, 1u);
  EXPECT_EQ(reply.trace.sub_id, 7u);
  EXPECT_TRUE(reply.served);
  EXPECT_EQ(reply.code, StatusCode::kOk);
  ASSERT_EQ(reply.col_a().size(), 1u);
  EXPECT_EQ(reply.col_a()[0], 3u);
  EXPECT_EQ(reply.col_b()[0], 11u);
  EXPECT_EQ(reply.probe.columns_returned, 11u);
  // The five timestamps delimit the paper's four stages in order.
  EXPECT_LE(reply.trace.issued, reply.trace.received);
  EXPECT_LE(reply.trace.received, reply.trace.db_start);
  EXPECT_LE(reply.trace.db_start, reply.trace.db_end);
  // The reply path's stamps continue the order.
  EXPECT_LE(reply.trace.db_end, reply.trace.reply_encoded);
  EXPECT_LE(reply.trace.reply_encoded, reply.trace.reply_dequeued);
  EXPECT_LE(reply.trace.reply_dequeued, reply.trace.reply_decoded);

  // The runtime's lifetime traffic, as the registry counts it.
  const uint64_t frames_sent = metrics.GetCounter("wire.frames.sent").Value();
  const uint64_t bytes_sent = metrics.GetCounter("wire.bytes.sent").Value();
  const uint64_t bytes_received =
      metrics.GetCounter("wire.bytes.received").Value();
  EXPECT_EQ(frames_sent, 1u);
  EXPECT_EQ(metrics.GetCounter("wire.frames.received").Value(), 1u);
  EXPECT_GT(bytes_sent, 0u);
  EXPECT_GT(bytes_received, 0u);
  // The query's private accounting matches: it was the only traffic.
  const NodeRuntime::QueryTotals own = runtime.EndQuery(query.value());
  EXPECT_EQ(own.wire.frames_sent, frames_sent);
  EXPECT_EQ(own.wire.bytes_sent, bytes_sent);
  EXPECT_EQ(own.wire.bytes_received, bytes_received);
  EXPECT_EQ(runtime.inflight_queries(), 0u);
}

/// Sends `count` sub-queries (keys "p0".."p<count-1>", attempt 0) to
/// node 0 of `runtime` as one request frame under `query`.
void DispatchOneFrame(NodeRuntime& runtime,
                      const NodeRuntime::QueryHandle& query, size_t count) {
  SubQueryBatch batch;
  batch.query_id = query->query_id;
  batch.table = "t";
  for (size_t i = 0; i < count; ++i) {
    const auto sub_id = static_cast<uint32_t>(i);
    batch.Append(sub_id, 0, "p" + std::to_string(i), sub_id);
  }
  const std::vector<Micros> extras(count, 0.0);
  ASSERT_TRUE(runtime.Dispatch(query, 0, batch, extras).ok());
}

/// Answers sub-query i with `width` rows (i, i + k).
SubQueryHandler WideHandler(size_t width) {
  return [width](uint32_t, const std::string&) -> TableReader {
    return [width](const SubQueryBatch& frame, size_t item,
                   ReadProbe*) -> Result<OperatorResult> {
      const uint64_t sub_id = frame.sub_ids[item];
      OperatorResult out;
      for (size_t k = 0; k < width; ++k) {
        out.col_a.push_back(sub_id);
        out.col_b.push_back(sub_id + k);
      }
      return out;
    };
  };
}

TEST(NodeRuntimeTest, OneRequestFrameIsAnsweredByOneReplyFrame) {
  CompactCodec registry;
  RegisterClusterMessages(registry);
  NodeRuntime runtime(1, TransportOptions{}, WideHandler(2), registry,
                      nullptr, nullptr, nullptr);
  auto query = runtime.BeginQuery(5, NodeRuntime::QueryOptions{});
  ASSERT_TRUE(query.ok());
  DispatchOneFrame(runtime, query.value(), 50);
  std::vector<bool> seen(50, false);
  for (size_t i = 0; i < 50; ++i) {
    const TransportReply reply = runtime.Await(query.value());
    ASSERT_EQ(reply.code, StatusCode::kOk);
    ASSERT_LT(reply.trace.sub_id, 50u);
    seen[reply.trace.sub_id] = true;
    ASSERT_EQ(reply.col_b().size(), 2u);
    EXPECT_EQ(reply.col_b()[1], reply.trace.sub_id + 1u);
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true), 50);
  EXPECT_EQ(runtime.EndQuery(query.value()).wire.frames_received, 1u);
}

TEST(NodeRuntimeTest, LargeAnswersSplitAtTheReplyByteBound) {
  CompactCodec registry;
  RegisterClusterMessages(registry);
  // Each answer is estimated at 8 bytes per value: 16 answers of this
  // width need four frames or more.
  const size_t width = kReplyFrameBytes / 8 / 2 / 4;
  NodeRuntime runtime(1, TransportOptions{}, WideHandler(width), registry,
                      nullptr, nullptr, nullptr);
  auto query = runtime.BeginQuery(6, NodeRuntime::QueryOptions{});
  ASSERT_TRUE(query.ok());
  DispatchOneFrame(runtime, query.value(), 16);
  for (size_t i = 0; i < 16; ++i) {
    const TransportReply reply = runtime.Await(query.value());
    ASSERT_EQ(reply.code, StatusCode::kOk);
    ASSERT_EQ(reply.col_a().size(), width);
    EXPECT_EQ(reply.col_a()[width - 1], reply.trace.sub_id);
    EXPECT_EQ(reply.col_b()[width - 1], reply.trace.sub_id + width - 1);
  }
  const uint64_t frames =
      runtime.EndQuery(query.value()).wire.frames_received;
  EXPECT_GE(frames, 4u);
  EXPECT_LE(frames, 16u);
}

TEST(NodeRuntimeTest, ACorruptedAnswerFailsAloneWhileItsSiblingsArrive) {
  CompactCodec registry;
  RegisterClusterMessages(registry);
  FaultConfig config;
  config.seed = 99;
  config.reply_corrupt_rate = 0.3;
  FaultInjector injector(config);
  // The same seed predicts the injector's per-answer verdicts.
  const FaultInjector oracle(config);
  NodeRuntime runtime(1, TransportOptions{}, WideHandler(3), registry,
                      &injector, nullptr, nullptr);
  auto query = runtime.BeginQuery(7, NodeRuntime::QueryOptions{});
  ASSERT_TRUE(query.ok());
  DispatchOneFrame(runtime, query.value(), 40);
  size_t corrupted = 0;
  for (size_t i = 0; i < 40; ++i) {
    const TransportReply reply = runtime.Await(query.value());
    const bool damaged = oracle.ShouldCorruptReply(
        0, "p" + std::to_string(reply.trace.sub_id), 0);
    if (damaged) {
      ++corrupted;
      EXPECT_EQ(reply.code, StatusCode::kCorruption) << reply.trace.sub_id;
    } else {
      ASSERT_EQ(reply.code, StatusCode::kOk) << reply.trace.sub_id;
      EXPECT_EQ(reply.col_b().size(), 3u);
    }
  }
  EXPECT_GT(corrupted, 0u);
  EXPECT_LT(corrupted, 40u);
  EXPECT_EQ(injector.corrupted_replies(), corrupted);
  EXPECT_EQ(runtime.EndQuery(query.value()).wire.frames_received, 1u);
}

TEST(NodeRuntimeTest, ACorruptedEnvelopeFailsEveryAnswerInTheFrame) {
  CompactCodec registry;
  RegisterClusterMessages(registry);
  FaultConfig config;
  config.reply_frame_corrupt_rate = 1.0;
  FaultInjector injector(config);
  NodeRuntime runtime(1, TransportOptions{}, WideHandler(1), registry,
                      &injector, nullptr, nullptr);
  auto query = runtime.BeginQuery(8, NodeRuntime::QueryOptions{});
  ASSERT_TRUE(query.ok());
  DispatchOneFrame(runtime, query.value(), 12);
  std::vector<bool> seen(12, false);
  for (size_t i = 0; i < 12; ++i) {
    const TransportReply reply = runtime.Await(query.value());
    EXPECT_EQ(reply.code, StatusCode::kCorruption);
    EXPECT_TRUE(reply.served);  // the store did the work; the wire lost it
    ASSERT_LT(reply.trace.sub_id, 12u);
    seen[reply.trace.sub_id] = true;
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true), 12);
  EXPECT_EQ(injector.corrupted_reply_frames(), 1u);
  runtime.EndQuery(query.value());
}

TEST(NodeRuntimeTest, RejectPolicyShedsWhenQueueAndWorkerAreBusy) {
  CompactCodec registry;
  RegisterClusterMessages(registry);
  std::latch worker_started(1);
  std::latch release_worker(1);
  TransportOptions options;
  options.queue_depth = 1;
  options.workers_per_node = 1;
  options.queue_policy = QueueFullPolicy::kReject;
  NodeRuntime runtime(
      1, options,
      [&](uint32_t, const std::string&) -> TableReader {
        return [&](const SubQueryBatch& frame, size_t item,
                   ReadProbe*) -> Result<OperatorResult> {
          if (frame.sub_ids[item] == 0) {
            worker_started.count_down();
            release_worker.wait();
          }
          return OperatorResult{};
        };
      },
      registry, nullptr, nullptr, nullptr);
  auto query = runtime.BeginQuery(9, NodeRuntime::QueryOptions{});
  ASSERT_TRUE(query.ok());

  auto dispatch_one = [&](uint32_t sub_id) {
    SubQueryBatch batch;
    batch.query_id = 9;
    batch.table = "t";
    batch.Append(sub_id, 0, "p" + std::to_string(sub_id), 0);
    const Micros extra = 0.0;
    return runtime.Dispatch(query.value(), 0, batch,
                            std::span<const Micros>(&extra, 1));
  };

  ASSERT_TRUE(dispatch_one(0).ok());
  worker_started.wait();  // the only worker now holds sub 0, queue empty
  ASSERT_TRUE(dispatch_one(1).ok());  // fills the depth-1 queue
  const Status rejected = dispatch_one(2);
  ASSERT_FALSE(rejected.ok());  // deterministically full
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);

  release_worker.count_down();
  EXPECT_EQ(runtime.Await(query.value()).code, StatusCode::kOk);
  EXPECT_EQ(runtime.Await(query.value()).code, StatusCode::kOk);
  // The reject sent nothing.
  EXPECT_EQ(runtime.EndQuery(query.value()).wire.frames_sent, 2u);
}

// ---------------------------------------------------------------------------
// Per-frame table opening: a worker opens its node's table once per
// request frame, and re-opens it only after an item it refused.

/// A read path that counts its opens; every reader it hands out answers
/// an item with (the open ordinal it came from, sub_id), so each answer
/// names the open that served it. `on_item` runs before each answer.
struct CountingOpener {
  std::atomic<uint32_t> opens{0};
  std::function<void(uint32_t sub_id)> on_item = [](uint32_t) {};

  SubQueryHandler Handler() {
    return [this](uint32_t, const std::string& table) -> TableReader {
      EXPECT_EQ(table, "t");
      const uint64_t open = opens.fetch_add(1) + 1;
      return [this, open](const SubQueryBatch& frame, size_t item,
                          ReadProbe*) -> Result<OperatorResult> {
        const auto sub_id = static_cast<uint32_t>(frame.sub_ids[item]);
        on_item(sub_id);
        return OperatorResult{{open}, {sub_id}};
      };
    };
  }
};

/// Awaits `count` answers and returns them indexed by sub_id, each with
/// its own copy of its result columns.
std::vector<TransportReply> AwaitAll(NodeRuntime& runtime,
                                     const NodeRuntime::QueryHandle& query,
                                     size_t count) {
  std::vector<TransportReply> by_sub(count);
  for (size_t i = 0; i < count; ++i) {
    TransportReply reply = runtime.Await(query);
    // The columns view the reply frame only until the next Await.
    reply.columns.col_a.assign(reply.col_a().begin(), reply.col_a().end());
    reply.columns.col_b.assign(reply.col_b().begin(), reply.col_b().end());
    reply.in_frame = false;
    EXPECT_LT(reply.trace.sub_id, count);
    if (reply.trace.sub_id < count) {
      by_sub[reply.trace.sub_id] = std::move(reply);
    }
  }
  return by_sub;
}

TEST(NodeRuntimeTest, ATableIsOpenedOncePerRequestFrame) {
  CompactCodec registry;
  RegisterClusterMessages(registry);
  CountingOpener opener;
  NodeRuntime runtime(1, TransportOptions{}, opener.Handler(), registry,
                      nullptr, nullptr, nullptr);
  auto query = runtime.BeginQuery(11, NodeRuntime::QueryOptions{});
  ASSERT_TRUE(query.ok());
  DispatchOneFrame(runtime, query.value(), 50);
  for (const TransportReply& reply : AwaitAll(runtime, query.value(), 50)) {
    ASSERT_EQ(reply.code, StatusCode::kOk);
    EXPECT_EQ(reply.col_a()[0], 1u);  // every item read through open 1
  }
  DispatchOneFrame(runtime, query.value(), 5);
  AwaitAll(runtime, query.value(), 5);
  EXPECT_EQ(opener.opens.load(), 2u);  // one open per frame
  runtime.EndQuery(query.value());
}

TEST(NodeRuntimeTest, AKillInTheMiddleOfAFrameRefusesTheItemsBehindIt) {
  CompactCodec registry;
  RegisterClusterMessages(registry);
  FaultInjector injector;
  std::latch reading_item_3(1);
  std::latch killed(1);
  CountingOpener opener;
  opener.on_item = [&](uint32_t sub_id) {
    if (sub_id == 3) {
      reading_item_3.count_down();
      killed.wait();  // the kill lands while this read is in flight
    }
  };
  NodeRuntime runtime(1, TransportOptions{}, opener.Handler(), registry,
                      &injector, nullptr, nullptr);
  auto query = runtime.BeginQuery(12, NodeRuntime::QueryOptions{});
  ASSERT_TRUE(query.ok());
  DispatchOneFrame(runtime, query.value(), 10);
  reading_item_3.wait();
  injector.KillNode(0);
  killed.count_down();
  const std::vector<TransportReply> replies =
      AwaitAll(runtime, query.value(), 10);
  for (size_t i = 0; i < replies.size(); ++i) {
    if (i <= 3) {
      // Served before the kill, or already inside the store when it came.
      EXPECT_EQ(replies[i].code, StatusCode::kOk) << i;
      EXPECT_TRUE(replies[i].served) << i;
    } else {
      EXPECT_EQ(replies[i].code, StatusCode::kUnavailable) << i;
      EXPECT_FALSE(replies[i].served) << i;
    }
  }
  EXPECT_EQ(opener.opens.load(), 1u);
  runtime.EndQuery(query.value());
}

TEST(NodeRuntimeTest, AKillAndReviveNoItemSawKeepTheOpenedTable) {
  // The documented rule's quiet half: liveness is checked per item, so a
  // kill and revive that both land inside one item's read are invisible
  // to the frame, which keeps serving through the table it opened.
  CompactCodec registry;
  RegisterClusterMessages(registry);
  FaultInjector injector;
  CountingOpener opener;
  opener.on_item = [&](uint32_t sub_id) {
    if (sub_id == 3) {
      injector.KillNode(0);
      injector.ReviveNode(0);
    }
  };
  NodeRuntime runtime(1, TransportOptions{}, opener.Handler(), registry,
                      &injector, nullptr, nullptr);
  auto query = runtime.BeginQuery(13, NodeRuntime::QueryOptions{});
  ASSERT_TRUE(query.ok());
  DispatchOneFrame(runtime, query.value(), 10);
  for (const TransportReply& reply : AwaitAll(runtime, query.value(), 10)) {
    EXPECT_EQ(reply.code, StatusCode::kOk);
    EXPECT_EQ(reply.col_a()[0], 1u);
  }
  EXPECT_EQ(opener.opens.load(), 1u);
  runtime.EndQuery(query.value());
}

TEST(NodeRuntimeTest, AReviveInTheMiddleOfAFrameReopensAfterTheRefusals) {
  // The rule's other half: once an item was refused, the next item that
  // is served opens the node's table again — after a revive, that is
  // the revived node's store. A revive thread races the worker, so the
  // refused run may be empty or reach the end of the frame; whatever the
  // interleaving, items come in order served / refused / served, and
  // every item after a refusal reads through a new open.
  CompactCodec registry;
  RegisterClusterMessages(registry);
  FaultInjector injector;
  std::latch killed(1);
  CountingOpener opener;
  opener.on_item = [&](uint32_t sub_id) {
    if (sub_id == 3) {
      injector.KillNode(0);
      killed.count_down();
    }
  };
  NodeRuntime runtime(1, TransportOptions{}, opener.Handler(), registry,
                      &injector, nullptr, nullptr);
  auto query = runtime.BeginQuery(14, NodeRuntime::QueryOptions{});
  ASSERT_TRUE(query.ok());
  constexpr size_t kItems = 4000;
  DispatchOneFrame(runtime, query.value(), kItems);
  std::thread reviver([&] {
    killed.wait();
    injector.ReviveNode(0);
  });
  const std::vector<TransportReply> replies =
      AwaitAll(runtime, query.value(), kItems);
  reviver.join();
  size_t refused = 0;
  for (size_t i = 0; i < kItems; ++i) {
    if (i <= 3) {
      ASSERT_EQ(replies[i].code, StatusCode::kOk) << i;
      EXPECT_EQ(replies[i].col_a()[0], 1u) << i;
    } else if (replies[i].code == StatusCode::kUnavailable) {
      ASSERT_EQ(refused, i - 4) << "a refusal after a served item at " << i;
      ++refused;
    } else {
      ASSERT_EQ(replies[i].code, StatusCode::kOk) << i;
      // Served after the refused run: open 2 when there was one, else
      // the first open never saw the kill.
      EXPECT_EQ(replies[i].col_a()[0], refused > 0 ? 2u : 1u) << i;
    }
  }
  const bool served_after = refused > 0 && refused < kItems - 4;
  EXPECT_EQ(opener.opens.load(), served_after ? 2u : 1u);
  runtime.EndQuery(query.value());
}

// ---------------------------------------------------------------------------
// Message-transport gather: parity with the direct path

TEST(MessageGatherTest, HealthyRunMatchesDirectAcrossCodecsAndBatching) {
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 7,
                           2);
  TypeCounts truth;
  const WorkloadSpec workload = LoadUniform(cluster, 48, 12, &truth);
  cluster.FlushAll();

  const GatherResult direct = cluster.CountByTypeAll(workload);
  ASSERT_EQ(direct.totals, truth);

  for (const WireCodecKind codec :
       {WireCodecKind::kTagged, WireCodecKind::kCompact}) {
    for (const bool batch : {false, true}) {
      for (const uint32_t workers : {1u, 3u}) {
        GatherOptions options;
        options.transport = GatherTransport::kMessage;
        options.codec = codec;
        options.batch = batch;
        options.workers_per_node = workers;
        const GatherResult message = cluster.CountByTypeAll(workload, options);
        const std::string label = std::string(WireCodecName(codec)) +
                                  (batch ? "/batch" : "/single") + "/w" +
                                  std::to_string(workers);
        ExpectSameAccounting(message, direct, label);
        EXPECT_GT(message.wire_frames_sent, 0u) << label;
        EXPECT_GT(message.wire_bytes_sent, 0u) << label;
        EXPECT_GT(message.wire_bytes_received, 0u) << label;
      }
    }
  }
}

// The PR 2 headline chaos scenario (replication 3, one dead node, 1%
// injected errors, one corrupted block) executed over real encoded
// messages must land on the exact healthy answer with the exact same
// accounting as the direct failover path.
TEST(MessageGatherTest, ChaosRunMatchesDirectBitForBit) {
  InProcessCluster cluster(6, PlacementKind::kDhtRandom, StoreOptions{}, 7,
                           3);
  TypeCounts truth;
  const WorkloadSpec workload = LoadUniform(cluster, 60, 30, &truth);
  cluster.FlushAll();

  FaultConfig config;
  config.seed = 1234;
  config.read_error_rate = 0.01;
  FaultInjector injector(config);
  cluster.AttachFaultInjector(&injector);
  cluster.KillNode(1);
  auto table = cluster.node(0).FindTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(table.value()->CorruptBlockForFaultInjection(0, 0, 12345).ok());

  GatherOptions direct_options;
  direct_options.max_attempts = 4;
  const GatherResult direct = cluster.CountByTypeAll(workload, direct_options);
  ASSERT_EQ(direct.totals, truth);
  ASSERT_GT(direct.retries, 0u);

  GatherOptions message_options = direct_options;
  message_options.transport = GatherTransport::kMessage;
  message_options.codec = WireCodecKind::kCompact;
  message_options.batch = true;
  const GatherResult message =
      cluster.CountByTypeAll(workload, message_options);

  EXPECT_EQ(message.totals, truth);
  ExpectSameAccounting(message, direct, "chaos compact/batch");
  EXPECT_GT(message.errors_per_node[1], 0u);  // the dead node was tried
  // Batching coalesced the scatter: far fewer frames than sub-queries.
  EXPECT_LT(message.wire_frames_sent,
            message.subqueries + message.retries);
}

TEST(MessageGatherTest, HedgedSpikyRunMatchesDirect) {
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

  GatherOptions direct_options;
  direct_options.hedge = true;
  direct_options.hedge_threshold_us = 1.0 * kMillisecond;
  const GatherResult direct = cluster.CountByTypeAll(workload, direct_options);
  ASSERT_GT(direct.hedged, 0u);

  GatherOptions message_options = direct_options;
  message_options.transport = GatherTransport::kMessage;
  const GatherResult message =
      cluster.CountByTypeAll(workload, message_options);
  EXPECT_EQ(message.totals, truth);
  ExpectSameAccounting(message, direct, "hedged spiky");
}

TEST(MessageGatherTest, ParallelDelegatesToWorkerPoolsAndMatches) {
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
  options.transport = GatherTransport::kMessage;
  const GatherResult serial = cluster.CountByTypeAll(workload, options);
  GatherOptions wide = options;
  wide.workers_per_node = 4;  // parallelism lives in the node worker pools
  const GatherResult parallel = cluster.CountByTypeAll(workload, wide);
  ExpectSameAccounting(parallel, serial, "parallel message");
}

// ---------------------------------------------------------------------------
// Backpressure, deadline sheds, reply corruption

TEST(MessageGatherTest, BlockPolicyIsLosslessUnderATinyQueue) {
  InProcessCluster cluster(2, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  TypeCounts truth;
  const WorkloadSpec workload = LoadUniform(cluster, 80, 4, &truth);
  cluster.FlushAll();

  GatherOptions options;
  options.transport = GatherTransport::kMessage;
  options.queue_depth = 1;  // the master must block on nearly every send
  options.queue_policy = QueueFullPolicy::kBlock;
  const GatherResult result = cluster.CountByTypeAll(workload, options);
  EXPECT_EQ(result.totals, truth);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.completed + result.failed, result.subqueries);
}

TEST(MessageGatherTest, RejectPolicyKeepsTheAccountingInvariant) {
  InProcessCluster cluster(1, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  TypeCounts truth;
  const WorkloadSpec workload = LoadUniform(cluster, 400, 2, &truth);
  cluster.FlushAll();

  GatherOptions options;
  options.transport = GatherTransport::kMessage;
  options.queue_depth = 1;
  options.queue_policy = QueueFullPolicy::kReject;
  options.max_attempts = 2;
  const GatherResult result = cluster.CountByTypeAll(workload, options);
  // How many sends bounce depends on scheduling, but the degraded-result
  // report must balance exactly and name every loss.
  EXPECT_EQ(result.completed + result.failed, result.subqueries);
  EXPECT_EQ(result.lost_partitions.size(), result.failed);
  EXPECT_EQ(result.partial, result.failed > 0);
  if (result.failed == 0) {
    EXPECT_EQ(result.totals, truth);
  }
}

TEST(MessageGatherTest, DeadlineExpiryWhileEnqueuedShedsDeterministically) {
  InProcessCluster cluster(1, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  const WorkloadSpec workload = LoadUniform(cluster, 10, 4);
  cluster.FlushAll();

  // Every served request charges 10 ms of virtual latency against a 1 ms
  // deadline: with one worker and one batched frame, the first request
  // completes and burns the budget, and everything behind it in the
  // queue is shed without touching the store.
  FaultConfig config;
  config.latency_spike_rate = 1.0;
  config.latency_spike_us = 10.0 * kMillisecond;
  FaultInjector injector(config);
  cluster.AttachFaultInjector(&injector);

  GatherOptions options;
  options.transport = GatherTransport::kMessage;
  options.batch = true;
  options.workers_per_node = 1;
  options.max_attempts = 1;
  options.deadline_us = 1.0 * kMillisecond;
  const GatherResult result = cluster.CountByTypeAll(workload, options);

  EXPECT_EQ(result.completed, 1u);
  EXPECT_EQ(result.failed, workload.partitions.size() - 1);
  EXPECT_TRUE(result.partial);
  EXPECT_EQ(result.lost_partitions.size(), result.failed);
  EXPECT_EQ(result.completed + result.failed, result.subqueries);
  // The shed requests never reached the store.
  EXPECT_EQ(result.requests_per_node[0], 1u);
  // Exactly the first scattered partition survived.
  for (const std::string& lost : result.lost_partitions) {
    EXPECT_NE(lost, workload.partitions[0].key);
  }
}

TEST(MessageGatherTest, CorruptedRepliesAreDetectedAndFailedOver) {
  InProcessCluster cluster(3, PlacementKind::kDhtRandom, StoreOptions{}, 7,
                           2);
  TypeCounts truth;
  const WorkloadSpec workload = LoadUniform(cluster, 40, 8, &truth);
  cluster.FlushAll();

  FaultConfig config;
  config.seed = 4242;
  config.reply_corrupt_rate = 0.25;
  FaultInjector injector(config);
  cluster.AttachFaultInjector(&injector);

  GatherOptions options;
  options.transport = GatherTransport::kMessage;
  options.max_attempts = 6;
  const GatherResult result = cluster.CountByTypeAll(workload, options);

  EXPECT_GT(injector.corrupted_replies(), 0u);  // the fault really fired
  EXPECT_EQ(result.totals, truth);  // and the master routed around it
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GT(result.retries, 0u);
  uint64_t errors = 0;
  for (const uint64_t e : result.errors_per_node) errors += e;
  EXPECT_GT(errors, 0u);
  // The direct path never consults the reply injection point.
  const uint64_t before = injector.corrupted_replies();
  const GatherResult direct = cluster.CountByTypeAll(workload);
  EXPECT_EQ(direct.totals, truth);
  EXPECT_EQ(direct.retries, 0u);
  EXPECT_EQ(injector.corrupted_replies(), before);
}

TEST(MessageGatherTest, ItemAndEnvelopeCorruptionKeepTheAccountingIdentity) {
  InProcessCluster cluster(3, PlacementKind::kDhtRandom, StoreOptions{}, 7,
                           2);
  TypeCounts truth;
  const WorkloadSpec workload = LoadUniform(cluster, 60, 8, &truth);
  cluster.FlushAll();
  for (const bool envelope : {false, true}) {
    FaultConfig config;
    config.seed = 777;
    // Far fewer frames than answers: the envelope rate is set higher.
    (envelope ? config.reply_frame_corrupt_rate : config.reply_corrupt_rate) =
        envelope ? 0.5 : 0.3;
    FaultInjector injector(config);
    cluster.AttachFaultInjector(&injector);
    GatherOptions options;
    options.transport = GatherTransport::kMessage;
    options.batch = true;
    options.max_attempts = 8;
    const GatherResult result = cluster.CountByTypeAll(workload, options);
    const std::string label = envelope ? "envelope" : "item";
    EXPECT_GT(envelope ? injector.corrupted_reply_frames()
                       : injector.corrupted_replies(),
              0u)
        << label;
    EXPECT_EQ(result.completed + result.failed, result.subqueries) << label;
    EXPECT_EQ(result.failed, 0u) << label;
    EXPECT_EQ(result.totals, truth) << label;
    EXPECT_GT(result.retries, 0u) << label;
    cluster.AttachFaultInjector(nullptr);
  }
}

// ---------------------------------------------------------------------------
// Telemetry: stage timestamps and wire instruments

TEST(MessageGatherTest, RecordsOrderedFourStageTimestamps) {
  InProcessCluster cluster(3, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  const WorkloadSpec workload = LoadUniform(cluster, 30, 6);
  cluster.FlushAll();

  StageTracer stages;
  cluster.AttachStageTracer(&stages);
  GatherOptions options;
  options.transport = GatherTransport::kMessage;
  options.batch = true;
  const GatherResult result = cluster.CountByTypeAll(workload, options);
  ASSERT_EQ(result.failed, 0u);

  // One trace per sub-query that reached a store.
  ASSERT_EQ(stages.size(), workload.partitions.size());
  for (const RequestTrace& trace : stages.traces()) {
    EXPECT_LE(trace.issued, trace.received);
    EXPECT_LE(trace.received, trace.db_start);
    EXPECT_LE(trace.db_start, trace.db_end);
    EXPECT_LE(trace.db_end, trace.completed);
    EXPECT_GT(trace.keysize, 0.0);
  }
  EXPECT_GT(stages.Makespan(), 0.0);
  // Every stage has a defined summary over the run.
  for (const Stage stage :
       {Stage::kMasterToSlave, Stage::kInQueue, Stage::kInDb,
        Stage::kSlaveToMaster}) {
    EXPECT_EQ(stages.StageSummary(stage).count(),
              workload.partitions.size());
  }
  // The direct transport records the same stages: nothing is encoded or
  // queued, so each read is issued and received at one instant.
  stages.Clear();
  cluster.CountByTypeAll(workload);
  ASSERT_EQ(stages.size(), workload.partitions.size());
  for (const RequestTrace& trace : stages.traces()) {
    EXPECT_EQ(trace.issued, trace.received);
    EXPECT_LE(trace.received, trace.db_start);
    EXPECT_LE(trace.db_start, trace.db_end);
    EXPECT_LE(trace.db_end, trace.completed);
  }
}

TEST(MessageGatherTest, ExportsWireCountersAndQueueGauges) {
  MetricsRegistry registry;
  InProcessCluster cluster(2, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  cluster.AttachTelemetry(nullptr, &registry);
  const WorkloadSpec workload = LoadUniform(cluster, 20, 5);
  cluster.FlushAll();

  GatherOptions options;
  options.transport = GatherTransport::kMessage;
  const GatherResult result = cluster.CountByTypeAll(workload, options);

  EXPECT_EQ(registry.GetCounter("wire.bytes.sent").Value(),
            result.wire_bytes_sent);
  EXPECT_EQ(registry.GetCounter("wire.bytes.received").Value(),
            result.wire_bytes_received);
  EXPECT_EQ(registry.GetCounter("wire.frames.sent").Value(),
            result.wire_frames_sent);
  EXPECT_EQ(registry.GetCounter("wire.frames.received").Value(),
            result.wire_frames_received);
  // One encode per frame, both directions: replies come one frame per
  // request frame here (tiny answers stay under the byte bound).
  EXPECT_EQ(result.wire_frames_received, result.wire_frames_sent);
  EXPECT_EQ(registry.GetHistogram("wire.encode.latency_us").Count(),
            result.wire_frames_sent + result.wire_frames_received);
  EXPECT_GT(registry.GetHistogram("wire.decode.latency_us").Count(), 0u);
  EXPECT_GT(registry.GetHistogram("cluster.queue.wait_us").Count(), 0u);
  // The per-node depth gauges exist (drained back to zero by the end).
  EXPECT_EQ(registry.GetGauge("cluster.queue.depth.node0").Value(), 0.0);
  EXPECT_EQ(registry.GetGauge("cluster.queue.depth.node1").Value(), 0.0);
}

TEST(MessageGatherTest, TaggedCodecCostsMoreBytesThanCompact) {
  InProcessCluster cluster(2, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  const WorkloadSpec workload = LoadUniform(cluster, 50, 4);
  cluster.FlushAll();

  GatherOptions tagged;
  tagged.transport = GatherTransport::kMessage;
  tagged.codec = WireCodecKind::kTagged;
  GatherOptions compact = tagged;
  compact.codec = WireCodecKind::kCompact;

  const GatherResult t = cluster.CountByTypeAll(workload, tagged);
  const GatherResult c = cluster.CountByTypeAll(workload, compact);
  EXPECT_EQ(t.totals, c.totals);
  // The Section V-B gap: self-describing frames dwarf registered-id ones.
  EXPECT_GT(t.wire_bytes_sent, 2 * c.wire_bytes_sent);
  EXPECT_GT(t.wire_bytes_received, c.wire_bytes_received);
}

TEST(MessageGatherTest, BatchedCountGatherSendsPinnedRequestBytes) {
  // A fixed batched count gather in a fresh cluster: 2000 one-column
  // partitions on 4 nodes, one request frame per node. The request bytes
  // hold no clock stamp, so they are a pure function of the plan, the
  // placement and the codec: any move here is a wire format change.
  struct Case {
    WireCodecKind codec;
    uint64_t bytes_sent;
  };
  for (const Case& c : {Case{WireCodecKind::kCompact, 18858},
                        Case{WireCodecKind::kTagged, 65624}}) {
    InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 7);
    const WorkloadSpec workload = LoadUniform(cluster, 2000, 1);
    GatherOptions options;
    options.transport = GatherTransport::kMessage;
    options.codec = c.codec;
    options.batch = true;
    const GatherResult result = cluster.CountByTypeAll(workload, options);
    const std::string label(WireCodecName(c.codec));
    EXPECT_EQ(result.completed, 2000u) << label;
    EXPECT_EQ(result.wire_frames_sent, 4u) << label;
    EXPECT_EQ(result.wire_bytes_sent, c.bytes_sent) << label;
  }
}

}  // namespace
}  // namespace kvscale
