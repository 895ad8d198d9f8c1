// Tests for the shared multi-query node runtime: runtime reuse across
// gathers, admission control (block and shed), per-query clock and reply
// isolation, N-client bit-identical parity with sequential gathers
// (healthy and under chaos), and the scatter-latency (t0) regression.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cluster/in_process_cluster.hpp"
#include "cluster/node_runtime.hpp"
#include "store/row.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics_registry.hpp"
#include "trace/stage_trace.hpp"
#include "wire/messages.hpp"

namespace kvscale {
namespace {

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
// Runtime lifecycle: one build, many gathers

TEST(SharedRuntimeTest, ReusedAcrossGathersAndRebuiltOnStructuralChange) {
  InProcessCluster cluster(3, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  TypeCounts truth;
  const WorkloadSpec workload = LoadUniform(cluster, 30, 6, &truth);
  cluster.FlushAll();
  EXPECT_EQ(cluster.runtime_builds(), 0u);  // lazily built: nothing yet

  GatherOptions options;
  options.transport = GatherTransport::kMessage;
  for (int round = 0; round < 4; ++round) {
    EXPECT_EQ(cluster.CountByTypeAll(workload, options).totals, truth);
  }
  EXPECT_EQ(cluster.runtime_builds(), 1u);  // four gathers, one runtime

  // Codec and batching are per-query settings: no rebuild.
  options.codec = WireCodecKind::kTagged;
  options.batch = true;
  EXPECT_EQ(cluster.CountByTypeAll(workload, options).totals, truth);
  EXPECT_EQ(cluster.runtime_builds(), 1u);

  // Queue depth and worker count shape the queues and pools themselves:
  // the next gather must rebuild.
  options.workers_per_node = 3;
  EXPECT_EQ(cluster.CountByTypeAll(workload, options).totals, truth);
  EXPECT_EQ(cluster.runtime_builds(), 2u);
  EXPECT_EQ(cluster.CountByTypeAll(workload, options).totals, truth);
  EXPECT_EQ(cluster.runtime_builds(), 2u);
}

// ---------------------------------------------------------------------------
// Admission control at the runtime level (deterministic)

TEST(AdmissionControlTest, RejectPolicyShedsAtTheLimitAndRearms) {
  CompactCodec registry;
  RegisterClusterMessages(registry);
  TransportOptions options;
  options.max_inflight = 1;
  options.admission_policy = QueueFullPolicy::kReject;
  NodeRuntime runtime(
      1, options,
      [](uint32_t, const std::string&) -> TableReader {
        return [](const SubQueryBatch&, size_t,
                  ReadProbe*) -> Result<OperatorResult> {
          return OperatorResult{};
        };
      },
      registry, nullptr, nullptr, nullptr);

  auto first = runtime.BeginQuery(1, NodeRuntime::QueryOptions{});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(runtime.inflight_queries(), 1u);
  const auto second = runtime.BeginQuery(2, NodeRuntime::QueryOptions{});
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(runtime.admitted(), 1u);
  EXPECT_EQ(runtime.shed(), 1u);

  runtime.EndQuery(first.value());  // the slot frees up...
  auto retried = runtime.BeginQuery(2, NodeRuntime::QueryOptions{});
  EXPECT_TRUE(retried.ok());

  // ...and raising the limit admits a second concurrent query.
  runtime.SetAdmissionLimit(2, QueueFullPolicy::kReject);
  auto third = runtime.BeginQuery(3, NodeRuntime::QueryOptions{});
  EXPECT_TRUE(third.ok());
  EXPECT_EQ(runtime.inflight_queries(), 2u);
  if (retried.ok()) runtime.EndQuery(retried.value());
  if (third.ok()) runtime.EndQuery(third.value());
}

TEST(AdmissionControlTest, BlockPolicyWaitsForASlot) {
  CompactCodec registry;
  RegisterClusterMessages(registry);
  TransportOptions options;
  options.max_inflight = 1;
  options.admission_policy = QueueFullPolicy::kBlock;
  NodeRuntime runtime(
      1, options,
      [](uint32_t, const std::string&) -> TableReader {
        return [](const SubQueryBatch&, size_t,
                  ReadProbe*) -> Result<OperatorResult> {
          return OperatorResult{};
        };
      },
      registry, nullptr, nullptr, nullptr);

  auto first = runtime.BeginQuery(1, NodeRuntime::QueryOptions{});
  ASSERT_TRUE(first.ok());
  std::thread waiter([&] {
    // Must block until query 1 releases its slot, then be admitted.
    auto second = runtime.BeginQuery(2, NodeRuntime::QueryOptions{});
    EXPECT_TRUE(second.ok());
    if (second.ok()) runtime.EndQuery(second.value());
  });
  runtime.EndQuery(first.value());
  waiter.join();
  EXPECT_EQ(runtime.admitted(), 2u);
  EXPECT_EQ(runtime.shed(), 0u);
  EXPECT_EQ(runtime.inflight_queries(), 0u);
}

TEST(AdmissionControlTest, PerQueryClocksAreIsolated) {
  CompactCodec registry;
  RegisterClusterMessages(registry);
  TransportOptions options;
  NodeRuntime runtime(
      1, options,
      [](uint32_t, const std::string&) -> TableReader {
        return [](const SubQueryBatch&, size_t,
                  ReadProbe*) -> Result<OperatorResult> {
          return OperatorResult{};
        };
      },
      registry, nullptr, nullptr, nullptr);
  auto first = runtime.BeginQuery(1, NodeRuntime::QueryOptions{});
  auto second = runtime.BeginQuery(2, NodeRuntime::QueryOptions{});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  first.value()->AdvanceClock(750.0);
  // One query's backoff charge never moves another query's deadline.
  EXPECT_DOUBLE_EQ(first.value()->clock_us(), 750.0);
  EXPECT_DOUBLE_EQ(second.value()->clock_us(), 0.0);
  runtime.EndQuery(first.value());
  runtime.EndQuery(second.value());
}

// ---------------------------------------------------------------------------
// Concurrent gathers: bit-identical to sequential

TEST(ConcurrentGatherTest, EightClientsMatchSequentialBitForBit) {
  InProcessCluster cluster(4, PlacementKind::kDhtRandom, StoreOptions{}, 7,
                           2);
  TypeCounts truth;
  const WorkloadSpec workload = LoadUniform(cluster, 48, 10, &truth);
  cluster.FlushAll();

  GatherOptions options;
  options.transport = GatherTransport::kMessage;
  options.batch = true;
  options.workers_per_node = 2;
  const GatherResult sequential = cluster.CountByTypeAll(workload, options);
  ASSERT_EQ(sequential.totals, truth);
  const uint64_t builds_before = cluster.runtime_builds();

  // All eight clients record into one shared tracer — Record must be
  // thread-safe (this is what TSan watches here).
  StageTracer stages;
  cluster.AttachStageTracer(&stages);
  const ConcurrentGatherReport report =
      cluster.GatherConcurrent(MakeCountPlan(workload), 8, 2, options);
  EXPECT_EQ(stages.size(), 16u * sequential.subqueries);
  EXPECT_EQ(report.queries, 16u);
  EXPECT_EQ(report.admitted, 16u);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_GT(report.queries_per_sec, 0.0);
  ASSERT_EQ(report.results.size(), 16u);
  for (size_t i = 0; i < report.results.size(); ++i) {
    ExpectSameAccounting(report.results[i], sequential,
                         "client query " + std::to_string(i));
  }
  // Every concurrent query flowed through the already-built runtime: no
  // per-gather queue or worker-pool construction.
  EXPECT_EQ(cluster.runtime_builds(), builds_before);
}

TEST(ConcurrentGatherTest, ChaosCrossfireStaysIsolatedPerQuery) {
  InProcessCluster cluster(6, PlacementKind::kDhtRandom, StoreOptions{}, 7,
                           3);
  TypeCounts truth;
  const WorkloadSpec workload = LoadUniform(cluster, 40, 12, &truth);
  cluster.FlushAll();

  FaultConfig config;
  config.seed = 1234;
  config.read_error_rate = 0.02;
  config.latency_spike_rate = 0.1;
  config.latency_spike_us = 2.0 * kMillisecond;
  config.reply_corrupt_rate = 0.05;
  FaultInjector injector(config);
  cluster.AttachFaultInjector(&injector);
  cluster.KillNode(2);

  GatherOptions options;
  options.transport = GatherTransport::kMessage;
  options.max_attempts = 6;
  options.workers_per_node = 2;
  const GatherResult sequential = cluster.CountByTypeAll(workload, options);
  ASSERT_EQ(sequential.totals, truth);

  // Stateless per-attempt fault decisions + per-query clocks + query-id
  // demux: eight clients under crossfire each see the sequential result,
  // bit for bit, including retry and error accounting.
  const ConcurrentGatherReport report =
      cluster.GatherConcurrent(MakeCountPlan(workload), 8, 1, options);
  ASSERT_EQ(report.results.size(), 8u);
  for (size_t i = 0; i < report.results.size(); ++i) {
    ExpectSameAccounting(report.results[i], sequential,
                         "chaos client " + std::to_string(i));
  }
}

// ---------------------------------------------------------------------------
// Admission control at the cluster level

TEST(ConcurrentGatherTest, ShedQueriesAreAccountedAndWellFormed) {
  MetricsRegistry registry;
  InProcessCluster cluster(2, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  cluster.AttachTelemetry(nullptr, &registry);
  TypeCounts truth;
  const WorkloadSpec workload = LoadUniform(cluster, 40, 4, &truth);
  cluster.FlushAll();

  GatherOptions options;
  options.transport = GatherTransport::kMessage;
  options.max_inflight = 1;
  options.admission_policy = QueueFullPolicy::kReject;
  const ConcurrentGatherReport report =
      cluster.GatherConcurrent(MakeCountPlan(workload), 8, 4, options);

  // How many queries bounce depends on scheduling, but the report must
  // balance exactly and every result must be internally consistent.
  EXPECT_EQ(report.admitted + report.shed, report.queries);
  EXPECT_GT(report.admitted, 0u);  // one query always holds the slot
  for (const GatherResult& r : report.results) {
    EXPECT_EQ(r.completed + r.failed, r.subqueries);
    if (r.shed_by_admission) {
      // Nothing was dispatched: every sub-query is a named loss.
      EXPECT_EQ(r.failed, r.subqueries);
      EXPECT_EQ(r.lost_partitions.size(), workload.partitions.size());
      EXPECT_TRUE(r.partial);
    } else {
      EXPECT_EQ(r.totals, truth);
      EXPECT_EQ(r.failed, 0u);
    }
  }
  EXPECT_EQ(registry.GetCounter("master.admission.admitted").Value(),
            report.admitted);
  EXPECT_EQ(registry.GetCounter("master.admission.shed").Value(),
            report.shed);
  EXPECT_EQ(registry.GetGauge("master.queries.inflight").Value(), 0.0);
}

TEST(ConcurrentGatherTest, BlockAdmissionThrottlesWithoutLoss) {
  InProcessCluster cluster(2, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  TypeCounts truth;
  const WorkloadSpec workload = LoadUniform(cluster, 30, 4, &truth);
  cluster.FlushAll();

  GatherOptions options;
  options.transport = GatherTransport::kMessage;
  options.max_inflight = 2;
  options.admission_policy = QueueFullPolicy::kBlock;
  const GatherResult sequential = cluster.CountByTypeAll(workload, options);
  const ConcurrentGatherReport report =
      cluster.GatherConcurrent(MakeCountPlan(workload), 6, 2, options);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.admitted, report.queries);
  for (size_t i = 0; i < report.results.size(); ++i) {
    ExpectSameAccounting(report.results[i], sequential,
                         "blocked client " + std::to_string(i));
  }
}

// ---------------------------------------------------------------------------
// Satellite regression: sub-query latency must not include scatter skew

TEST(ConcurrentGatherTest, SubQueryLatencyExcludesScatterQueueingOfOthers) {
  MetricsRegistry registry;
  FlightRecorder recorder{FlightRecorder::Options{}};
  InProcessCluster cluster(1, PlacementKind::kDhtRandom, StoreOptions{}, 7);
  cluster.AttachTelemetry(nullptr, &registry);
  cluster.AttachFlightRecorder(&recorder);
  const WorkloadSpec workload = LoadUniform(cluster, 600, 2);
  cluster.FlushAll();

  // One node, one worker, a depth-1 queue, blocking sends: the scatter
  // loop itself serializes behind the store, so dispatches spread over
  // nearly the whole gather. Before the fix every sub-query's latency
  // clock started when the *gather* began, so even the last-scattered
  // sub-query reported the whole scatter as its own latency.
  GatherOptions options;
  options.transport = GatherTransport::kMessage;
  options.queue_depth = 1;
  options.workers_per_node = 1;
  options.queue_policy = QueueFullPolicy::kBlock;
  // Build the runtime outside the measured gather.
  ASSERT_EQ(cluster.CountByTypeAll(workload, options).failed, 0u);
  LatencyHistogram& lat = registry.GetHistogram("cluster.subquery.latency_us");
  lat.Reset();

  const auto start = std::chrono::steady_clock::now();
  const GatherResult result = cluster.CountByTypeAll(workload, options);
  const double wall_us = std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_EQ(result.failed, 0u);
  ASSERT_EQ(lat.Count(), workload.partitions.size());

  // Each sub-query's own dispatch stamp, on the runtime's clock. The
  // scatter is sequential, so the last-dispatched sub-query's latency
  // clock started after its predecessor's dispatch stamp (the second
  // latest), and the first dispatch came after the gather started.
  // Hence, as an ordering of stamps and no ratio of times:
  //   its latency <= wall - (second latest - earliest dispatch)
  // — a bound the minimum latency must meet. Charged from the gather's
  // start instead, every latency would span the whole scatter up to the
  // last dispatch (the collect loop folds nothing before it) and break
  // the bound whenever the scatter outlasts the wall time around it.
  const std::vector<QueryRecord> records = recorder.snapshot();
  ASSERT_FALSE(records.empty());
  std::vector<Micros> issued;
  for (const RequestTrace& trace : records.back().timeline) {
    EXPECT_EQ(trace.attempts, 1u);
    issued.push_back(trace.issued);
  }
  ASSERT_EQ(issued.size(), workload.partitions.size());
  std::sort(issued.begin(), issued.end());
  const Micros preceded = issued[issued.size() - 2] - issued.front();
  // 1 ns: the histogram keeps its minimum in whole nanoseconds.
  EXPECT_LE(lat.Min(), wall_us - preceded + 1e-3)
      << "a late-scattered sub-query was charged its predecessors' time";
}

}  // namespace
}  // namespace kvscale
