// Contract and edge-case coverage across modules: macro behaviour, empty
// inputs, wrap-arounds, and abort-on-misuse checks that the per-module
// suites do not exercise.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "hash/token_ring.hpp"
#include "net/network.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "store/bloom.hpp"
#include "store/segment.hpp"
#include "store/table.hpp"
#include "trace/gantt.hpp"
#include "wire/serializer_model.hpp"

namespace kvscale {
namespace {

Status FailsThenUnreachable(bool fail, int* reached) {
  KV_RETURN_IF_ERROR(fail ? Status::NotFound("x") : Status::Ok());
  ++*reached;
  return Status::Ok();
}

TEST(StatusMacroTest, ReturnIfErrorPropagatesAndShortCircuits) {
  int reached = 0;
  EXPECT_EQ(FailsThenUnreachable(true, &reached).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(reached, 0);
  EXPECT_TRUE(FailsThenUnreachable(false, &reached).ok());
  EXPECT_EQ(reached, 1);
}

TEST(ResultContractTest, AccessingErrorValueAborts) {
  Result<int> r(Status::Internal("boom"));
  // kvscale-lint: allow(discarded-status) death test must discard value()
  EXPECT_DEATH((void)r.value(), "KV_CHECK failed");
}

TEST(SimulatorContractTest, SchedulingInThePastAborts) {
  Simulator sim;
  sim.Schedule(10, [] {});
  sim.Run();
  EXPECT_DEATH(sim.At(5.0, [] {}), "KV_CHECK failed");
}

TEST(RngTest, RangeIsInclusiveOnBothEnds) {
  Rng rng(1);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.Range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(rng.Range(7, 7), 7);
}

TEST(TokenRingTest, HighestTokensWrapToFirstEntry) {
  TokenRing ring(8);
  ASSERT_TRUE(ring.AddNode(0).ok());
  ASSERT_TRUE(ring.AddNode(1).ok());
  // Whatever token we probe, the owner is a valid node; the maximal token
  // exercises the wrap-around branch.
  const NodeId owner = ring.OwnerOfToken(UINT64_MAX);
  EXPECT_LT(owner, 2u);
  EXPECT_EQ(ring.OwnerOfToken(UINT64_MAX), owner);
}

TEST(SegmentTest, EmptyMemtableBuildsEmptySegment) {
  Memtable empty;
  auto segment = Segment::Build(empty, 1, SegmentOptions{});
  EXPECT_EQ(segment->partition_count(), 0u);
  EXPECT_EQ(segment->block_count(), 0u);
  EXPECT_EQ(segment->ReadBlocks("anything", 0, UINT64_MAX, CacheRef{}, nullptr)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(TableTest, EmptyPartitionKeyIsAValidKey) {
  Table table("t", TableOptions{}, nullptr);
  Column c;
  c.clustering = 1;
  c.type_id = 3;
  table.Put("", c);
  table.Flush();
  auto cols = table.GetPartition("");
  ASSERT_TRUE(cols.ok());
  ASSERT_EQ(cols.value().size(), 1u);
  EXPECT_EQ(cols.value()[0].type_id, 3u);
}

TEST(NetworkTest, SelfSendStillPaysTheLink) {
  Simulator sim;
  NetworkParams params;
  params.switch_latency = 10.0;
  params.bandwidth_bytes_per_us = 100.0;
  Network net(sim, 2, params);
  SimTime delivered = -1;
  net.Send(1, 1, 500.0, [&] { delivered = sim.now(); });
  sim.Run();
  EXPECT_DOUBLE_EQ(delivered, 15.0);  // 5 us wire + 10 us latency
}

TEST(GanttTest, ClusterWideModeCollapsesNodes) {
  StageTracer tracer;
  for (uint32_t node = 0; node < 4; ++node) {
    RequestTrace t;
    t.sub_id = node;
    t.node = node;
    t.issued = 0;
    t.received = 10;
    t.db_start = 10;
    t.db_end = 50;
    t.completed = 60;
    tracer.Record(t);
  }
  GanttOptions options;
  options.per_node = false;
  const std::string gantt = RenderGantt(tracer, options);
  // One lane per stage, no per-node headers.
  EXPECT_EQ(gantt.find("node B:"), std::string::npos);
  EXPECT_NE(gantt.find("in-db"), std::string::npos);
}

TEST(SerializerProfileTest, ZeroByteMessageCostsTheFixedPart) {
  const auto profile = KryoLikeProfile();
  EXPECT_DOUBLE_EQ(profile.CostFor(0.0), profile.cpu_fixed);
}

TEST(StageTracerTest, ClearResets) {
  StageTracer tracer;
  RequestTrace t;
  t.completed = 10;
  tracer.Record(t);
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_DOUBLE_EQ(tracer.Makespan(), 0.0);
}

TEST(BloomContractTest, SizingRejectsDegenerateInputs) {
  EXPECT_DEATH(BloomFilter(0, 0.01), "KV_CHECK failed");
  EXPECT_DEATH(BloomFilter(10, 1.5), "KV_CHECK failed");
}

TEST(ResourceContractTest, NegativeServiceTimeAborts) {
  Simulator sim;
  Resource cpu(sim, 1, "cpu");
  // Dispatch happens synchronously when a server is free, so the abort
  // fires inside Submit itself.
  EXPECT_DEATH(cpu.Submit([](uint32_t) { return -1.0; },
                          [](SimTime, SimTime, SimTime) {}),
               "KV_CHECK failed");
}

}  // namespace
}  // namespace kvscale
