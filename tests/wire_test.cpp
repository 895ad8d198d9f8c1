// Tests for src/wire: buffers, both codecs, message set, serializer models.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "cluster/query_ops.hpp"
#include "wire/buffer.hpp"
#include "wire/codec.hpp"
#include "wire/envelope.hpp"
#include "wire/messages.hpp"
#include "wire/serializer_model.hpp"

namespace kvscale {
namespace {

TEST(WireBufferTest, FixedWidthRoundTrip) {
  WireBuffer buf;
  buf.WriteU8(0xab);
  buf.WriteU16(0xbeef);
  buf.WriteU32(0xdeadbeef);
  buf.WriteU64(0x0123456789abcdefULL);
  buf.WriteF64(3.14159);
  WireReader r(buf.data());
  EXPECT_EQ(r.ReadU8(), 0xab);
  EXPECT_EQ(r.ReadU16(), 0xbeef);
  EXPECT_EQ(r.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.ReadF64(), 3.14159);
  EXPECT_TRUE(r.AtEnd());
}

class VarintRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, Works) {
  WireBuffer buf;
  buf.WriteVarint(GetParam());
  WireReader r(buf.data());
  EXPECT_EQ(r.ReadVarint(), GetParam());
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(
    EdgeCases, VarintRoundTrip,
    ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                      (1ULL << 32) - 1, 1ULL << 32,
                      std::numeric_limits<uint64_t>::max()));

class ZigZagRoundTrip : public ::testing::TestWithParam<int64_t> {};

TEST_P(ZigZagRoundTrip, Works) {
  WireBuffer buf;
  buf.WriteZigZag(GetParam());
  WireReader r(buf.data());
  EXPECT_EQ(r.ReadZigZag(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    EdgeCases, ZigZagRoundTrip,
    ::testing::Values(int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{63},
                      int64_t{-64}, std::numeric_limits<int64_t>::max(),
                      std::numeric_limits<int64_t>::min()));

TEST(WireBufferTest, VarintSizesArePacked) {
  WireBuffer small, large;
  small.WriteVarint(5);
  large.WriteVarint(std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(small.size(), 1u);
  EXPECT_EQ(large.size(), 10u);
}

TEST(WireBufferTest, StringAndBytesRoundTrip) {
  WireBuffer buf;
  buf.WriteString("hello");
  buf.WriteString("");
  std::vector<std::byte> blob{std::byte{1}, std::byte{2}, std::byte{3}};
  buf.WriteBytes(blob);
  WireReader r(buf.data());
  EXPECT_EQ(r.ReadString(), "hello");
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_EQ(r.ReadBytes(), blob);
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireReaderTest, OverrunSetsStickyError) {
  WireBuffer buf;
  buf.WriteU8(1);
  WireReader r(buf.data());
  r.ReadU8();
  r.ReadU64();  // overrun
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  // Further reads keep failing and return zero values.
  EXPECT_EQ(r.ReadU32(), 0u);
}

TEST(WireReaderTest, TruncatedStringFails) {
  WireBuffer buf;
  buf.WriteVarint(100);  // claims 100 bytes follow
  buf.WriteU8('x');
  WireReader r(buf.data());
  r.ReadString();
  EXPECT_FALSE(r.ok());
}

TEST(WireReaderTest, OverlongVarintFails) {
  WireBuffer buf;
  for (int i = 0; i < 11; ++i) buf.WriteU8(0x80);
  WireReader r(buf.data());
  r.ReadVarint();
  EXPECT_FALSE(r.ok());
}

SubQueryRequest SampleRequest() {
  SubQueryRequest req;
  req.query_id = 77;
  req.sub_id = 12;
  req.table = "alya.particles_d8";
  req.partition_key = "d8:5:123456";
  req.expected_elements = 1425;
  return req;
}

PartialResult SampleResult() {
  PartialResult res;
  res.query_id = 77;
  res.sub_id = 12;
  res.node = 3;
  res.types = {"t0", "t1", "t5"};
  res.counts = {10, 20, 70};
  res.db_micros = 1234.5;
  return res;
}

/// A test-local visited message with a signed field: no registered
/// message carries an int64, so this is what round-trips a negative one
/// through the codec's zigzag path.
struct SignedSample {
  static constexpr std::string_view kTypeName = "kvscale.test.SignedSample";

  uint32_t node = 0;
  uint64_t sequence = 0;
  int64_t delta = 0;

  template <typename V>
  void Visit(V&& v) {
    v.Field("node", node);
    v.Field("sequence", sequence);
    v.Field("delta", delta);
  }
};

TEST(TaggedCodecTest, RoundTripsAllMessageTypes) {
  {
    WireBuffer buf;
    TaggedCodec::Encode(SampleRequest(), buf);
    auto decoded = TaggedCodec::Decode<SubQueryRequest>(buf.data());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().partition_key, "d8:5:123456");
    EXPECT_EQ(decoded.value().expected_elements, 1425u);
  }
  {
    WireBuffer buf;
    TaggedCodec::Encode(SampleResult(), buf);
    auto decoded = TaggedCodec::Decode<PartialResult>(buf.data());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().types.size(), 3u);
    EXPECT_EQ(decoded.value().counts[2], 70u);
    EXPECT_DOUBLE_EQ(decoded.value().db_micros, 1234.5);
  }
  {
    SignedSample sample;
    sample.node = 9;
    sample.sequence = 1000;
    sample.delta = -1;  // exercises zigzag
    WireBuffer buf;
    TaggedCodec::Encode(sample, buf);
    auto decoded = TaggedCodec::Decode<SignedSample>(buf.data());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().delta, -1);
  }
}

TEST(TaggedCodecTest, RejectsWrongType) {
  WireBuffer buf;
  TaggedCodec::Encode(SampleRequest(), buf);
  auto decoded = TaggedCodec::Decode<PartialResult>(buf.data());
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(TaggedCodecTest, RejectsTruncation) {
  WireBuffer buf;
  TaggedCodec::Encode(SampleRequest(), buf);
  auto data = buf.data();
  for (size_t cut : {data.size() - 1, data.size() / 2, size_t{3}}) {
    auto decoded =
        TaggedCodec::Decode<SubQueryRequest>(data.subspan(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
  }
}

TEST(CompactCodecTest, RoundTripsRegisteredTypes) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  EXPECT_EQ(codec.registered_count(), 7u);

  WireBuffer buf;
  codec.Encode(SampleResult(), buf);
  auto decoded = codec.Decode<PartialResult>(buf.data());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().node, 3u);
  EXPECT_EQ(decoded.value().types[1], "t1");
}

TEST(MigrationMessageTest, BlockRoundTripsWithChecksum) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  MigrationBlock block;
  block.migration_id = 42;
  block.seq = 7;
  block.source = 1;
  block.target = 4;
  block.table = "particles";
  block.keys = {"p:0001", "p:0002"};
  block.payloads = {std::string("ab\0cd", 5), "efg"};  // embedded NUL survives
  block.checksum = MigrationBlockChecksum(block);

  WireBuffer buf;
  codec.Encode(block, buf);
  auto decoded = codec.Decode<MigrationBlock>(buf.data());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().migration_id, 42u);
  EXPECT_EQ(decoded.value().seq, 7u);
  EXPECT_EQ(decoded.value().keys, block.keys);
  EXPECT_EQ(decoded.value().payloads, block.payloads);
  EXPECT_EQ(MigrationBlockChecksum(decoded.value()), block.checksum);
}

TEST(MigrationMessageTest, ChecksumSeesPayloadBoundaries) {
  // The length-mixing keeps concatenation-equal payload lists distinct.
  const auto with_payloads = [](std::vector<std::string> payloads) {
    MigrationBlock block;
    block.payloads = std::move(payloads);
    return MigrationBlockChecksum(block);
  };
  EXPECT_NE(with_payloads({"ab", "c"}), with_payloads({"a", "bc"}));
  EXPECT_NE(with_payloads({}), with_payloads({""}));
  EXPECT_EQ(with_payloads({"ab", "c"}), with_payloads({"ab", "c"}));
}

WriteBatch SampleWriteBatch() {
  WriteBatch batch;
  batch.query_id = 91;
  batch.sub_id = 4;
  batch.target = 2;
  batch.table = "t";
  batch.keys = {"p0", "p0", "p7"};
  batch.clusterings = {1, 2, 9};
  batch.type_ids = {0, 1, 4};
  batch.tombstones = {0, 0, 1};
  batch.payloads = {"aa", "bbb", ""};
  batch.checksum = WriteBatchChecksum(batch);
  return batch;
}

TEST(WriteMessageTest, BatchFrameRoundTripsBothCodecs) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  WriteBatch batch = SampleWriteBatch();
  batch.attempt = 2;
  batch.checksum = WriteBatchChecksum(batch);  // the attempt is covered too
  for (const WireCodecKind kind :
       {WireCodecKind::kTagged, WireCodecKind::kCompact}) {
    WireBuffer buf;
    EncodeMessageFrame(batch, batch.query_id, /*trace_flags=*/0, kind, codec,
                       buf);
    auto decoded = DecodeWriteBatchFrame(buf.data(), kind, codec);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().query_id, 91u);
    EXPECT_EQ(decoded.value().msg.attempt, 2u);
    EXPECT_EQ(decoded.value().msg.keys, batch.keys);
    EXPECT_EQ(decoded.value().msg.payloads, batch.payloads);
    EXPECT_EQ(decoded.value().msg.tombstones, batch.tombstones);
    EXPECT_EQ(decoded.value().msg.checksum, batch.checksum);
  }
}

TEST(WriteMessageTest, BatchDecoderRejectsBadShapes) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  const auto expect_corrupt = [&](const WriteBatch& bad) {
    WireBuffer buf;
    EncodeMessageFrame(bad, bad.query_id, 0, WireCodecKind::kCompact, codec,
                       buf);
    auto decoded =
        DecodeWriteBatchFrame(buf.data(), WireCodecKind::kCompact, codec);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  };

  WriteBatch stale_checksum = SampleWriteBatch();
  stale_checksum.payloads[1] = "tampered";  // checksum no longer matches
  expect_corrupt(stale_checksum);

  WriteBatch ragged = SampleWriteBatch();
  ragged.clusterings.pop_back();
  expect_corrupt(ragged);

  WriteBatch empty = SampleWriteBatch();
  empty.keys.clear();
  empty.clusterings.clear();
  empty.type_ids.clear();
  empty.tombstones.clear();
  empty.payloads.clear();
  empty.checksum = WriteBatchChecksum(empty);
  expect_corrupt(empty);

  WriteBatch bad_flag = SampleWriteBatch();
  bad_flag.tombstones[0] = 2;  // not a 0/1 marker
  expect_corrupt(bad_flag);
}

TEST(WriteMessageTest, ReplyRoundTripsAndRejectsUnsortedFailures) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  // A write ack travels as a one-item reply batch: col_a the refused key
  // indices, col_b {sync_failures}, checksummed like any read answer.
  const auto round_trip = [&](std::vector<uint64_t> refused,
                              std::vector<uint64_t> syncs) {
    SubQueryReplyBatch batch;
    batch.query_id = 91;
    batch.node = 2;
    batch.sub_ids = {4};
    batch.attempts = {1};
    batch.statuses = {0};
    batch.db_start_ns = {10};
    batch.db_end_ns = {52};
    batch.a_ends = {refused.size()};
    batch.b_ends = {syncs.size()};
    batch.col_a = std::move(refused);
    batch.col_b = std::move(syncs);
    batch.checksums = {ReplyItemChecksum(batch, 0)};
    WireBuffer buf;
    EncodeMessageFrame(batch, batch.query_id, /*trace_flags=*/0,
                       WireCodecKind::kCompact, codec, buf);
    const uint32_t sub_id = 4;
    const uint32_t attempt = 1;
    auto decoded = DecodeReplyBatchFrame(
        buf.data(), WireCodecKind::kCompact, codec, 91,
        std::span<const uint32_t>(&sub_id, 1),
        std::span<const uint32_t>(&attempt, 1));
    EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(decoded.value().intact[0]);
    return std::move(decoded).value();
  };
  const DecodedReplyBatch good = round_trip({1, 3, 6}, {1});
  const auto ack = ParseWriteAck(good.col_a(0), good.col_b(0), /*keys=*/7);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(std::vector<uint64_t>(ack.value().refused.begin(),
                                  ack.value().refused.end()),
            (std::vector<uint64_t>{1, 3, 6}));
  EXPECT_EQ(ack.value().sync_failures, 1u);

  const auto expect_corrupt = [&](std::vector<uint64_t> refused,
                                  std::vector<uint64_t> syncs,
                                  const char* label) {
    const DecodedReplyBatch bad =
        round_trip(std::move(refused), std::move(syncs));
    const auto rejected = ParseWriteAck(bad.col_a(0), bad.col_b(0), 7);
    ASSERT_FALSE(rejected.ok()) << label;
    EXPECT_EQ(rejected.status().code(), StatusCode::kCorruption) << label;
  };
  expect_corrupt({3, 3}, {0}, "duplicate: would double-count a key");
  expect_corrupt({3, 1}, {0}, "decreasing");
  expect_corrupt({1, 7}, {0}, "out of range: would be silently acked");
  expect_corrupt({1}, {}, "no sync tally");
  expect_corrupt({1}, {0, 1}, "two sync tallies");
}

TEST(SubQueryBatchTest, AdapterFrameIsByteIdenticalToTheLiveFrame) {
  // A gather appends its attempts straight into a SubQueryBatch and frames
  // it with EncodeMessageFrame; EncodeSubQueryBatch builds the same frame
  // from per-message requests. Both must put the same bytes on the wire.
  CompactCodec codec;
  RegisterClusterMessages(codec);
  std::vector<SubQueryRequest> requests;
  std::vector<uint32_t> attempts;
  SubQueryBatch batch;
  batch.query_id = 77;
  batch.table = "alya.particles_d8";
  batch.op = kOpRangeScan;
  batch.arg_lo = 5;
  batch.arg_hi = 900;
  batch.arg_limit = 64;
  for (uint32_t i = 0; i < 5; ++i) {
    SubQueryRequest req = SampleRequest();
    req.sub_id = 3 * i + 1;
    req.partition_key = "d8:5:" + std::to_string(1000 + i);
    req.expected_elements = 100 * i;
    req.op = kOpRangeScan;
    req.arg_lo = 5;
    req.arg_hi = 900;
    req.arg_limit = 64;
    requests.push_back(req);
    attempts.push_back(i % 3);
    batch.Append(req.sub_id, i % 3, req.partition_key, req.expected_elements);
  }
  for (const WireCodecKind kind :
       {WireCodecKind::kTagged, WireCodecKind::kCompact}) {
    WireBuffer adapter;
    EncodeSubQueryBatch(requests, attempts, kTraceSampled, kind, codec,
                        adapter);
    WireBuffer live;
    EncodeMessageFrame(batch, batch.query_id, kTraceSampled, kind, codec,
                       live);
    const std::vector<std::byte> a(adapter.data().begin(),
                                   adapter.data().end());
    const std::vector<std::byte> b(live.data().begin(), live.data().end());
    EXPECT_EQ(a, b) << WireCodecName(kind);
  }
}

TEST(CompactCodecTest, RejectsTypeIdMismatch) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  WireBuffer buf;
  codec.Encode(SampleRequest(), buf);
  auto decoded = codec.Decode<PartialResult>(buf.data());
  EXPECT_FALSE(decoded.ok());
}

TEST(CompactCodecTest, PeersAgreeWhenRegistrationOrderMatches) {
  CompactCodec sender, receiver;
  RegisterClusterMessages(sender);
  RegisterClusterMessages(receiver);
  WireBuffer buf;
  sender.Encode(SampleRequest(), buf);
  auto decoded = receiver.Decode<SubQueryRequest>(buf.data());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().table, "alya.particles_d8");
}

TEST(CodecComparisonTest, CompactIsMuchSmallerThanTagged) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  // This is the structural size gap behind the paper's 7.5 MB -> 0.9 MB.
  const auto request = SampleRequest();
  const size_t tagged = TaggedEncodedSize(request);
  const size_t compact = CompactEncodedSize(codec, request);
  EXPECT_LT(compact * 3, tagged);

  const auto result = SampleResult();
  EXPECT_LT(CompactEncodedSize(codec, result), TaggedEncodedSize(result));
}

TEST(CodecComparisonTest, RepresentativeRequestSizes) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  const auto req = MakeRepresentativeSubQuery(1, 4242, 100);
  const size_t compact = CompactEncodedSize(codec, req);
  const size_t tagged = TaggedEncodedSize(req);
  // Compact stays in the tens of bytes (paper: ~90 B/message with Kryo);
  // tagged is several times larger.
  EXPECT_LT(compact, 64u);
  EXPECT_GT(tagged, 120u);
}

TEST(SerializerModelTest, ProfilesMatchPaperNumbers) {
  const auto java = JavaLikeProfile();
  EXPECT_NEAR(java.TypicalCost(), 150.0, 0.5);
  EXPECT_NEAR(java.bytes_per_message, 750.0, 1.0);
  const auto kryo = KryoLikeProfile();
  EXPECT_NEAR(kryo.TypicalCost(), 19.0, 0.1);
  EXPECT_NEAR(kryo.bytes_per_message, 90.0, 1.0);
  // 10k fine-grained messages: 1.5 s -> 192 ms in the paper.
  EXPECT_NEAR(java.TypicalCost() * 10000 / kSecond, 1.5, 0.01);
  EXPECT_NEAR(kryo.TypicalCost() * 10000 / kMillisecond, 190.0, 3.0);
}

TEST(SerializerModelTest, CostGrowsWithBytes) {
  const auto p = KryoLikeProfile();
  EXPECT_GT(p.CostFor(1000), p.CostFor(100));
  EXPECT_GE(p.CostFor(0), p.cpu_fixed);
}

TEST(SerializerModelTest, FromMeasurement) {
  const auto p = ProfileFromMeasurement("local", 120.0, 10.0);
  EXPECT_NEAR(p.TypicalCost(), 10.0, 1e-9);
  EXPECT_EQ(p.name, "local");
}

}  // namespace
}  // namespace kvscale
