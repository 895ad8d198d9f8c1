// Randomized robustness tests for the wire layer: round-trips of random
// message content through both codecs, and decoder behaviour on random
// byte soup (must never crash or accept garbage silently as structure).
#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "wire/codec.hpp"
#include "wire/envelope.hpp"
#include "wire/messages.hpp"

namespace kvscale {
namespace {

std::string RandomString(Rng& rng, size_t max_len) {
  std::string s;
  const size_t len = rng.Below(max_len + 1);
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng.Below(256)));
  }
  return s;
}

SubQueryRequest RandomRequest(Rng& rng) {
  SubQueryRequest msg;
  msg.query_id = rng.Next();
  msg.sub_id = static_cast<uint32_t>(rng.Next());
  msg.table = RandomString(rng, 64);
  msg.partition_key = RandomString(rng, 128);
  msg.expected_elements = static_cast<uint32_t>(rng.Next());
  // Any known operator with arbitrary arguments: count ignores the args,
  // scan/topk read them, the wire carries all of it either way.
  msg.op = static_cast<uint32_t>(rng.Below(kQueryOpCount));
  msg.arg_lo = rng.Next();
  msg.arg_hi = rng.Next();
  msg.arg_limit = static_cast<uint32_t>(rng.Next());
  return msg;
}

/// `n` requests of one random plan (one frame's worth): shared query_id,
/// table, operator and arguments; distinct sub_ids; random keys and
/// element counts.
std::vector<SubQueryRequest> RandomPlanBatch(Rng& rng, size_t n) {
  const SubQueryRequest plan = RandomRequest(rng);
  std::vector<SubQueryRequest> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    SubQueryRequest req = plan;
    // Distinct by construction: the low bits are the item index.
    req.sub_id = static_cast<uint32_t>(rng.Below(1u << 20)) * 256 +
                 static_cast<uint32_t>(i);
    req.partition_key = RandomString(rng, 128);
    req.expected_elements = static_cast<uint32_t>(rng.Next());
    batch.push_back(std::move(req));
  }
  return batch;
}

PartialResult RandomResult(Rng& rng) {
  PartialResult msg;
  msg.query_id = rng.Next();
  msg.sub_id = static_cast<uint32_t>(rng.Next());
  msg.node = static_cast<uint32_t>(rng.Below(1024));
  const size_t entries = rng.Below(20);
  for (size_t i = 0; i < entries; ++i) {
    msg.types.push_back(RandomString(rng, 32));
    msg.counts.push_back(rng.Next());
  }
  msg.db_micros = rng.Uniform(-1e9, 1e9);
  return msg;
}

bool Equal(const SubQueryRequest& a, const SubQueryRequest& b) {
  return a.query_id == b.query_id && a.sub_id == b.sub_id &&
         a.table == b.table && a.partition_key == b.partition_key &&
         a.expected_elements == b.expected_elements && a.op == b.op &&
         a.arg_lo == b.arg_lo && a.arg_hi == b.arg_hi &&
         a.arg_limit == b.arg_limit;
}

/// Item `i` of a decoded request frame, read back from its columns as the
/// request it was encoded from.
SubQueryRequest RequestAt(const SubQueryBatch& batch, size_t i) {
  SubQueryRequest req;
  req.query_id = batch.query_id;
  req.sub_id = static_cast<uint32_t>(batch.sub_ids[i]);
  req.table = batch.table;
  req.partition_key = batch.keys[i];
  req.expected_elements = static_cast<uint32_t>(batch.expected_elements[i]);
  req.op = static_cast<uint32_t>(batch.op);
  req.arg_lo = batch.arg_lo;
  req.arg_hi = batch.arg_hi;
  req.arg_limit = batch.arg_limit;
  return req;
}

std::vector<uint64_t> Widen(const std::vector<uint32_t>& values) {
  return {values.begin(), values.end()};
}

bool Equal(const PartialResult& a, const PartialResult& b) {
  return a.query_id == b.query_id && a.sub_id == b.sub_id &&
         a.node == b.node && a.types == b.types && a.counts == b.counts &&
         a.db_micros == b.db_micros;
}

class WireFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireFuzzTest, RandomContentRoundTripsBothCodecs) {
  Rng rng(GetParam());
  CompactCodec codec;
  RegisterClusterMessages(codec);
  for (int i = 0; i < 200; ++i) {
    {
      const SubQueryRequest msg = RandomRequest(rng);
      WireBuffer tagged, compact;
      TaggedCodec::Encode(msg, tagged);
      codec.Encode(msg, compact);
      auto t = TaggedCodec::Decode<SubQueryRequest>(tagged.data());
      auto c = codec.Decode<SubQueryRequest>(compact.data());
      ASSERT_TRUE(t.ok());
      ASSERT_TRUE(c.ok());
      EXPECT_TRUE(Equal(t.value(), msg));
      EXPECT_TRUE(Equal(c.value(), msg));
    }
    {
      const PartialResult msg = RandomResult(rng);
      WireBuffer tagged, compact;
      TaggedCodec::Encode(msg, tagged);
      codec.Encode(msg, compact);
      auto t = TaggedCodec::Decode<PartialResult>(tagged.data());
      auto c = codec.Decode<PartialResult>(compact.data());
      ASSERT_TRUE(t.ok());
      ASSERT_TRUE(c.ok());
      EXPECT_TRUE(Equal(t.value(), msg));
      EXPECT_TRUE(Equal(c.value(), msg));
    }
  }
}

TEST_P(WireFuzzTest, RandomBytesNeverCrashTheDecoders) {
  Rng rng(GetParam() ^ 0xf00d);
  CompactCodec codec;
  RegisterClusterMessages(codec);
  for (int i = 0; i < 500; ++i) {
    std::vector<std::byte> soup(rng.Below(300));
    for (auto& b : soup) b = static_cast<std::byte>(rng.Below(256));
    // Any outcome is fine except a crash; decoded garbage must at least
    // carry the right frame structure to be accepted.
    auto t = TaggedCodec::Decode<SubQueryRequest>(soup);
    auto c = codec.Decode<PartialResult>(soup);
    if (soup.size() < 3) {
      EXPECT_FALSE(t.ok());
    }
    (void)c;
  }
}

TEST_P(WireFuzzTest, TruncationsOfValidMessagesAlwaysFailTagged) {
  Rng rng(GetParam() ^ 0xbeef);
  const SubQueryRequest msg = RandomRequest(rng);
  WireBuffer buf;
  TaggedCodec::Encode(msg, buf);
  const auto data = buf.data();
  for (size_t cut = 0; cut < data.size(); ++cut) {
    auto decoded = TaggedCodec::Decode<SubQueryRequest>(data.subspan(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------------
// Frame envelope (the batch transport introduced with the node runtime)

TEST_P(WireFuzzTest, BatchFrameRoundTripsBothCodecs) {
  Rng rng(GetParam() ^ 0xcafe);
  CompactCodec codec;
  RegisterClusterMessages(codec);
  for (int round = 0; round < 50; ++round) {
    const size_t n = 1 + rng.Below(12);
    const uint8_t trace_flags = round % 2 == 0 ? kTraceSampled : 0;
    // One frame, one plan: the requests share query_id, table, operator
    // and arguments, as Gather sends them.
    const std::vector<SubQueryRequest> batch = RandomPlanBatch(rng, n);
    const uint64_t query_id = batch.front().query_id;
    std::vector<uint32_t> attempts;
    attempts.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      attempts.push_back(static_cast<uint32_t>(rng.Below(4)));
    }
    for (const WireCodecKind kind :
         {WireCodecKind::kTagged, WireCodecKind::kCompact}) {
      WireBuffer frame;
      EncodeSubQueryBatch(batch, attempts, trace_flags, kind, codec, frame);
      auto decoded = DecodeSubQueryBatch(frame.data(), kind, codec);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      const SubQueryBatch& items = decoded.value().msg;
      ASSERT_EQ(items.size(), n);
      EXPECT_EQ(decoded.value().query_id, query_id);
      EXPECT_EQ(decoded.value().trace_flags, trace_flags);
      EXPECT_EQ(items.attempts, Widen(attempts));
      for (size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(Equal(RequestAt(items, i), batch[i]));
      }
    }
  }
}

TEST_P(WireFuzzTest, BatchFrameTruncationsAlwaysFail) {
  Rng rng(GetParam() ^ 0x7c7c);
  CompactCodec codec;
  RegisterClusterMessages(codec);
  const std::vector<SubQueryRequest> batch = RandomPlanBatch(rng, 4);
  const std::vector<uint32_t> attempts = {0, 1, 2, 0};
  for (const WireCodecKind kind :
       {WireCodecKind::kTagged, WireCodecKind::kCompact}) {
    WireBuffer frame;
    EncodeSubQueryBatch(batch, attempts, kTraceSampled, kind, codec, frame);
    const auto data = frame.data();
    for (size_t cut = 0; cut < data.size(); ++cut) {
      auto decoded = DecodeSubQueryBatch(data.subspan(0, cut), kind, codec);
      EXPECT_FALSE(decoded.ok())
          << WireCodecName(kind) << " cut=" << cut;
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
          << WireCodecName(kind) << " cut=" << cut;
    }
  }
}

TEST_P(WireFuzzTest, DuplicateSubIdsInABatchAreRejected) {
  Rng rng(GetParam() ^ 0xd0d0);
  CompactCodec codec;
  RegisterClusterMessages(codec);
  const SubQueryRequest a = RandomRequest(rng);
  SubQueryRequest b = a;  // same plan, another partition...
  b.partition_key = a.partition_key + "'";
  b.expected_elements = a.expected_elements + 1;
  // ...but the same sub_id: transport metadata can no longer tell them
  // apart.
  const std::vector<SubQueryRequest> batch = {a, b};
  const std::vector<uint32_t> attempts = {0, 0};
  for (const WireCodecKind kind :
       {WireCodecKind::kTagged, WireCodecKind::kCompact}) {
    WireBuffer frame;
    EncodeSubQueryBatch(batch, attempts, 0, kind, codec, frame);
    auto decoded = DecodeSubQueryBatch(frame.data(), kind, codec);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

TEST(FrameEnvelopeTest, LengthPrefixOverflowIsRejectedBeforeAllocation) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  // A hand-crafted frame whose payload claims to be far larger than the
  // bytes that follow — the decoder must reject the lie instead of
  // reserving memory for it or reading out of bounds.
  WireBuffer frame;
  frame.WriteU16(kFrameMagic);
  frame.WriteU8(kFrameVersion);
  frame.WriteU8(static_cast<uint8_t>(WireCodecKind::kCompact));
  frame.WriteU8(0);                          // trace flags
  frame.WriteVarint(7);                      // query id
  frame.WriteVarint(0xFFFFFFFFFFFFULL);      // a payload of 256 TiB, allegedly
  frame.WriteU8(0);
  auto decoded =
      DecodeSubQueryBatch(frame.data(), WireCodecKind::kCompact, codec);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);

  // Same for an absurd item count with no items behind it: a batch whose
  // sub_id column claims 2^32 entries.
  WireBuffer empty_batch;
  codec.Encode(SubQueryBatch{}, empty_batch);
  WireBuffer payload;
  payload.WriteU8(static_cast<uint8_t>(empty_batch.data()[0]));  // type id
  payload.WriteVarint(7);    // query_id
  payload.WriteString("t");  // table
  payload.WriteVarint(0);    // op
  payload.WriteVarint(0);    // arg_lo
  payload.WriteVarint(0);    // arg_hi
  payload.WriteVarint(0);    // arg_limit
  payload.WriteVarint(0xFFFFFFFFULL);  // sub_ids, with nothing behind them
  WireBuffer counted;
  EncodeFrame(WireCodecKind::kCompact, 7, 0, payload.data(), counted);
  auto overcounted =
      DecodeSubQueryBatch(counted.data(), WireCodecKind::kCompact, codec);
  ASSERT_FALSE(overcounted.ok());
  EXPECT_EQ(overcounted.status().code(), StatusCode::kCorruption);
}

TEST(FrameEnvelopeTest, CrossCodecFramesFailCleanly) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  SubQueryRequest msg;
  msg.query_id = 9;
  msg.sub_id = 1;
  msg.table = "t";
  msg.partition_key = "p1";
  const std::vector<SubQueryRequest> batch = {msg};
  const std::vector<uint32_t> attempts = {0};
  // A frame announcing one codec decoded by the other must fail at the
  // header, before any payload bytes are misinterpreted.
  WireBuffer tagged;
  EncodeSubQueryBatch(batch, attempts, 0, WireCodecKind::kTagged, codec,
                      tagged);
  auto as_compact =
      DecodeSubQueryBatch(tagged.data(), WireCodecKind::kCompact, codec);
  ASSERT_FALSE(as_compact.ok());
  EXPECT_EQ(as_compact.status().code(), StatusCode::kCorruption);

  WireBuffer compact;
  EncodeSubQueryBatch(batch, attempts, 0, WireCodecKind::kCompact, codec,
                      compact);
  auto as_tagged =
      DecodeSubQueryBatch(compact.data(), WireCodecKind::kTagged, codec);
  ASSERT_FALSE(as_tagged.ok());
  EXPECT_EQ(as_tagged.status().code(), StatusCode::kCorruption);
}

TEST(FrameEnvelopeTest, EmptyBatchAndMultiPayloadRepliesAreRejected) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  WireBuffer empty;
  EncodeSubQueryBatch({}, {}, 0, WireCodecKind::kCompact, codec, empty);
  auto decoded =
      DecodeSubQueryBatch(empty.data(), WireCodecKind::kCompact, codec);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);

  // A request frame is not a reply frame.
  auto reply = DecodeReplyFrame(empty.data(), WireCodecKind::kCompact, codec);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kCorruption);

  // A frame carries exactly one message: a second length-prefixed
  // payload behind a valid reply is trailing garbage.
  SubQueryReply one;
  one.query_id = 4;
  WireBuffer two;
  EncodeReplyFrame(one, 0, 0, WireCodecKind::kCompact, codec, two);
  ASSERT_TRUE(DecodeReplyFrame(two.data(), WireCodecKind::kCompact, codec).ok());
  WireBuffer second;
  codec.Encode(one, second);
  two.WriteBytes(second.data());
  auto doubled = DecodeReplyFrame(two.data(), WireCodecKind::kCompact, codec);
  ASSERT_FALSE(doubled.ok());
  EXPECT_EQ(doubled.status().code(), StatusCode::kCorruption);
}

// The demultiplexed reply channels are per-query: a structurally valid
// reply naming the wrong query must be refused at decode, not folded
// into the wrong gather's result.
TEST(FrameEnvelopeTest, QueryIdCheckedDecodeRejectsCrossQueryReplies) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  SubQueryReply msg;
  msg.query_id = 7;
  msg.sub_id = 3;
  msg.status = 0;
  msg.type_ids = {1, 2};
  msg.counts = {10, 20};
  for (const WireCodecKind kind :
       {WireCodecKind::kTagged, WireCodecKind::kCompact}) {
    WireBuffer buffer;
    EncodeReplyFrame(msg, /*attempt=*/2, kTraceSampled, kind, codec, buffer);
    const uint32_t sub_id = 3;
    const uint32_t attempt = 2;
    const std::span<const uint32_t> subs(&sub_id, 1);
    const std::span<const uint32_t> attempts(&attempt, 1);
    const auto own =
        DecodeReplyBatchFrame(buffer.data(), kind, codec, 7, subs, attempts);
    ASSERT_TRUE(own.ok());
    EXPECT_EQ(own.value().batch.sub_ids[0], 3u);
    EXPECT_EQ(own.value().batch.attempts[0], 2u);
    EXPECT_EQ(own.value().trace_flags, kTraceSampled);
    const auto stray =
        DecodeReplyBatchFrame(buffer.data(), kind, codec, 8, subs, attempts);
    ASSERT_FALSE(stray.ok());
    EXPECT_EQ(stray.status().code(), StatusCode::kCorruption);
    EXPECT_NE(stray.status().message().find("demux"), std::string::npos);
  }
}

TEST_P(WireFuzzTest, RandomBytesNeverCrashTheFrameDecoders) {
  Rng rng(GetParam() ^ 0x50fa);
  CompactCodec codec;
  RegisterClusterMessages(codec);
  for (int i = 0; i < 500; ++i) {
    std::vector<std::byte> soup(rng.Below(400));
    for (auto& b : soup) b = static_cast<std::byte>(rng.Below(256));
    for (const WireCodecKind kind :
         {WireCodecKind::kTagged, WireCodecKind::kCompact}) {
      auto batch = DecodeSubQueryBatch(soup, kind, codec);
      auto reply = DecodeReplyFrame(soup, kind, codec);
      // Soup almost never carries the magic; whatever happens, a decode
      // failure must surface as a Status, never as a crash.
      if (!batch.ok()) {
        EXPECT_EQ(batch.status().code(), StatusCode::kCorruption);
      }
      if (!reply.ok()) {
        EXPECT_EQ(reply.status().code(), StatusCode::kCorruption);
      }
    }
  }
}

TEST_P(WireFuzzTest, SingleBitFlipsInTheHeaderAreDetected) {
  Rng rng(GetParam() ^ 0x1b1b);
  CompactCodec codec;
  RegisterClusterMessages(codec);
  SubQueryRequest msg = RandomRequest(rng);
  msg.sub_id = 3;
  WireBuffer frame;
  EncodeSubQueryBatch(std::vector<SubQueryRequest>{msg},
                      std::vector<uint32_t>{0}, 0, WireCodecKind::kCompact,
                      codec, frame);
  std::vector<std::byte> bytes(frame.data().begin(), frame.data().end());
  // The first four bytes are magic/version/codec — every single-bit flip
  // there must be caught by header validation (this is the property the
  // fault injector's reply corruption relies on).
  for (size_t byte = 0; byte < 4; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto flipped = bytes;
      flipped[byte] ^= static_cast<std::byte>(1u << bit);
      auto decoded =
          DecodeSubQueryBatch(flipped, WireCodecKind::kCompact, codec);
      ASSERT_FALSE(decoded.ok()) << "byte=" << byte << " bit=" << bit;
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
    }
  }
}

// Byte 4 is the trace-flags field. Bit 0 is kTraceSampled — flipping it
// on a clean frame yields a *valid* sampled frame (trace context is data,
// not a checksum) — but every undefined bit must be refused, so a future
// flag can be added without old decoders silently misreading it.
TEST_P(WireFuzzTest, UnknownTraceFlagBitsAreRejected) {
  Rng rng(GetParam() ^ 0x7f7f);
  CompactCodec codec;
  RegisterClusterMessages(codec);
  SubQueryRequest msg = RandomRequest(rng);
  msg.sub_id = 0;
  WireBuffer frame;
  EncodeSubQueryBatch(std::vector<SubQueryRequest>{msg},
                      std::vector<uint32_t>{0}, 0, WireCodecKind::kCompact,
                      codec, frame);
  std::vector<std::byte> bytes(frame.data().begin(), frame.data().end());
  ASSERT_EQ(bytes[4], std::byte{0});  // the trace-flags byte

  auto sampled = bytes;
  sampled[4] = std::byte{kTraceSampled};
  auto as_sampled = DecodeSubQueryBatch(sampled, WireCodecKind::kCompact,
                                        codec);
  ASSERT_TRUE(as_sampled.ok()) << as_sampled.status().ToString();
  EXPECT_EQ(as_sampled.value().trace_flags, kTraceSampled);

  for (int bit = 1; bit < 8; ++bit) {
    auto flipped = bytes;
    flipped[4] = static_cast<std::byte>(1u << bit);
    auto decoded =
        DecodeSubQueryBatch(flipped, WireCodecKind::kCompact, codec);
    ASSERT_FALSE(decoded.ok()) << "bit=" << bit;
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

// The wire trace coordinates are validated like every other field: a
// header query_id that disagrees with the decoded payload, or an attempt
// ordinal that does not fit in 32 bits, is kCorruption — never a crash,
// never a silently mislinked span.
TEST_P(WireFuzzTest, CorruptedTraceCoordinatesAreRejected) {
  Rng rng(GetParam() ^ 0x3c3c);
  CompactCodec codec;
  RegisterClusterMessages(codec);
  const SubQueryRequest msg = RandomRequest(rng);
  SubQueryBatch batch;
  batch.query_id = 77;
  batch.table = msg.table;
  batch.op = msg.op;
  batch.sub_ids = {5};
  batch.attempts = {0};
  batch.keys = {msg.partition_key};
  batch.expected_elements = {msg.expected_elements};
  for (const WireCodecKind kind :
       {WireCodecKind::kTagged, WireCodecKind::kCompact}) {
    WireBuffer honest;
    EncodeMessageFrame(batch, 77, 0, kind, codec, honest);
    ASSERT_TRUE(DecodeSubQueryBatch(honest.data(), kind, codec).ok());

    // Re-frame the same payload under a header query_id that lies.
    WireBuffer wrong_query;
    EncodeMessageFrame(batch, 78, 0, kind, codec, wrong_query);
    auto query_mismatch = DecodeSubQueryBatch(wrong_query.data(), kind, codec);
    ASSERT_FALSE(query_mismatch.ok());
    EXPECT_EQ(query_mismatch.status().code(), StatusCode::kCorruption);

    // An attempt too large for uint32 is rejected before any request is
    // built.
    SubQueryBatch oversized = batch;
    oversized.attempts = {uint64_t{1} << 40};
    WireBuffer frame;
    EncodeMessageFrame(oversized, 77, 0, kind, codec, frame);
    auto decoded = DecodeSubQueryBatch(frame.data(), kind, codec);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
  }
}

// The operator id is validated at the batch decoder, not left for a
// worker to trip over: an id this build does not know (a newer peer's
// query type, or corruption that landed in the op field) is refused as
// kCorruption before any store work, for every codec. Truncating an
// operator frame anywhere must also never crash or decode.
TEST_P(WireFuzzTest, UnknownOperatorIdsAndTruncatedOperatorFramesAreRejected) {
  Rng rng(GetParam() ^ 0x0b0b);
  CompactCodec codec;
  RegisterClusterMessages(codec);
  for (const WireCodecKind kind :
       {WireCodecKind::kTagged, WireCodecKind::kCompact}) {
    SubQueryRequest msg = RandomRequest(rng);
    msg.sub_id = 2;
    msg.op = kOpRangeScan;
    WireBuffer valid;
    EncodeSubQueryBatch(std::vector<SubQueryRequest>{msg},
                        std::vector<uint32_t>{0}, 0, kind, codec,
                        valid);
    ASSERT_TRUE(
        DecodeSubQueryBatch(valid.data(), kind, codec).ok());

    // Same frame, unknown operator id: refused at decode.
    SubQueryRequest unknown = msg;
    unknown.op = 7;  // beyond kQueryOpCount in every released build
    WireBuffer frame;
    EncodeSubQueryBatch(std::vector<SubQueryRequest>{unknown},
                        std::vector<uint32_t>{0}, 0, kind,
                        codec, frame);
    auto decoded = DecodeSubQueryBatch(frame.data(), kind, codec);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);

    // Every truncation of the valid operator frame fails cleanly.
    const std::vector<std::byte> bytes(valid.data().begin(),
                                       valid.data().end());
    for (size_t len = 0; len < bytes.size(); ++len) {
      auto cut = DecodeSubQueryBatch(
          std::span<const std::byte>(bytes.data(), len), kind, codec);
      EXPECT_FALSE(cut.ok()) << "len=" << len;
    }
  }
}

/// The SubQueryBatch message of a one-plan request list, as the encoder
/// builds it (attempts all zero).
SubQueryBatch BatchMessageOf(const std::vector<SubQueryRequest>& requests) {
  SubQueryBatch batch;
  batch.query_id = requests.front().query_id;
  batch.table = requests.front().table;
  batch.op = requests.front().op;
  batch.arg_lo = requests.front().arg_lo;
  batch.arg_hi = requests.front().arg_hi;
  batch.arg_limit = requests.front().arg_limit;
  for (const SubQueryRequest& req : requests) {
    batch.sub_ids.push_back(req.sub_id);
    batch.attempts.push_back(0);
    batch.keys.push_back(req.partition_key);
    batch.expected_elements.push_back(req.expected_elements);
  }
  return batch;
}

// A request frame is one SubQueryBatch: the plan once, the items as
// columns. Random one-plan batches — up to 200 items, every operator,
// column values at the uint32 edge — survive both codecs, and the frame
// holds exactly that one message.
TEST_P(WireFuzzTest, OnePlanBatchesRoundTripThroughBothCodecs) {
  Rng rng(GetParam() ^ 0x0e1a);
  CompactCodec codec;
  RegisterClusterMessages(codec);
  constexpr uint32_t kMax = std::numeric_limits<uint32_t>::max();
  for (int round = 0; round < 30; ++round) {
    const size_t n = 1 + rng.Below(200);
    std::vector<SubQueryRequest> requests = RandomPlanBatch(rng, n);
    std::vector<uint32_t> attempts(n);
    for (size_t i = 0; i < n; ++i) {
      attempts[i] =
          rng.Chance(0.1) ? kMax : static_cast<uint32_t>(rng.Below(8));
    }
    if (round % 3 == 0) {
      requests.front().sub_id = kMax;  // low byte 255: still distinct
      requests.back().expected_elements = kMax;
      requests.back().partition_key.clear();
    }
    const uint8_t trace_flags = round % 2 == 0 ? kTraceSampled : 0;
    for (const WireCodecKind kind :
         {WireCodecKind::kTagged, WireCodecKind::kCompact}) {
      WireBuffer frame;
      EncodeSubQueryBatch(requests, attempts, trace_flags, kind, codec, frame);

      auto split = SplitFrame(frame.data(), kind);
      ASSERT_TRUE(split.ok()) << split.status().ToString();
      EXPECT_EQ(split.value().query_id, requests.front().query_id);
      EXPECT_EQ(split.value().trace_flags, trace_flags);
      auto message =
          DecodeWith<SubQueryBatch>(kind, codec, split.value().payload);
      ASSERT_TRUE(message.ok()) << message.status().ToString();
      SubQueryBatch expected = BatchMessageOf(requests);
      expected.attempts.assign(attempts.begin(), attempts.end());
      EXPECT_EQ(message.value().table, expected.table);
      EXPECT_EQ(message.value().op, expected.op);
      EXPECT_EQ(message.value().sub_ids, expected.sub_ids);
      EXPECT_EQ(message.value().attempts, expected.attempts);
      EXPECT_EQ(message.value().keys, expected.keys);
      EXPECT_EQ(message.value().expected_elements, expected.expected_elements);

      auto decoded = DecodeSubQueryBatch(frame.data(), kind, codec);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      const SubQueryBatch& items = decoded.value().msg;
      EXPECT_EQ(items.attempts, Widen(attempts));
      ASSERT_EQ(items.size(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(Equal(RequestAt(items, i), requests[i])) << i;
      }
    }
  }
}

// Every batch-level rejection of the request decoder, one malformed
// column or field at a time, for both codecs: each is kCorruption.
TEST_P(WireFuzzTest, SubQueryBatchDecoderRejectsEachMalformedColumn) {
  Rng rng(GetParam() ^ 0xbad0);
  CompactCodec codec;
  RegisterClusterMessages(codec);
  const SubQueryBatch base =
      BatchMessageOf(RandomPlanBatch(rng, 2 + rng.Below(6)));
  struct Case {
    const char* what;
    void (*mutate)(SubQueryBatch&);
  };
  const std::vector<Case> cases = {
      {"short attempts column",
       [](SubQueryBatch& b) { b.attempts.pop_back(); }},
      {"short keys column", [](SubQueryBatch& b) { b.keys.pop_back(); }},
      {"short expected_elements column",
       [](SubQueryBatch& b) { b.expected_elements.pop_back(); }},
      {"long sub_ids column",
       [](SubQueryBatch& b) { b.sub_ids.push_back(b.sub_ids.back() + 1); }},
      {"empty batch",
       [](SubQueryBatch& b) {
         b.sub_ids.clear();
         b.attempts.clear();
         b.keys.clear();
         b.expected_elements.clear();
       }},
      {"duplicate sub_id",
       [](SubQueryBatch& b) { b.sub_ids[1] = b.sub_ids[0]; }},
      {"unknown operator", [](SubQueryBatch& b) { b.op = kQueryOpCount; }},
      {"operator beyond uint32",
       [](SubQueryBatch& b) { b.op = (uint64_t{1} << 32) + kOpCountByType; }},
      {"sub_id beyond uint32",
       [](SubQueryBatch& b) { b.sub_ids[0] |= uint64_t{1} << 32; }},
      {"attempt beyond uint32",
       [](SubQueryBatch& b) { b.attempts.back() = uint64_t{1} << 32; }},
      {"expected_elements beyond uint32",
       [](SubQueryBatch& b) { b.expected_elements[0] = uint64_t{1} << 33; }},
      {"payload query_id differs from the header's",
       [](SubQueryBatch& b) { ++b.query_id; }},
  };
  for (const WireCodecKind kind :
       {WireCodecKind::kTagged, WireCodecKind::kCompact}) {
    WireBuffer valid;
    EncodeMessageFrame(base, base.query_id, 0, kind, codec, valid);
    ASSERT_TRUE(DecodeSubQueryBatch(valid.data(), kind, codec).ok());
    for (const Case& c : cases) {
      SubQueryBatch bad = base;
      c.mutate(bad);
      WireBuffer frame;
      EncodeMessageFrame(bad, base.query_id, 0, kind, codec, frame);
      auto decoded = DecodeSubQueryBatch(frame.data(), kind, codec);
      ASSERT_FALSE(decoded.ok()) << WireCodecName(kind) << ": " << c.what;
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
          << WireCodecName(kind) << ": " << c.what;
    }
  }
}

// The write frames get the same treatment as the read frames: random
// content round-trips, every truncation fails cleanly, and byte soup
// never crashes the decoders.
WriteBatch RandomWriteBatch(Rng& rng) {
  WriteBatch batch;
  batch.query_id = rng.Next();
  batch.sub_id = static_cast<uint32_t>(rng.Next());
  batch.attempt = static_cast<uint32_t>(rng.Below(4));
  batch.target = static_cast<uint32_t>(rng.Below(1024));
  batch.table = RandomString(rng, 32);
  const size_t n = 1 + rng.Below(12);
  for (size_t i = 0; i < n; ++i) {
    batch.keys.push_back(RandomString(rng, 48));
    batch.clusterings.push_back(rng.Next());
    batch.type_ids.push_back(rng.Below(256));
    batch.tombstones.push_back(rng.Below(2));
    batch.payloads.push_back(RandomString(rng, 64));
  }
  batch.checksum = WriteBatchChecksum(batch);
  return batch;
}

TEST_P(WireFuzzTest, WriteFramesRoundTripAndRejectEveryTruncation) {
  Rng rng(GetParam() ^ 0xabad);
  CompactCodec codec;
  RegisterClusterMessages(codec);
  for (int round = 0; round < 50; ++round) {
    const WriteBatch batch = RandomWriteBatch(rng);
    for (const WireCodecKind kind :
         {WireCodecKind::kTagged, WireCodecKind::kCompact}) {
      WireBuffer frame;
      EncodeMessageFrame(batch, batch.query_id, 0, kind, codec, frame);
      auto decoded = DecodeWriteBatchFrame(frame.data(), kind, codec);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(decoded.value().query_id, batch.query_id);
      EXPECT_EQ(decoded.value().msg.attempt, batch.attempt);
      EXPECT_EQ(decoded.value().msg.keys, batch.keys);
      EXPECT_EQ(decoded.value().msg.clusterings, batch.clusterings);
      EXPECT_EQ(decoded.value().msg.payloads, batch.payloads);
      EXPECT_EQ(decoded.value().msg.checksum, batch.checksum);
      if (round == 0) {
        const auto data = frame.data();
        for (size_t cut = 0; cut < data.size(); ++cut) {
          auto partial =
              DecodeWriteBatchFrame(data.subspan(0, cut), kind, codec);
          ASSERT_FALSE(partial.ok()) << "cut=" << cut;
          EXPECT_EQ(partial.status().code(), StatusCode::kCorruption);
        }
      }
    }
  }
}

TEST_P(WireFuzzTest, RandomBytesNeverCrashTheWriteFrameDecoders) {
  Rng rng(GetParam() ^ 0x9e37);
  CompactCodec codec;
  RegisterClusterMessages(codec);
  for (int i = 0; i < 500; ++i) {
    std::vector<std::byte> soup(rng.Below(400));
    for (auto& b : soup) b = static_cast<std::byte>(rng.Below(256));
    for (const WireCodecKind kind :
         {WireCodecKind::kTagged, WireCodecKind::kCompact}) {
      auto batch = DecodeWriteBatchFrame(soup, kind, codec);
      if (!batch.ok()) {
        EXPECT_EQ(batch.status().code(), StatusCode::kCorruption);
      }
    }
  }
}

/// Flips one random bit of `word`, below bit `width`.
void FlipBit(uint64_t& word, Rng& rng, uint32_t width = 64) {
  word ^= uint64_t{1} << rng.Below(width);
}
void FlipBit(uint32_t& word, Rng& rng) {
  word ^= uint32_t{1} << rng.Below(32);
}
/// Flips one random bit of one random byte of `bytes` (made non-empty).
void FlipBit(std::string& bytes, Rng& rng) {
  if (bytes.empty()) bytes.push_back('k');
  bytes[rng.Below(bytes.size())] ^= static_cast<char>(1u << rng.Below(8));
}

// A flipped bit in any field a write batch carries must fail the batch
// before a column lands: a damaged key, clustering, type id or
// tombstone would otherwise be stored under the wrong coordinates.
TEST_P(WireFuzzTest, OneBitFlipInAnyWriteBatchFieldIsCaught) {
  Rng rng(GetParam() ^ 0xf11b);
  CompactCodec codec;
  RegisterClusterMessages(codec);
  struct Case {
    const char* field;
    void (*flip)(WriteBatch&, Rng&);
  };
  const Case cases[] = {
      {"query_id", [](WriteBatch& b, Rng& r) { FlipBit(b.query_id, r); }},
      {"sub_id", [](WriteBatch& b, Rng& r) { FlipBit(b.sub_id, r); }},
      {"attempt", [](WriteBatch& b, Rng& r) { FlipBit(b.attempt, r); }},
      {"target", [](WriteBatch& b, Rng& r) { FlipBit(b.target, r); }},
      {"table", [](WriteBatch& b, Rng& r) { FlipBit(b.table, r); }},
      {"keys",
       [](WriteBatch& b, Rng& r) { FlipBit(b.keys[r.Below(b.keys.size())], r); }},
      {"clusterings",
       [](WriteBatch& b, Rng& r) {
         FlipBit(b.clusterings[r.Below(b.clusterings.size())], r);
       }},
      {"type_ids",  // stays inside uint32, so only the checksum can tell
       [](WriteBatch& b, Rng& r) {
         FlipBit(b.type_ids[r.Below(b.type_ids.size())], r, 32);
       }},
      {"tombstones",  // 0 <-> 1 stays a valid flag
       [](WriteBatch& b, Rng& r) { b.tombstones[r.Below(b.tombstones.size())] ^= 1; }},
      {"payloads",
       [](WriteBatch& b, Rng& r) {
         FlipBit(b.payloads[r.Below(b.payloads.size())], r);
       }},
  };
  for (int round = 0; round < 20; ++round) {
    const WriteBatch batch = RandomWriteBatch(rng);
    for (const Case& c : cases) {
      WriteBatch damaged = batch;
      c.flip(damaged, rng);  // the checksum still describes `batch`
      for (const WireCodecKind kind :
           {WireCodecKind::kTagged, WireCodecKind::kCompact}) {
        WireBuffer frame;
        EncodeMessageFrame(damaged, damaged.query_id, 0, kind, codec, frame);
        auto decoded = DecodeWriteBatchFrame(frame.data(), kind, codec);
        EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
            << WireCodecName(kind) << ": " << c.field;
      }
    }
  }
}

MigrationBlock RandomMigrationBlock(Rng& rng) {
  MigrationBlock block;
  block.migration_id = rng.Next();
  block.seq = static_cast<uint32_t>(rng.Next());
  block.source = static_cast<uint32_t>(rng.Below(64));
  block.target = static_cast<uint32_t>(rng.Below(64));
  block.table = RandomString(rng, 32);
  const size_t n = 1 + rng.Below(8);
  for (size_t i = 0; i < n; ++i) {
    block.keys.push_back(RandomString(rng, 48));
    block.payloads.push_back(RandomString(rng, 96));
  }
  block.checksum = MigrationBlockChecksum(block);
  return block;
}

// The same for a migration block: a flipped key would apply a
// partition's columns under another key, a flipped seq / source / target
// would misattribute the block.
TEST_P(WireFuzzTest, OneBitFlipInAnyMigrationBlockFieldIsCaught) {
  Rng rng(GetParam() ^ 0xb10c);
  CompactCodec codec;
  RegisterClusterMessages(codec);
  struct Case {
    const char* field;
    void (*flip)(MigrationBlock&, Rng&);
  };
  const Case cases[] = {
      {"migration_id",
       [](MigrationBlock& b, Rng& r) { FlipBit(b.migration_id, r); }},
      {"seq", [](MigrationBlock& b, Rng& r) { FlipBit(b.seq, r); }},
      {"source", [](MigrationBlock& b, Rng& r) { FlipBit(b.source, r); }},
      {"target", [](MigrationBlock& b, Rng& r) { FlipBit(b.target, r); }},
      {"table", [](MigrationBlock& b, Rng& r) { FlipBit(b.table, r); }},
      {"keys",
       [](MigrationBlock& b, Rng& r) {
         FlipBit(b.keys[r.Below(b.keys.size())], r);
       }},
      {"payloads",
       [](MigrationBlock& b, Rng& r) {
         FlipBit(b.payloads[r.Below(b.payloads.size())], r);
       }},
  };
  for (int round = 0; round < 20; ++round) {
    const MigrationBlock block = RandomMigrationBlock(rng);
    for (const WireCodecKind kind :
         {WireCodecKind::kTagged, WireCodecKind::kCompact}) {
      WireBuffer valid;
      EncodeMessageFrame(block, block.migration_id, 0, kind, codec, valid);
      ASSERT_TRUE(DecodeMigrationBlockFrame(valid.data(), kind, codec).ok());
    }
    for (const Case& c : cases) {
      MigrationBlock damaged = block;
      c.flip(damaged, rng);  // the checksum still describes `block`
      for (const WireCodecKind kind :
           {WireCodecKind::kTagged, WireCodecKind::kCompact}) {
        WireBuffer frame;
        // Framed under the damaged id, so only the checksum can tell.
        EncodeMessageFrame(damaged, damaged.migration_id, 0, kind, codec,
                           frame);
        auto decoded = DecodeMigrationBlockFrame(frame.data(), kind, codec);
        EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
            << WireCodecName(kind) << ": " << c.field;
      }
    }
  }
}

/// A consistent reply batch: item i answers sub_ids[i] at attempts[i]
/// with `values[i]` paired result rows; ends and checksums filled in.
SubQueryReplyBatch MakeReplyBatch(uint64_t query_id,
                                  const std::vector<uint32_t>& sub_ids,
                                  const std::vector<uint32_t>& attempts,
                                  const std::vector<size_t>& values, Rng& rng) {
  SubQueryReplyBatch batch;
  batch.query_id = query_id;
  batch.node = static_cast<uint32_t>(rng.Below(8));
  for (size_t i = 0; i < sub_ids.size(); ++i) {
    batch.sub_ids.push_back(sub_ids[i]);
    batch.attempts.push_back(attempts[i]);
    batch.statuses.push_back(rng.Below(3));
    batch.db_start_ns.push_back(rng.Below(1u << 30));
    batch.db_end_ns.push_back(batch.db_start_ns.back() + rng.Below(1u << 20));
    for (size_t k = 0; k < values[i]; ++k) {
      batch.col_a.push_back(rng.Next());
      batch.col_b.push_back(rng.Below(1000));
    }
    batch.a_ends.push_back(batch.col_a.size());
    batch.b_ends.push_back(batch.col_b.size());
  }
  for (size_t i = 0; i < sub_ids.size(); ++i) {
    batch.checksums.push_back(ReplyItemChecksum(batch, i));
  }
  return batch;
}

std::vector<std::byte> ReplyBatchFrame(const SubQueryReplyBatch& batch,
                                       WireCodecKind kind,
                                       const CompactCodec& codec) {
  WireBuffer out;
  EncodeMessageFrame(batch, batch.query_id, 0, kind, codec, out);
  return {out.data().begin(), out.data().end()};
}

TEST_P(WireFuzzTest, ReplyBatchFramesRoundTripAndRejectEveryTruncation) {
  Rng rng(GetParam() ^ 0x4e91);
  CompactCodec codec;
  RegisterClusterMessages(codec);
  for (int round = 0; round < 20; ++round) {
    // The request frame: some sub-queries, of which the reply answers a
    // (possibly reordered) subset.
    const size_t requested = 1 + rng.Below(12);
    std::vector<uint32_t> req_subs, req_attempts;
    for (size_t i = 0; i < requested; ++i) {
      req_subs.push_back(static_cast<uint32_t>(rng.Below(1u << 20)) * 16 +
                         static_cast<uint32_t>(i));
      req_attempts.push_back(static_cast<uint32_t>(rng.Below(4)));
    }
    std::vector<size_t> order(requested);
    for (size_t i = 0; i < requested; ++i) order[i] = i;
    if (rng.Chance(0.5)) std::swap(order.front(), order.back());
    const size_t answered = 1 + rng.Below(requested);
    std::vector<uint32_t> subs, attempts;
    std::vector<size_t> values;
    for (size_t i = 0; i < answered; ++i) {
      subs.push_back(req_subs[order[i]]);
      attempts.push_back(req_attempts[order[i]]);
      values.push_back(rng.Below(6));
    }
    const SubQueryReplyBatch batch =
        MakeReplyBatch(99, subs, attempts, values, rng);
    for (const WireCodecKind kind :
         {WireCodecKind::kTagged, WireCodecKind::kCompact}) {
      const std::vector<std::byte> frame = ReplyBatchFrame(batch, kind, codec);
      auto decoded =
          DecodeReplyBatchFrame(frame, kind, codec, 99, req_subs, req_attempts);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      const DecodedReplyBatch& d = decoded.value();
      size_t found = 0;
      for (size_t r = 0; r < requested; ++r) {
        if (d.slot[r] == DecodedReplyBatch::kAbsent) continue;
        ++found;
        const uint32_t item = d.slot[r];
        EXPECT_EQ(d.batch.sub_ids[item], req_subs[r]);
        EXPECT_TRUE(d.intact[item]);
        const size_t begin = item == 0 ? 0 : batch.a_ends[item - 1];
        ASSERT_EQ(d.col_a(item).size(), values[item]);
        for (size_t k = 0; k < values[item]; ++k) {
          EXPECT_EQ(d.col_a(item)[k], batch.col_a[begin + k]);
          EXPECT_EQ(d.col_b(item)[k], batch.col_b[begin + k]);
        }
      }
      EXPECT_EQ(found, answered);
      for (size_t cut = 0; cut < frame.size(); ++cut) {
        auto partial = DecodeReplyBatchFrame(
            std::span<const std::byte>(frame).subspan(0, cut), kind, codec, 99,
            req_subs, req_attempts);
        ASSERT_FALSE(partial.ok()) << "cut=" << cut;
        EXPECT_EQ(partial.status().code(), StatusCode::kCorruption);
      }
    }
  }
}

TEST_P(WireFuzzTest, RandomBytesNeverCrashTheReplyBatchDecoder) {
  Rng rng(GetParam() ^ 0x2ab7);
  CompactCodec codec;
  RegisterClusterMessages(codec);
  const std::vector<uint32_t> subs = {0, 1, 2};
  const std::vector<uint32_t> attempts = {0, 0, 0};
  for (int i = 0; i < 500; ++i) {
    std::vector<std::byte> soup(rng.Below(400));
    for (auto& b : soup) b = static_cast<std::byte>(rng.Below(256));
    for (const WireCodecKind kind :
         {WireCodecKind::kTagged, WireCodecKind::kCompact}) {
      auto decoded = DecodeReplyBatchFrame(soup, kind, codec, 0, subs, attempts);
      if (!decoded.ok()) {
        EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
      }
    }
  }
}

// A reply frame answers the request frame it was sent for: every way it
// can disagree with that request fails the whole frame, for both codecs.
TEST(FrameEnvelopeTest, ReplyBatchesThatDisagreeWithTheRequestAreRejected) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  Rng rng(0x5eed);
  const std::vector<uint32_t> req_subs = {10, 11, 12};
  const std::vector<uint32_t> req_attempts = {0, 1, 0};
  const std::vector<size_t> values = {2, 0, 3};
  struct Case {
    const char* what;
    std::vector<uint32_t> subs;
    std::vector<uint32_t> attempts;
    uint64_t query_id;
  };
  const std::vector<Case> cases = {
      {"duplicate sub_id", {10, 10, 12}, {0, 0, 0}, 5},
      {"sub_id absent from the request", {10, 13, 12}, {0, 1, 0}, 5},
      {"attempt mismatch", {10, 11, 12}, {0, 0, 0}, 5},
      {"query_id mismatch", {10, 11, 12}, {0, 1, 0}, 6},
  };
  for (const WireCodecKind kind :
       {WireCodecKind::kTagged, WireCodecKind::kCompact}) {
    const auto good = ReplyBatchFrame(
        MakeReplyBatch(5, req_subs, req_attempts, values, rng), kind, codec);
    ASSERT_TRUE(
        DecodeReplyBatchFrame(good, kind, codec, 5, req_subs, req_attempts)
            .ok());
    for (const Case& c : cases) {
      const auto frame = ReplyBatchFrame(
          MakeReplyBatch(c.query_id, c.subs, c.attempts, values, rng), kind,
          codec);
      auto decoded =
          DecodeReplyBatchFrame(frame, kind, codec, 5, req_subs, req_attempts);
      ASSERT_FALSE(decoded.ok()) << c.what;
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption) << c.what;
    }
    // More items than the request frame carried.
    const auto oversized = ReplyBatchFrame(
        MakeReplyBatch(5, {10, 11, 12, 13}, {0, 1, 0, 0}, {1, 1, 1, 1}, rng),
        kind, codec);
    auto too_many = DecodeReplyBatchFrame(oversized, kind, codec, 5, req_subs,
                                          req_attempts);
    ASSERT_FALSE(too_many.ok());
    EXPECT_EQ(too_many.status().code(), StatusCode::kCorruption);
    // A truncated frame.
    auto truncated = DecodeReplyBatchFrame(
        std::span<const std::byte>(good).subspan(0, good.size() - 1), kind,
        codec, 5, req_subs, req_attempts);
    ASSERT_FALSE(truncated.ok());
    EXPECT_EQ(truncated.status().code(), StatusCode::kCorruption);
  }
}

// A reply status is read back as a StatusCode, so a value no enumerator
// names is a corrupt frame even under a valid item checksum: 2^32 would
// truncate to kOk and fold as data, 10 would be an unnamed code. Both
// reply decoders share the check.
TEST(FrameEnvelopeTest, ReplyStatusesOutsideStatusCodeAreRejected) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  Rng rng(0x57a7);
  const std::vector<uint32_t> subs = {4};
  const std::vector<uint32_t> attempts = {1};
  const uint64_t last_named =
      static_cast<uint64_t>(StatusCode::kFailedPrecondition);
  for (const uint64_t status : {uint64_t{1} << 32, uint64_t{10}, last_named}) {
    SubQueryReplyBatch batch = MakeReplyBatch(5, subs, attempts, {2}, rng);
    batch.statuses[0] = status;
    batch.checksums[0] = ReplyItemChecksum(batch, 0);
    for (const WireCodecKind kind :
         {WireCodecKind::kTagged, WireCodecKind::kCompact}) {
      const std::vector<std::byte> frame = ReplyBatchFrame(batch, kind, codec);
      auto decoded = DecodeReplyBatchFrame(frame, kind, codec, 5, subs,
                                           attempts);
      auto single = DecodeReplyFrame(frame, kind, codec);
      if (status == last_named) {
        ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
        EXPECT_TRUE(decoded.value().intact[0]);
        ASSERT_TRUE(single.ok()) << single.status().ToString();
        continue;
      }
      ASSERT_FALSE(decoded.ok()) << status;
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption) << status;
      ASSERT_FALSE(single.ok()) << status;
      EXPECT_EQ(single.status().code(), StatusCode::kCorruption) << status;
    }
  }
}

// A damaged item fails its own checksum and nothing else: the frame and
// the sibling items stay usable.
TEST(FrameEnvelopeTest, ReplyItemChecksumsIsolateOneDamagedItem) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  Rng rng(0x1e7);
  const std::vector<uint32_t> subs = {1, 2, 3};
  const std::vector<uint32_t> attempts = {0, 0, 0};
  SubQueryReplyBatch batch = MakeReplyBatch(9, subs, attempts, {2, 2, 2}, rng);
  batch.col_b[2] ^= 4;  // item 1's first row
  for (const WireCodecKind kind :
       {WireCodecKind::kTagged, WireCodecKind::kCompact}) {
    auto decoded = DecodeReplyBatchFrame(ReplyBatchFrame(batch, kind, codec),
                                         kind, codec, 9, subs, attempts);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(decoded.value().intact[0]);
    EXPECT_FALSE(decoded.value().intact[1]);
    EXPECT_TRUE(decoded.value().intact[2]);
  }
  // The single-reply decoder has no siblings: a damaged item fails it.
  SubQueryReplyBatch one = MakeReplyBatch(9, {1}, {0}, {2}, rng);
  one.col_a[0] ^= 1;
  auto single = DecodeReplyFrame(
      ReplyBatchFrame(one, WireCodecKind::kCompact, codec),
      WireCodecKind::kCompact, codec);
  ASSERT_FALSE(single.ok());
  EXPECT_EQ(single.status().code(), StatusCode::kCorruption);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace kvscale
