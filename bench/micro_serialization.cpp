// Section V-B micro-benchmark — serialization cost and size.
//
// Paper numbers (JVM): Java default serialization ~150 us/message and
// 7.5 MB for 10k messages; Kryo ~19 us/message and 0.9 MB. Our codecs are
// C++, so absolute CPU costs are far lower; what must reproduce is the
// *structure*: the self-describing tagged codec is several times larger
// and slower than the registered compact codec. The calibrated JVM costs
// live in SerializerProfile and are reported alongside.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "wire/codec.hpp"
#include "wire/envelope.hpp"
#include "wire/messages.hpp"
#include "wire/serializer_model.hpp"

namespace kvscale {
namespace {

SubQueryRequest Request() { return MakeRepresentativeSubQuery(1, 4242, 100); }

PartialResult ResultMessage() {
  PartialResult res;
  res.query_id = 1;
  res.sub_id = 4242;
  res.node = 7;
  for (uint32_t t = 0; t < 8; ++t) {
    res.types.push_back("t" + std::to_string(t));
    res.counts.push_back(1000 + t);
  }
  res.db_micros = 5234.5;
  return res;
}

void BM_TaggedEncodeRequest(benchmark::State& state) {
  const auto msg = Request();
  WireBuffer buf;
  for (auto _ : state) {
    buf.clear();
    TaggedCodec::Encode(msg, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.counters["bytes"] = static_cast<double>(buf.size());
}
BENCHMARK(BM_TaggedEncodeRequest);

void BM_CompactEncodeRequest(benchmark::State& state) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  const auto msg = Request();
  WireBuffer buf;
  for (auto _ : state) {
    buf.clear();
    codec.Encode(msg, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.counters["bytes"] = static_cast<double>(buf.size());
}
BENCHMARK(BM_CompactEncodeRequest);

void BM_TaggedDecodeRequest(benchmark::State& state) {
  WireBuffer buf;
  TaggedCodec::Encode(Request(), buf);
  for (auto _ : state) {
    auto decoded = TaggedCodec::Decode<SubQueryRequest>(buf.data());
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_TaggedDecodeRequest);

void BM_CompactDecodeRequest(benchmark::State& state) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  WireBuffer buf;
  codec.Encode(Request(), buf);
  for (auto _ : state) {
    auto decoded = codec.Decode<SubQueryRequest>(buf.data());
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_CompactDecodeRequest);

void BM_TaggedEncodeResult(benchmark::State& state) {
  const auto msg = ResultMessage();
  WireBuffer buf;
  for (auto _ : state) {
    buf.clear();
    TaggedCodec::Encode(msg, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.counters["bytes"] = static_cast<double>(buf.size());
}
BENCHMARK(BM_TaggedEncodeResult);

void BM_CompactEncodeResult(benchmark::State& state) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  const auto msg = ResultMessage();
  WireBuffer buf;
  for (auto _ : state) {
    buf.clear();
    codec.Encode(msg, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.counters["bytes"] = static_cast<double>(buf.size());
}
BENCHMARK(BM_CompactEncodeResult);

// -- Reply path: one frame per answer vs one batched frame per request
// frame. `items` answers of fine_count's shape (8 type counts each);
// items/s is answers per second, so the two read side by side.

constexpr int64_t kReplyItems = 1000;

std::vector<SubQueryReply> Replies() {
  std::vector<SubQueryReply> replies(kReplyItems);
  for (int64_t i = 0; i < kReplyItems; ++i) {
    SubQueryReply& r = replies[static_cast<size_t>(i)];
    r.query_id = 1;
    r.sub_id = static_cast<uint32_t>(i);
    r.node = 2;
    for (uint64_t t = 0; t < 8; ++t) {
      r.type_ids.push_back(t);
      r.counts.push_back(1 + (static_cast<uint64_t>(i) + t) % 3);
    }
    r.db_micros = 2.5;
  }
  return replies;
}

void BM_ReplyFramesEncodeSingle(benchmark::State& state) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  const auto replies = Replies();
  for (auto _ : state) {
    for (const SubQueryReply& reply : replies) {
      WireBuffer buf;
      EncodeReplyFrame(reply, 0, 0, WireCodecKind::kCompact, codec, buf);
      benchmark::DoNotOptimize(buf.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * kReplyItems);
}
BENCHMARK(BM_ReplyFramesEncodeSingle);

void BM_ReplyFramesDecodeSingle(benchmark::State& state) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  std::vector<std::vector<std::byte>> frames;
  for (const SubQueryReply& reply : Replies()) {
    WireBuffer buf;
    EncodeReplyFrame(reply, 0, 0, WireCodecKind::kCompact, codec, buf);
    frames.push_back(buf.TakeBytes());
  }
  for (auto _ : state) {
    for (const auto& frame : frames) {
      auto decoded = DecodeReplyFrame(frame, WireCodecKind::kCompact, codec);
      benchmark::DoNotOptimize(decoded);
    }
  }
  state.SetItemsProcessed(state.iterations() * kReplyItems);
}
BENCHMARK(BM_ReplyFramesDecodeSingle);

SubQueryReplyBatch ReplyBatch() {
  SubQueryReplyBatch batch;
  batch.query_id = 1;
  batch.node = 2;
  for (const SubQueryReply& r : Replies()) {
    batch.sub_ids.push_back(r.sub_id);
    batch.attempts.push_back(0);
    batch.statuses.push_back(0);
    batch.db_start_ns.push_back(1'000'000'000);
    batch.db_end_ns.push_back(1'000'002'500);
    batch.col_a.insert(batch.col_a.end(), r.type_ids.begin(),
                       r.type_ids.end());
    batch.col_b.insert(batch.col_b.end(), r.counts.begin(), r.counts.end());
    batch.a_ends.push_back(batch.col_a.size());
    batch.b_ends.push_back(batch.col_b.size());
    batch.checksums.push_back(
        ReplyItemChecksum(batch, batch.sub_ids.size() - 1));
  }
  return batch;
}

void BM_ReplyFramesEncodeBatched(benchmark::State& state) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  const SubQueryReplyBatch batch = ReplyBatch();
  for (auto _ : state) {
    WireBuffer buf;
    EncodeMessageFrame(batch, batch.query_id, 0, WireCodecKind::kCompact,
                       codec, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations() * kReplyItems);
}
BENCHMARK(BM_ReplyFramesEncodeBatched);

void BM_ReplyFramesDecodeBatched(benchmark::State& state) {
  CompactCodec codec;
  RegisterClusterMessages(codec);
  const SubQueryReplyBatch batch = ReplyBatch();
  WireBuffer buf;
  EncodeMessageFrame(batch, batch.query_id, 0, WireCodecKind::kCompact, codec,
                     buf);
  std::vector<uint32_t> sub_ids, attempts(kReplyItems, 0);
  for (uint64_t id : batch.sub_ids) sub_ids.push_back(static_cast<uint32_t>(id));
  for (auto _ : state) {
    auto decoded = DecodeReplyBatchFrame(buf.data(), WireCodecKind::kCompact,
                                         codec, 1, sub_ids, attempts);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * kReplyItems);
}
BENCHMARK(BM_ReplyFramesDecodeBatched);

}  // namespace
}  // namespace kvscale

int main(int argc, char** argv) {
  std::printf(
      "--------------------------------------------------------------\n"
      "Section V-B: serialization (paper: Java 150 us & 750 B/msg vs "
      "Kryo 19 us & 90 B/msg)\n");
  {
    using namespace kvscale;
    CompactCodec codec;
    RegisterClusterMessages(codec);
    const auto req = MakeRepresentativeSubQuery(1, 4242, 100);
    const size_t tagged = TaggedEncodedSize(req);
    const size_t compact = CompactEncodedSize(codec, req);
    std::printf("encoded SubQueryRequest: tagged=%zu B, compact=%zu B "
                "(%.1fx smaller; paper ratio ~8.3x)\n",
                tagged, compact,
                static_cast<double>(tagged) / static_cast<double>(compact));
    std::printf("10k messages on the wire: tagged=%s, compact=%s "
                "(paper: 7.5 MB -> 0.9 MB incl. JVM metadata)\n",
                FormatBytes(tagged * 10000).c_str(),
                FormatBytes(compact * 10000).c_str());
    std::printf("calibrated JVM cost models: java-default %.0f us/msg, "
                "kryo-like %.0f us/msg\n",
                JavaLikeProfile().TypicalCost(),
                KryoLikeProfile().TypicalCost());
  }
  std::printf(
      "--------------------------------------------------------------\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
