// Framed message envelopes for the node runtime's real message path.
//
// The codecs (codec.hpp) encode a single message; the runtime ships
// *frames*: a fixed header naming the codec that produced the payload and
// the query it belongs to, followed by exactly one length-prefixed
// message. Framing buys three things the paper's prototype relied on its
// RPC stack for:
//
//   * codec negotiation — a frame self-identifies as Tagged or Compact,
//     so feeding bytes to the wrong decoder is a clean Status error, not
//     silent garbage (the Java-vs-Kryo axis must never cross-decode);
//   * trace context — the header names the owning query and carries the
//     trace flags, so node-side worker spans link to the query that
//     issued them; every decoder checks the header's query_id against the
//     payload's, and a frame whose header disagrees with its contents is
//     kCorruption, exactly like a bad length prefix;
//   * robustness — the length prefix is validated against the bytes
//     actually present before any allocation, and trailing bytes are
//     refused, so truncated or hostile frames fail with kCorruption
//     instead of crashing or OOMing.
//
// Batching lives inside the messages, not in the envelope. Every frame
// kind coalesces its items as parallel columns of one message:
// SubQueryBatch (the sub-queries of one plan bound for one node: the
// table, operator and arguments once, then sub_id / attempt / key /
// expected_elements per item), SubQueryReplyBatch (their answers, each
// with its own checksum, so a damaged answer fails over alone while a
// damaged header fails over the whole frame), WriteBatch and
// MigrationBlock. One message per frame means one place for each id and
// one set of checks per kind; the per-item ids an envelope item list
// used to repeat beside each payload are gone.
//
// Frame layout (version 3):
//   [u16 magic 0xFAB1][u8 version][u8 codec][u8 trace_flags]
//   [varint query_id][varint length][payload]
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "wire/buffer.hpp"
#include "wire/codec.hpp"
#include "wire/messages.hpp"

namespace kvscale {

/// Which wire codec a frame's payloads were encoded with. The two ends of
/// the paper's Section V-B serialization axis, selectable on the real
/// data path.
enum class WireCodecKind : uint8_t {
  kTagged = 1,   ///< self-describing, Java-serialization-like
  kCompact = 2,  ///< registration-based, Kryo-like
};

std::string_view WireCodecName(WireCodecKind kind);

/// Parses "tagged" / "compact" (CLI flag spelling).
Result<WireCodecKind> ParseWireCodec(std::string_view name);

inline constexpr uint16_t kFrameMagic = 0xFAB1;
inline constexpr uint8_t kFrameVersion = 3;

/// Trace flag bits carried in the envelope header. Any bit outside
/// kTraceFlagsMask is kCorruption at decode time, like every other
/// header field.
inline constexpr uint8_t kTraceSampled = 0x01;
inline constexpr uint8_t kTraceFlagsMask = kTraceSampled;

/// Deterministic nonzero flow id for one sub-query attempt, used to link
/// a master-side dispatch span to the node-side worker spans it caused
/// in a Chrome trace (flow events require a shared id). Mixes the three
/// coordinates so distinct attempts never collide in practice.
inline constexpr uint64_t TraceFlowId(uint64_t query_id, uint32_t sub_id,
                                      uint32_t attempt) {
  // splitmix64-style finalizer over the packed coordinates.
  uint64_t x = query_id * 0x9E3779B97F4A7C15ull;
  x ^= (static_cast<uint64_t>(sub_id) << 32) | attempt;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x | 1;  // never zero: 0 means "no flow" in Span
}

/// A split frame: the header's trace context plus a view of its one
/// payload (into the original frame buffer).
struct FrameParts {
  uint64_t query_id = 0;
  uint8_t trace_flags = 0;
  std::span<const std::byte> payload;
};

/// Appends a frame carrying `payload` (one already-encoded message) to
/// `out`.
void EncodeFrame(WireCodecKind codec, uint64_t query_id, uint8_t trace_flags,
                 std::span<const std::byte> payload, WireBuffer& out);

/// Splits a frame into its trace context and payload view. Fails with
/// kCorruption on a bad header, unknown trace-flag bits, a length prefix
/// that does not fit the bytes present, or trailing garbage; fails with
/// kCorruption ("codec mismatch") when the frame was produced by a codec
/// other than `expected`. Never allocates.
Result<FrameParts> SplitFrame(std::span<const std::byte> frame,
                              WireCodecKind expected);

/// Encodes one message with the selected codec (Compact consults
/// `registry`, which both peers must have filled via
/// RegisterClusterMessages).
template <typename M>
void EncodeWith(WireCodecKind kind, const CompactCodec& registry,
                const M& msg, WireBuffer& out) {
  if (kind == WireCodecKind::kTagged) {
    TaggedCodec::Encode(msg, out);
  } else {
    registry.Encode(msg, out);
  }
}

template <typename M>
Result<M> DecodeWith(WireCodecKind kind, const CompactCodec& registry,
                     std::span<const std::byte> data) {
  if (kind == WireCodecKind::kTagged) {
    return TaggedCodec::Decode<M>(data);
  }
  return registry.Decode<M>(data);
}

/// Encodes `msg` with `kind` and frames it under `query_id`.
template <typename M>
void EncodeMessageFrame(const M& msg, uint64_t query_id, uint8_t trace_flags,
                        WireCodecKind kind, const CompactCodec& registry,
                        WireBuffer& out) {
  WireBuffer payload;
  EncodeWith(kind, registry, msg, payload);
  EncodeFrame(kind, query_id, trace_flags, payload.data(), out);
}

/// A split and decoded frame: its trace context and its one message.
template <typename M>
struct DecodedFrame {
  uint64_t query_id = 0;
  uint8_t trace_flags = 0;
  M msg;
};

/// Splits `frame` and decodes its payload as an M; either failing is
/// kCorruption. Checking the header's query_id against the message is
/// the caller's, since each message names its owner in its own field.
template <typename M>
Result<DecodedFrame<M>> DecodeMessageFrame(std::span<const std::byte> frame,
                                           WireCodecKind kind,
                                           const CompactCodec& registry) {
  auto split = SplitFrame(frame, kind);
  if (!split.ok()) return split.status();
  auto decoded = DecodeWith<M>(kind, registry, split.value().payload);
  if (!decoded.ok()) return decoded.status();
  return DecodedFrame<M>{split.value().query_id, split.value().trace_flags,
                         std::move(decoded).value()};
}

/// Encodes `requests` as one SubQueryBatch frame: the plan-level fields
/// (query_id, table, op, arguments) once, the per-item sub_id, attempt
/// (from `attempts`), key and expected_elements as columns. Every request
/// must share the plan-level fields and `attempts` must parallel
/// `requests` (both checked). An adapter with no live caller — a gather
/// fills its SubQueryBatch directly and frames it with
/// EncodeMessageFrame, byte for byte the same frame — kept for the
/// benchmark's replay of the request encode and for sizing studies that
/// start from per-message SubQueryRequests.
void EncodeSubQueryBatch(std::span<const SubQueryRequest> requests,
                         std::span<const uint32_t> attempts,
                         uint8_t trace_flags, WireCodecKind kind,
                         const CompactCodec& registry, WireBuffer& out);

/// Decodes and validates a SubQueryBatch frame, which a node then serves
/// in place. Beyond message decoding it enforces batch-level invariants:
/// the payload's query_id matches the header's, at least one item, item
/// columns of equal length, no duplicate sub_ids (a duplicate would
/// double-fold a partial result on the master), a known operator, and
/// sub_id / attempt / expected_elements values that fit uint32. Any
/// violation is kCorruption.
Result<DecodedFrame<SubQueryBatch>> DecodeSubQueryBatch(
    std::span<const std::byte> frame, WireCodecKind kind,
    const CompactCodec& registry);

/// A decoded and validated reply frame, checked against the request
/// frame it answers.
struct DecodedReplyBatch {
  static constexpr uint32_t kAbsent = UINT32_MAX;

  uint8_t trace_flags = 0;
  SubQueryReplyBatch batch;
  /// Parallel to the request items the decode was checked against: the
  /// index of each one's answer in `batch`, or kAbsent when this frame
  /// does not answer it.
  std::vector<uint32_t> slot;
  /// Parallel to `batch`'s items: 1 when the item's checksum matched. A
  /// damaged item fails on its own; its siblings stay usable.
  std::vector<uint8_t> intact;

  /// Item `item`'s result columns, viewed in place.
  std::span<const uint64_t> col_a(size_t item) const;
  std::span<const uint64_t> col_b(size_t item) const;
};

/// Decodes a reply frame and validates it against the request frame it
/// answers: `sub_ids` / `attempts` are that request's items. Beyond the
/// header and payload checks (query_id agreement with the header and
/// with `expected_query_id`, parallel columns of equal length, result
/// offsets that fit the columns, ids that fit uint32, statuses that name
/// a StatusCode), the frame must hold at least one and
/// at most sub_ids.size() items, each a sub-query of the request with
/// the request's attempt for it, none twice. Any violation is
/// kCorruption for the whole frame. Per-item checksums are reported in
/// `intact`, not as an error.
Result<DecodedReplyBatch> DecodeReplyBatchFrame(
    std::span<const std::byte> frame, WireCodecKind kind,
    const CompactCodec& registry, uint64_t expected_query_id,
    std::span<const uint32_t> sub_ids, std::span<const uint32_t> attempts);

// The single-reply codec below has no live caller: nodes answer with
// SubQueryReplyBatch frames (EncodeMessageFrame) that the master decodes
// with DecodeReplyBatchFrame. It stays for the benchmark's replay of the
// reply encode/decode, for bench/micro_serialization and for the fuzz
// tests, until the benchmark replays the live reply frames instead.

/// A decoded and validated single-reply frame with its header context.
struct DecodedReplyFrame {
  uint8_t trace_flags = 0;
  uint32_t attempt = 0;
  SubQueryReply reply;
};

/// Encodes one SubQueryReply as a reply frame holding a batch of one:
/// `attempt` is the request's attempt ordinal and db_micros becomes the
/// item's store stamps (0 .. db_micros).
void EncodeReplyFrame(const SubQueryReply& reply, uint32_t attempt,
                      uint8_t trace_flags, WireCodecKind kind,
                      const CompactCodec& registry, WireBuffer& out);

/// Decodes a reply frame holding exactly one reply (kCorruption on
/// anything malformed, on a batch of more than one item, on a failed
/// item checksum, or on a header whose query_id disagrees with the
/// decoded reply's).
Result<DecodedReplyFrame> DecodeReplyFrame(std::span<const std::byte> frame,
                                           WireCodecKind kind,
                                           const CompactCodec& registry);

/// Decodes and validates a WriteBatch frame (sent with EncodeMessageFrame
/// under the batch's query_id). Beyond message decoding it
/// enforces batch invariants: header/payload query_id agreement, at
/// least one key, all five column vectors the same length, type ids that
/// fit uint32, tombstone flags that are 0/1, and a checksum matching
/// WriteBatchChecksum (every field). Any violation is kCorruption — a
/// damaged batch must fail before any column touches a store.
Result<DecodedFrame<WriteBatch>> DecodeWriteBatchFrame(
    std::span<const std::byte> frame, WireCodecKind kind,
    const CompactCodec& registry);

/// Decodes and validates a MigrationBlock frame (sent with
/// EncodeMessageFrame under its migration id): header/payload
/// migration_id agreement, one payload per key, and a checksum matching
/// MigrationBlockChecksum (every field). Any violation is kCorruption —
/// a damaged block must fail before any column lands on its target.
Result<MigrationBlock> DecodeMigrationBlockFrame(
    std::span<const std::byte> frame, WireCodecKind kind,
    const CompactCodec& registry);

}  // namespace kvscale
