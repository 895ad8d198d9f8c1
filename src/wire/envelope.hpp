// Framed message envelopes for the node runtime's real message path.
//
// The codecs (codec.hpp) encode a single message; the runtime ships
// *frames*: a fixed header naming the codec that produced the payload,
// followed by length-prefixed message payloads. Framing buys three things
// the paper's prototype relied on its RPC stack for:
//
//   * batching — one frame coalesces every sub-query bound for a node
//     (the natural next optimization after the paper's Kryo switch, see
//     ClusterConfig::send_batch_size for the modelled version);
//   * codec negotiation — a frame self-identifies as Tagged or Compact,
//     so feeding bytes to the wrong decoder is a clean Status error, not
//     silent garbage (the Java-vs-Kryo axis must never cross-decode);
//   * robustness — every length prefix is validated against the bytes
//     actually present before any allocation, so truncated or hostile
//     frames fail with kCorruption instead of crashing or OOMing.
//
// Version 2 adds trace context to the envelope so node-side worker spans
// can be causally linked to the query that issued them without trusting
// the payloads: the frame names its owning query and flags, and every
// item carries its sub-query id and attempt ordinal alongside the
// payload. The decoder cross-checks the envelope context against the
// decoded payloads — a frame whose wire metadata disagrees with its
// contents is kCorruption, exactly like a bad length prefix.
//
// A reply frame carries one SubQueryReplyBatch item: the answers to the
// sub-queries of one request frame (or the ack of one WriteBatch frame)
// as parallel columns, each with its own checksum, so a damaged answer
// fails over alone while a damaged envelope fails over the whole frame.
//
// Frame layout (version 2):
//   [u16 magic 0xFAB1][u8 version][u8 codec][u8 trace_flags]
//   [varint query_id][varint count]
//   count x { [varint sub_id][varint attempt][varint length][payload] }
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
inline constexpr uint8_t kFrameVersion = 2;

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

/// One decoded frame item: the wire-level trace coordinates plus a view
/// into the frame's payload bytes.
struct FrameItem {
  uint32_t sub_id = 0;
  uint32_t attempt = 0;
  std::span<const std::byte> payload;
};

/// A split frame: the envelope's trace context plus its items (payload
/// spans view into the original frame buffer).
struct FrameParts {
  uint64_t query_id = 0;
  uint8_t trace_flags = 0;
  std::vector<FrameItem> items;
};

/// Appends a frame holding `items` (each an already-encoded message) to
/// `out`. `sub_ids` and `attempts` must parallel `items` — they are the
/// wire-level trace coordinates of each payload.
void EncodeFrame(WireCodecKind codec, uint64_t query_id, uint8_t trace_flags,
                 std::span<const uint32_t> sub_ids,
                 std::span<const uint32_t> attempts,
                 std::span<const WireBuffer> items, WireBuffer& out);

/// Splits a frame into its trace context and payload spans (views into
/// `frame`). Fails with kCorruption on a bad header, unknown trace-flag
/// bits, a count / length / id prefix that does not fit the bytes
/// present, or trailing garbage; fails with kCorruption ("codec
/// mismatch") when the frame was produced by a codec other than
/// `expected`. Never allocates proportionally to a claimed length, only
/// to bytes actually present.
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

/// A decoded and validated SubQueryBatch frame: the envelope trace
/// context plus the requests with their wire attempt ordinals.
struct DecodedSubQueryBatch {
  uint64_t query_id = 0;
  uint8_t trace_flags = 0;
  std::vector<SubQueryRequest> requests;
  std::vector<uint32_t> attempts;  ///< parallel to `requests`
};

/// Encodes a SubQueryBatch frame: every request encoded with `kind`, then
/// framed with the envelope trace context (query_id from the requests,
/// sub_ids from each request, attempt ordinals from `attempts`). A batch
/// of one is how single sub-queries travel too.
void EncodeSubQueryBatch(std::span<const SubQueryRequest> requests,
                         std::span<const uint32_t> attempts,
                         uint8_t trace_flags, WireCodecKind kind,
                         const CompactCodec& registry, WireBuffer& out);

/// Decodes and validates a SubQueryBatch frame. Beyond per-message
/// decoding it enforces batch-level invariants: at least one request, no
/// duplicate sub_ids (a duplicate would double-fold a partial result on
/// the master), and envelope/payload agreement — every payload's
/// query_id must match the frame's and every payload's sub_id must match
/// its wire item's. Any violation is kCorruption.
Result<DecodedSubQueryBatch> DecodeSubQueryBatch(
    std::span<const std::byte> frame, WireCodecKind kind,
    const CompactCodec& registry);

/// Encodes a SubQueryReplyBatch as a reply frame: one envelope item
/// carrying the whole batch, named by the batch's first sub-query id and
/// attempt (the envelope/payload agreement the decoders check).
void EncodeReplyBatchFrame(const SubQueryReplyBatch& batch,
                           uint8_t trace_flags, WireCodecKind kind,
                           const CompactCodec& registry, WireBuffer& out);

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
/// envelope and payload checks (query_id agreement with the envelope and
/// with `expected_query_id`, parallel columns of equal length, result
/// offsets that fit the columns), the frame must hold at least one and
/// at most sub_ids.size() items, each a sub-query of the request with
/// the request's attempt for it, none twice. Any violation is
/// kCorruption for the whole frame. Per-item checksums are reported in
/// `intact`, not as an error.
Result<DecodedReplyBatch> DecodeReplyBatchFrame(
    std::span<const std::byte> frame, WireCodecKind kind,
    const CompactCodec& registry, uint64_t expected_query_id,
    std::span<const uint32_t> sub_ids, std::span<const uint32_t> attempts);

/// A decoded and validated single-reply frame with its envelope context.
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
/// anything malformed, on a frame of more than one item, on a failed
/// item checksum, or on an envelope whose query_id/sub_id disagree with
/// the decoded reply's).
Result<DecodedReplyFrame> DecodeReplyFrame(std::span<const std::byte> frame,
                                           WireCodecKind kind,
                                           const CompactCodec& registry);

/// A decoded and validated WriteBatch frame with its envelope context.
/// One frame carries exactly one WriteBatch (the batch already coalesces
/// many keys, unlike sub-queries which coalesce per frame).
struct DecodedWriteBatchFrame {
  uint8_t trace_flags = 0;
  uint32_t attempt = 0;
  WriteBatch batch;
};

/// Encodes one WriteBatch as a single-item frame; the envelope echoes
/// the batch's query_id/sub_id plus the attempt ordinal and trace flags.
void EncodeWriteBatchFrame(const WriteBatch& batch, uint32_t attempt,
                           uint8_t trace_flags, WireCodecKind kind,
                           const CompactCodec& registry, WireBuffer& out);

/// Decodes and validates a WriteBatch frame. Beyond per-message decoding
/// it enforces batch invariants: exactly one payload, envelope/payload
/// query_id and sub_id agreement, at least one key, all five column
/// vectors the same length, type ids that fit uint32, tombstone flags
/// that are 0/1, and a payload checksum matching the MigrationBlock
/// recipe. Any violation is kCorruption — a damaged batch must fail
/// before any column touches a store.
Result<DecodedWriteBatchFrame> DecodeWriteBatchFrame(
    std::span<const std::byte> frame, WireCodecKind kind,
    const CompactCodec& registry);

}  // namespace kvscale
