#include "wire/envelope.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>

namespace kvscale {

std::string_view WireCodecName(WireCodecKind kind) {
  switch (kind) {
    case WireCodecKind::kTagged:
      return "tagged";
    case WireCodecKind::kCompact:
      return "compact";
  }
  return "unknown";
}

Result<WireCodecKind> ParseWireCodec(std::string_view name) {
  if (name == "tagged") return WireCodecKind::kTagged;
  if (name == "compact") return WireCodecKind::kCompact;
  return Status::InvalidArgument("unknown codec '" + std::string(name) +
                                 "' (expected tagged|compact)");
}

void EncodeFrame(WireCodecKind codec, uint64_t query_id, uint8_t trace_flags,
                 std::span<const std::byte> payload, WireBuffer& out) {
  out.WriteU16(kFrameMagic);
  out.WriteU8(kFrameVersion);
  out.WriteU8(static_cast<uint8_t>(codec));
  out.WriteU8(trace_flags);
  out.WriteVarint(query_id);
  // WriteBytes emits the varint length prefix itself.
  out.WriteBytes(payload);
}

Result<FrameParts> SplitFrame(std::span<const std::byte> frame,
                              WireCodecKind expected) {
  WireReader r(frame);
  const uint16_t magic = r.ReadU16();
  const uint8_t version = r.ReadU8();
  const uint8_t codec = r.ReadU8();
  if (!r.ok() || magic != kFrameMagic) {
    return Status::Corruption("frame: bad magic");
  }
  if (version != kFrameVersion) {
    return Status::Corruption("frame: unsupported version " +
                              std::to_string(version));
  }
  if (codec != static_cast<uint8_t>(WireCodecKind::kTagged) &&
      codec != static_cast<uint8_t>(WireCodecKind::kCompact)) {
    return Status::Corruption("frame: unknown codec id " +
                              std::to_string(codec));
  }
  if (codec != static_cast<uint8_t>(expected)) {
    return Status::Corruption(
        "frame: codec mismatch (frame is " +
        std::string(WireCodecName(static_cast<WireCodecKind>(codec))) +
        ", decoder expected " + std::string(WireCodecName(expected)) + ")");
  }
  const uint8_t trace_flags = r.ReadU8();
  if (!r.ok()) return Status::Corruption("frame: truncated trace flags");
  if ((trace_flags & ~kTraceFlagsMask) != 0) {
    return Status::Corruption("frame: unknown trace flag bits " +
                              std::to_string(trace_flags & ~kTraceFlagsMask));
  }
  FrameParts parts;
  parts.query_id = r.ReadVarint();
  if (!r.ok()) return Status::Corruption("frame: bad query id");
  parts.trace_flags = trace_flags;
  const uint64_t length = r.ReadVarint();
  if (!r.ok()) return Status::Corruption("frame: bad length prefix");
  if (length > r.remaining()) {
    return Status::Corruption("frame: length prefix " + std::to_string(length) +
                              " overruns the frame");
  }
  if (length < r.remaining()) return Status::Corruption("frame: trailing bytes");
  parts.payload = frame.subspan(frame.size() - r.remaining());
  return parts;
}

void EncodeSubQueryBatch(std::span<const SubQueryRequest> requests,
                         std::span<const uint32_t> attempts,
                         uint8_t trace_flags, WireCodecKind kind,
                         const CompactCodec& registry, WireBuffer& out) {
  KV_CHECK(attempts.size() == requests.size());
  SubQueryBatch batch;
  if (!requests.empty()) {
    const SubQueryRequest& plan = requests.front();
    batch.query_id = plan.query_id;
    batch.table = plan.table;
    batch.op = plan.op;
    batch.arg_lo = plan.arg_lo;
    batch.arg_hi = plan.arg_hi;
    batch.arg_limit = plan.arg_limit;
  }
  batch.sub_ids.reserve(requests.size());
  batch.attempts.assign(attempts.begin(), attempts.end());
  batch.keys.reserve(requests.size());
  batch.expected_elements.reserve(requests.size());
  for (const SubQueryRequest& req : requests) {
    // One plan per frame: only the per-item columns may differ.
    KV_CHECK(req.query_id == batch.query_id && req.table == batch.table &&
             req.op == batch.op && req.arg_lo == batch.arg_lo &&
             req.arg_hi == batch.arg_hi && req.arg_limit == batch.arg_limit);
    batch.sub_ids.push_back(req.sub_id);
    batch.keys.push_back(req.partition_key);
    batch.expected_elements.push_back(req.expected_elements);
  }
  EncodeMessageFrame(batch, batch.query_id, trace_flags, kind, registry, out);
}

Result<DecodedFrame<SubQueryBatch>> DecodeSubQueryBatch(
    std::span<const std::byte> frame, WireCodecKind kind,
    const CompactCodec& registry) {
  auto decoded = DecodeMessageFrame<SubQueryBatch>(frame, kind, registry);
  if (!decoded.ok()) return decoded.status();
  const SubQueryBatch& batch = decoded.value().msg;
  if (batch.query_id != decoded.value().query_id) {
    return Status::Corruption("batch: payload query_id " +
                              std::to_string(batch.query_id) +
                              " disagrees with the header's " +
                              std::to_string(decoded.value().query_id));
  }
  const size_t n = batch.size();
  if (n == 0) return Status::Corruption("batch: empty frame");
  if (batch.attempts.size() != n || batch.keys.size() != n ||
      batch.expected_elements.size() != n) {
    return Status::Corruption("batch: item columns disagree on length");
  }
  if (!IsKnownQueryOp(batch.op)) {
    return Status::Corruption("batch: unknown operator id " +
                              std::to_string(batch.op));
  }
  constexpr uint64_t kMaxU32 = std::numeric_limits<uint32_t>::max();
  std::unordered_set<uint64_t> seen_sub_ids;
  seen_sub_ids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (batch.sub_ids[i] > kMaxU32 || batch.attempts[i] > kMaxU32 ||
        batch.expected_elements[i] > kMaxU32) {
      return Status::Corruption("batch: item value out of range");
    }
    if (!seen_sub_ids.insert(batch.sub_ids[i]).second) {
      return Status::Corruption("batch: duplicate sub_id " +
                                std::to_string(batch.sub_ids[i]));
    }
  }
  return decoded;
}

namespace {

/// Decodes a reply frame and checks everything that does not depend on
/// the request it answers: header/payload agreement, at least one item,
/// parallel columns, result offsets.
Result<DecodedFrame<SubQueryReplyBatch>> DecodeReplyBatchPayload(
    std::span<const std::byte> frame, WireCodecKind kind,
    const CompactCodec& registry) {
  auto decoded = DecodeMessageFrame<SubQueryReplyBatch>(frame, kind, registry);
  if (!decoded.ok()) return decoded.status();
  const SubQueryReplyBatch& batch = decoded.value().msg;
  if (batch.query_id != decoded.value().query_id) {
    return Status::Corruption("reply frame: payload query_id " +
                              std::to_string(batch.query_id) +
                              " disagrees with the header's " +
                              std::to_string(decoded.value().query_id));
  }
  const size_t n = batch.sub_ids.size();
  if (n == 0) return Status::Corruption("reply frame: no items");
  if (batch.attempts.size() != n || batch.statuses.size() != n ||
      batch.db_start_ns.size() != n || batch.db_end_ns.size() != n ||
      batch.a_ends.size() != n || batch.b_ends.size() != n ||
      batch.checksums.size() != n) {
    return Status::Corruption("reply frame: item columns disagree on length");
  }
  for (size_t i = 0; i < n; ++i) {
    const uint64_t a_begin = i == 0 ? 0 : batch.a_ends[i - 1];
    const uint64_t b_begin = i == 0 ? 0 : batch.b_ends[i - 1];
    if (batch.a_ends[i] < a_begin || batch.b_ends[i] < b_begin) {
      return Status::Corruption("reply frame: result offsets go backwards");
    }
    if (batch.db_end_ns[i] < batch.db_start_ns[i]) {
      return Status::Corruption("reply frame: item stamps go backwards");
    }
    if (batch.sub_ids[i] > std::numeric_limits<uint32_t>::max() ||
        batch.attempts[i] > std::numeric_limits<uint32_t>::max()) {
      return Status::Corruption("reply frame: item id out of range");
    }
    // Read back as a StatusCode, an unnamed value would fold as data (a
    // status of 2^32 truncates to kOk).
    if (!IsKnownStatusCode(batch.statuses[i])) {
      return Status::Corruption("reply frame: unknown status " +
                                std::to_string(batch.statuses[i]));
    }
  }
  if (batch.a_ends.back() != batch.col_a.size() ||
      batch.b_ends.back() != batch.col_b.size()) {
    return Status::Corruption("reply frame: result offsets overrun");
  }
  return decoded;
}

}  // namespace

std::span<const uint64_t> DecodedReplyBatch::col_a(size_t item) const {
  const uint64_t begin = item == 0 ? 0 : batch.a_ends[item - 1];
  return std::span<const uint64_t>(batch.col_a)
      .subspan(begin, batch.a_ends[item] - begin);
}

std::span<const uint64_t> DecodedReplyBatch::col_b(size_t item) const {
  const uint64_t begin = item == 0 ? 0 : batch.b_ends[item - 1];
  return std::span<const uint64_t>(batch.col_b)
      .subspan(begin, batch.b_ends[item] - begin);
}

Result<DecodedReplyBatch> DecodeReplyBatchFrame(
    std::span<const std::byte> frame, WireCodecKind kind,
    const CompactCodec& registry, uint64_t expected_query_id,
    std::span<const uint32_t> sub_ids, std::span<const uint32_t> attempts) {
  KV_CHECK(sub_ids.size() == attempts.size());
  auto decoded = DecodeReplyBatchPayload(frame, kind, registry);
  if (!decoded.ok()) return decoded.status();
  DecodedReplyBatch out;
  out.trace_flags = decoded.value().trace_flags;
  out.batch = std::move(decoded.value().msg);
  const SubQueryReplyBatch& batch = out.batch;
  if (batch.query_id != expected_query_id) {
    return Status::Corruption(
        "reply frame: demux mismatch (reply names query " +
        std::to_string(batch.query_id) + ", channel belongs to " +
        std::to_string(expected_query_id) + ")");
  }
  const size_t n = batch.sub_ids.size();
  if (n > sub_ids.size()) {
    return Status::Corruption("reply frame: " + std::to_string(n) +
                              " items answer a request of " +
                              std::to_string(sub_ids.size()));
  }
  out.slot.assign(sub_ids.size(), DecodedReplyBatch::kAbsent);
  // Nodes answer in request order, so item i usually answers request
  // item i; anything else is looked up.
  std::unordered_map<uint32_t, uint32_t> position;
  for (size_t i = 0; i < n; ++i) {
    const auto sub_id = static_cast<uint32_t>(batch.sub_ids[i]);
    size_t at = i;
    if (sub_ids[i] != sub_id) {
      if (position.empty()) {
        for (size_t k = 0; k < sub_ids.size(); ++k) {
          position.emplace(sub_ids[k], static_cast<uint32_t>(k));
        }
      }
      const auto it = position.find(sub_id);
      if (it == position.end()) {
        return Status::Corruption("reply frame: sub_id " +
                                  std::to_string(sub_id) +
                                  " is not in the request frame");
      }
      at = it->second;
    }
    if (out.slot[at] != DecodedReplyBatch::kAbsent) {
      return Status::Corruption("reply frame: duplicate sub_id " +
                                std::to_string(sub_id));
    }
    if (batch.attempts[i] != attempts[at]) {
      return Status::Corruption(
          "reply frame: sub_id " + std::to_string(sub_id) + " answers attempt " +
          std::to_string(batch.attempts[i]) + ", the request sent " +
          std::to_string(attempts[at]));
    }
    out.slot[at] = static_cast<uint32_t>(i);
  }
  out.intact.resize(n);
  for (size_t i = 0; i < n; ++i) {
    out.intact[i] = ReplyItemChecksum(batch, i) == batch.checksums[i] ? 1 : 0;
  }
  return out;
}

void EncodeReplyFrame(const SubQueryReply& reply, uint32_t attempt,
                      uint8_t trace_flags, WireCodecKind kind,
                      const CompactCodec& registry, WireBuffer& out) {
  SubQueryReplyBatch batch;
  batch.query_id = reply.query_id;
  batch.node = reply.node;
  batch.sub_ids = {reply.sub_id};
  batch.attempts = {attempt};
  batch.statuses = {reply.status};
  batch.db_start_ns = {0};
  batch.db_end_ns = {static_cast<uint64_t>(
      std::llround(std::max(reply.db_micros, 0.0) * 1000.0))};
  batch.a_ends = {reply.type_ids.size()};
  batch.b_ends = {reply.counts.size()};
  batch.col_a = reply.type_ids;
  batch.col_b = reply.counts;
  batch.checksums = {ReplyItemChecksum(batch, 0)};
  EncodeMessageFrame(batch, batch.query_id, trace_flags, kind, registry, out);
}

Result<DecodedReplyFrame> DecodeReplyFrame(std::span<const std::byte> frame,
                                           WireCodecKind kind,
                                           const CompactCodec& registry) {
  auto decoded = DecodeReplyBatchPayload(frame, kind, registry);
  if (!decoded.ok()) return decoded.status();
  SubQueryReplyBatch& batch = decoded.value().msg;
  if (batch.sub_ids.size() != 1) {
    return Status::Corruption("reply frame: expected exactly one reply");
  }
  if (ReplyItemChecksum(batch, 0) != batch.checksums[0]) {
    return Status::Corruption("reply frame: item checksum mismatch");
  }
  DecodedReplyFrame out;
  out.trace_flags = decoded.value().trace_flags;
  out.attempt = static_cast<uint32_t>(batch.attempts[0]);
  out.reply.query_id = batch.query_id;
  out.reply.sub_id = static_cast<uint32_t>(batch.sub_ids[0]);
  out.reply.node = batch.node;
  out.reply.status = static_cast<uint32_t>(batch.statuses[0]);
  out.reply.type_ids = std::move(batch.col_a);
  out.reply.counts = std::move(batch.col_b);
  out.reply.db_micros =
      static_cast<double>(batch.db_end_ns[0] - batch.db_start_ns[0]) / 1000.0;
  return out;
}

Result<DecodedFrame<WriteBatch>> DecodeWriteBatchFrame(
    std::span<const std::byte> frame, WireCodecKind kind,
    const CompactCodec& registry) {
  auto decoded = DecodeMessageFrame<WriteBatch>(frame, kind, registry);
  if (!decoded.ok()) return decoded.status();
  const WriteBatch& batch = decoded.value().msg;
  if (batch.query_id != decoded.value().query_id) {
    return Status::Corruption(
        "write batch: payload query_id " + std::to_string(batch.query_id) +
        " disagrees with the header's " +
        std::to_string(decoded.value().query_id));
  }
  if (batch.keys.empty()) {
    return Status::Corruption("write batch: no keys");
  }
  if (batch.clusterings.size() != batch.keys.size() ||
      batch.type_ids.size() != batch.keys.size() ||
      batch.tombstones.size() != batch.keys.size() ||
      batch.payloads.size() != batch.keys.size()) {
    return Status::Corruption(
        "write batch: column vectors disagree on length (" +
        std::to_string(batch.keys.size()) + " keys, " +
        std::to_string(batch.clusterings.size()) + " clusterings, " +
        std::to_string(batch.type_ids.size()) + " type_ids, " +
        std::to_string(batch.tombstones.size()) + " tombstones, " +
        std::to_string(batch.payloads.size()) + " payloads)");
  }
  for (size_t i = 0; i < batch.keys.size(); ++i) {
    if (batch.type_ids[i] > std::numeric_limits<uint32_t>::max()) {
      return Status::Corruption("write batch: type_id " +
                                std::to_string(batch.type_ids[i]) +
                                " does not fit uint32");
    }
    if (batch.tombstones[i] > 1) {
      return Status::Corruption("write batch: tombstone flag " +
                                std::to_string(batch.tombstones[i]) +
                                " is not 0/1");
    }
  }
  if (WriteBatchChecksum(batch) != batch.checksum) {
    return Status::Corruption("write batch: checksum mismatch");
  }
  return decoded;
}

Result<MigrationBlock> DecodeMigrationBlockFrame(
    std::span<const std::byte> frame, WireCodecKind kind,
    const CompactCodec& registry) {
  auto decoded = DecodeMessageFrame<MigrationBlock>(frame, kind, registry);
  if (!decoded.ok()) return decoded.status();
  const MigrationBlock& block = decoded.value().msg;
  if (block.migration_id != decoded.value().query_id) {
    return Status::Corruption(
        "migration block: payload migration_id " +
        std::to_string(block.migration_id) + " disagrees with the header's " +
        std::to_string(decoded.value().query_id));
  }
  if (block.keys.size() != block.payloads.size()) {
    return Status::Corruption("migration block: " +
                              std::to_string(block.keys.size()) + " keys, " +
                              std::to_string(block.payloads.size()) +
                              " payloads");
  }
  if (MigrationBlockChecksum(block) != block.checksum) {
    return Status::Corruption("migration block: checksum mismatch");
  }
  return std::move(decoded.value().msg);
}

}  // namespace kvscale
