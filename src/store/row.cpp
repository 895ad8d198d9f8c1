#include "store/row.hpp"

#include "common/check.hpp"
#include "common/rng.hpp"

namespace kvscale {

namespace {

void EncodeColumn(const Column& c, uint64_t& prev, WireBuffer& out) {
  KV_DCHECK(c.clustering >= prev);
  out.WriteVarint(c.clustering - prev);
  prev = c.clustering;
  out.WriteU8(c.tombstone ? 1 : 0);
  out.WriteVarint(c.type_id);
  out.WriteBytes(c.payload);
}

}  // namespace

void EncodeColumns(const std::vector<Column>& columns, WireBuffer& out) {
  out.WriteVarint(columns.size());
  uint64_t prev = 0;
  for (const Column& c : columns) EncodeColumn(c, prev, out);
}

void EncodeColumnRefs(std::span<const Column* const> columns, WireBuffer& out) {
  out.WriteVarint(columns.size());
  uint64_t prev = 0;
  for (const Column* c : columns) EncodeColumn(*c, prev, out);
}

Result<std::vector<Column>> DecodeColumns(std::span<const std::byte> data) {
  WireReader r(data);
  const uint64_t count = r.ReadVarint();
  if (!r.ok()) return r.status();
  // Guard against corrupted counts before reserving memory.
  if (count > data.size()) return Status::Corruption("column count too large");
  std::vector<Column> out;
  out.reserve(count);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    Column c;
    prev += r.ReadVarint();
    c.clustering = prev;
    const uint8_t flags = r.ReadU8();
    if (flags > 1) return Status::Corruption("bad column flags");
    c.tombstone = flags == 1;
    c.type_id = static_cast<uint32_t>(r.ReadVarint());
    c.payload = r.ReadBytes();
    if (!r.ok()) return r.status();
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<std::byte> MakePayload(uint64_t seed, uint64_t clustering,
                                   size_t payload_bytes) {
  std::vector<std::byte> payload(payload_bytes);
  uint64_t state = seed ^ (clustering * 0x9e3779b97f4a7c15ULL);
  for (size_t i = 0; i < payload_bytes; i += 8) {
    const uint64_t word = SplitMix64(state);
    for (size_t j = 0; j < 8 && i + j < payload_bytes; ++j) {
      payload[i + j] = static_cast<std::byte>((word >> (8 * j)) & 0xff);
    }
  }
  return payload;
}

}  // namespace kvscale
