#include "wire/messages.hpp"

namespace kvscale {

void RegisterClusterMessages(CompactCodec& codec) {
  codec.Register<SubQueryRequest>();
  codec.Register<PartialResult>();
  codec.Register<SubQueryReply>();
  codec.Register<MigrationBlock>();
  codec.Register<WriteBatch>();
  codec.Register<SubQueryReplyBatch>();
  codec.Register<SubQueryBatch>();
}

uint64_t MigrationBlockChecksum(const std::vector<std::string>& payloads) {
  // FNV-1a chained across payloads, folding each payload's length in
  // first so ("ab","c") and ("a","bc") can never collide by
  // concatenation.
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t byte) {
    h ^= byte & 0xffU;
    h *= 0x100000001b3ULL;
  };
  for (const std::string& payload : payloads) {
    for (uint64_t len = payload.size();; len >>= 7) {
      mix((len & 0x7fU) | (len >= 0x80 ? 0x80U : 0U));
      if (len < 0x80) break;
    }
    for (const char c : payload) mix(static_cast<unsigned char>(c));
  }
  return h;
}

uint64_t ReplyItemChecksum(const SubQueryReplyBatch& batch, size_t item) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t word) {
    h ^= word;
    h *= 0x100000001b3ULL;
  };
  mix(batch.sub_ids[item]);
  mix(batch.attempts[item]);
  mix(batch.statuses[item]);
  mix(batch.db_start_ns[item]);
  mix(batch.db_end_ns[item]);
  const uint64_t a_begin = item == 0 ? 0 : batch.a_ends[item - 1];
  const uint64_t b_begin = item == 0 ? 0 : batch.b_ends[item - 1];
  mix(batch.a_ends[item] - a_begin);
  for (uint64_t k = a_begin; k < batch.a_ends[item]; ++k) mix(batch.col_a[k]);
  mix(batch.b_ends[item] - b_begin);
  for (uint64_t k = b_begin; k < batch.b_ends[item]; ++k) mix(batch.col_b[k]);
  return h;
}

SubQueryRequest MakeRepresentativeSubQuery(uint64_t query_id, uint32_t sub_id,
                                           uint32_t elements) {
  SubQueryRequest req;
  req.query_id = query_id;
  req.sub_id = sub_id;
  req.table = "alya.particles_d8";
  req.partition_key =
      "cube:" + std::to_string(sub_id % 8) + ":" + std::to_string(sub_id);
  req.expected_elements = elements;
  return req;
}

}  // namespace kvscale
