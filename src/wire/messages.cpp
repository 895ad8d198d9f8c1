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

namespace {

/// FNV-1a-style mixing for the message checksums: numbers fold in one
/// 64-bit word at a time, strings byte by byte after their length, and
/// every list after its size, so no two field layouts can collide by
/// concatenation. Each step is a bijection of the running hash, so a
/// single changed field always changes the result.
class ChecksumMix {
 public:
  void Word(uint64_t word) {
    h_ ^= word;
    h_ *= kPrime;
  }
  void Bytes(std::string_view bytes) {
    Word(bytes.size());
    for (const char c : bytes) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= kPrime;
    }
  }
  void Words(const std::vector<uint64_t>& words) {
    Word(words.size());
    for (const uint64_t word : words) Word(word);
  }
  void Strings(const std::vector<std::string>& strings) {
    Word(strings.size());
    for (const std::string& s : strings) Bytes(s);
  }
  uint64_t value() const { return h_; }

 private:
  static constexpr uint64_t kPrime = 0x100000001b3ULL;
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

uint64_t MigrationBlockChecksum(const MigrationBlock& block) {
  ChecksumMix mix;
  mix.Word(block.migration_id);
  mix.Word(block.seq);
  mix.Word(block.source);
  mix.Word(block.target);
  mix.Bytes(block.table);
  mix.Strings(block.keys);
  mix.Strings(block.payloads);
  return mix.value();
}

uint64_t WriteBatchChecksum(const WriteBatch& batch) {
  ChecksumMix mix;
  mix.Word(batch.query_id);
  mix.Word(batch.sub_id);
  mix.Word(batch.attempt);
  mix.Word(batch.target);
  mix.Bytes(batch.table);
  mix.Strings(batch.keys);
  mix.Words(batch.clusterings);
  mix.Words(batch.type_ids);
  mix.Words(batch.tombstones);
  mix.Strings(batch.payloads);
  return mix.value();
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

size_t SubQueryRequestBytes(const CompactCodec* registry, uint64_t query_id,
                            uint32_t sub_id, std::string_view table,
                            std::string_view key, uint32_t elements) {
  SubQueryRequest request;
  request.query_id = query_id;
  request.sub_id = sub_id;
  request.table = table;
  request.partition_key = key;
  request.expected_elements = elements;
  WireBuffer buf;
  if (registry != nullptr) {
    registry->Encode(request, buf);
  } else {
    TaggedCodec::Encode(request, buf);
  }
  return buf.size();
}

}  // namespace kvscale
