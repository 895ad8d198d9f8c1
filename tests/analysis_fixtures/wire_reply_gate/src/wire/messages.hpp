// Fixture: a batched reply message, perfectly symmetric, whose decode
// path (envelope.cpp) never verifies the per-item checksums. The
// wire-drift pass must report exactly one wire-reply-gate finding.
// Never compiled.
#pragma once

struct SubQueryReplyBatch {
  static constexpr std::string_view kTypeName = "reply_batch";

  uint64_t query_id = 0;
  std::vector<uint64_t> sub_ids;
  std::vector<uint64_t> checksums;

  template <typename V>
  void Visit(V& v) {
    v.Field("query_id", query_id);
    v.Field("sub_ids", sub_ids);
    v.Field("checksums", checksums);
  }
};
