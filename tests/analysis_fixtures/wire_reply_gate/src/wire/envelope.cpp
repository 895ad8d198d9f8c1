// Fixture: decodes a reply batch and trusts every item. Never compiled.
#include "envelope.hpp"

Status DecodeReplyBatch(WireReader& r, SubQueryReplyBatch& out) {
  out.query_id = r.ReadU64();
  return Status::Ok();
}
