// Fixture: the reply batch is registered. Never compiled.
#include "messages.hpp"

void RegisterClusterMessages(CompactCodec& codec) {
  codec.Register<SubQueryReplyBatch>();
}
