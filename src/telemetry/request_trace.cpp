#include "telemetry/request_trace.hpp"

namespace kvscale {

std::string_view StageName(Stage stage) {
  switch (stage) {
    case Stage::kMasterToSlave:
      return "master-to-slave";
    case Stage::kInQueue:
      return "in-queue";
    case Stage::kInDb:
      return "in-db";
    case Stage::kSlaveToMaster:
      return "slave-to-master";
  }
  return "?";
}

Micros RequestTrace::StageDuration(Stage stage) const {
  switch (stage) {
    case Stage::kMasterToSlave:
      return received - issued;
    case Stage::kInQueue:
      return db_start - received;
    case Stage::kInDb:
      return db_end - db_start;
    case Stage::kSlaveToMaster:
      return completed - db_end;
  }
  return 0.0;
}

RequestTrace::ReplySplit RequestTrace::SlaveToMasterSplit() const {
  // A record without reply stamps (zero) charges the whole stage to the
  // fold, the one step every path has.
  const Micros encoded = reply_encoded > 0.0 ? reply_encoded : db_end;
  const Micros dequeued = reply_dequeued > 0.0 ? reply_dequeued : encoded;
  const Micros decoded = reply_decoded > 0.0 ? reply_decoded : dequeued;
  ReplySplit split;
  split.encode = encoded - db_end;
  split.residency = dequeued - encoded;
  split.decode = decoded - dequeued;
  split.fold = completed - decoded;
  return split;
}

}  // namespace kvscale
