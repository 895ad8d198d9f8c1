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

}  // namespace kvscale
