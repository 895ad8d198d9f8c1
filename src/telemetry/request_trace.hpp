// Per-request stage timing (Section IV-B / V-B of the paper).
//
// "the best approach is to identify the primary data flow phases and to
// record the time that requests spend in each of them". Every sub-query
// carries five timestamps delimiting the four stages the paper defines:
//
//   issued --(1 master-to-slave)--> received --(2 in-queue)--> db_start
//   --(3 in-db)--> db_end --(4 slave-to-master)--> completed
//
// RequestTrace is the one per-sub-query stage record: the simulators and
// the real data path feed it to StageTracer (trace/stage_trace.hpp), and
// the flight recorder keeps one per sub-query in every QueryRecord.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/units.hpp"

namespace kvscale {

/// The four data-flow stages of a sub-query.
enum class Stage : uint8_t {
  kMasterToSlave = 0,
  kInQueue = 1,
  kInDb = 2,
  kSlaveToMaster = 3,
};
inline constexpr size_t kStageCount = 4;

std::string_view StageName(Stage stage);

/// Timestamped record of one sub-query's life.
struct RequestTrace {
  uint64_t query_id = 0;
  uint32_t sub_id = 0;
  uint32_t node = 0;       ///< slave that served it (or was last tried)
  double keysize = 0.0;    ///< elements in the partition
  uint32_t attempts = 0;   ///< attempts it took (1 = first try succeeded)
  bool answered = false;   ///< settled with an answer (data or a clean miss)

  Micros issued = 0.0;     ///< master handed the message to the transport
  Micros received = 0.0;   ///< slave dequeued it from the network
  Micros db_start = 0.0;   ///< database began serving it
  Micros db_end = 0.0;     ///< database finished
  Micros completed = 0.0;  ///< master folded the partial result

  Micros StageDuration(Stage stage) const;
  Micros TotalLatency() const { return completed - issued; }
};

}  // namespace kvscale
