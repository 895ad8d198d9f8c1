// Per-request stage timing (Section IV-B / V-B of the paper).
//
// "the best approach is to identify the primary data flow phases and to
// record the time that requests spend in each of them". Every sub-query
// carries five timestamps delimiting the four stages the paper defines:
//
//   issued --(1 master-to-slave)--> received --(2 in-queue)--> db_start
//   --(3 in-db)--> db_end --(4 slave-to-master)--> completed
//
// On the real message path the slave-to-master stage splits four ways, by
// three more stamps: reply encode (db_end -> reply_encoded: the node
// serves the rest of the reply frame and encodes it), reply residency
// (-> reply_dequeued: the frame waits on the query's reply channel),
// master decode (-> reply_decoded: the whole frame is decoded once) and
// fold (-> completed: the master folds the frame's answers in order).
// They are fields, not Stage values: the four stages stay the paper's.
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
  // Inside slave-to-master; equal to db_end where a path has no such
  // step (the simulators, the inline transport).
  Micros reply_encoded = 0.0;   ///< node finished encoding the reply frame
  Micros reply_dequeued = 0.0;  ///< master took the frame off its channel
  Micros reply_decoded = 0.0;   ///< master finished decoding the frame

  /// The slave-to-master stage split over the reply path; the four parts
  /// sum to StageDuration(Stage::kSlaveToMaster).
  struct ReplySplit {
    Micros encode = 0.0;
    Micros residency = 0.0;
    Micros decode = 0.0;
    Micros fold = 0.0;
  };
  ReplySplit SlaveToMasterSplit() const;

  Micros StageDuration(Stage stage) const;
  Micros TotalLatency() const { return completed - issued; }
};

}  // namespace kvscale
