// StageTracer: the collector of per-request stage records
// (telemetry/request_trace.hpp) — the paper's four-stage timeline of every
// sub-query, summarised per stage and per node (Section IV-B / V-B).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.hpp"
#include "common/units.hpp"
#include "stats/summary.hpp"
#include "telemetry/request_trace.hpp"

namespace kvscale {

/// Collects the traces of one distributed query execution.
///
/// Recording is thread-safe: concurrent gathers sharing one runtime all
/// record into the same tracer. The read-side accessors are not locked —
/// they assume recording has quiesced (every recording thread joined),
/// which every consumer (reports, exports, tests) already guarantees.
class StageTracer {
 public:
  StageTracer() = default;
  // The mutex pins copies/moves, so transfer just the recorded traces.
  // Transferring a tracer while another thread records into it is a
  // contract violation (same quiescence rule as the read side).
  StageTracer(const StageTracer& other) : traces_(other.Snapshot()) {}
  StageTracer(StageTracer&& other) noexcept : traces_(other.Take()) {}
  StageTracer& operator=(const StageTracer& other) {
    if (this != &other) Replace(other.Snapshot());
    return *this;
  }
  StageTracer& operator=(StageTracer&& other) noexcept {
    if (this != &other) Replace(other.Take());
    return *this;
  }

  void Record(RequestTrace trace) {
    MutexLock lock(mu_);
    traces_.push_back(trace);
  }
  void Clear() {
    MutexLock lock(mu_);
    traces_.clear();
  }

  const std::vector<RequestTrace>& traces() const { return traces_; }
  size_t size() const {
    MutexLock lock(mu_);
    return traces_.size();
  }

  /// Makespan: last completion minus first issue (0 when empty).
  Micros Makespan() const;

  /// Stage-duration summary across all requests.
  RunningSummary StageSummary(Stage stage) const;

  /// Stage-duration summary for one node.
  RunningSummary StageSummaryForNode(Stage stage, uint32_t node) const;

  /// Per-request durations of one stage, in trace order (feed to
  /// Percentile / PercentileSorted for order statistics).
  std::vector<double> StageDurations(Stage stage) const;

  /// Requests served per node, indexed by node id (size = max node + 1).
  std::vector<uint64_t> RequestsPerNode() const;

  /// Last db_end per node (the per-node finish line of Figure 2).
  std::vector<Micros> NodeFinishTimes() const;

  /// Human-readable per-stage table.
  std::string SummaryReport() const;

 private:
  std::vector<RequestTrace> Snapshot() const {
    MutexLock lock(mu_);
    return traces_;
  }
  std::vector<RequestTrace> Take() {
    MutexLock lock(mu_);
    return std::move(traces_);
  }
  void Replace(std::vector<RequestTrace> traces) {
    MutexLock lock(mu_);
    traces_ = std::move(traces);
  }

  mutable Mutex mu_;
  // Deliberately not KV_GUARDED_BY(mu_): the read-side methods are
  // unlocked by contract (recording must have quiesced first).
  std::vector<RequestTrace> traces_;
};

}  // namespace kvscale
