// Per-query flight recorder: a bounded ring of recent QueryRecords.
//
// Aggregate metrics (metrics_registry.hpp) answer "how is the cluster
// doing"; the flight recorder answers "what happened to *that* query".
// Every gather deposits one QueryRecord — its per-sub-query timeline
// (the paper's four stages, per attempt), retry/hedge counts, admission
// wait, shed/degraded outcome, and wire byte totals — into a bounded,
// thread-safe ring. The newest records displace the oldest, so a
// long-lived cluster keeps a recent window at fixed memory cost, exactly
// like a production slow-query log's in-memory buffer.
//
// With a slow-query threshold configured, queries that ran longer than
// the threshold — or that degraded (shed, partial, or failed) — are
// additionally appended as JSONL to an in-memory slow log and,
// optionally, a log file: the cluster's slow-query log.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/thread_annotations.hpp"
#include "common/units.hpp"
#include "telemetry/request_trace.hpp"

namespace kvscale {

/// Everything the master knew about one finished query.
struct QueryRecord {
  uint64_t query_id = 0;
  std::string table;
  std::string transport;   ///< "direct" | "message"
  std::string query_kind;  ///< "count" | "scan" | "topk" | "box"
  uint64_t subqueries = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t retries = 0;
  uint64_t hedged = 0;
  bool partial = false;
  bool shed_by_admission = false;
  Micros admission_wait_us = 0.0;
  Micros queue_wait_us = 0.0;
  Micros virtual_latency_us = 0.0;
  Micros wall_us = 0.0;
  uint64_t wire_bytes_sent = 0;
  uint64_t wire_bytes_received = 0;
  uint64_t wire_frames_sent = 0;
  uint64_t wire_frames_received = 0;
  /// Ring epoch the cluster was at when the query finished: 0 until the
  /// first membership change, then monotone. Lets a post-mortem split a
  /// drill's records into before/during/after a migration.
  uint64_t ring_epoch = 0;
  /// Per-sub-query stage records, one per sub-query: the last attempt's
  /// four-stage stamps plus how many attempts it took (empty for puts).
  std::vector<RequestTrace> timeline;
  /// Stamped by FlightRecorder::Record: this query tripped the
  /// slow-or-degraded rule and was appended to the slow log.
  bool slow = false;
};

/// Serialises one record as a single JSON object (no trailing newline).
std::string QueryRecordToJson(const QueryRecord& record);

/// True when the query degraded: shed at admission, partial, or failed
/// sub-queries.
bool IsDegraded(const QueryRecord& record);

/// Bounded thread-safe ring of recent QueryRecords with a slow-query log.
class FlightRecorder {
 public:
  struct Options {
    size_t capacity = 128;     ///< ring size (oldest evicted first)
    /// Slow-query rule (0 = disabled): a query whose wall_us meets the
    /// threshold, or that degraded, is appended to the slow log.
    Micros slow_query_us = 0.0;
    /// When non-empty, slow-log lines are also appended to this file
    /// (best-effort: an unwritable path drops the file half silently,
    /// the in-memory log still accumulates).
    std::string slow_log_path;
  };

  FlightRecorder();
  explicit FlightRecorder(Options options);

  /// Deposits one finished query (evicting the oldest past capacity) and
  /// applies the slow-query rule.
  void Record(QueryRecord record);

  size_t size() const;
  size_t capacity() const { return options_.capacity; }
  uint64_t recorded() const;
  uint64_t evicted() const;
  uint64_t slow_queries() const;

  /// Copies the ring, oldest first.
  std::vector<QueryRecord> snapshot() const;

  /// One JSON object per ring record per line, oldest first.
  std::string ToJsonl() const;

  /// The accumulated slow-query log (JSONL, append order).
  std::string SlowQueriesJsonl() const;

  /// Writes ToJsonl() to `path`.
  Status WriteJsonl(const std::string& path) const;

  void Clear();

 private:
  const Options options_;
  mutable Mutex mu_;
  std::deque<QueryRecord> ring_ KV_GUARDED_BY(mu_);
  std::string slow_log_ KV_GUARDED_BY(mu_);
  uint64_t recorded_ KV_GUARDED_BY(mu_) = 0;
  uint64_t evicted_ KV_GUARDED_BY(mu_) = 0;
  uint64_t slow_ KV_GUARDED_BY(mu_) = 0;
};

}  // namespace kvscale
