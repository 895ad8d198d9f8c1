// Query plans: what one scatter/gather execution computes.
//
// A QueryPlan is the master-side description of one query — the
// partition selection (which cubes the scatter targets, and how many the
// selector pruned), the per-node operator every targeted partition runs
// (wire/messages.hpp QueryOp, executed by cluster/query_ops.hpp), and the
// fold that turns per-partition reply columns into the final result
// (PlanFold). The retry/hedge/deadline/admission/epoch machinery lives in
// the gather engine (in_process_cluster.hpp) and is shared by every plan
// and every transport; adding a query type means adding a Make*Plan
// selector, an operator case, and a fold case — never a new gather loop.
//
// Four plans exist today:
//   count  — CountByType over every workload partition (the paper's
//            benchmark aggregation; the original hard-coded gather).
//   scan   — clustering-key range scan [start, end] with a per-node row
//            limit pushed down to the sorted segments; the master merges
//            ascending and re-applies the limit.
//   topk   — each partition's k largest clustering keys; the master
//            k-way merges descending and keeps the global top k.
//   box    — a D8tree spatial box query (workload/box_query.hpp): the
//            selector routes only to the covering cubes' partitions,
//            interior cubes fold into `totals` exactly, boundary cubes
//            into `boundary_totals` (the client filters those), and the
//            plan reports how many partitions the pruning skipped.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "wire/messages.hpp"

namespace kvscale {

/// The query shapes the engine can execute.
enum class QueryKind : uint8_t {
  kCount = 0,
  kScan = 1,
  kTopK = 2,
  kBox = 3,
};

inline constexpr size_t kQueryKindCount = 4;

/// Stable label used by metrics names, flight-recorder tags, and the CLI.
std::string_view QueryKindName(QueryKind kind);

/// Parses a CLI-style kind name ("count" | "scan" | "topk" | "box").
Result<QueryKind> ParseQueryKind(std::string_view name);

/// One merged result row of a scan or top-k query.
struct QueryRow {
  uint64_t clustering = 0;
  uint32_t type_id = 0;

  friend bool operator==(const QueryRow&, const QueryRow&) = default;
};

/// Range-scan parameters: clustering keys in [start, end], at most
/// `limit` rows (0 = unbounded) both per node and in the merged result.
struct ScanSpec {
  uint64_t start = 0;
  uint64_t end = 0;
  uint32_t limit = 0;
};

/// Top-k parameters: the k globally largest clustering keys.
struct TopKSpec {
  uint32_t k = 1;
};

/// One partition the scatter targets. `fully_inside` matters only to box
/// plans: an interior cube's counts are exact, a boundary cube's need
/// client-side filtering (they fold into GatherResult::boundary_totals).
struct PlanPartition {
  PartitionRef part;
  bool fully_inside = true;
};

/// The full master-side description of one query.
struct QueryPlan {
  QueryKind kind = QueryKind::kCount;
  std::string table;
  std::vector<PlanPartition> partitions;  ///< scatter targets, in order

  // -- Per-node operator (shipped once per SubQueryBatch request frame) --
  uint32_t op = kOpCountByType;
  uint64_t arg_lo = 0;   ///< kOpRangeScan: inclusive clustering lo
  uint64_t arg_hi = 0;   ///< kOpRangeScan: inclusive clustering hi
  uint32_t arg_limit = 0;  ///< per-node row cap (scan limit / top-k k)

  /// Master-side row cap applied after the merge (0 = none).
  uint32_t final_limit = 0;

  // -- Selector accounting (the D8tree pruning story) ---------------------
  /// Partitions the selector considered: the data-bearing universe the
  /// query *could* have touched (for box plans, every non-empty cube
  /// across all loaded levels).
  uint64_t candidate_partitions = 0;
  /// Candidates the selector skipped: candidate_partitions minus the
  /// partitions actually targeted.
  uint64_t partitions_pruned = 0;
};

/// Selector for the count plan: every workload partition, no pruning.
QueryPlan MakeCountPlan(const WorkloadSpec& workload);

/// Selector for the range-scan plan: every workload partition holds a
/// slice of the clustering space, so all are targeted; the pushed-down
/// [start, end] × limit bounds what each node ships back.
QueryPlan MakeScanPlan(const WorkloadSpec& workload, const ScanSpec& spec);

/// Selector for the top-k plan: every partition contributes its local
/// top k candidates; the master keeps the global k.
QueryPlan MakeTopKPlan(const WorkloadSpec& workload, const TopKSpec& spec);

// GatherResult is defined here (not in in_process_cluster.hpp) so the
// fold can be expressed next to the plans without a header cycle.

/// Result of one scatter/gather execution over real data. Beyond the
/// folded answer it is a degraded-result report: how many sub-queries
/// completed, failed for good, were retried or hedged, and where the
/// errors landed.
struct GatherResult {
  TypeCounts totals;  ///< count/box: folded (exact) count-by-type
  /// Box plans only: counts folded from *boundary* cubes — partitions
  /// that straddle the box, whose elements the client must filter.
  TypeCounts boundary_totals;
  /// Scan/top-k plans only: the merged rows, deterministically ordered
  /// (scan: ascending clustering; top-k: descending) and truncated to
  /// the plan's final limit — independent of transport or arrival order.
  std::vector<QueryRow> rows;
  std::vector<uint64_t> requests_per_node;
  std::vector<ReadProbe> probes_per_node;
  uint64_t partitions_missing = 0;  ///< sub-queries that hit no data

  // -- Selector accounting (copied from the plan by the fold) -------------
  uint64_t partitions_touched = 0;  ///< partitions the scatter targeted
  uint64_t partitions_pruned = 0;   ///< candidates the selector skipped

  uint64_t subqueries = 0;  ///< sub-queries issued (= plan partitions)
  /// Sub-queries that got an authoritative answer (data folded, or every
  /// replica confirmed the partition absent). Invariant:
  /// completed + failed == subqueries.
  uint64_t completed = 0;
  uint64_t failed = 0;   ///< sub-queries lost for good (data unreachable)
  uint64_t retries = 0;  ///< failover re-attempts after an error
  uint64_t hedged = 0;   ///< duplicate reads issued against a second replica
  bool partial = false;  ///< true iff failed > 0: totals are missing data
  /// The admission controller refused this gather outright: nothing was
  /// dispatched, every sub-query counts as failed.
  bool shed_by_admission = false;
  std::vector<uint64_t> errors_per_node;     ///< error tally per node
  std::vector<std::string> lost_partitions;  ///< keys lost for good, sorted
  /// Injected latency + backoff consumed, in virtual microseconds (the
  /// deadline's clock). For parallel gathers: the slowest worker's clock.
  Micros virtual_latency_us = 0.0;
  /// Real wall-clock duration of this gather, admission wait included.
  Micros wall_us = 0.0;
  /// How long BeginQuery blocked for an admission slot (message path).
  Micros admission_wait_us = 0.0;

  // -- Wire totals (zero under the direct transport) ----------------------

  uint64_t wire_frames_sent = 0;    ///< request frames dispatched
  uint64_t wire_frames_received = 0;  ///< reply frames the master decoded
  uint64_t wire_bytes_sent = 0;     ///< request frame bytes (master egress)
  uint64_t wire_bytes_received = 0; ///< reply frame bytes (master ingress)
  Micros wire_encode_us = 0.0;      ///< total serialization time
  Micros wire_decode_us = 0.0;      ///< total deserialization time
  /// Total request-queue residency of this gather's frames (real
  /// wall-clock microseconds in the nodes' queues).
  Micros queue_wait_us = 0.0;
};

/// The master-side fold of one plan: Accept() folds one sub-query's reply
/// columns as it settles, Finish() produces the order-independent final
/// result. One instance serves one gather; parallel workers may call
/// Accept concurrently for *distinct* sub-query indices (the row slots
/// are pre-sized and disjoint; count folds write the worker's own
/// partial result).
class PlanFold {
 public:
  /// `plan` must outlive the fold.
  explicit PlanFold(const QueryPlan& plan);

  /// Folds the paired reply columns of sub-query `sub_index` into `out`:
  /// count/box accumulate totals immediately; scan/top-k buffer rows
  /// until Finish() merges them.
  void Accept(size_t sub_index, std::span<const uint64_t> col_a,
              std::span<const uint64_t> col_b, GatherResult& out);

  /// Merges buffered rows in deterministic order (scan ascending, top-k
  /// descending, ties broken by type id), applies the plan's final
  /// limit, and stamps the selector accounting. Call exactly once, after
  /// every sub-query settled.
  void Finish(GatherResult& out);

 private:
  const QueryPlan* plan_;
  std::vector<std::vector<QueryRow>> rows_;  ///< per-sub-query buffers
};

/// Sorts the loss report and derives the partial flag; shared by every
/// transport so the degraded-result invariants live (and drift) in
/// exactly one place. The release-mode check is the accounting identity;
/// the debug asserts pin the report's internal consistency.
void FinalizeGatherAccounting(GatherResult& result);

}  // namespace kvscale
