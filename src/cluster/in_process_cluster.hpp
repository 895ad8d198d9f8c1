// InProcessCluster: a real-data sharded cluster in one process.
//
// Where RunDistributedQuery models *time*, this class exercises the full
// *data path*: n real LocalStore instances, a placement policy routing
// every partition, and a master-style scatter/gather that executes one
// QueryPlan (cluster/query_plan.hpp) — count-by-type, range scan, top-k,
// or a D8tree box query — issuing the plan's operator per selected
// partition against the owning node's store and folding the partial
// results per the plan's kind. Integration tests and the examples use it
// to verify the distributed queries end to end (real bytes, real bloom
// filters, real block cache) and to collect per-node read telemetry.
//
// The gather is fault-tolerant: with an attached FaultInjector
// (fault/fault_injector.hpp) every sub-query tries its preferred replica
// and fails over through ReplicasOf with bounded retries, deterministic
// virtual backoff, an optional hedged second attempt, and a per-gather
// deadline. GatherResult doubles as a degraded-result report — the
// Section VII story ("the driver selects a replica only if the original
// node is malfunctioning") with real bytes instead of virtual time.
//
// Reads and writes each have one scatter/collect loop, written once
// against the Transport interface (cluster/transport.hpp): the inline
// transport calls the node handlers directly, the message transport runs
// through a single long-lived NodeRuntime the cluster owns. Its queues and
// worker pools are built lazily on the first message-path query and
// reused by every one after it — including *concurrent* queries, each a
// registered query with its own reply channel, virtual clock, and wire
// accounting, bounded by the runtime's admission controller.
// GatherConcurrent drives that path with N client threads, which is how
// the Fig. 11 master-saturation curve is measured on real bytes
// (bench/master_throughput.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "cluster/migration.hpp"
#include "cluster/node_runtime.hpp"
#include "cluster/placement.hpp"
#include "cluster/query_plan.hpp"
#include "cluster/transport.hpp"
#include "common/thread_annotations.hpp"
#include "fault/fault_injector.hpp"
#include "hash/token_ring.hpp"
#include "store/local_store.hpp"
#include "telemetry/flight_recorder.hpp"

namespace kvscale {

class SpanTracer;         // telemetry/span_tracer.hpp
class MetricsRegistry;    // telemetry/metrics_registry.hpp
class Counter;
class Gauge;
class LatencyHistogram;
class StageTracer;        // trace/stage_trace.hpp
class MetricsTimeSeries;  // telemetry/timeseries.hpp

/// Knobs of one scatter/gather execution: fault tolerance here, the
/// transport in the TransportOptions base.
struct GatherOptions : TransportOptions {
  /// Preferred starting copy (0 = primary; taken modulo the replica-set
  /// size). Failover proceeds to the following replicas in set order.
  uint32_t replica = 0;
  /// Total read attempts per sub-query (>= 1). Attempt k targets replica
  /// (replica + k) mod replication, so with replication=1 retries re-try
  /// the same node.
  uint32_t max_attempts = 3;
  /// Virtual backoff charged before retry k: backoff_base_us * 2^(k-1).
  /// Virtual time keeps chaos runs deterministic and fast; no real
  /// sleeping happens.
  Micros backoff_base_us = 200.0;
  /// When true, an attempt whose injected latency reaches
  /// `hedge_threshold_us` races a duplicate read against the next
  /// replica and the faster copy wins (Dean's tail-at-scale hedge).
  bool hedge = false;
  Micros hedge_threshold_us = 1.0 * kMillisecond;
  /// Per-gather virtual deadline (0 = none). Once the gather's virtual
  /// clock passes it, no further retries or hedges are issued — each
  /// remaining sub-query gets exactly one attempt and the gather
  /// degrades instead of spinning. On the message path the deadline
  /// additionally sheds requests that expire *while enqueued*: a worker
  /// whose turn comes after the clock passed the deadline replies
  /// kResourceExhausted without touching the store. Each gather's clock
  /// is private, so a concurrent gather's backoff never burns this one's
  /// deadline.
  Micros deadline_us = 0.0;
  /// Coalesce the initial scatter into one SubQueryBatch per node
  /// (failover re-sends still travel one per request).
  bool batch = false;
};

// GatherResult lives in cluster/query_plan.hpp, next to the plans and the
// fold that fill it.

/// How many replica acks one key needs before its write counts as
/// successful. Evaluated per key against the key's replica-set size, so
/// a 2-of-3 degraded write can still satisfy kMajority.
enum class PutQuorum : uint8_t {
  kAll = 0,       ///< every replica must ack (the legacy Put contract)
  kMajority = 1,  ///< floor(replicas / 2) + 1 acks
  kOne = 2,       ///< any single ack
};

std::string_view PutQuorumName(PutQuorum quorum);

/// Parses "all" / "majority" / "one" (CLI flag spelling).
Result<PutQuorum> ParsePutQuorum(std::string_view name);

/// Knobs of one batched replicated write (PutBatch), on top of the
/// shared TransportOptions. Put() uses the defaults: direct transport,
/// quorum all, one batch.
struct PutOptions : TransportOptions {
  PutQuorum quorum = PutQuorum::kAll;
  /// Max keys per WriteBatch applied to one node (0 = everything bound
  /// for a node travels in a single batch). Each batch pays exactly one
  /// group-commit Sync(), so batch=1 is the per-key-sync baseline the
  /// ingest bench compares against.
  uint32_t batch = 0;
  /// Bounded re-dispatch rounds when a ring-epoch bump moves a key's
  /// replica set mid-write: each round re-resolves every key and writes
  /// the copies the new owners are missing (columns are idempotent
  /// overwrites, so chasing the data is always safe).
  uint32_t max_epoch_retries = 2;
  /// Message transport only: once a write leaves the touched table's
  /// memtable at or above this many bytes, the write handler schedules a
  /// background flush on the node's own worker pool — maintenance
  /// competes with reads and writes for the same threads (0 = never).
  uint64_t flush_watermark_bytes = 0;
};

/// Outcome of one Put / PutBatch — the write-side GatherResult. Beyond
/// success it is a degraded-write report: every replica write attempted
/// is accounted as an ack or a failure (replica_acks + replica_failures
/// == replica_writes, always), and the per-key quorum verdicts say which
/// keys met the requested policy.
struct PutResult {
  uint64_t keys = 0;              ///< distinct keys in the batch
  uint64_t replica_writes = 0;    ///< replica writes attempted
  uint64_t replica_acks = 0;      ///< replica writes durably applied
  uint64_t replica_failures = 0;  ///< replica writes refused
  uint64_t keys_quorum_met = 0;     ///< keys meeting the quorum policy
  uint64_t keys_quorum_failed = 0;  ///< keys missing it
  uint64_t batches_sent = 0;  ///< write batches issued (frames on message)
  /// Group-commit Sync() errors. Non-fatal — the appended records are
  /// buffered and the next sync or FlushAll retries — so they are
  /// tallied, not failed.
  uint64_t sync_failures = 0;
  uint64_t epoch_retries = 0;  ///< re-resolution rounds after epoch bumps
  /// The admission controller refused the whole batch: nothing was
  /// dispatched and every key counts as quorum-failed.
  bool shed_by_admission = false;
  /// First replica-write refusal (Ok when every copy landed). Kept for
  /// diagnosis; quorum policy, not this, decides ok().
  Status first_error = Status::Ok();
  Micros wall_us = 0.0;  ///< wall-clock duration of the whole write

  // -- Wire totals (zero under the direct transport) ----------------------

  uint64_t wire_frames_sent = 0;
  uint64_t wire_frames_received = 0;
  uint64_t wire_bytes_sent = 0;
  uint64_t wire_bytes_received = 0;
  Micros wire_encode_us = 0.0;
  Micros wire_decode_us = 0.0;
  Micros queue_wait_us = 0.0;

  /// True when every key met its quorum. With the default kAll quorum
  /// this is the legacy Put contract: any replica failure reports false.
  bool ok() const { return keys_quorum_failed == 0 && !shed_by_admission; }
};

/// What N concurrent client threads achieved through the shared runtime —
/// one point of the Fig. 11 master-saturation curve.
struct ConcurrentGatherReport {
  /// Per-query results, client-major: client c's q-th gather sits at
  /// index c * queries_per_client + q.
  std::vector<GatherResult> results;
  uint64_t queries = 0;   ///< gathers issued (= results.size())
  uint64_t admitted = 0;  ///< gathers that ran
  uint64_t shed = 0;      ///< gathers refused by admission control
  Micros wall_us = 0.0;   ///< wall time of the whole run
  double queries_per_sec = 0.0;  ///< admitted / wall seconds
};

/// What one elastic membership change did: the streamed re-distribution
/// behind an AddNode / DecommissionNode / FailNodePermanently call.
struct MembershipReport {
  NodeId node = 0;            ///< the node that joined / left / died
  uint64_t ring_epoch = 0;    ///< routing epoch after the change
  uint64_t partitions_moved = 0;   ///< partition copies streamed + applied
  uint64_t columns_moved = 0;      ///< columns those copies carried
  uint64_t blocks_streamed = 0;    ///< checksum-verified migration blocks
  uint64_t bytes_streamed = 0;     ///< MigrationBlock frame bytes streamed
  uint64_t block_retries = 0;      ///< blocks re-sent after corruption
  uint64_t source_failovers = 0;   ///< streams that survived a source kill
  uint64_t partitions_repaired = 0;  ///< under-replicated copies re-protected
  uint64_t partitions_lost = 0;    ///< partitions with no surviving replica
  /// Keys behind partitions_lost, sorted. Their routing entries are left
  /// pointing at the dead node, so gathers keep reporting them failed
  /// instead of laundering the loss into an authoritative miss.
  std::vector<std::string> lost_partitions;
  Micros wall_us = 0.0;  ///< wall-clock duration of the whole change
};

/// A sharded multi-store cluster with a single coordinating "master".
class InProcessCluster {
 public:
  /// `replication` copies of every partition land on distinct nodes (the
  /// primary chosen by `placement`, the rest on the following node ids).
  /// When `store_options.wal_path` is non-empty it is used as a path
  /// prefix: node n logs to "<wal_path>.node<n>", writes go through
  /// DurablePut, and ReviveNode can replay the log after a crash.
  InProcessCluster(uint32_t nodes, PlacementKind placement,
                   StoreOptions store_options, uint64_t seed,
                   uint32_t replication = 1);

  /// Number of node *slots* ever created — dead and decommissioned nodes
  /// keep their id, so slots are append-only and ids stay dense.
  uint32_t node_count() const;

  // -- Elastic membership --------------------------------------------------
  //
  // The three operations below change the member set of a *running*
  // cluster. The first one called adopts consistent-hash routing: a
  // TokenRing over the current members replaces the static placement for
  // every known partition (data is streamed to its ring owners first, the
  // directory flips after, and the ring epoch advances). From then on,
  // gathers racing a membership change re-resolve their replica sets when
  // they notice an epoch bump between retries, so a sub-query that raced
  // a move retries against the new owner. Put / PutBatch do the same on
  // the write side: a write round that overlapped an unfinished
  // membership operation waits for it to finish, re-resolves, and
  // re-dispatches to the new owners through bounded epoch-retry rounds
  // (PutOptions::max_epoch_retries); quorum is judged against the final
  // owners only.
  // Membership changes, FlushAll, and ReviveNode serialize on one lock
  // (membership_mu_, taken before nodes_mu_): a revive cannot swap a
  // store under a migration that is planning from or streaming into it,
  // and a flush cannot interleave with one. Concurrent *gathers* and
  // *puts* (any transport) run alongside all of them.

  /// Adds a fresh empty node, streams every partition the ring now
  /// assigns it from the surviving replicas (checksummed blocks, bounded
  /// re-sends, source failover), then flips routing and bumps the epoch.
  Result<MembershipReport> AddNode();

  /// Gracefully removes a live member: partitions it holds are streamed
  /// to the nodes gaining ownership *before* routing flips, then the node
  /// is killed. Refuses with kFailedPrecondition when the remaining
  /// members could not hold `replication` distinct copies.
  Result<MembershipReport> DecommissionNode(NodeId node);

  /// Permanent, unplanned loss: the node is killed first, then every
  /// partition it co-owned is re-protected by streaming a fresh copy from
  /// a surviving replica to the ring's replacement owner. Partitions with
  /// no surviving replica are reported lost (their routing entries keep
  /// failing loudly). Refuses with kFailedPrecondition when the remaining
  /// members could not hold `replication` distinct copies.
  Result<MembershipReport> FailNodePermanently(NodeId node);

  /// Monotone routing epoch: 0 until the first membership change, +1 per
  /// adopted ring flip. Gathers use it to detect ownership moves between
  /// retries; telemetry records are tagged with it.
  uint64_t ring_epoch() const {
    return ring_epoch_.load(std::memory_order_acquire);
  }

  /// Current members (live or temporarily down), ascending.
  std::vector<NodeId> Members() const;

  /// Attaches wall-clock telemetry to the scatter/gather path: every
  /// sub-query records route → store-read → fold spans (one span track
  /// per node, plus a "master" track) and cluster counters/latency
  /// histograms, including the failure/retry/hedge counters. Either
  /// pointer may be null; both must outlive the cluster. Store-level
  /// counters (cache, bloom, flushes) are wired separately through
  /// StoreOptions::metrics. Drops the shared runtime (it captures the
  /// telemetry pointers at build), so attach before gathering.
  void AttachTelemetry(SpanTracer* spans, MetricsRegistry* metrics);

  /// Attaches a per-request stage tracer: every sub-query that reaches a
  /// store records the paper's five timestamps (issued / received /
  /// db_start / db_end / completed), so the four stage durations are real
  /// wall-clock intervals — on the direct transport too, where the
  /// master-to-slave and in-queue stages are (nearly) empty because
  /// nothing is encoded or queued. Null detaches; must outlive the
  /// cluster.
  void AttachStageTracer(StageTracer* stages);

  /// Attaches a per-query flight recorder: every gather (any transport)
  /// deposits one QueryRecord with its per-sub-query stage timeline.
  /// Null detaches; must outlive the cluster.
  void AttachFlightRecorder(FlightRecorder* recorder);

  /// Attaches a time-series collector ticked at the end of every gather
  /// with the cluster's telemetry clock, so a run of gathers produces a
  /// metrics trajectory without the caller having to tick manually. Null
  /// detaches; must outlive the cluster.
  void AttachTimeSeries(MetricsTimeSeries* timeseries);

  /// Routes read attempts through `injector` (null detaches, falling
  /// back to the internal all-healthy injector). The injector must
  /// outlive the cluster. Drops the shared runtime (it captures the
  /// injector at build), so attach before gathering.
  void AttachFaultInjector(FaultInjector* injector);

  /// The injector consulted by reads and migrations: the attached one,
  /// or the internal one created at construction. Never null.
  FaultInjector& fault_injector();

  /// The span track used for master-side work (routing, folding);
  /// node n uses track n.
  uint32_t master_track() const { return node_count(); }

  /// The node that owns `partition_key` under this cluster's placement.
  /// The first placement of a key is remembered in a directory, so even
  /// order-dependent policies (round-robin, least-loaded) stay consistent
  /// between load and query time — this is the "global mapping" approach
  /// of Section VIII (a GFS-NameNode-style directory), whereas the
  /// hash-based policies never need the directory to agree.
  NodeId OwnerOf(std::string_view partition_key);

  /// All replica holders of a key, primary first (size = replication,
  /// clamped to the cluster size). Thread-safe. Returned by value: the
  /// set is a snapshot of the current ring epoch — membership changes
  /// rewrite directory entries in place, so a reference could not be
  /// handed out safely once the cluster is elastic.
  std::vector<NodeId> ReplicasOf(std::string_view partition_key);

  uint32_t replication() const { return replication_; }

  /// Routes one column write to every replica's table (through the
  /// node's commit log when a WAL is configured). A replica whose write
  /// is refused — a dead node, or a WAL append failed for real or via
  /// FaultConfig::wal_error_rate — is skipped, tallied in
  /// cluster.put.errors, and accounted in the returned PutResult; the
  /// remaining replicas still receive the write, so a degraded put
  /// leaves the surviving copies serviceable. Equivalent to a PutBatch
  /// of one item with default options (direct transport, quorum all).
  PutResult Put(const std::string& table, const std::string& partition_key,
                Column column);

  /// The batched replicated write path: routes every item to its
  /// replicas, groups the writes per node, and applies each group as
  /// write batches of at most `options.batch` keys — one group-commit
  /// WAL Sync() per batch instead of one per key. Under the message
  /// transport the batches travel as WriteBatch frames through the
  /// shared NodeRuntime (admission-controlled, checksummed, validated on
  /// arrival) and per-replica acks come back as checksummed reply-batch
  /// answers, validated before they are folded; the
  /// direct transport applies the same batches as plain calls. A batch
  /// the transport refuses to send (kReject backpressure) counts as a
  /// replica failure for every key it carried. Per-key
  /// success is judged by `options.quorum`. A ring-epoch bump observed
  /// mid-write triggers bounded re-resolution rounds so the copies chase
  /// the data's new owners. With quorum kAll the stored state is
  /// bit-identical to issuing the items as sequential Puts — healthy or
  /// under WAL/kill chaos — because fault decisions hash (node, key),
  /// never batch shape.
  PutResult PutBatch(const std::string& table, std::vector<BatchPutItem> items,
                     const PutOptions& options = {});

  /// Flushes every node's memtables (end of load phase). Waits for an
  /// in-progress membership change, FlushAll, or ReviveNode.
  void FlushAll();

  /// Marks `node` unreachable: sub-queries against it fail over to the
  /// surviving replicas (or degrade the gather when none exist).
  void KillNode(NodeId node);

  /// Restarts a killed node: a fresh LocalStore replaces the old one (a
  /// crash loses everything held in memory) and, when a WAL is
  /// configured, Recover() replays every intact logged mutation — the
  /// torn-tail semantics of CommitLog::Replay. Returns the number of
  /// mutations recovered (0 without a WAL). Waits for an in-progress
  /// membership change, FlushAll, or ReviveNode.
  Result<uint64_t> ReviveNode(NodeId node);

  /// Scatter/gather: executes `plan` — its per-node operator against
  /// every selected partition, folded per its kind — with per-sub-query
  /// replica failover per `options`. The one engine every query type and
  /// every transport runs on: `options.transport` selects direct calls
  /// or the message path. Node-side parallelism is the message
  /// transport's worker pools (`workers_per_node`). Thread-safe:
  /// concurrent gathers are independent queries.
  GatherResult Gather(const QueryPlan& plan, const GatherOptions& options = {});

  /// N client threads, each issuing `queries_per_client` message-path
  /// executions of `plan` back to back through the shared runtime (the
  /// transport is forced to kMessage). The runtime is warmed before the
  /// clock starts, so the wall time measures queries, not construction.
  /// Every client sees the same options — including the admission bound,
  /// which is what turns this into the Fig. 11 saturation measurement.
  ConcurrentGatherReport GatherConcurrent(const QueryPlan& plan,
                                          uint32_t clients,
                                          uint32_t queries_per_client,
                                          const GatherOptions& options);

  /// The paper's benchmark aggregation as a plan: a thin wrapper over
  /// Gather(MakeCountPlan(workload), options), kept because it is the
  /// vocabulary of the tests, benches, and examples.
  GatherResult CountByTypeAll(const WorkloadSpec& workload,
                              const GatherOptions& options = {});

  /// How many times a gather had to route a plan: its replica sets are
  /// resolved once per (ordered partition-key list, ring epoch) and
  /// reused by every gather of the same keys until the epoch moves.
  uint64_t routed_plan_builds() const;

  /// How many times the shared runtime has been (re)built. A sequence of
  /// gathers with identical structural knobs holds this at 1 — the
  /// acceptance criterion for "zero per-gather thread-pool construction".
  /// Only a structural knob change, AttachTelemetry / AttachFaultInjector,
  /// and AddNode (a new node slot) rebuild it; decommissions and
  /// permanent failures do not.
  uint64_t runtime_builds() const;

  /// Snapshot of the placement policy's per-node load feedback
  /// (cumulative dispatched requests — reads and replica writes). What
  /// the load-aware policies consult for new keys.
  std::vector<int64_t> PlacementLoad() const;

  /// Direct access for tests and examples. The store object outlives the
  /// call even if ReviveNode replaces the slot concurrently elsewhere.
  LocalStore& node(uint32_t id);

  /// Columns stored per node for `table` (storage balance diagnostics).
  std::vector<uint64_t> ColumnsPerNode(const std::string& table);

 private:
  /// The single retry/hedge/deadline/epoch decision loop every transport
  /// shares — defined in gather_engine.cpp; this is the only place in
  /// the codebase that decides which replica an attempt targets, when a
  /// retry backs off, when a hedge races a second copy, and when a ring
  /// epoch bump forces re-resolution.
  struct SubQueryFailover;

  /// The cluster's registry instruments, resolved once per
  /// AttachTelemetry: every pointer is null without a registry, and the
  /// Add/Observe helpers skip null instruments.
  struct Instruments {
    Instruments() = default;
    explicit Instruments(MetricsRegistry& metrics);
    static void Add(Counter* counter, uint64_t n = 1);
    static void Observe(LatencyHistogram* histogram, double micros);

    Counter* subqueries = nullptr;         ///< cluster.subqueries
    Counter* missing = nullptr;            ///< cluster.partitions_missing
    Counter* read_errors = nullptr;        ///< cluster.read.errors
    Counter* retries = nullptr;            ///< cluster.read.retries
    Counter* hedged = nullptr;             ///< cluster.read.hedged
    Counter* failed = nullptr;             ///< cluster.subqueries.failed
    Counter* put_errors = nullptr;         ///< cluster.put.errors
    Counter* put_keys = nullptr;           ///< cluster.put.keys
    Counter* put_batches = nullptr;        ///< cluster.put.batches
    Counter* put_quorum_failures = nullptr;  ///< cluster.put.quorum_failures
    Counter* put_epoch_retries = nullptr;  ///< cluster.put.epoch_retries
    LatencyHistogram* put_latency = nullptr;  ///< cluster.put.latency_us
    LatencyHistogram* subquery_latency = nullptr;  ///< cluster.subquery.latency_us
    LatencyHistogram* failover_latency = nullptr;  ///< cluster.failover.latency_us
    // The slave-to-master stage of each served read, split
    // (RequestTrace::SlaveToMasterSplit).
    LatencyHistogram* reply_encode = nullptr;     ///< cluster.reply.encode_us
    LatencyHistogram* reply_residency = nullptr;  ///< cluster.reply.residency_us
    LatencyHistogram* reply_decode = nullptr;     ///< cluster.reply.decode_us
    LatencyHistogram* reply_fold = nullptr;       ///< cluster.reply.fold_us
    Counter* joins = nullptr;              ///< cluster.membership.joins
    Counter* decommissions = nullptr;      ///< cluster.membership.decommissions
    Counter* perma_failures = nullptr;     ///< cluster.membership.permanent_failures
    Gauge* epoch = nullptr;                ///< cluster.membership.epoch
    Counter* migrated_partitions = nullptr;  ///< cluster.migration.partitions
    Counter* migrated_blocks = nullptr;    ///< cluster.migration.blocks
    Counter* migrated_bytes = nullptr;     ///< cluster.migration.bytes
    Counter* migration_retries = nullptr;  ///< cluster.migration.block_retries
    Counter* migration_failovers = nullptr;  ///< cluster.migration.source_failovers
    Counter* repaired = nullptr;           ///< cluster.repair.partitions
    Counter* lost = nullptr;               ///< cluster.repair.lost_partitions
    /// cluster.query.{count,scan,topk,box}: gathers finished, per kind.
    Counter* query_kinds[kQueryKindCount] = {};
  };

  /// The store in slot `id`, or null when no such slot exists. Slots are
  /// append-only; holding the returned pointer keeps the store alive
  /// across a concurrent ReviveNode swap.
  std::shared_ptr<LocalStore> NodePtr(NodeId id) const;

  /// Whether slot `id` logs through a WAL (node_options_ snapshot).
  bool NodeHasWal(NodeId id) const;

  /// One planned ring transition: the moves to stream, the directory
  /// rewrites to apply on success, and the partitions already lost.
  struct RingPlan {
    std::vector<PartitionMove> moves;
    std::vector<std::pair<std::string, std::vector<NodeId>>> flips;
    std::vector<std::string> lost;  ///< keys with data but no live source
  };

  /// Adopts ring routing on the first membership change: builds the
  /// token ring over the current members, streams every partition to its
  /// ring owners, flips the directory, and bumps the epoch. No-op once
  /// elastic. Caller holds membership_mu_.
  Status EnsureElastic(MembershipReport& report);

  /// Computes moves/flips/losses for the directory keys whose ring
  /// replica set changed. `affected` is the (key, old set) snapshot to
  /// consider; real store contents decide which old replicas can serve
  /// as sources (down nodes — including a just-failed one — never do).
  RingPlan PlanRingTransition(
      const std::vector<std::pair<std::string, std::vector<NodeId>>>&
          affected);

  /// Streams `plan.moves`, applies `plan.flips` under route_mu_, bumps
  /// the epoch, and folds everything into `report`. The directory is
  /// untouched when streaming fails.
  Status ExecutePlan(RingPlan plan, MembershipReport& report);

  /// Marks one membership operation as an unfinished transition for its
  /// whole scope, failed and rolled-back ones included. Constructed
  /// right after membership_mu_ is taken, so the bracket covers every
  /// plan, stream, flip and epoch bump of the operation.
  class TransitionBracket {
   public:
    explicit TransitionBracket(InProcessCluster& cluster) : cluster_(cluster) {
      cluster_.transitions_started_.fetch_add(1);
    }
    ~TransitionBracket() { cluster_.transitions_finished_.fetch_add(1); }
    TransitionBracket(const TransitionBracket&) = delete;
    TransitionBracket& operator=(const TransitionBracket&) = delete;

   private:
    InProcessCluster& cluster_;
  };

  /// A fresh query id when anything will see it — every message-path
  /// query (the wire needs one), and direct ones only while a flight
  /// recorder or stage tracer is attached, so the message path's id
  /// sequence stays undisturbed otherwise.
  uint64_t MintQueryId(GatherTransport transport);

  /// Opens query `query_id`'s channel to the nodes: the inline transport,
  /// or a session on the shared runtime (admission happens at Begin).
  std::unique_ptr<Transport> OpenTransport(
      const TransportOptions& options, uint64_t query_id,
      const NodeRuntime::QueryOptions& query);

  /// Returns the shared runtime, building it on first use and rebuilding
  /// only when `options` changes a structural knob (queue depth, worker
  /// count, queue policy) from the live runtime's own options. A replaced
  /// runtime stays alive — via the shared_ptr each in-flight query holds
  /// — until its last query ends. Always re-arms the admission
  /// controller from `options`.
  std::shared_ptr<NodeRuntime> EnsureRuntime(const TransportOptions& options);

  /// Drops the shared runtime so the next gather rebuilds it with fresh
  /// captured pointers (telemetry / injector) or a queue for a new node.
  void InvalidateRuntime();

  /// Load feedback at an actual dispatch site: a read attempt or a
  /// replica write was issued against `node`. This is what the
  /// load-aware placement policies consume, so *repeat* traffic keeps
  /// moving the signal (a directory hit no longer freezes it). `count`
  /// attempts that left in one frame are recorded under one lock.
  void RecordDispatch(NodeId node, uint64_t count = 1);

  /// ReplicasOf's body: appends the key's replica set to `out`, placing
  /// and remembering the key on its first lookup.
  void AppendReplicasLocked(std::string_view partition_key,
                            std::vector<NodeId>& out) KV_REQUIRES(route_mu_);

  /// A plan's replica sets at one ring epoch, as one flat array:
  /// partition i's set is replicas[ends[i-1], ends[i]). Immutable once
  /// built; gathers share it through a shared_ptr, so an entry evicted or
  /// superseded mid-gather stays alive until its last gather ends.
  struct RoutedPlan {
    uint64_t epoch = 0;             ///< ring epoch the sets were read at
    uint64_t key_hash = 0;          ///< PlanKeyHash of `keys`
    std::vector<std::string> keys;  ///< the plan's partition keys, in order
    std::vector<NodeId> replicas;
    std::vector<uint32_t> ends;

    std::span<const NodeId> ReplicasOf(size_t i) const;
    /// True when `plan` has exactly these partition keys, in this order.
    bool Routes(const QueryPlan& plan) const;
  };

  /// Routed plans kept at once. coarse_mix needs 17 (one key list shared
  /// by its count/scan/top-k plans, plus 16 box lists); beyond the bound
  /// the least recently used entry is replaced.
  static constexpr size_t kRoutedPlanSlots = 32;

  /// `plan`'s replica sets at the current ring epoch: the cached entry
  /// when one with the same key list was routed at this epoch, otherwise
  /// a fresh routing (one pass under route_mu_) that replaces it. The
  /// hash only finds an entry; the full key list accepts it, so a plan
  /// whose keys were edited in place is never served stale routing.
  std::shared_ptr<const RoutedPlan> RoutePlan(const QueryPlan& plan);

  /// The read handler both transports call (gather_engine.cpp): opens
  /// `node`'s current store and `table` once, for every item of a frame,
  /// and returns the reader that runs the frame's operator on each item.
  TableReader OpenRead(uint32_t node, const std::string& table);

  /// The write handler both transports call (write_path.cpp): a dead
  /// node refuses the whole batch with kUnavailable; per-key WAL faults
  /// (OnWalWrite) land in the ack's refused indices. WAL-backed nodes
  /// group-commit through DurablePutBatch (one Sync per call); WAL-less
  /// nodes apply straight to the table. With a `runtime` and an armed
  /// flush watermark, a memtable that crossed it schedules a background
  /// flush on the node's own worker pool. Returns the ack columns
  /// (cluster/query_ops.hpp).
  Result<OperatorResult> ServeWrite(uint32_t node, const WriteBatch& batch,
                                    NodeRuntime* runtime);

  /// One scheduled background-maintenance step: flushes `table` on
  /// `node` (which also runs the size-tiered compaction check), executed
  /// by the node's worker pool between queries.
  void RunMaintenanceStep(uint32_t node, const std::string& table);

  /// End-of-put observability: deposits one QueryRecord (query_kind
  /// "put") into the attached flight recorder, when any.
  void RecordPut(uint64_t query_id, const std::string& table,
                 std::string_view transport, const PutResult& result);

  /// End-of-gather observability: bumps the per-kind query counter,
  /// deposits one QueryRecord into the attached flight recorder (when
  /// any), and ticks the attached time-series collector on the cluster's
  /// accumulated gather clock. `timeline` is the per-sub-query stage
  /// record (empty when no flight recorder is attached, or when the
  /// gather was shed).
  void RecordGather(uint64_t query_id, QueryKind kind,
                    const std::string& table, std::string_view transport,
                    const GatherResult& result,
                    std::vector<RequestTrace> timeline);

  /// Guards the routing state shared by concurrent gathers: the
  /// placement policy (whose load feedback mutates), the directory, the
  /// routed plans, and the elastic-membership state (ring, member set).
  mutable Mutex route_mu_;
  PlacementPolicy placement_ KV_GUARDED_BY(route_mu_);
  uint32_t replication_;
  /// Node count at construction: the modulus of the legacy
  /// (primary + r) % n replica walk, frozen so pre-elastic placements
  /// stay reproducible after slots grow.
  uint32_t initial_nodes_;
  StoreOptions base_store_options_;  ///< template for joining nodes' stores
  /// Every key's replica set, remembered at its first lookup. An
  /// existing entry is only ever overwritten under route_mu_ together
  /// with a ring-epoch bump (ExecutePlan's flips): routed plans are valid
  /// for exactly one epoch on the strength of that rule.
  std::map<std::string, std::vector<NodeId>, std::less<>> directory_
      KV_GUARDED_BY(route_mu_);
  struct RoutedPlanSlot {
    uint64_t last_use = 0;
    std::shared_ptr<const RoutedPlan> plan;
  };
  /// At most kRoutedPlanSlots routed plans (RoutePlan).
  std::vector<RoutedPlanSlot> routed_plans_ KV_GUARDED_BY(route_mu_);
  uint64_t routed_plan_uses_ KV_GUARDED_BY(route_mu_) = 0;
  uint64_t routed_plan_builds_ KV_GUARDED_BY(route_mu_) = 0;
  /// Tables ever written through Put: the migration planner's universe
  /// (LocalStore has no table listing).
  std::set<std::string> tables_ KV_GUARDED_BY(route_mu_);

  // -- Elastic membership state -------------------------------------------
  /// Serializes membership operations end to end (including streaming),
  /// FlushAll, and ReviveNode; acquired before route_mu_ / nodes_mu_,
  /// never while holding them.
  Mutex membership_mu_;
  bool elastic_ KV_GUARDED_BY(route_mu_) = false;
  TokenRing ring_ KV_GUARDED_BY(route_mu_);
  std::set<NodeId> members_ KV_GUARDED_BY(route_mu_);
  std::atomic<uint64_t> ring_epoch_{0};
  /// Membership transitions begun / ended (TransitionBracket). A put
  /// round that overlapped an unfinished transition may have written to
  /// an old owner after the migration planned or streamed the key, and
  /// checked the epoch before the flip: it waits the transition out,
  /// then re-resolves and re-sends to the owners it left.
  std::atomic<uint64_t> transitions_started_{0};
  std::atomic<uint64_t> transitions_finished_{0};

  /// Guards the node slots themselves: gathers read them constantly while
  /// AddNode appends, so every access snapshots the shared_ptr under this
  /// lock. Never held while calling into a store.
  mutable Mutex nodes_mu_;
  std::vector<StoreOptions> node_options_ KV_GUARDED_BY(nodes_mu_);
  std::vector<std::shared_ptr<LocalStore>> nodes_ KV_GUARDED_BY(nodes_mu_);

  /// Consulted by reads and migrations; points at the attached injector
  /// or the internal one (created eagerly at construction so the pointer
  /// stays stable while concurrent gathers read it — a lazily created
  /// injector would race a membership op's first KillNode against them).
  FaultInjector* injector_ = nullptr;
  std::unique_ptr<FaultInjector> owned_injector_;

  /// Message set shared by every gather's runtime (both "peers" — the
  /// master's encoder and the slaves' decoders — see the same ids).
  CompactCodec codec_registry_;
  /// OpenRead / ServeWrite bound to this cluster: what every transport
  /// calls on the node side.
  NodeHandlers handlers_;
  /// The background-flush watermark the current message put armed (0 =
  /// off). Atomic because node workers read it while the master writes
  /// it; a worker observing a just-replaced value merely flushes a
  /// little early or late, which maintenance tolerates by design.
  std::atomic<uint64_t> flush_watermark_bytes_{0};
  std::atomic<uint64_t> next_query_id_{1};
  /// Monotone clock driving the time-series cadence: the cumulative wall
  /// time of finished gathers, in nanoseconds (integer so concurrent
  /// additions commute exactly).
  std::atomic<uint64_t> telemetry_clock_nanos_{0};

  SpanTracer* spans_ = nullptr;                 ///< null = no span tracing
  MetricsRegistry* metrics_ = nullptr;          ///< forwarded to runtimes
  StageTracer* stage_tracer_ = nullptr;         ///< null = no stage traces
  FlightRecorder* flight_recorder_ = nullptr;   ///< null = no flight records
  MetricsTimeSeries* timeseries_ = nullptr;     ///< null = no trajectory
  Instruments inst_;

  mutable Mutex runtime_mu_;
  uint64_t runtime_builds_ KV_GUARDED_BY(runtime_mu_) = 0;
  /// Declared last: destroyed first, so the runtime's workers join
  /// before the stores (and everything else they reach) go away.
  std::shared_ptr<NodeRuntime> runtime_ KV_GUARDED_BY(runtime_mu_);
};

}  // namespace kvscale
