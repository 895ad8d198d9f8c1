// NodeRuntime: the message-driven execution layer of the real data path.
//
// The inline transport (transport.cpp) calls each node's read handler as a
// plain function; this layer makes the paper's architecture literal. Each
// node owns a bounded request queue and a pool of worker threads; the
// master *encodes* every sub-query through a selectable wire codec
// (Tagged vs Compact — the Java-vs-Kryo axis of Section V-B), optionally
// coalescing the sub-queries bound for one node into a single framed
// SubQueryBatch (one plan per frame), and enqueues the frame on the
// target node. Write batches travel the same queues as WriteBatch
// frames. Workers dequeue, decode, execute against the local store, and
// answer every request frame — reads or a write — the same way: with
// encoded SubQueryReplyBatch frames (cut early at kReplyFrameBytes)
// carrying a checksum per answer, which the master decodes once and
// hands out answer by answer.
//
// One runtime serves *many concurrent queries*. The queues and worker
// pools are built once and shared; each query registers with BeginQuery
// (which is also the admission-control point: in-flight queries are
// bounded, excess ones block or are shed with kResourceExhausted) and
// gets back its handle — the query's own state: reply channel, virtual
// clock, and wire totals. It dispatches, awaits, and finally EndQuery's
// through that handle, so no call looks the query up again. Replies
// demultiplex onto the per-query channels — interleaved gathers never
// see each other's replies — and each query's private virtual clock
// means one query's backoff or injected latency cannot push another past
// its deadline.
//
// Because requests really sit in queues, the paper's four stages become
// measurable wall-clock intervals instead of simulated ones:
//
//   issued --(master-to-slave: encode + any backpressure blocking)-->
//   received --(in-queue: queue residency + decode)--> db_start
//   --(in-db: the store read)--> db_end
//   --(slave-to-master: reply encode + queue + master decode + fold)-->
//   completed
//
// Fault injection composes at three points: the master consults
// FaultInjector::OnRead at *dispatch* (so failover decisions stay
// bit-identical to the direct path), workers re-check node liveness at
// *dequeue* (a kill landing while requests are queued bounces them with
// kUnavailable), and FaultConfig::reply_corrupt_rate damages one answer
// inside the encoded *reply* (reply_frame_corrupt_rate a whole frame's
// envelope) so the master sees an answer that fails validation and
// fails it over — a fault class only a real message path has. Reply
// damage is injected into read answers only: the direct transport has no
// wire to damage, so a damaged write ack would fail a replica write the
// direct path acks and break their bit-identical parity.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/query_ops.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"
#include "common/units.hpp"
#include "fault/fault_injector.hpp"
#include "store/segment.hpp"
#include "store/table.hpp"
#include "telemetry/request_trace.hpp"
#include "wire/envelope.hpp"
#include "wire/messages.hpp"

namespace kvscale {

class SpanTracer;       // telemetry/span_tracer.hpp
class MetricsRegistry;  // telemetry/metrics_registry.hpp
class Counter;
class Gauge;
class LatencyHistogram;

/// What Dispatch does when a node's request queue is at capacity.
enum class QueueFullPolicy : uint8_t {
  kBlock = 0,   ///< wait for a worker to drain a slot (lossless)
  kReject = 1,  ///< fail the dispatch with kResourceExhausted (load shed)
};

std::string_view QueueFullPolicyName(QueueFullPolicy policy);

/// Parses "block" / "reject" (CLI flag spelling).
Result<QueueFullPolicy> ParseQueueFullPolicy(std::string_view name);

/// How the master reaches the slaves' stores.
enum class GatherTransport : uint8_t {
  /// Plain function calls into each node's store (InlineTransport).
  kDirect = 0,
  /// Real encoded messages through per-node queues and worker pools
  /// (MessageTransport over a NodeRuntime): requests are serialized with
  /// the selected codec, optionally batched per node, executed by worker
  /// threads, and answered with encoded reply frames the master decodes
  /// and folds.
  kMessage = 1,
};

/// The transport knobs every read and write shares, and the options a
/// NodeRuntime is built from. GatherOptions and PutOptions extend this
/// one struct, so a knob exists exactly once.
struct TransportOptions {
  GatherTransport transport = GatherTransport::kDirect;
  /// Wire codec for requests and replies (the Section V-B axis). Per
  /// query: concurrent queries with different codecs share the runtime.
  WireCodecKind codec = WireCodecKind::kCompact;
  /// Request-queue capacity per node (0 acts as 1). Structural: changing
  /// it rebuilds the shared runtime.
  uint32_t queue_depth = 64;
  /// Worker threads draining each node's queue (0 acts as 1). Structural:
  /// changing it rebuilds the shared runtime.
  uint32_t workers_per_node = 1;
  /// Full-queue behavior: block (lossless backpressure) or reject (the
  /// send fails and the caller treats it like any other replica error).
  /// Structural.
  QueueFullPolicy queue_policy = QueueFullPolicy::kBlock;
  /// Admission bound on concurrently in-flight queries through the
  /// shared runtime (0 = unbounded). Re-armed on every message-path query
  /// without rebuilding the runtime.
  uint32_t max_inflight = 0;
  /// Full-admission behavior: block until a slot frees, or shed the whole
  /// query with kResourceExhausted (the queue's backpressure policy, one
  /// level up).
  QueueFullPolicy admission_policy = QueueFullPolicy::kBlock;
};

/// Bounded multi-producer queue guarded by a mutex. The node runtime
/// drains each instance with one or more workers, so consumers may also
/// be plural; the implementation is safe for both. Push blocks while
/// full (backpressure), TryPush rejects instead (load shedding), Pop
/// blocks while empty and returns nullopt once the queue is closed and
/// drained.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Blocks until a slot frees up; `on_enqueue(item)` runs under the
  /// queue lock right before insertion (used to timestamp the moment an
  /// envelope is "received" by the node). False once closed.
  template <typename F>
  bool Push(T item, F&& on_enqueue) {
    MutexLock lock(mu_);
    while (!closed_ && items_.size() >= capacity_) not_full_.Wait(mu_);
    if (closed_) return false;
    on_enqueue(item);
    items_.push_back(std::move(item));
    not_empty_.NotifyOne();
    return true;
  }
  bool Push(T item) {
    return Push(std::move(item), [](T&) {});
  }

  /// Non-blocking push; false when full or closed (the item is dropped).
  template <typename F>
  bool TryPush(T item, F&& on_enqueue) {
    MutexLock lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    on_enqueue(item);
    items_.push_back(std::move(item));
    not_empty_.NotifyOne();
    return true;
  }
  bool TryPush(T item) {
    return TryPush(std::move(item), [](T&) {});
  }

  /// Blocks until an item is available; nullopt when closed and drained.
  std::optional<T> Pop() {
    MutexLock lock(mu_);
    while (!closed_ && items_.empty()) not_empty_.Wait(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.NotifyOne();
    return item;
  }

  /// Wakes every waiter; pushes fail from here on, pops drain the rest.
  void Close() {
    MutexLock lock(mu_);
    closed_ = true;
    not_full_.NotifyAll();
    not_empty_.NotifyAll();
  }

  size_t size() const {
    MutexLock lock(mu_);
    return items_.size();
  }
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<T> items_ KV_GUARDED_BY(mu_);
  bool closed_ KV_GUARDED_BY(mu_) = false;
};

/// Executes item `item` of a request frame — the frame's operator and
/// arguments over the item's partition key — against the table its reader
/// was opened for, returning the paired result columns the reply frame
/// carries (cluster/query_ops.hpp defines the per-operator pairing). The
/// frame is the decoded SubQueryBatch, served in place. Holding the
/// reader keeps what it opened alive.
using TableReader = std::function<Result<OperatorResult>(
    const SubQueryBatch& frame, size_t item, ReadProbe* probe)>;

/// Opens `node`'s read path for `table`. A request frame names exactly
/// one table, so a worker opens it once per frame and serves the frame's
/// items through the returned reader; an item the worker refuses (a dead
/// node, a shed deadline) drops the reader, and the next served item
/// opens it again. An open that fails (no store, no such table) returns
/// a reader answering every item with that error. Must be safe to call
/// from many workers at once.
using SubQueryHandler =
    std::function<TableReader(uint32_t node, const std::string& table)>;

class NodeRuntime;

/// Applies one decoded WriteBatch to `node`'s store, returning its ack in
/// the read operators' paired columns (cluster/query_ops.hpp: the refused
/// key indices and the sync-failure tally), or the error refusing the
/// whole batch. The runtime stamps the routing fields and store times
/// itself, so a handler cannot misroute an answer. `self` is the runtime
/// serving the batch, so a handler can ScheduleMaintenance (e.g. a
/// background flush once a memtable crosses a watermark) without holding
/// any lock that could outlive the runtime; it is null when the batch is
/// applied without a runtime (the inline transport). Must be safe to call
/// from many workers at once.
using WriteBatchHandler = std::function<Result<OperatorResult>(
    uint32_t node, const WriteBatch& batch, NodeRuntime* self)>;

/// Runs one scheduled background-maintenance step (memtable flush /
/// compaction check) for `table` on `node`'s store. Executed by the
/// node's own worker pool, so maintenance genuinely competes with reads
/// and writes for the same threads.
using MaintenanceHandler =
    std::function<void(uint32_t node, const std::string& table)>;

/// A worker answering a request frame ends its reply frame once the
/// answers in it reach this many bytes (estimated at 8 per result value
/// plus 40 per item), so one large answer does not wait behind the rest
/// of its batch. Picked by a sweep over fine_count and coarse_mix (see
/// CHANGES.md); request batching itself is the `batch` option.
inline constexpr size_t kReplyFrameBytes = 64 * kKiB;

/// One decoded answer from a node: the paired result columns of a read
/// or of a write's ack, plus the transport metadata echoed with it.
struct TransportReply {
  /// The answer's stage record: the replica that served (or refused) it,
  /// its sub_id, and its stage boundaries on the serving clock
  /// (NodeRuntime::now_us, or the inline transport's steady clock). The
  /// inline transport has no reply path and stamps reply_encoded /
  /// reply_dequeued / reply_decoded at db_end. The master fills in the
  /// rest (query_id, keysize, attempts, answered, completed).
  RequestTrace trace;
  /// This attempt's ordinal, echoed from the request (trace.attempts is
  /// the master's count of attempts, filled once the sub-query settles).
  uint32_t attempt = 0;
  /// The node's handler ran. False for liveness bounces and deadline
  /// sheds, which never reached the store.
  bool served = false;
  /// kOk, the store's verdict, kCorruption for an unreadable frame or
  /// item, or kUnavailable once the runtime shut down.
  StatusCode code = StatusCode::kUnavailable;
  ReadProbe probe;           ///< reads: what the store touched
  /// The inline transport's paired columns. The message transport
  /// leaves this empty and views the columns in the reply frame it
  /// decoded instead (`in_frame`); either way, read them through col_a()
  /// / col_b().
  OperatorResult columns;
  /// Trace flags the node echoed back (what the wire actually carried).
  uint8_t trace_flags = 0;

  /// The paired result columns. On the message transport they view the
  /// decoded reply frame and stay valid until the next Await of the same
  /// query.
  std::span<const uint64_t> col_a() const {
    return in_frame ? frame_col_a : std::span<const uint64_t>(columns.col_a);
  }
  std::span<const uint64_t> col_b() const {
    return in_frame ? frame_col_b : std::span<const uint64_t>(columns.col_b);
  }

  bool in_frame = false;
  std::span<const uint64_t> frame_col_a;
  std::span<const uint64_t> frame_col_b;
};

/// Per-node request queues + worker pools shared by concurrent queries,
/// with per-query reply channels demultiplexed on query_id.
class NodeRuntime {
 public:
  /// One admitted query's state (defined below the class). BeginQuery
  /// hands it out as the query's handle; every per-query call takes it.
  struct QueryState;
  using QueryHandle = std::shared_ptr<QueryState>;

  /// Per-query knobs, fixed for the query's lifetime at BeginQuery.
  struct QueryOptions {
    /// Wire codec for this query's requests and replies (the Section V-B
    /// axis). Queries with different codecs share the runtime: each
    /// envelope is encoded and decoded with its own query's codec.
    WireCodecKind codec = WireCodecKind::kCompact;
    /// Virtual deadline on this query's private clock (0 = none): a
    /// worker sheds a request whose turn comes after the query's clock
    /// passed its deadline, replying kResourceExhausted without touching
    /// the store — "expired while enqueued".
    Micros deadline_us = 0.0;
    /// Trace flags carried in every frame this query sends (envelope.hpp
    /// bits). With kTraceSampled set, workers record queue-wait / decode
    /// / store-read / encode spans flow-linked to the owning sub-query
    /// via the context they decode off the wire.
    uint8_t trace_flags = 0;
  };

  /// Wire-level totals. Bytes "sent" are master-egress request frames;
  /// bytes "received" are the reply frames the master decoded — the two
  /// directions of the paper's 7.5 MB fine-grained query.
  struct WireStats {
    uint64_t frames_sent = 0;     ///< request frames dispatched
    uint64_t frames_received = 0;  ///< reply frames the master decoded
    uint64_t bytes_sent = 0;      ///< request frame bytes (master egress)
    uint64_t bytes_received = 0;  ///< reply frame bytes (master ingress)
    Micros encode_us = 0.0;       ///< total encode time, both directions
    Micros decode_us = 0.0;       ///< total decode time, both directions
  };

  /// What one query cost, returned by EndQuery in one read.
  struct QueryTotals {
    WireStats wire;               ///< zero under the inline transport
    Micros queue_wait_us = 0.0;   ///< request-queue residency
    Micros virtual_us = 0.0;      ///< the query's virtual clock
  };

  /// Spawns `nodes * options.workers_per_node` workers — once, for the
  /// runtime's whole life; queries come and go without touching a
  /// thread. Each node's queue holds `options.queue_depth` requests and
  /// fills per `options.queue_policy`; admission starts from
  /// `options.max_inflight` / `options.admission_policy`. The transport
  /// and codec fields are per query and unused here. `handler` opens a
  /// node's table for the decoded sub-queries of one frame (and must be
  /// safe to call from many workers at once); `registry` must have
  /// RegisterClusterMessages applied and outlive the runtime, as must
  /// the optional `injector`, `metrics`, and `spans`. The optional
  /// `write_handler` serves WriteBatch envelopes (required before any
  /// DispatchWrite) and `maintenance_handler` serves scheduled
  /// background flush/compaction steps (required before any
  /// ScheduleMaintenance); both are fixed at construction so workers
  /// never race a handler swap.
  NodeRuntime(uint32_t nodes, TransportOptions options,
              SubQueryHandler handler, const CompactCodec& registry,
              FaultInjector* injector, MetricsRegistry* metrics,
              SpanTracer* spans, WriteBatchHandler write_handler = nullptr,
              MaintenanceHandler maintenance_handler = nullptr);
  ~NodeRuntime();

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  uint32_t node_count() const {
    return static_cast<uint32_t>(queues_.size());
  }

  /// The options this runtime was built from, as given. Its structural
  /// fields (queue_depth, workers_per_node, queue_policy) are fixed for
  /// life; the admission fields were only the initial setting
  /// SetAdmissionLimit re-arms.
  const TransportOptions& options() const { return options_; }

  /// Admission control: registers `query_id` (which must be unique among
  /// live queries) and claims an in-flight slot. When the bound is
  /// reached, kBlock waits for a slot (the wait lands in the
  /// master.admission.wait_us histogram) and kReject sheds with
  /// kResourceExhausted. kUnavailable after Shutdown. On OK the caller
  /// holds the query's handle, and its slot, until EndQuery.
  Result<QueryHandle> BeginQuery(uint64_t query_id,
                                 const QueryOptions& options);

  /// Releases `query`'s slot and reply channel (all dispatched requests
  /// must have been awaited), wakes blocked admissions, and returns what
  /// the query cost.
  QueryTotals EndQuery(const QueryHandle& query);

  /// Queries currently admitted and not yet ended.
  uint32_t inflight_queries() const;

  /// Re-arms the admission controller (0 = unbounded). Takes effect for
  /// subsequent BeginQuery calls; blocked admitters re-evaluate.
  void SetAdmissionLimit(uint32_t max_inflight, QueueFullPolicy policy);

  uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }

  /// Encodes `batch` — one plan's sub-queries bound for `node`, named by
  /// `query`'s id — into one frame with `query`'s codec and enqueues it
  /// on `node`, which must be one of this runtime's nodes;
  /// `extra_latency_us` holds each item's injected latency charge.
  /// Blocks under kBlock when the queue is full; fails with
  /// kResourceExhausted under kReject. One reply per item eventually
  /// reaches Await(query). The query must be live (between BeginQuery and
  /// EndQuery).
  Status Dispatch(const QueryHandle& query, uint32_t node,
                  const SubQueryBatch& batch,
                  std::span<const Micros> extra_latency_us);

  /// Encodes `batch` into a WriteBatch frame with `query`'s codec and
  /// enqueues it on `node`, where a worker group-commits it through the
  /// write handler. Same queue semantics as Dispatch; one answer per
  /// dispatched batch eventually reaches Await(query). The runtime must
  /// have been built with a write handler.
  Status DispatchWrite(const QueryHandle& query, uint32_t node,
                       const WriteBatch& batch);

  /// The next answer to one of `query`'s requests. Reply frames are
  /// decoded once, when the first of their answers is due: this blocks
  /// for the next frame only when the last one is used up (the in-flight
  /// corruption injection point lives between the node's encode and this
  /// decode; a frame naming a different query_id is a demux corruption,
  /// reported as kCorruption for every answer in it). Call exactly once
  /// per dispatched sub-query / write batch, from one thread per query.
  TransportReply Await(const QueryHandle& query);

  /// Enqueues one background-maintenance step (flush/compaction check
  /// for `table`) on `node`'s own request queue, competing with reads
  /// and writes for the node's workers. Never blocks: a full queue means
  /// the node is saturated, so the step is dropped (and counted) rather
  /// than deadlocking a worker that schedules from inside the pool.
  /// Returns false when dropped, the node is unknown, or the runtime has
  /// no maintenance handler.
  bool ScheduleMaintenance(uint32_t node, std::string table);

  /// Maintenance envelopes executed / dropped-at-enqueue so far.
  uint64_t maintenance_runs() const {
    return maintenance_runs_.load(std::memory_order_relaxed);
  }
  uint64_t maintenance_dropped() const {
    return maintenance_dropped_.load(std::memory_order_relaxed);
  }

  /// Wall-clock microseconds since this runtime started — the epoch all
  /// envelope timestamps (issued/received/db_start/db_end) share, so the
  /// master can stamp `completed` on the same scale.
  Micros now_us() const { return NowMicros(); }

  /// Current depth of `node`'s request queue.
  size_t queue_depth(uint32_t node) const;

  /// Closes every queue and joins the workers (idempotent; the
  /// destructor calls it). Live queries' Await calls drain and then
  /// report kUnavailable.
  void Shutdown();

 private:
  /// One reply frame on a query's channel. The answers it carries are
  /// named out of band too (transport metadata, like the request's), so
  /// a frame that fails to decode still fails over each of them.
  struct ReplyEnvelope {
    uint32_t node = 0;
    // Per answer, parallel: the request items this frame answers.
    std::vector<uint32_t> sub_ids;
    std::vector<uint32_t> attempts;
    std::vector<uint8_t> served;  ///< the handler ran
    std::vector<ReadProbe> probes;
    std::vector<std::byte> frame;  ///< encoded reply batch
    Micros issued_us = 0.0;    ///< of the request frame
    Micros received_us = 0.0;  ///< of the request frame
    Micros encoded_us = 0.0;   ///< the node finished encoding this frame
  };

  /// What a queued envelope carries: a read sub-query batch, a write
  /// batch, or a background-maintenance step. Reads and writes have their
  /// own request frame types (maintenance has no frame at all) but share
  /// one serve loop and one reply format.
  enum class EnvelopeKind : uint8_t { kRead = 0, kWrite = 1, kMaintenance = 2 };

  struct RequestEnvelope {
    EnvelopeKind kind = EnvelopeKind::kRead;
    uint32_t node = 0;
    /// The owning query: workers route the reply into its channel and
    /// consult its codec, clock, and deadline. The shared_ptr keeps the
    /// state alive even if the runtime shuts down mid-flight. Null for
    /// maintenance envelopes, which no query owns.
    QueryHandle query;
    std::vector<std::byte> frame;  ///< encoded SubQueryBatch / WriteBatch
    // Transport metadata riding outside the encoded bytes: per-item
    // bookkeeping the master needs echoed back verbatim and the worker
    // needs for injection and shedding decisions.
    std::vector<uint32_t> sub_ids;
    std::vector<uint32_t> attempts;
    std::vector<Micros> extra_latency_us;
    std::string maintenance_table;  ///< kMaintenance only
    Micros issued_us = 0.0;    ///< master began handing off (pre-encode)
    Micros received_us = 0.0;  ///< envelope entered the node's queue
  };

  /// Enqueues and accounts one already-encoded request envelope — the
  /// tail Dispatch and DispatchWrite share.
  Status Enqueue(RequestEnvelope env);
  /// Accounts one encode or decode that started at `start`; returns its
  /// duration.
  Micros RecordEncode(QueryState& query, Micros start);
  Micros RecordDecode(QueryState& query, Micros start);
  /// Why a worker may not serve `env` right now (kOk = serve it): the
  /// frame failed `transport` checks, the node died after dispatch, or
  /// the owning query's deadline expired while the envelope sat queued.
  StatusCode Refusal(uint32_t node, const RequestEnvelope& env,
                     const Status& transport) const;
  void WorkerLoop(uint32_t node);
  /// One dequeued request frame, decoded: the trace context it carried
  /// and its items — read sub-queries, or one write batch. `transport`
  /// fails every item: the frame did not decode, or disagrees with its
  /// transport metadata or its target node.
  struct DecodedRequest {
    Status transport;
    uint8_t trace_flags = 0;  ///< echoed into the reply frames
    uint64_t query_id = 0;    ///< as the wire named it
    DecodedFrame<SubQueryBatch> reads;  ///< kRead, served in place
    DecodedFrame<WriteBatch> write;     ///< kWrite
  };
  DecodedRequest DecodeRequest(uint32_t node, const RequestEnvelope& env);
  /// Serves every item of one dequeued read or write frame, in order,
  /// answering with reply frames of at most kReplyFrameBytes of answers
  /// each. `wait_us` is the frame's queue residency (for its span).
  void ServeFrame(uint32_t node, const RequestEnvelope& env, Micros wait_us);
  /// Serves item `item` of `request` (or refuses it), appending its
  /// answer to `batch` and its metadata to `out`. A read is served
  /// through `reader`, opened here when empty and dropped when the item
  /// is refused. `sampled` stamps the worker's span with the flow of the
  /// wire-propagated trace context.
  void ServeOne(uint32_t node, const DecodedRequest& request,
                const RequestEnvelope& env, size_t item, bool sampled,
                TableReader& reader, SubQueryReplyBatch& batch,
                ReplyEnvelope& out);
  /// Takes `query`'s next reply frame off its channel and decodes it;
  /// false once the runtime shut down.
  bool NextReplyFrame(QueryState& query);
  Micros NowMicros() const;
  void SetDepthGauge(uint32_t node);
  const TransportOptions options_;
  SubQueryHandler handler_;
  WriteBatchHandler write_handler_;            ///< may be null (read-only)
  MaintenanceHandler maintenance_handler_;     ///< may be null
  const CompactCodec& registry_;
  FaultInjector* injector_;   ///< may be null (healthy)
  SpanTracer* spans_;         ///< may be null

  std::vector<std::unique_ptr<BoundedQueue<RequestEnvelope>>> queues_;
  std::vector<std::thread> workers_;
  /// exchange() makes Shutdown idempotent even when the destructor races
  /// an explicit call.
  std::atomic<bool> shut_down_{false};

  // -- Admission controller ------------------------------------------------
  // The live queries, by id: only admission counting, id uniqueness, and
  // Shutdown's wake-up read this map. Per-query calls go through the
  // handle instead.
  mutable Mutex queries_mu_;
  CondVar admission_cv_;
  std::map<uint64_t, QueryHandle> queries_ KV_GUARDED_BY(queries_mu_);
  uint32_t max_inflight_ KV_GUARDED_BY(queries_mu_) = 0;
  QueueFullPolicy admission_policy_ KV_GUARDED_BY(queries_mu_) =
      QueueFullPolicy::kBlock;
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> shed_{0};

  // Background-maintenance accounting (scheduled steps ride the same
  // queues as queries, so workers genuinely time-share).
  std::atomic<uint64_t> maintenance_runs_{0};
  std::atomic<uint64_t> maintenance_dropped_{0};

  // The runtime measures *real* stage timings; its wall-clock epoch is
  // the whole point (the simulators never see this class).
  // kvscale-lint: allow(sim-wallclock) real data path epoch
  std::chrono::steady_clock::time_point epoch_;

  // Registry instruments (null without telemetry).
  Counter* bytes_sent_counter_ = nullptr;      ///< wire.bytes.sent
  Counter* bytes_received_counter_ = nullptr;  ///< wire.bytes.received
  Counter* frames_counter_ = nullptr;          ///< wire.frames.sent
  Counter* frames_received_counter_ = nullptr;  ///< wire.frames.received
  Counter* admitted_counter_ = nullptr;        ///< master.admission.admitted
  Counter* shed_counter_ = nullptr;            ///< master.admission.shed
  Gauge* inflight_gauge_ = nullptr;            ///< master.queries.inflight
  LatencyHistogram* encode_hist_ = nullptr;    ///< wire.encode.latency_us
  LatencyHistogram* decode_hist_ = nullptr;    ///< wire.decode.latency_us
  LatencyHistogram* queue_wait_hist_ = nullptr;  ///< cluster.queue.wait_us
  /// master.admission.wait_us: time BeginQuery blocked for a slot.
  LatencyHistogram* admission_wait_hist_ = nullptr;
  /// master.query.queue_wait_us: one sample per query at EndQuery — the
  /// query's total request-queue residency.
  LatencyHistogram* query_queue_wait_hist_ = nullptr;
  std::vector<Gauge*> depth_gauges_;  ///< cluster.queue.depth.node<N>
  /// cluster.maintenance.runs / cluster.maintenance.dropped: scheduled
  /// background flush/compaction steps executed by node workers vs
  /// dropped because the node's queue was already full.
  Counter* maintenance_runs_counter_ = nullptr;
  Counter* maintenance_dropped_counter_ = nullptr;
};

/// Everything private to one admitted query: the reply channel the
/// demultiplexer routes into, the virtual clock, and wire totals. The
/// master holds it as the query's handle from BeginQuery to EndQuery,
/// and each request envelope holds it until a worker replied, so no call
/// ever looks a query up by id.
struct NodeRuntime::QueryState {
  QueryState(uint64_t id, const QueryOptions& options)
      : query_id(id),
        codec(options.codec),
        deadline_us(options.deadline_us),
        trace_flags(options.trace_flags),
        replies(static_cast<size_t>(-1)) {}

  /// The query's private virtual clock, in microseconds: workers add
  /// each served request's injected latency, the master adds failover
  /// backoff. Stored as integer nanoseconds so concurrent additions
  /// commute exactly, and per query so one query's charges never move
  /// another's deadline.
  Micros clock_us() const;
  void AdvanceClock(Micros us);

  const uint64_t query_id;
  const WireCodecKind codec;
  const Micros deadline_us;
  const uint8_t trace_flags;
  /// Unbounded for the same reason the old global reply queue was: a
  /// worker must never block on a reply while the master blocks
  /// pushing into a full request queue, or the two would deadlock.
  BoundedQueue<ReplyEnvelope> replies;
  std::atomic<uint64_t> clock_nanos{0};
  std::atomic<uint64_t> frames_sent{0};
  std::atomic<uint64_t> frames_received{0};
  std::atomic<uint64_t> bytes_sent{0};
  std::atomic<uint64_t> bytes_received{0};
  std::atomic<uint64_t> encode_nanos{0};
  std::atomic<uint64_t> decode_nanos{0};
  std::atomic<uint64_t> queue_wait_nanos{0};

  // The reply frame Await is handing out, answer by answer. Only the
  // query's collecting thread touches these.
  ReplyEnvelope frame;
  size_t next_answer = 0;
  Status frame_status;      ///< the frame decoded and validated
  uint8_t reply_flags = 0;  ///< trace flags the frame carried
  DecodedReplyBatch answers;
  Micros dequeued_us = 0.0;
  Micros decoded_us = 0.0;
};

}  // namespace kvscale
