// Transport: how one query's requests reach the nodes and how the answers
// come back — the single seam between the master's scatter/collect loops
// (gather_engine.cpp for reads, write_path.cpp for writes) and the nodes.
//
// Two implementations sit behind the one interface:
//   InlineTransport  (GatherTransport::kDirect) calls the node handlers
//       synchronously on the master's thread: no encoding, no queue. A
//       send serves the request on the spot and parks the answer until
//       Await hands it back.
//   MessageTransport (GatherTransport::kMessage) is one query's session on
//       the cluster's shared NodeRuntime: sends encode frames onto the
//       nodes' bounded queues, worker pools serve them, Await decodes the
//       replies off the query's private channel.
// Both call the same NodeHandlers and return the same TransportReply,
// stamped with the paper's four stage boundaries, so the loops above —
// failover, folding, quorum accounting, stage tracing — never ask which
// transport they run on. A Transport object lives for exactly one query
// and owns that query's virtual clock.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string_view>

#include "cluster/node_runtime.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "hash/token_ring.hpp"
#include "wire/envelope.hpp"
#include "wire/messages.hpp"

namespace kvscale {

class SpanTracer;  // telemetry/span_tracer.hpp

/// How the master reaches the slaves' stores.
enum class GatherTransport : uint8_t {
  /// Plain function calls into each node's store (InlineTransport).
  kDirect = 0,
  /// Real encoded messages through per-node queues and worker pools
  /// (MessageTransport over node_runtime.hpp): requests are serialized
  /// with the selected codec, optionally batched per node, executed by
  /// worker threads, and answered with encoded reply frames the master
  /// decodes and folds.
  kMessage = 1,
};

/// The transport knobs every read and write shares. GatherOptions and
/// PutOptions extend this one struct, so a knob exists exactly once.
struct TransportOptions {
  GatherTransport transport = GatherTransport::kDirect;
  /// Wire codec for requests and replies (the Section V-B axis). Per
  /// query: concurrent queries with different codecs share the runtime.
  WireCodecKind codec = WireCodecKind::kCompact;
  /// Request-queue capacity per node. Structural: changing it rebuilds
  /// the shared runtime.
  uint32_t queue_depth = 64;
  /// Worker threads draining each node's queue. Structural: changing it
  /// rebuilds the shared runtime.
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
  /// query with kResourceExhausted.
  QueueFullPolicy admission_policy = QueueFullPolicy::kBlock;
};

/// What a node does with one request — the node side of the cluster.
/// Both transports call these same handlers; the write handler receives
/// a null runtime under the inline transport (nothing to schedule on).
struct NodeHandlers {
  SubQueryHandler read;
  WriteBatchHandler write;
};

/// One query's channel to the nodes.
class Transport {
 public:
  /// What the query cost on the wire, read at End().
  struct Totals {
    NodeRuntime::WireStats wire;  ///< zero under the inline transport
    Micros queue_wait_us = 0.0;   ///< request-queue residency
    Micros virtual_us = 0.0;      ///< the query's virtual clock
  };

  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// "direct" or "message": the flight-recorder tag.
  virtual std::string_view name() const = 0;

  /// Registers the query. The message transport's admission point:
  /// blocks or sheds (kResourceExhausted) at the in-flight bound.
  virtual Status Begin() = 0;

  /// Sends read sub-queries bound for `node` (one frame on the message
  /// path), with per-item attempt numbers and injected latency charges.
  /// A refusal (backpressure under kReject) sends nothing.
  virtual Status SendReads(NodeId node,
                           std::span<const SubQueryRequest> requests,
                           std::span<const uint32_t> attempts,
                           std::span<const Micros> extra_latency_us) = 0;

  /// Sends one write batch to `batch.target`.
  virtual Status SendWrite(const WriteBatch& batch, uint32_t attempt) = 0;

  /// The next answer to this query: exactly one per request sent.
  virtual TransportReply Await() = 0;

  /// Ends the query and returns its totals. Call once, after every sent
  /// request was awaited.
  virtual Totals End() = 0;

  /// The query's private virtual clock (injected latency + backoff).
  virtual Micros clock_us() const = 0;
  virtual void AdvanceClock(Micros us) = 0;

  /// The clock the reply stage stamps use, so the master can stamp a
  /// request's completion on the same scale.
  virtual Micros now_us() const = 0;

  /// True when this query's frames carry the sampled trace bit: the
  /// dispatch -> node -> reply span flows exist only across a wire.
  virtual bool sampled() const = 0;

 protected:
  Transport(const NodeHandlers& handlers, SpanTracer* spans)
      : handlers_(handlers), spans_(spans) {}

  /// Serves one read / one write batch on the caller's thread — the
  /// inline transport's body, and the message transport's route to a
  /// node its (older) runtime has no queue for.
  TransportReply ServeRead(NodeId node, const SubQueryRequest& request,
                           uint32_t attempt);
  TransportReply ServeWrite(const WriteBatch& batch, uint32_t attempt);

  const NodeHandlers& handlers_;
  SpanTracer* spans_;  ///< may be null
};

/// GatherTransport::kDirect: synchronous handler calls.
class InlineTransport final : public Transport {
 public:
  InlineTransport(const NodeHandlers& handlers, SpanTracer* spans)
      : Transport(handlers, spans) {}

  std::string_view name() const override { return "direct"; }
  Status Begin() override { return Status::Ok(); }
  Status SendReads(NodeId node, std::span<const SubQueryRequest> requests,
                   std::span<const uint32_t> attempts,
                   std::span<const Micros> extra_latency_us) override;
  Status SendWrite(const WriteBatch& batch, uint32_t attempt) override;
  TransportReply Await() override;
  Totals End() override;
  Micros clock_us() const override { return clock_us_; }
  void AdvanceClock(Micros us) override { clock_us_ += us; }
  Micros now_us() const override;
  bool sampled() const override { return false; }

 private:
  std::deque<TransportReply> replies_;
  Micros clock_us_ = 0.0;
};

/// GatherTransport::kMessage: one query's session on the shared runtime.
class MessageTransport final : public Transport {
 public:
  /// `runtime` stays alive for the session even if the cluster replaces
  /// it mid-query.
  MessageTransport(std::shared_ptr<NodeRuntime> runtime, uint64_t query_id,
                   NodeRuntime::QueryOptions query,
                   const NodeHandlers& handlers, SpanTracer* spans)
      : Transport(handlers, spans),
        runtime_(std::move(runtime)),
        query_id_(query_id),
        query_(query) {}
  ~MessageTransport() override;

  std::string_view name() const override { return "message"; }
  Status Begin() override;
  Status SendReads(NodeId node, std::span<const SubQueryRequest> requests,
                   std::span<const uint32_t> attempts,
                   std::span<const Micros> extra_latency_us) override;
  Status SendWrite(const WriteBatch& batch, uint32_t attempt) override;
  TransportReply Await() override;
  Totals End() override;
  Micros clock_us() const override { return runtime_->clock_us(query_id_); }
  void AdvanceClock(Micros us) override {
    runtime_->AdvanceClock(query_id_, us);
  }
  Micros now_us() const override { return runtime_->now_us(); }
  bool sampled() const override {
    return (query_.trace_flags & kTraceSampled) != 0;
  }

 private:
  /// A membership change grew the cluster after this runtime was built:
  /// the runtime has no queue for `node`, yet the store is live and may
  /// hold the only reachable copy while a migration window is open.
  bool Stale(NodeId node) const { return node >= runtime_->node_count(); }

  std::shared_ptr<NodeRuntime> runtime_;
  const uint64_t query_id_;
  const NodeRuntime::QueryOptions query_;
  bool begun_ = false;
  /// Answers served directly for stale nodes, handed out before the
  /// runtime's channel is consulted.
  std::deque<TransportReply> direct_;
};

}  // namespace kvscale
