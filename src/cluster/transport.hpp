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

// GatherTransport and TransportOptions live in node_runtime.hpp: the
// runtime is built from the same options struct.

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
  using Totals = NodeRuntime::QueryTotals;

  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// "direct" or "message": the flight-recorder tag.
  virtual std::string_view name() const = 0;

  /// Registers the query. The message transport's admission point:
  /// blocks or sheds (kResourceExhausted) at the in-flight bound.
  virtual Status Begin() = 0;

  /// Sends `batch` — read sub-queries of this query bound for `node`,
  /// each with its attempt number — as one frame on the message path;
  /// `extra_latency_us` holds each item's injected latency charge. A
  /// refusal (backpressure under kReject) sends nothing.
  virtual Status SendReads(NodeId node, const SubQueryBatch& batch,
                           std::span<const Micros> extra_latency_us) = 0;

  /// Sends one write batch to `batch.target`.
  virtual Status SendWrite(const WriteBatch& batch) = 0;

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
  Transport(const NodeHandlers& handlers, SpanTracer* spans,
            uint64_t query_id)
      : handlers_(handlers), spans_(spans), query_id_(query_id) {}

  /// Serves a read batch bound for `node` / one write batch on the
  /// caller's thread — the inline transport's body, and the message
  /// transport's route to a node its (older) runtime has no queue for.
  /// The reads check that `batch` is this query's, open `node`'s table
  /// once, park one answer per item in `out`, and charge each item's
  /// injected latency to the clock.
  void ServeReads(NodeId node, const SubQueryBatch& batch,
                  std::span<const Micros> extra_latency_us,
                  std::deque<TransportReply>& out);
  TransportReply ServeWrite(const WriteBatch& batch);

  const NodeHandlers& handlers_;
  SpanTracer* spans_;  ///< may be null
  const uint64_t query_id_;
};

/// GatherTransport::kDirect: synchronous handler calls.
class InlineTransport final : public Transport {
 public:
  InlineTransport(const NodeHandlers& handlers, SpanTracer* spans,
                  uint64_t query_id)
      : Transport(handlers, spans, query_id) {}

  std::string_view name() const override { return "direct"; }
  Status Begin() override { return Status::Ok(); }
  Status SendReads(NodeId node, const SubQueryBatch& batch,
                   std::span<const Micros> extra_latency_us) override;
  Status SendWrite(const WriteBatch& batch) override;
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
                   NodeRuntime::QueryOptions options,
                   const NodeHandlers& handlers, SpanTracer* spans)
      : Transport(handlers, spans, query_id),
        runtime_(std::move(runtime)),
        options_(options) {}
  ~MessageTransport() override;

  std::string_view name() const override { return "message"; }
  Status Begin() override;
  Status SendReads(NodeId node, const SubQueryBatch& batch,
                   std::span<const Micros> extra_latency_us) override;
  Status SendWrite(const WriteBatch& batch) override;
  TransportReply Await() override;
  Totals End() override;
  Micros clock_us() const override { return query_->clock_us(); }
  void AdvanceClock(Micros us) override { query_->AdvanceClock(us); }
  Micros now_us() const override { return runtime_->now_us(); }
  bool sampled() const override {
    return (options_.trace_flags & kTraceSampled) != 0;
  }

 private:
  /// A membership change grew the cluster after this runtime was built:
  /// the runtime has no queue for `node`, yet the store is live and may
  /// hold the only reachable copy while a migration window is open.
  bool Stale(NodeId node) const { return node >= runtime_->node_count(); }

  std::shared_ptr<NodeRuntime> runtime_;
  const NodeRuntime::QueryOptions options_;
  /// The admitted query's runtime state: null before Begin admits it and
  /// after End releases it.
  NodeRuntime::QueryHandle query_;
  /// Answers served directly for stale nodes, handed out before the
  /// runtime's channel is consulted.
  std::deque<TransportReply> direct_;
};

}  // namespace kvscale
