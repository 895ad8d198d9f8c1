// The query-plan gather engine: the one scatter/collect loop every read
// runs on, whatever the transport.
//
// This TU holds the execution half of InProcessCluster — the part that
// runs a QueryPlan. Gather() scatters every sub-query's first viable
// attempt through the query's Transport (cluster/transport.hpp), then
// collects the answers as they land, folding data and failing unanswered
// sub-queries over. The failover decision loop (SubQueryFailover::
// NextAttempt) decides which replica an attempt targets, when a retry
// backs off on the query's virtual clock, when a hedge races a second
// copy, and when a ring-epoch bump forces the replica set to be
// re-resolved. The transports differ only below the Transport seam: the
// inline one serves a send on the spot, the message one encodes a frame
// for a node's queue. Folding is the plan's PlanFold either way.
//
// Membership, placement, and storage plumbing stay in
// in_process_cluster.cpp; the write path's loop is in write_path.cpp.

#include "cluster/in_process_cluster.hpp"

// kvscale-lint: allow-file(sim-wallclock) real data path: gathers time
// actual store and network work with the wall clock, not simulated time

#include <algorithm>
#include <chrono>
#include <span>
#include <thread>

#include "cluster/query_ops.hpp"
#include "common/check.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/span_tracer.hpp"
#include "telemetry/timeseries.hpp"
#include "trace/stage_trace.hpp"

namespace kvscale {

namespace {

double ElapsedMicros(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Grows a per-node tally vector to cover `node` (a slot added by a
/// membership change after the gather's vectors were sized).
template <typename T>
void EnsureSlot(std::vector<T>& v, size_t node) {
  if (v.size() <= node) v.resize(node + 1);
}

}  // namespace

/// The single retry/hedge/deadline/epoch loop. One instance drives one
/// sub-query; NextAttempt() yields the next viable (target, attempt,
/// latency charge) or returns false once the attempts are exhausted or
/// the deadline passed. Backoff is charged to the query's transport
/// clock, the one the deadline is judged on.
struct InProcessCluster::SubQueryFailover {
  /// One viable attempt: where to read, which attempt number it is, and
  /// the injected latency the transport must charge for the read.
  struct Decision {
    NodeId target = 0;
    uint32_t attempt = 0;
    Micros extra_latency_us = 0.0;
  };

  InProcessCluster* cluster = nullptr;
  const GatherOptions* options = nullptr;
  GatherResult* result = nullptr;
  Transport* transport = nullptr;
  const std::string* key = nullptr;  ///< the partition under query
  /// The key's set in the gather's routed plan, until a retry after an
  /// epoch bump re-resolves it into `resolved`.
  std::span<const NodeId> routed;
  std::vector<NodeId> resolved;
  uint64_t epoch = 0;  ///< ring epoch the current set was resolved at

  std::span<const NodeId> replicas() const {
    return resolved.empty() ? routed : std::span<const NodeId>(resolved);
  }
  uint32_t next_attempt = 0;
  uint32_t attempts = 0;  ///< attempts actually consumed (incl. faulted)

  bool PastDeadline() const {
    return options->deadline_us > 0.0 &&
           transport->clock_us() >= options->deadline_us;
  }

  /// Tallies one per-replica error (transport refusal, fault, or a store
  /// error a retry may still fix).
  void RecordError(NodeId node) {
    EnsureSlot(result->errors_per_node, node);
    ++result->errors_per_node[node];
    Instruments::Add(cluster->inst_.read_errors);
  }

  bool NextAttempt(Decision& out) {
    const uint32_t max_attempts = std::max<uint32_t>(options->max_attempts, 1);
    while (next_attempt < max_attempts) {
      const uint32_t a = next_attempt;
      if (a > 0) {
        // Retries stop once the virtual clock passes the deadline: the
        // gather degrades instead of spinning on a sick cluster.
        if (PastDeadline()) break;
        ++result->retries;
        Instruments::Add(cluster->inst_.retries);
        transport->AdvanceClock(options->backoff_base_us *
                                static_cast<double>(uint64_t{1} << (a - 1)));
        // A ring-epoch bump means ownership moved while this sub-query
        // was failing over: re-resolve so the retry chases the data to
        // its new owner instead of re-probing a set that no longer
        // holds it.
        const uint64_t epoch_now = cluster->ring_epoch();
        if (epoch_now != epoch) {
          resolved = cluster->ReplicasOf(*key);
          epoch = epoch_now;
        }
      }
      next_attempt = a + 1;
      ++attempts;
      const std::span<const NodeId> replicas = this->replicas();
      const uint32_t fanout = static_cast<uint32_t>(replicas.size());
      NodeId target = replicas[(options->replica + a) % fanout];
      FaultInjector::ReadFault fault =
          cluster->injector_->OnRead(target, *key, a);

      // Hedge: an attempt stalled past the threshold races a duplicate
      // read against the next replica; the faster copy wins and the
      // loser is abandoned (only the winner's read reaches a store).
      if (fault.status.ok() && options->hedge && fanout > 1 &&
          fault.extra_latency_us >= options->hedge_threshold_us &&
          !PastDeadline()) {
        const NodeId alt = replicas[(options->replica + a + 1) % fanout];
        const FaultInjector::ReadFault alt_fault =
            cluster->injector_->OnRead(alt, *key, a);
        ++result->hedged;
        Instruments::Add(cluster->inst_.hedged);
        if (alt_fault.status.ok()) {
          const Micros hedge_latency =
              options->hedge_threshold_us + alt_fault.extra_latency_us;
          if (hedge_latency < fault.extra_latency_us) {
            target = alt;
            fault.extra_latency_us = hedge_latency;
          }
        } else {
          RecordError(alt);
        }
      }

      if (!fault.status.ok()) {
        RecordError(target);
        continue;  // fail over to the next replica
      }
      out.target = target;
      out.attempt = a;
      out.extra_latency_us = fault.extra_latency_us;
      return true;
    }
    return false;
  }
};

void InProcessCluster::RecordGather(uint64_t query_id, QueryKind kind,
                                    const std::string& table,
                                    std::string_view transport,
                                    const GatherResult& result,
                                    std::vector<RequestTrace> timeline) {
  Instruments::Add(inst_.query_kinds[static_cast<size_t>(kind)]);
  // Advance the cadence clock even when nothing is attached: a collector
  // attached mid-run starts from the cluster's accumulated time, not 0.
  const uint64_t advance =
      static_cast<uint64_t>(std::max(result.wall_us, 0.0) * 1e3);
  const uint64_t clock_nanos =
      telemetry_clock_nanos_.fetch_add(advance, std::memory_order_relaxed) +
      advance;
  if (flight_recorder_ != nullptr) {
    QueryRecord record;
    record.query_id = query_id;
    record.table = table;
    record.transport = std::string(transport);
    record.query_kind = std::string(QueryKindName(kind));
    record.subqueries = result.subqueries;
    record.completed = result.completed;
    record.failed = result.failed;
    record.retries = result.retries;
    record.hedged = result.hedged;
    record.partial = result.partial;
    record.shed_by_admission = result.shed_by_admission;
    record.admission_wait_us = result.admission_wait_us;
    record.queue_wait_us = result.queue_wait_us;
    record.virtual_latency_us = result.virtual_latency_us;
    record.wall_us = result.wall_us;
    record.wire_bytes_sent = result.wire_bytes_sent;
    record.wire_bytes_received = result.wire_bytes_received;
    record.wire_frames_sent = result.wire_frames_sent;
    record.wire_frames_received = result.wire_frames_received;
    record.ring_epoch = ring_epoch();
    record.timeline = std::move(timeline);
    flight_recorder_->Record(std::move(record));
  }
  if (timeseries_ != nullptr) {
    timeseries_->Tick(static_cast<Micros>(clock_nanos) / 1e3, ring_epoch());
  }
}

std::shared_ptr<NodeRuntime> InProcessCluster::EnsureRuntime(
    const TransportOptions& options) {
  MutexLock lock(runtime_mu_);
  const bool reusable =
      runtime_ != nullptr &&
      runtime_->options().queue_depth == options.queue_depth &&
      runtime_->options().workers_per_node == options.workers_per_node &&
      runtime_->options().queue_policy == options.queue_policy;
  if (reusable) {
    // Admission is a controller setting, not a structural one: re-arm it
    // without touching the queues or workers.
    runtime_->SetAdmissionLimit(options.max_inflight,
                                options.admission_policy);
    return runtime_;
  }
  runtime_ = std::make_shared<NodeRuntime>(
      node_count(), options, handlers_.read, codec_registry_, injector_,
      metrics_, spans_, handlers_.write,
      [this](uint32_t node, const std::string& table) {
        RunMaintenanceStep(node, table);
      });
  ++runtime_builds_;
  return runtime_;
}

uint64_t InProcessCluster::MintQueryId(GatherTransport transport) {
  const bool seen = transport == GatherTransport::kMessage ||
                    flight_recorder_ != nullptr || stage_tracer_ != nullptr;
  return seen ? next_query_id_.fetch_add(1, std::memory_order_relaxed) : 0;
}

std::unique_ptr<Transport> InProcessCluster::OpenTransport(
    const TransportOptions& options, uint64_t query_id,
    const NodeRuntime::QueryOptions& query) {
  if (options.transport == GatherTransport::kDirect) {
    return std::make_unique<InlineTransport>(handlers_, spans_, query_id);
  }
  return std::make_unique<MessageTransport>(EnsureRuntime(options), query_id,
                                            query, handlers_, spans_);
}

TableReader InProcessCluster::OpenRead(uint32_t node,
                                       const std::string& table) {
  std::shared_ptr<LocalStore> store = NodePtr(node);
  Result<Table*> found =
      store == nullptr ? Result<Table*>(Status::Unavailable(
                             "node " + std::to_string(node) + " has no store"))
                       : store->FindTable(table);
  if (!found.ok()) {
    return [refused = found.status()](const SubQueryBatch&, size_t,
                                      ReadProbe*) -> Result<OperatorResult> {
      return refused;
    };
  }
  // Operator dispatch: the frame names what to run; the node has no
  // query-type knowledge of its own. The captured store keeps the table
  // alive even if ReviveNode swaps the slot while the reader is held.
  return [store = std::move(store), opened = found.value()](
             const SubQueryBatch& frame, size_t item, ReadProbe* probe) {
    return ExecuteOperator(*opened, frame.keys[item],
                           static_cast<uint32_t>(frame.op), frame.arg_lo,
                           frame.arg_hi, frame.arg_limit, probe);
  };
}

GatherResult InProcessCluster::Gather(const QueryPlan& plan,
                                      const GatherOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  GatherResult result;
  result.requests_per_node.assign(node_count(), 0);
  result.probes_per_node.assign(node_count(), ReadProbe{});
  result.errors_per_node.assign(node_count(), 0);
  PlanFold fold(plan);
  const size_t total = plan.partitions.size();

  // With tracing on, the sampled bit rides in every frame this query
  // sends: workers see it *on the wire* and record their spans
  // flow-linked to the sub-query that caused the work.
  NodeRuntime::QueryOptions query_options;
  query_options.codec = options.codec;
  query_options.deadline_us = options.deadline_us;
  query_options.trace_flags =
      spans_ != nullptr && spans_->enabled() ? kTraceSampled : 0;
  const uint64_t query_id = MintQueryId(options.transport);
  std::unique_ptr<Transport> transport =
      OpenTransport(options, query_id, query_options);
  const auto admission_t0 = std::chrono::steady_clock::now();
  const Status admitted = transport->Begin();
  result.admission_wait_us = ElapsedMicros(admission_t0);
  if (!admitted.ok()) {
    // Shed at admission: nothing was dispatched, every sub-query is
    // reported lost, and the caller sees a degraded (but accounted-for)
    // result instead of an exception path.
    result.shed_by_admission = true;
    result.subqueries = total;
    result.failed = total;
    for (const PlanPartition& part : plan.partitions) {
      result.lost_partitions.push_back(part.part.key);
    }
    Instruments::Add(inst_.subqueries, total);
    Instruments::Add(inst_.failed, total);
    fold.Finish(result);
    FinalizeGatherAccounting(result);
    result.wall_us = ElapsedMicros(t0);
    RecordGather(query_id, plan.kind, plan.table, transport->name(), result,
                 {});
    return result;
  }
  const bool sampled = transport->sampled();

  SpanTracer::Scope gather;
  if (spans_ != nullptr) {
    gather = spans_->StartSpan("gather", master_track());
    gather.Attr("table", plan.table);
    gather.Attr("kind", std::string(QueryKindName(plan.kind)));
    gather.Attr("partitions", std::to_string(total));
    gather.Attr("transport", std::string(transport->name()));
    gather.Attr("batch", options.batch ? "true" : "false");
    gather.Attr("query", std::to_string(query_id));
  }

  struct Pending {
    SubQueryFailover failover;
    bool started = false;  ///< t0 stamped (first dispatch processing)
    std::chrono::steady_clock::time_point t0;
  };
  std::vector<Pending> subs(total);
  // The plan's replica sets, routed once per ring epoch and shared by
  // every gather of the same keys; held until this gather ends.
  const std::shared_ptr<const RoutedPlan> routed = RoutePlan(plan);
  for (size_t i = 0; i < total; ++i) {
    SubQueryFailover& failover = subs[i].failover;
    failover.cluster = this;
    failover.options = &options;
    failover.result = &result;
    failover.transport = transport.get();
    failover.key = &plan.partitions[i].part.key;
    failover.epoch = routed->epoch;
    failover.routed = routed->ReplicasOf(i);
  }

  // The flight recorder's per-sub-query stage records (last attempt wins).
  std::vector<RequestTrace> timeline;
  if (flight_recorder_ != nullptr) {
    timeline.resize(total);
    for (size_t i = 0; i < total; ++i) {
      timeline[i].query_id = query_id;
      timeline[i].sub_id = static_cast<uint32_t>(i);
      timeline[i].keysize =
          static_cast<double>(plan.partitions[i].part.elements);
    }
  }

  // Settles one sub-query's fate in the result. `data` is non-null only
  // when real data came back. Returns the completion stamp.
  auto resolve = [&](size_t i, bool answered, const TransportReply* data) {
    const Pending& s = subs[i];
    if (answered) {
      ++result.completed;
      if (data != nullptr) {
        SpanTracer::Scope fold_span;
        if (spans_ != nullptr) {
          fold_span = spans_->StartSpan("fold", master_track());
          fold_span.Attr("partition", plan.partitions[i].part.key);
        }
        fold.Accept(i, data->col_a(), data->col_b(), result);
      } else {
        ++result.partitions_missing;
        Instruments::Add(inst_.missing);
      }
    } else {
      ++result.failed;
      Instruments::Add(inst_.failed);
      result.lost_partitions.push_back(plan.partitions[i].part.key);
    }
    const Micros completed = transport->now_us();
    if (!timeline.empty()) {
      RequestTrace& entry = timeline[i];
      entry.attempts = s.failover.attempts;
      entry.answered = answered;
      entry.completed = completed;
    }
    const double wall_us = ElapsedMicros(s.t0);
    Instruments::Observe(inst_.subquery_latency, wall_us);
    if (s.failover.attempts > 1) {
      Instruments::Observe(inst_.failover_latency, wall_us);
    }
    return completed;
  };

  // A request frame: the plan's sub-queries bound for one node as one
  // SubQueryBatch (the plan-level fields once, one item per attempt),
  // plus each item's injected latency charge, which stays off the wire.
  struct Frame {
    SubQueryBatch batch;
    std::vector<Micros> extras;
  };
  Frame blank;  // the plan-level fields every frame of this gather shares
  blank.batch.query_id = query_id;
  blank.batch.table = plan.table;
  blank.batch.op = plan.op;
  blank.batch.arg_lo = plan.arg_lo;
  blank.batch.arg_hi = plan.arg_hi;
  blank.batch.arg_limit = plan.arg_limit;
  std::vector<Frame> per_node;  // filled only during a batched scatter
  Frame single;  // the one-item frame of an unbatched send or a failover

  // Sends `frame` to `node`, with one dispatch span per sub-query: each
  // starts its own flow, even when they share a frame, and covers encode
  // + enqueue (any backpressure blocking included) — the arrow the node's
  // worker spans and the master's reply span attach to. Feeds placement
  // once the frame actually left the master.
  auto send = [&](NodeId node, const Frame& frame) {
    const SubQueryBatch& batch = frame.batch;
    std::vector<SpanTracer::Scope> dispatch_spans;
    if (sampled) {
      dispatch_spans.reserve(batch.size());
      for (size_t k = 0; k < batch.size(); ++k) {
        const auto attempt = static_cast<uint32_t>(batch.attempts[k]);
        SpanTracer::Scope span = spans_->StartSpan("dispatch", master_track());
        span.Attr("partition", batch.keys[k]);
        span.Attr("node", std::to_string(node));
        span.Attr("attempt", std::to_string(attempt));
        span.Flow(TraceFlowId(query_id, static_cast<uint32_t>(batch.sub_ids[k]),
                              attempt),
                  FlowPhase::kStart);
        dispatch_spans.push_back(std::move(span));
      }
    }
    const Status sent = transport->SendReads(node, batch, frame.extras);
    for (SpanTracer::Scope& span : dispatch_spans) {
      if (!sent.ok()) span.Attr("refused", "true");
      span.End();
    }
    if (sent.ok()) {
      RecordDispatch(node, batch.size());
    }
    return sent;
  };

  // Advances sub-query `i` to its next viable attempt via the failover
  // loop, then either sends the attempt (or, with `collect`, appends it to
  // its node's frame) and returns true, or exhausts the attempts, records
  // the loss, and returns false.
  auto try_dispatch = [&](size_t i, bool collect) {
    Pending& s = subs[i];
    if (!s.started) {
      // The latency clock starts when the master first *processes* this
      // sub-query, not when the scatter loop began: a late-scattered
      // sub-query must not be charged its predecessors' dispatch work.
      s.started = true;
      s.t0 = std::chrono::steady_clock::now();
    }
    SubQueryFailover::Decision decision;
    while (s.failover.NextAttempt(decision)) {
      if (collect && per_node.size() <= decision.target) {
        per_node.resize(decision.target + 1, blank);
      }
      // Copy-assigning the blank keeps the frame's buffers: a single send
      // allocates nothing once the first one sized them.
      if (!collect) single = blank;
      Frame& frame = collect ? per_node[decision.target] : single;
      frame.batch.Append(static_cast<uint32_t>(i), decision.attempt,
                         *s.failover.key, plan.partitions[i].part.elements);
      frame.extras.push_back(decision.extra_latency_us);
      if (collect || send(decision.target, frame).ok()) return true;
      // kReject backpressure: the send itself was refused; fail over like
      // any other transport error.
      s.failover.RecordError(decision.target);
    }
    resolve(i, /*answered=*/false, nullptr);
    return false;
  };

  // Scatter: every sub-query's first viable attempt, coalesced per node
  // when batching is on.
  size_t outstanding = 0;
  Instruments::Add(inst_.subqueries, total);
  for (size_t i = 0; i < total; ++i) {
    ++result.subqueries;
    SpanTracer::Scope route;
    if (spans_ != nullptr) route = spans_->StartSpan("route", master_track());
    if (route.active()) {
      const std::span<const NodeId> replicas = subs[i].failover.replicas();
      route.Attr("partition", *subs[i].failover.key);
      route.Attr("node",
                 std::to_string(replicas[options.replica % replicas.size()]));
      route.End();
    }
    if (try_dispatch(i, options.batch) && !options.batch) ++outstanding;
  }
  for (uint32_t n = 0; n < per_node.size(); ++n) {
    const Frame& frame = per_node[n];
    if (frame.batch.size() == 0) continue;
    if (send(n, frame).ok()) {
      outstanding += frame.batch.size();
      continue;
    }
    // The whole frame was refused (kReject): every sub-query in it fails
    // over individually, unbatched.
    for (const uint64_t sub_id : frame.batch.sub_ids) {
      subs[sub_id].failover.RecordError(n);
      if (try_dispatch(sub_id, false)) ++outstanding;
    }
  }

  // Collect: settle answers as they land, folding data and failing
  // unanswered sub-queries over until every one is settled. A transport
  // only ever surfaces this query's answers — concurrent gathers drain
  // their own channels.
  while (outstanding > 0) {
    TransportReply r = transport->Await();
    --outstanding;
    const size_t i = r.trace.sub_id;
    const NodeId node = r.trace.node;
    KV_CHECK(i < total);
    // The flow's terminus: the reply span covers this reply's fold (or
    // failover decision) and closes the arrow the dispatch span opened —
    // but only when the wire actually carried the sampled bit back.
    SpanTracer::Scope reply_span;
    if (sampled && (r.trace_flags & kTraceSampled) != 0) {
      reply_span = spans_->StartSpan("reply", master_track());
      reply_span.Attr("sub", std::to_string(i));
      reply_span.Attr("node", std::to_string(node));
      reply_span.Attr("attempt", std::to_string(r.attempt));
      reply_span.Flow(TraceFlowId(query_id, r.trace.sub_id, r.attempt),
                      FlowPhase::kFinish);
    }
    // The served reply's stage record, as the transport stamped it;
    // `completed` is stamped once it settled (folded, or failed over).
    RequestTrace& trace = r.trace;
    const bool traced =
        r.served && (stage_tracer_ != nullptr || !timeline.empty() ||
                     inst_.reply_fold != nullptr);
    if (traced) {
      trace.query_id = query_id;
      trace.keysize = static_cast<double>(plan.partitions[i].part.elements);
      // resolve() stamps the attempt count, verdict and completion.
      if (!timeline.empty()) timeline[i] = trace;
    }
    if (r.served) {
      EnsureSlot(result.requests_per_node, node);
      EnsureSlot(result.probes_per_node, node);
      ++result.requests_per_node[node];
      result.probes_per_node[node].MergeFrom(r.probe);
    }
    Micros completed = 0.0;
    if (r.code == StatusCode::kOk) {
      completed = resolve(i, /*answered=*/true, &r);
    } else if (r.code == StatusCode::kNotFound) {
      // Authoritative miss: every replica stores the same partition set,
      // so one clean NotFound settles the sub-query.
      completed = resolve(i, /*answered=*/true, nullptr);
    } else {
      completed = transport->now_us();
      // kCorruption and friends are retryable: the next replica holds a
      // clean copy. A shed (kResourceExhausted) is the deadline's doing,
      // not the node's: it retries without an error tally, and the
      // deadline check inside the failover loop settles its fate.
      if (r.code != StatusCode::kResourceExhausted) {
        subs[i].failover.RecordError(node);
      }
      if (try_dispatch(i, false)) ++outstanding;
    }
    if (traced) {
      trace.completed = completed;
      if (stage_tracer_ != nullptr) stage_tracer_->Record(trace);
      const RequestTrace::ReplySplit split = trace.SlaveToMasterSplit();
      Instruments::Observe(inst_.reply_encode, split.encode);
      Instruments::Observe(inst_.reply_residency, split.residency);
      Instruments::Observe(inst_.reply_decode, split.decode);
      Instruments::Observe(inst_.reply_fold, split.fold);
    }
  }

  // Read the query's private accounting before releasing it.
  const Transport::Totals totals = transport->End();
  result.virtual_latency_us = totals.virtual_us;
  result.queue_wait_us = totals.queue_wait_us;
  result.wire_frames_sent = totals.wire.frames_sent;
  result.wire_frames_received = totals.wire.frames_received;
  result.wire_bytes_sent = totals.wire.bytes_sent;
  result.wire_bytes_received = totals.wire.bytes_received;
  result.wire_encode_us = totals.wire.encode_us;
  result.wire_decode_us = totals.wire.decode_us;
  fold.Finish(result);
  FinalizeGatherAccounting(result);
  result.wall_us = ElapsedMicros(t0);
  RecordGather(query_id, plan.kind, plan.table, transport->name(), result,
               std::move(timeline));
  return result;
}

ConcurrentGatherReport InProcessCluster::GatherConcurrent(
    const QueryPlan& plan, uint32_t clients, uint32_t queries_per_client,
    const GatherOptions& options) {
  KV_CHECK(clients >= 1);
  KV_CHECK(queries_per_client >= 1);
  GatherOptions opts = options;
  opts.transport = GatherTransport::kMessage;

  // Route the plan and build the shared runtime outside the timed
  // region: the measurement is queries per second, not setup.
  RoutePlan(plan);
  EnsureRuntime(opts);

  ConcurrentGatherReport report;
  report.results.resize(static_cast<size_t>(clients) * queries_per_client);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> client_threads;
  client_threads.reserve(clients);
  for (uint32_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([this, &plan, &opts, &report,
                                 queries_per_client, c] {
      for (uint32_t q = 0; q < queries_per_client; ++q) {
        report.results[static_cast<size_t>(c) * queries_per_client + q] =
            Gather(plan, opts);
      }
    });
  }
  for (auto& client : client_threads) client.join();
  report.wall_us = ElapsedMicros(start);
  report.queries = report.results.size();
  for (const GatherResult& r : report.results) {
    if (r.shed_by_admission) {
      ++report.shed;
    } else {
      ++report.admitted;
    }
  }
  if (report.wall_us > 0.0) {
    report.queries_per_sec =
        static_cast<double>(report.admitted) * 1e6 / report.wall_us;
  }
  return report;
}

GatherResult InProcessCluster::CountByTypeAll(const WorkloadSpec& workload,
                                              const GatherOptions& options) {
  return Gather(MakeCountPlan(workload), options);
}

}  // namespace kvscale
