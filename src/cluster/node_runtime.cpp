#include "cluster/node_runtime.hpp"

#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/span_tracer.hpp"

namespace kvscale {

std::string_view QueueFullPolicyName(QueueFullPolicy policy) {
  switch (policy) {
    case QueueFullPolicy::kBlock:
      return "block";
    case QueueFullPolicy::kReject:
      return "reject";
  }
  return "unknown";
}

Result<QueueFullPolicy> ParseQueueFullPolicy(std::string_view name) {
  if (name == "block") return QueueFullPolicy::kBlock;
  if (name == "reject") return QueueFullPolicy::kReject;
  return Status::InvalidArgument("unknown queue policy '" + std::string(name) +
                                 "' (expected block|reject)");
}

namespace {

uint64_t MicrosToNanos(Micros us) {
  return us <= 0.0 ? 0 : static_cast<uint64_t>(std::llround(us * 1000.0));
}

double NanosToMicros(uint64_t nanos) {
  return static_cast<double>(nanos) / 1000.0;
}

}  // namespace

NodeRuntime::NodeRuntime(uint32_t nodes, TransportOptions options,
                         SubQueryHandler handler, const CompactCodec& registry,
                         FaultInjector* injector, MetricsRegistry* metrics,
                         SpanTracer* spans, WriteBatchHandler write_handler,
                         MaintenanceHandler maintenance_handler)
    : options_(options),
      handler_(std::move(handler)),
      write_handler_(std::move(write_handler)),
      maintenance_handler_(std::move(maintenance_handler)),
      registry_(registry),
      injector_(injector),
      spans_(spans),
      // kvscale-lint: allow(sim-wallclock) real data path epoch
      epoch_(std::chrono::steady_clock::now()) {
  KV_CHECK(nodes >= 1);
  KV_CHECK(handler_ != nullptr);
  {
    MutexLock lock(queries_mu_);
    max_inflight_ = options_.max_inflight;
    admission_policy_ = options_.admission_policy;
  }
  if (metrics != nullptr) {
    bytes_sent_counter_ = &metrics->GetCounter("wire.bytes.sent");
    bytes_received_counter_ = &metrics->GetCounter("wire.bytes.received");
    frames_counter_ = &metrics->GetCounter("wire.frames.sent");
    frames_received_counter_ = &metrics->GetCounter("wire.frames.received");
    admitted_counter_ = &metrics->GetCounter("master.admission.admitted");
    shed_counter_ = &metrics->GetCounter("master.admission.shed");
    inflight_gauge_ = &metrics->GetGauge("master.queries.inflight");
    encode_hist_ = &metrics->GetHistogram("wire.encode.latency_us");
    decode_hist_ = &metrics->GetHistogram("wire.decode.latency_us");
    queue_wait_hist_ = &metrics->GetHistogram("cluster.queue.wait_us");
    admission_wait_hist_ = &metrics->GetHistogram("master.admission.wait_us");
    query_queue_wait_hist_ =
        &metrics->GetHistogram("master.query.queue_wait_us");
    maintenance_runs_counter_ =
        &metrics->GetCounter("cluster.maintenance.runs");
    maintenance_dropped_counter_ =
        &metrics->GetCounter("cluster.maintenance.dropped");
    depth_gauges_.reserve(nodes);
    for (uint32_t n = 0; n < nodes; ++n) {
      depth_gauges_.push_back(
          &metrics->GetGauge("cluster.queue.depth.node" + std::to_string(n)));
    }
  }
  // Zero depth or workers act as one: a queue must hold a request and a
  // node must have a worker to drain it.
  const uint32_t depth = std::max<uint32_t>(options_.queue_depth, 1);
  const uint32_t workers = std::max<uint32_t>(options_.workers_per_node, 1);
  queues_.reserve(nodes);
  for (uint32_t n = 0; n < nodes; ++n) {
    queues_.push_back(std::make_unique<BoundedQueue<RequestEnvelope>>(depth));
  }
  workers_.reserve(static_cast<size_t>(nodes) * workers);
  for (uint32_t n = 0; n < nodes; ++n) {
    for (uint32_t w = 0; w < workers; ++w) {
      workers_.emplace_back([this, n] { WorkerLoop(n); });
    }
  }
}

NodeRuntime::~NodeRuntime() { Shutdown(); }

Micros NodeRuntime::NowMicros() const {
  return std::chrono::duration<double, std::micro>(
             // kvscale-lint: allow(sim-wallclock) real data path epoch
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Micros NodeRuntime::QueryState::clock_us() const {
  return NanosToMicros(clock_nanos.load(std::memory_order_relaxed));
}

void NodeRuntime::QueryState::AdvanceClock(Micros us) {
  clock_nanos.fetch_add(MicrosToNanos(us), std::memory_order_relaxed);
}

Result<NodeRuntime::QueryHandle> NodeRuntime::BeginQuery(
    uint64_t query_id, const QueryOptions& options) {
  const Micros wait_start = NowMicros();
  MutexLock lock(queries_mu_);
  // Re-read the limit each pass: SetAdmissionLimit can re-arm the
  // controller while admitters sleep.
  while (!shut_down_.load(std::memory_order_relaxed) && max_inflight_ > 0 &&
         queries_.size() >= max_inflight_ &&
         admission_policy_ == QueueFullPolicy::kBlock) {
    admission_cv_.Wait(queries_mu_);
  }
  if (shut_down_.load(std::memory_order_relaxed)) {
    return Status::Unavailable("node runtime shut down");
  }
  if (max_inflight_ > 0 && queries_.size() >= max_inflight_) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    if (shed_counter_ != nullptr) shed_counter_->Increment();
    return Status::ResourceExhausted(
        "admission: " + std::to_string(queries_.size()) +
        " queries in flight (limit " + std::to_string(max_inflight_) + ")");
  }
  auto query = std::make_shared<QueryState>(query_id, options);
  const bool inserted = queries_.emplace(query_id, query).second;
  KV_CHECK(inserted);  // query_id collision would cross-route replies
  admitted_.fetch_add(1, std::memory_order_relaxed);
  if (admitted_counter_ != nullptr) admitted_counter_->Increment();
  if (inflight_gauge_ != nullptr) {
    inflight_gauge_->Set(static_cast<double>(queries_.size()));
  }
  if (admission_wait_hist_ != nullptr) {
    admission_wait_hist_->Record(NowMicros() - wait_start);
  }
  return query;
}

NodeRuntime::QueryTotals NodeRuntime::EndQuery(const QueryHandle& query) {
  auto nanos = [](const std::atomic<uint64_t>& total) {
    return NanosToMicros(total.load(std::memory_order_relaxed));
  };
  QueryTotals totals;
  totals.wire.frames_sent = query->frames_sent.load(std::memory_order_relaxed);
  totals.wire.frames_received =
      query->frames_received.load(std::memory_order_relaxed);
  totals.wire.bytes_sent = query->bytes_sent.load(std::memory_order_relaxed);
  totals.wire.bytes_received =
      query->bytes_received.load(std::memory_order_relaxed);
  totals.wire.encode_us = nanos(query->encode_nanos);
  totals.wire.decode_us = nanos(query->decode_nanos);
  totals.queue_wait_us = nanos(query->queue_wait_nanos);
  totals.virtual_us = query->clock_us();
  if (query_queue_wait_hist_ != nullptr) {
    query_queue_wait_hist_->Record(totals.queue_wait_us);
  }
  // No replies for this query can be outstanding (the gather awaits one
  // reply per dispatch), so closing is purely defensive: a stray late
  // reply would hit a closed queue instead of leaking.
  query->replies.Close();
  MutexLock lock(queries_mu_);
  auto it = queries_.find(query->query_id);
  KV_CHECK(it != queries_.end() && it->second == query);
  queries_.erase(it);
  if (inflight_gauge_ != nullptr) {
    inflight_gauge_->Set(static_cast<double>(queries_.size()));
  }
  admission_cv_.NotifyAll();
  return totals;
}

uint32_t NodeRuntime::inflight_queries() const {
  MutexLock lock(queries_mu_);
  return static_cast<uint32_t>(queries_.size());
}

void NodeRuntime::SetAdmissionLimit(uint32_t max_inflight,
                                    QueueFullPolicy policy) {
  MutexLock lock(queries_mu_);
  max_inflight_ = max_inflight;
  admission_policy_ = policy;
  admission_cv_.NotifyAll();
}

size_t NodeRuntime::queue_depth(uint32_t node) const {
  KV_CHECK(node < queues_.size());
  return queues_[node]->size();
}

void NodeRuntime::SetDepthGauge(uint32_t node) {
  if (node < depth_gauges_.size()) {
    depth_gauges_[node]->Set(static_cast<double>(queues_[node]->size()));
  }
}

Status NodeRuntime::Enqueue(RequestEnvelope env) {
  QueryState& query = *env.query;
  const uint32_t node = env.node;
  const uint64_t frame_bytes = env.frame.size();
  auto stamp_received = [this](RequestEnvelope& e) {
    e.received_us = NowMicros();
  };
  const bool pushed =
      options_.queue_policy == QueueFullPolicy::kBlock
          ? queues_[node]->Push(std::move(env), stamp_received)
          : queues_[node]->TryPush(std::move(env), stamp_received);
  if (!pushed) {
    return Status::ResourceExhausted(
        "node " + std::to_string(node) + " queue full (depth " +
        std::to_string(queues_[node]->capacity()) + ")");
  }
  query.frames_sent.fetch_add(1, std::memory_order_relaxed);
  query.bytes_sent.fetch_add(frame_bytes, std::memory_order_relaxed);
  if (frames_counter_ != nullptr) frames_counter_->Increment();
  if (bytes_sent_counter_ != nullptr) {
    bytes_sent_counter_->Increment(frame_bytes);
  }
  SetDepthGauge(node);
  return Status::Ok();
}

Status NodeRuntime::Dispatch(const QueryHandle& query, uint32_t node,
                             const SubQueryBatch& batch,
                             std::span<const Micros> extra_latency_us) {
  KV_CHECK(node < queues_.size());  // MessageTransport routes stale nodes
  KV_CHECK(batch.size() > 0);
  KV_CHECK(batch.query_id == query->query_id);
  KV_CHECK(batch.attempts.size() == batch.size());
  KV_CHECK(extra_latency_us.size() == batch.size());

  RequestEnvelope env;
  env.node = node;
  env.query = query;
  env.issued_us = NowMicros();  // encode time belongs to master-to-slave
  WireBuffer buf;
  EncodeMessageFrame(batch, batch.query_id, query->trace_flags, query->codec,
                     registry_, buf);
  RecordEncode(*query, env.issued_us);
  env.frame = buf.TakeBytes();
  env.sub_ids.reserve(batch.size());
  env.attempts.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    env.sub_ids.push_back(static_cast<uint32_t>(batch.sub_ids[i]));
    env.attempts.push_back(static_cast<uint32_t>(batch.attempts[i]));
  }
  env.extra_latency_us.assign(extra_latency_us.begin(),
                              extra_latency_us.end());
  return Enqueue(std::move(env));
}

Status NodeRuntime::DispatchWrite(const QueryHandle& query, uint32_t node,
                                  const WriteBatch& batch) {
  KV_CHECK(node < queues_.size());  // MessageTransport routes stale nodes
  KV_CHECK(write_handler_ != nullptr);  // runtime built without a write path
  KV_CHECK(!batch.keys.empty());

  RequestEnvelope env;
  env.kind = EnvelopeKind::kWrite;
  env.node = node;
  env.query = query;
  env.issued_us = NowMicros();
  WireBuffer buf;
  EncodeMessageFrame(batch, batch.query_id, query->trace_flags, query->codec,
                     registry_, buf);
  RecordEncode(*query, env.issued_us);
  env.frame = buf.TakeBytes();
  env.sub_ids = {batch.sub_id};
  env.attempts = {batch.attempt};
  env.extra_latency_us = {0.0};
  return Enqueue(std::move(env));
}

bool NodeRuntime::ScheduleMaintenance(uint32_t node, std::string table) {
  if (node >= queues_.size() || maintenance_handler_ == nullptr) {
    return false;
  }
  RequestEnvelope env;
  env.kind = EnvelopeKind::kMaintenance;
  env.node = node;
  env.maintenance_table = std::move(table);
  auto stamp_received = [this](RequestEnvelope& e) {
    e.received_us = NowMicros();
  };
  // Always TryPush: maintenance is scheduled from inside the worker
  // pool, and a blocking push into one's own full queue would deadlock.
  // A full queue means the node is saturated — backing off *is* the
  // scheduling policy.
  if (!queues_[node]->TryPush(std::move(env), stamp_received)) {
    maintenance_dropped_.fetch_add(1, std::memory_order_relaxed);
    if (maintenance_dropped_counter_ != nullptr) {
      maintenance_dropped_counter_->Increment();
    }
    return false;
  }
  SetDepthGauge(node);
  return true;
}

void NodeRuntime::WorkerLoop(uint32_t node) {
  BoundedQueue<RequestEnvelope>& queue = *queues_[node];
  while (auto popped = queue.Pop()) {
    RequestEnvelope env = std::move(*popped);
    SetDepthGauge(node);
    const Micros wait_us = NowMicros() - env.received_us;
    if (queue_wait_hist_ != nullptr) queue_wait_hist_->Record(wait_us);
    if (env.kind == EnvelopeKind::kMaintenance) {
      // A background step no query owns: run it on this worker, where it
      // competes with reads and writes for the node's threads.
      SpanTracer::Scope step;
      if (spans_ != nullptr) {
        step = spans_->StartSpan("maintenance", node);
        step.Attr("table", env.maintenance_table);
      }
      maintenance_handler_(node, env.maintenance_table);
      maintenance_runs_.fetch_add(1, std::memory_order_relaxed);
      if (maintenance_runs_counter_ != nullptr) {
        maintenance_runs_counter_->Increment();
      }
      continue;
    }
    env.query->queue_wait_nanos.fetch_add(MicrosToNanos(wait_us),
                                          std::memory_order_relaxed);
    ServeFrame(node, env, wait_us);
  }
}

NodeRuntime::DecodedRequest NodeRuntime::DecodeRequest(
    uint32_t node, const RequestEnvelope& env) {
  DecodedRequest out;
  out.trace_flags = env.query->trace_flags;
  if (env.kind == EnvelopeKind::kRead) {
    auto decoded = DecodeSubQueryBatch(env.frame, env.query->codec, registry_);
    if (!decoded.ok()) {
      out.transport = decoded.status();
      return out;
    }
    out.reads = std::move(decoded).value();
    out.trace_flags = out.reads.trace_flags;
    out.query_id = out.reads.query_id;
    const SubQueryBatch& batch = out.reads.msg;
    bool matches = batch.size() == env.sub_ids.size();
    for (size_t i = 0; matches && i < env.sub_ids.size(); ++i) {
      matches = batch.sub_ids[i] == env.sub_ids[i] &&
                batch.attempts[i] == env.attempts[i];
    }
    if (!matches) {
      out.transport =
          Status::Corruption("batch does not match its transport metadata");
    }
    return out;
  }
  auto decoded = DecodeWriteBatchFrame(env.frame, env.query->codec, registry_);
  if (!decoded.ok()) {
    out.transport = decoded.status();
    return out;
  }
  out.write = std::move(decoded).value();
  out.trace_flags = out.write.trace_flags;
  out.query_id = out.write.query_id;
  const WriteBatch& batch = out.write.msg;
  if (batch.sub_id != env.sub_ids.front() ||
      batch.attempt != env.attempts.front()) {
    out.transport =
        Status::Corruption("write batch does not match its transport metadata");
  } else if (batch.target != node) {
    out.transport = Status::Corruption(
        "write batch names target " + std::to_string(batch.target) +
        " but arrived at node " + std::to_string(node));
  }
  return out;
}

void NodeRuntime::ServeFrame(uint32_t node, const RequestEnvelope& env,
                             Micros wait_us) {
  QueryState& query = *env.query;
  const Micros decode_start = NowMicros();
  const DecodedRequest request = DecodeRequest(node, env);
  const Micros decode_us = RecordDecode(query, decode_start);

  // Node-side observability runs off the *decoded wire context*, not the
  // in-memory transport metadata: a frame is only traced when its
  // envelope carried the sampled bit across the (simulated) wire.
  const bool sampled = request.transport.ok() && spans_ != nullptr &&
                       (request.trace_flags & kTraceSampled) != 0;
  if (sampled) {
    // The frame-level stages, flow-linked to the first item they served
    // (queue residency and decode are per-frame, not per-item).
    const uint64_t frame_flow = TraceFlowId(
        request.query_id, env.sub_ids.front(), env.attempts.front());
    Span queue_span;
    queue_span.name = "queue-wait";
    queue_span.track = node;
    queue_span.start_us = spans_->NowMicros() - decode_us - wait_us;
    queue_span.duration_us = wait_us;
    queue_span.flow_id = frame_flow;
    queue_span.flow_phase = FlowPhase::kStep;
    queue_span.attributes.emplace_back("query",
                                       std::to_string(request.query_id));
    spans_->Record(std::move(queue_span));
    Span decode_span;
    decode_span.name = "decode";
    decode_span.track = node;
    decode_span.start_us = spans_->NowMicros() - decode_us;
    decode_span.duration_us = decode_us;
    decode_span.flow_id = frame_flow;
    decode_span.flow_phase = FlowPhase::kStep;
    decode_span.attributes.emplace_back("query",
                                        std::to_string(request.query_id));
    decode_span.attributes.emplace_back("items",
                                        std::to_string(env.sub_ids.size()));
    spans_->Record(std::move(decode_span));
  }

  // The reply frame being filled: its answers and their out-of-band
  // metadata.
  SubQueryReplyBatch batch;
  ReplyEnvelope out;
  std::string_view first_key;  // the frame's first answer, for injection
  size_t answer_bytes = 0;
  auto start_frame = [&] {
    batch = SubQueryReplyBatch{};
    batch.query_id = query.query_id;
    batch.node = node;
    out = ReplyEnvelope{};
    answer_bytes = 0;
  };
  auto send = [&] {
    if (batch.sub_ids.empty()) return;
    const Micros encode_start = NowMicros();
    SpanTracer::Scope encode_scope;
    if (sampled) {
      encode_scope = spans_->StartSpan("encode", node);
      encode_scope.Flow(
          TraceFlowId(query.query_id, out.sub_ids.front(),
                      out.attempts.front()),
          FlowPhase::kStep);
      encode_scope.Attr("query", std::to_string(query.query_id));
      encode_scope.Attr("items", std::to_string(out.sub_ids.size()));
    }
    WireBuffer buf;
    EncodeMessageFrame(batch, batch.query_id, request.trace_flags, query.codec,
                       registry_, buf);
    encode_scope.End();
    RecordEncode(query, encode_start);
    out.frame = buf.TakeBytes();
    if (env.kind == EnvelopeKind::kRead && injector_ != nullptr &&
        injector_->ShouldCorruptReplyFrame(node, first_key,
                                           out.attempts.front())) {
      // Envelope damage: the frame header plays the role a checksum
      // would on a real wire, so every answer in the frame fails over.
      out.frame[0] ^= std::byte{0x01};
    }
    out.node = node;
    out.issued_us = env.issued_us;
    out.received_us = env.received_us;
    out.encoded_us = NowMicros();
    // Demultiplex: the frame lands on the owning query's private
    // channel, never on another query's collector.
    query.replies.Push(std::move(out));
    start_frame();
  };

  start_frame();
  // The frame's one table, opened at its first served item (reads only).
  TableReader reader;
  for (size_t i = 0; i < env.sub_ids.size(); ++i) {
    if (batch.sub_ids.empty() && env.kind == EnvelopeKind::kRead &&
        request.transport.ok()) {
      first_key = request.reads.msg.keys[i];
    }
    const size_t values_before = batch.col_a.size() + batch.col_b.size();
    ServeOne(node, request, env, i, sampled, reader, batch, out);
    answer_bytes +=
        8 * (batch.col_a.size() + batch.col_b.size() - values_before) + 40;
    if (answer_bytes >= kReplyFrameBytes) send();
  }
  send();
}

Micros NodeRuntime::RecordEncode(QueryState& query, Micros start) {
  const Micros encode_us = NowMicros() - start;
  query.encode_nanos.fetch_add(MicrosToNanos(encode_us),
                               std::memory_order_relaxed);
  if (encode_hist_ != nullptr) encode_hist_->Record(encode_us);
  return encode_us;
}

Micros NodeRuntime::RecordDecode(QueryState& query, Micros start) {
  const Micros decode_us = NowMicros() - start;
  query.decode_nanos.fetch_add(MicrosToNanos(decode_us),
                               std::memory_order_relaxed);
  if (decode_hist_ != nullptr) decode_hist_->Record(decode_us);
  return decode_us;
}

StatusCode NodeRuntime::Refusal(uint32_t node, const RequestEnvelope& env,
                                const Status& transport) const {
  if (!transport.ok()) return transport.code();
  // Dequeue injection point: the node died after the master's
  // dispatch-time liveness view let the request through.
  if (injector_ != nullptr && injector_->IsNodeDown(node)) {
    return StatusCode::kUnavailable;
  }
  // The owning query's deadline expired (on its own clock) while this
  // request sat in the queue: shed it without touching the store.
  const QueryState& query = *env.query;
  if (query.deadline_us > 0.0 && query.clock_us() >= query.deadline_us) {
    return StatusCode::kResourceExhausted;
  }
  return StatusCode::kOk;
}

void NodeRuntime::ServeOne(uint32_t node, const DecodedRequest& request,
                           const RequestEnvelope& env, size_t item,
                           bool sampled, TableReader& reader,
                           SubQueryReplyBatch& batch, ReplyEnvelope& out) {
  QueryState& query = *env.query;
  const uint32_t sub_id = env.sub_ids[item];
  const uint32_t attempt = env.attempts[item];
  const bool write = env.kind == EnvelopeKind::kWrite;
  ReadProbe probe;
  bool served = false;
  uint64_t db_start_ns = 0;
  uint64_t db_end_ns = 0;
  StatusCode code = Refusal(node, env, request.transport);
  // A refused item drops the opened table: after a kill, the next served
  // item opens whatever store the node has by then (a revive's fresh
  // one), exactly as a per-item open would.
  if (code != StatusCode::kOk) reader = nullptr;
  if (code == StatusCode::kOk) {
    const Micros db_start_us = NowMicros();
    SpanTracer::Scope span;
    if (spans_ != nullptr) {
      if (write) {
        span = spans_->StartSpan("store-write", node);
        span.Attr("keys", std::to_string(request.write.msg.keys.size()));
      } else {
        span = spans_->StartSpan("store-read", node);
        span.Attr("partition", request.reads.msg.keys[item]);
      }
      span.Attr("attempt", std::to_string(attempt));
      if (sampled) {
        // The flow id every span of this attempt shares with the
        // master's dispatch span, from the wire-propagated context.
        span.Flow(TraceFlowId(query.query_id, sub_id, attempt),
                  FlowPhase::kStep);
        span.Attr("query", std::to_string(query.query_id));
        span.Attr("sub", std::to_string(sub_id));
      }
    }
    if (!write && reader == nullptr) {
      reader = handler_(node, request.reads.msg.table);
    }
    auto columns = write ? write_handler_(node, request.write.msg, this)
                         : reader(request.reads.msg, item, &probe);
    const Micros db_end_us = NowMicros();
    served = true;
    if (span.active() && !write) {
      span.Attr("blocks_decoded", std::to_string(probe.blocks_decoded));
      span.Attr("blocks_from_cache", std::to_string(probe.blocks_from_cache));
      span.Attr("bloom_negatives", std::to_string(probe.bloom_negatives));
    }
    span.End();
    if (columns.ok()) {
      // The paired result columns ride the batch's two u64 columns; the
      // master interprets them per the plan's kind (or as a write ack).
      batch.col_a.insert(batch.col_a.end(), columns.value().col_a.begin(),
                         columns.value().col_a.end());
      batch.col_b.insert(batch.col_b.end(), columns.value().col_b.begin(),
                         columns.value().col_b.end());
    } else {
      code = columns.status().code();
    }
    db_start_ns = MicrosToNanos(db_start_us);
    db_end_ns = std::max(db_start_ns, MicrosToNanos(db_end_us));
    // The injected latency is charged after serving (to the owning
    // query's private clock), so the request that burned the clock past
    // a deadline still completes and only the ones behind it shed —
    // deterministic under one worker. A zero charge skips the atomic
    // add on the clock every worker of the query shares.
    if (env.extra_latency_us[item] > 0.0) {
      query.AdvanceClock(env.extra_latency_us[item]);
    }
  }
  batch.sub_ids.push_back(sub_id);
  batch.attempts.push_back(attempt);
  batch.statuses.push_back(static_cast<uint64_t>(code));
  batch.db_start_ns.push_back(db_start_ns);
  batch.db_end_ns.push_back(db_end_ns);
  batch.a_ends.push_back(batch.col_a.size());
  batch.b_ends.push_back(batch.col_b.size());
  batch.checksums.push_back(
      ReplyItemChecksum(batch, batch.sub_ids.size() - 1));
  if (served && !write && injector_ != nullptr &&
      injector_->ShouldCorruptReply(
          node, request.reads.msg.keys[item], attempt)) {
    // In-flight damage to this answer alone: its checksum no longer
    // matches, so the master fails it over while its siblings fold.
    batch.checksums.back() ^= 1;
  }
  out.sub_ids.push_back(sub_id);
  out.attempts.push_back(attempt);
  out.served.push_back(served ? 1 : 0);
  out.probes.push_back(probe);
}

bool NodeRuntime::NextReplyFrame(QueryState& query) {
  auto popped = query.replies.Pop();
  if (!popped) return false;
  query.frame = std::move(*popped);
  query.next_answer = 0;
  query.dequeued_us = NowMicros();
  const ReplyEnvelope& env = query.frame;
  query.frames_received.fetch_add(1, std::memory_order_relaxed);
  query.bytes_received.fetch_add(env.frame.size(), std::memory_order_relaxed);
  if (frames_received_counter_ != nullptr) {
    frames_received_counter_->Increment();
  }
  if (bytes_received_counter_ != nullptr) {
    bytes_received_counter_->Increment(env.frame.size());
  }

  // The query_id-checked decode is the wire half of the demultiplexer: a
  // frame naming another query is kCorruption, handled like any other
  // unreadable reply (failover), never folded. So is a frame whose
  // answers disagree with the requests it was sent for.
  auto decoded = DecodeReplyBatchFrame(env.frame, query.codec, registry_,
                                       query.query_id, env.sub_ids,
                                       env.attempts);
  query.frame_status = decoded.status();
  if (decoded.ok()) {
    query.reply_flags = decoded.value().trace_flags;
    query.answers = std::move(decoded).value();
  }
  RecordDecode(query, query.dequeued_us);
  query.decoded_us = NowMicros();
  return true;
}

TransportReply NodeRuntime::Await(const QueryHandle& handle) {
  QueryState& query = *handle;
  TransportReply out;
  if (query.next_answer >= query.frame.sub_ids.size() &&
      !NextReplyFrame(query)) {
    return out;  // shut down: kUnavailable, never served
  }
  const ReplyEnvelope& env = query.frame;
  const size_t i = query.next_answer++;
  RequestTrace& trace = out.trace;
  trace.node = env.node;
  trace.sub_id = env.sub_ids[i];
  trace.issued = env.issued_us;
  trace.received = env.received_us;
  // An answer that cannot be read keeps the request's own stamps.
  trace.db_start = env.received_us;
  trace.db_end = env.received_us;
  trace.reply_encoded = env.encoded_us;
  trace.reply_dequeued = query.dequeued_us;
  trace.reply_decoded = query.decoded_us;
  out.attempt = env.attempts[i];
  out.served = env.served[i] != 0;
  out.probe = env.probes[i];
  out.code = StatusCode::kCorruption;
  if (!query.frame_status.ok()) return out;
  const DecodedReplyBatch& answers = query.answers;
  out.trace_flags = query.reply_flags;
  const uint32_t slot = answers.slot[i];
  if (slot == DecodedReplyBatch::kAbsent || answers.intact[slot] == 0) {
    return out;  // this answer alone fails over
  }
  out.code = static_cast<StatusCode>(answers.batch.statuses[slot]);
  if (out.served) {
    trace.db_start = NanosToMicros(answers.batch.db_start_ns[slot]);
    trace.db_end = NanosToMicros(answers.batch.db_end_ns[slot]);
  }
  out.in_frame = true;
  out.frame_col_a = answers.col_a(slot);
  out.frame_col_b = answers.col_b(slot);
  return out;
}

void NodeRuntime::Shutdown() {
  if (shut_down_.exchange(true)) return;
  for (auto& queue : queues_) queue->Close();
  for (auto& worker : workers_) worker.join();
  MutexLock lock(queries_mu_);
  // Wake live queries: their Await calls drain whatever the workers
  // already replied, then observe the closed channel as kUnavailable.
  for (auto& [id, query] : queries_) query->replies.Close();
  admission_cv_.NotifyAll();
}

}  // namespace kvscale
