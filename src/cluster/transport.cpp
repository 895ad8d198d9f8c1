#include "cluster/transport.hpp"

// kvscale-lint: allow-file(sim-wallclock) real data path: the inline
// transport stamps real store work with the wall clock

#include <chrono>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "telemetry/span_tracer.hpp"

namespace kvscale {

namespace {

/// Monotonic microseconds on the process's steady clock: the inline
/// transport's stamp scale (no runtime epoch exists without a runtime).
Micros SteadyMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Records a served handler's answer: its paired columns or its error
/// code. The inline transport has no reply frame to encode, queue or
/// decode, so the reply stamps all collapse onto db_end.
void Answer(Result<OperatorResult> columns, TransportReply& out) {
  out.trace.reply_encoded = out.trace.db_end;
  out.trace.reply_dequeued = out.trace.db_end;
  out.trace.reply_decoded = out.trace.db_end;
  out.served = true;
  if (columns.ok()) {
    out.code = StatusCode::kOk;
    out.columns = std::move(columns).value();
  } else {
    out.code = columns.status().code();
  }
}

}  // namespace

void Transport::ServeReads(NodeId node, const SubQueryBatch& batch,
                           std::span<const Micros> extra_latency_us,
                           std::deque<TransportReply>& out) {
  KV_CHECK(batch.query_id == query_id_);
  KV_CHECK(batch.attempts.size() == batch.size());
  KV_CHECK(extra_latency_us.size() == batch.size());
  // One table per send, like one table per request frame.
  const TableReader reader = handlers_.read(node, batch.table);
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto attempt = static_cast<uint32_t>(batch.attempts[i]);
    TransportReply& reply = out.emplace_back();
    reply.trace.node = node;
    reply.trace.sub_id = static_cast<uint32_t>(batch.sub_ids[i]);
    reply.attempt = attempt;
    reply.trace.issued = now_us();
    reply.trace.received = reply.trace.issued;  // no queue to sit in
    SpanTracer::Scope read;
    if (spans_ != nullptr) {
      read = spans_->StartSpan("store-read", node);
      read.Attr("partition", batch.keys[i]);
      read.Attr("attempt", std::to_string(attempt));
    }
    reply.trace.db_start = now_us();
    Result<OperatorResult> columns = reader(batch, i, &reply.probe);
    reply.trace.db_end = now_us();
    if (read.active()) {
      read.Attr("blocks_decoded", std::to_string(reply.probe.blocks_decoded));
      read.Attr("blocks_from_cache",
                std::to_string(reply.probe.blocks_from_cache));
      read.Attr("bloom_negatives",
                std::to_string(reply.probe.bloom_negatives));
    }
    Answer(std::move(columns), reply);
    AdvanceClock(extra_latency_us[i]);
  }
}

TransportReply Transport::ServeWrite(const WriteBatch& batch) {
  TransportReply out;
  out.trace.node = batch.target;
  out.trace.sub_id = batch.sub_id;
  out.attempt = batch.attempt;
  out.trace.issued = now_us();
  out.trace.received = out.trace.issued;
  // No store-write span here, unlike reads: direct loads put one column
  // per call, and a span each would bury the query spans in the trace.
  out.trace.db_start = now_us();
  Result<OperatorResult> ack = handlers_.write(batch.target, batch, nullptr);
  out.trace.db_end = now_us();
  Answer(std::move(ack), out);
  return out;
}

// -- InlineTransport ---------------------------------------------------------

Status InlineTransport::SendReads(NodeId node, const SubQueryBatch& batch,
                                  std::span<const Micros> extra_latency_us) {
  ServeReads(node, batch, extra_latency_us, replies_);
  return Status::Ok();
}

Status InlineTransport::SendWrite(const WriteBatch& batch) {
  replies_.push_back(ServeWrite(batch));
  return Status::Ok();
}

TransportReply InlineTransport::Await() {
  KV_CHECK(!replies_.empty());  // one Await per request sent
  TransportReply reply = std::move(replies_.front());
  replies_.pop_front();
  return reply;
}

Transport::Totals InlineTransport::End() {
  Totals totals;
  totals.virtual_us = clock_us_;
  return totals;
}

Micros InlineTransport::now_us() const { return SteadyMicros(); }

// -- MessageTransport --------------------------------------------------------

MessageTransport::~MessageTransport() {
  if (query_ != nullptr) runtime_->EndQuery(query_);
}

Status MessageTransport::Begin() {
  auto admitted = runtime_->BeginQuery(query_id_, options_);
  if (!admitted.ok()) return admitted.status();
  query_ = std::move(admitted).value();
  return Status::Ok();
}

Status MessageTransport::SendReads(NodeId node, const SubQueryBatch& batch,
                                   std::span<const Micros> extra_latency_us) {
  if (!Stale(node)) {
    return runtime_->Dispatch(query_, node, batch, extra_latency_us);
  }
  // Read it directly — a fresh connection outside the stale pool — rather
  // than burning every attempt on kUnavailable.
  ServeReads(node, batch, extra_latency_us, direct_);
  return Status::Ok();
}

Status MessageTransport::SendWrite(const WriteBatch& batch) {
  if (!Stale(batch.target)) {
    return runtime_->DispatchWrite(query_, batch.target, batch);
  }
  direct_.push_back(ServeWrite(batch));
  return Status::Ok();
}

TransportReply MessageTransport::Await() {
  if (direct_.empty()) return runtime_->Await(query_);
  TransportReply out = std::move(direct_.front());
  direct_.pop_front();
  return out;
}

Transport::Totals MessageTransport::End() {
  const Totals totals = runtime_->EndQuery(query_);
  query_.reset();
  return totals;
}

}  // namespace kvscale
