// The batched replicated write path: Put / PutBatch for every transport.
//
// PutBatch routes every item to its replica set, groups the writes per
// node, and sends each group as WriteBatches of at most `options.batch`
// keys through the query's Transport — one group-commit WAL Sync() per
// batch instead of one per key. One scatter/collect loop serves both
// transports, and both land in the same ServeWrite handler, so the
// direct path and the message path make identical fault decisions: node
// liveness is checked per batch, WAL refusal per key via
// FaultInjector::OnWalWrite, which hashes (seed, node, key) and never the
// batch shape. That is what makes a PutBatch under quorum kAll
// bit-identical in stored state to issuing the same items as sequential
// Puts, healthy or under chaos.
//
// A node acks a batch in the paired columns a read answers with (the
// refused key indices and the sync-failure tally; cluster/query_ops.hpp),
// which the master validates with ParseWriteAck before folding.
//
// The fold below is the write-side twin of the gather fold: every replica
// write attempted lands in exactly one of the acked / failed ledgers
// (replica_acks + replica_failures == replica_writes, always), per-key
// quorum verdicts come from the ledgers, and a ring-epoch bump observed
// after a round triggers bounded re-resolution so the copies chase the
// data to its new owners.
//
// kvscale-lint: allow-file(sim-wallclock) real data path: puts time real
// store writes, not simulated ones.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/in_process_cluster.hpp"
#include "common/check.hpp"
#include "telemetry/metrics_registry.hpp"

namespace kvscale {

namespace {

double ElapsedMicros(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// One write batch bound for one node: the item indices it carries, in
/// batch order (the ack's refused indices index into this list).
struct WriteChunk {
  NodeId node = 0;
  std::vector<size_t> keys;
};

/// Per-key write ledger: the replica set the key resolved to (latest
/// epoch) and which replicas acked or refused its write.
struct KeyWriteState {
  std::vector<NodeId> replicas;
  std::vector<NodeId> acked;
  std::vector<NodeId> failed;
};

bool Contains(const std::vector<NodeId>& nodes, NodeId node) {
  return std::find(nodes.begin(), nodes.end(), node) != nodes.end();
}

/// Rebuilds a caller-facing Status from a write answer's wire code.
Status WriteRefusal(StatusCode code, NodeId node) {
  const std::string message =
      "node " + std::to_string(node) + " refused the write batch";
  switch (code) {
    case StatusCode::kUnavailable:
      return Status::Unavailable(message);
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(message);
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(message);
    case StatusCode::kCorruption:
      return Status::Corruption(message);
    default:
      return Status::Internal(message + " (" +
                              std::string(StatusCodeName(code)) + ")");
  }
}

}  // namespace

std::string_view PutQuorumName(PutQuorum quorum) {
  switch (quorum) {
    case PutQuorum::kAll:
      return "all";
    case PutQuorum::kMajority:
      return "majority";
    case PutQuorum::kOne:
      return "one";
  }
  return "all";
}

Result<PutQuorum> ParsePutQuorum(std::string_view name) {
  if (name == "all") return PutQuorum::kAll;
  if (name == "majority") return PutQuorum::kMajority;
  if (name == "one") return PutQuorum::kOne;
  return Status::InvalidArgument("unknown quorum '" + std::string(name) +
                                 "' (want all, majority, or one)");
}

PutResult InProcessCluster::Put(const std::string& table,
                                const std::string& partition_key,
                                Column column) {
  std::vector<BatchPutItem> items;
  items.push_back(BatchPutItem{partition_key, std::move(column)});
  return PutBatch(table, std::move(items), PutOptions{});
}

Result<OperatorResult> InProcessCluster::ServeWrite(uint32_t node,
                                                    const WriteBatch& batch,
                                                    NodeRuntime* runtime) {
  std::shared_ptr<LocalStore> store = NodePtr(node);
  // Same liveness rule as the message path's dequeue check: a dead node
  // refuses the whole batch, so both transports fail the same (node, key)
  // pairs under a kill.
  if (store == nullptr || injector_->IsNodeDown(node)) {
    return Status::Unavailable("node " + std::to_string(node) + " is down");
  }
  // The ack: col_a the refused batch indices, col_b {sync_failures}.
  OperatorResult ack;
  uint64_t sync_failures = 0;
  std::vector<BatchPutItem> items;
  items.reserve(batch.keys.size());
  for (size_t i = 0; i < batch.keys.size(); ++i) {
    BatchPutItem item;
    item.partition_key = batch.keys[i];
    item.column.clustering = batch.clusterings[i];
    item.column.type_id = static_cast<uint32_t>(batch.type_ids[i]);
    item.column.tombstone = batch.tombstones[i] != 0;
    const std::string& payload = batch.payloads[i];
    item.column.payload.resize(payload.size());
    if (!payload.empty()) {
      std::memcpy(item.column.payload.data(), payload.data(), payload.size());
    }
    items.push_back(std::move(item));
  }
  if (!NodeHasWal(node)) {
    Table& dest = store->GetOrCreateTable(batch.table);
    for (BatchPutItem& item : items) {
      dest.Put(item.partition_key, std::move(item.column));
    }
  } else {
    // Per-key WAL fault filter. OnWalWrite hashes (seed, node, key) — no
    // batch-shape input — so a batched load refuses exactly the pairs a
    // sequential load would.
    std::vector<BatchPutItem> allowed;
    std::vector<uint64_t> allowed_index;  // original batch index per item
    allowed.reserve(items.size());
    allowed_index.reserve(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      if (injector_->OnWalWrite(node, items[i].partition_key).ok()) {
        allowed.push_back(std::move(items[i]));
        allowed_index.push_back(i);
      } else {
        ack.col_a.push_back(i);
      }
    }
    if (!allowed.empty()) {
      auto batched = store->DurablePutBatch(batch.table, std::move(allowed));
      if (!batched.ok()) {
        // The store refused the whole batch (no commit log after all):
        // every key fails, not just the injector-filtered ones.
        return batched.status();
      }
      const BatchPutResult& applied = batched.value();
      sync_failures = applied.sync_failures;
      for (const uint64_t failed : applied.failed_items) {
        ack.col_a.push_back(allowed_index[failed]);
      }
      // ParseWriteAck rejects non-increasing indices; they are unique,
      // so sorting restores the strict order after the two-source merge.
      std::sort(ack.col_a.begin(), ack.col_a.end());
    }
  }
  ack.col_b.push_back(sync_failures);
  const uint64_t watermark =
      flush_watermark_bytes_.load(std::memory_order_relaxed);
  if (runtime != nullptr && watermark > 0) {
    auto found = store->FindTable(batch.table);
    if (found.ok() && found.value()->memtable_bytes() >= watermark) {
      // Compete for the node's own workers. A full queue drops the step
      // (the next write over the watermark re-arms it) instead of
      // blocking a worker that schedules from inside the pool.
      runtime->ScheduleMaintenance(node, batch.table);
    }
  }
  return ack;
}

void InProcessCluster::RunMaintenanceStep(uint32_t node,
                                          const std::string& table) {
  std::shared_ptr<LocalStore> store = NodePtr(node);
  if (store == nullptr) return;
  auto found = store->FindTable(table);
  if (found.ok()) found.value()->Flush();  // also runs the compaction check
}

void InProcessCluster::RecordPut(uint64_t query_id, const std::string& table,
                                 std::string_view transport,
                                 const PutResult& result) {
  if (flight_recorder_ == nullptr) return;
  // Unlike RecordGather this never ticks the time-series cadence: the
  // trajectory (and its tests) stay a read-side measurement.
  QueryRecord record;
  record.query_id = query_id;
  record.table = table;
  record.transport = std::string(transport);
  record.query_kind = "put";
  record.subqueries = result.replica_writes;
  record.completed = result.replica_acks;
  record.failed = result.replica_failures;
  record.retries = result.epoch_retries;
  record.partial = result.keys_quorum_failed > 0;
  record.shed_by_admission = result.shed_by_admission;
  record.queue_wait_us = result.queue_wait_us;
  record.wall_us = result.wall_us;
  record.wire_bytes_sent = result.wire_bytes_sent;
  record.wire_bytes_received = result.wire_bytes_received;
  record.wire_frames_sent = result.wire_frames_sent;
  record.wire_frames_received = result.wire_frames_received;
  record.ring_epoch = ring_epoch();
  flight_recorder_->Record(std::move(record));
}

PutResult InProcessCluster::PutBatch(const std::string& table,
                                     std::vector<BatchPutItem> items,
                                     const PutOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  PutResult result;
  result.keys = items.size();
  if (items.empty()) return result;
  {
    // The migration planner's table universe (stores list no tables).
    MutexLock lock(route_mu_);
    tables_.insert(table);
  }

  // Resolve every key's replica set, reading the finished-transition
  // count and the epoch *before* the resolutions: a membership operation
  // unfinished at any moment of a round — one that planned or streamed
  // before the round's writes landed and flips after — is caught by the
  // check after the round rather than silently losing the copy its new
  // owner never received.
  uint64_t settled = transitions_finished_.load();
  uint64_t resolved_epoch = ring_epoch();
  std::vector<KeyWriteState> state(items.size());
  for (size_t k = 0; k < items.size(); ++k) {
    state[k].replicas = ReplicasOf(items[k].partition_key);
  }

  // Folds one node's answer into the per-key ledgers and the counters.
  // A non-OK `failure` refuses the whole chunk; otherwise the ack's
  // per-key verdicts decide. Every key the chunk carried ends in exactly
  // one ledger; cluster.put.errors is bumped here — and only here — so
  // per-key refusals and whole-batch refusals count uniformly.
  auto fold = [&](const WriteChunk& chunk, const WriteAck& ack,
                  const Status& failure) {
    result.sync_failures += ack.sync_failures;
    if (!failure.ok()) {
      for (const size_t k : chunk.keys) {
        state[k].failed.push_back(chunk.node);
      }
      result.replica_failures += chunk.keys.size();
      Instruments::Add(inst_.put_errors, chunk.keys.size());
      if (result.first_error.ok()) result.first_error = failure;
      return;
    }
    size_t next_failed = 0;
    for (size_t i = 0; i < chunk.keys.size(); ++i) {
      const size_t k = chunk.keys[i];
      if (next_failed < ack.refused.size() && ack.refused[next_failed] == i) {
        ++next_failed;
        state[k].failed.push_back(chunk.node);
        ++result.replica_failures;
        Instruments::Add(inst_.put_errors);
        if (result.first_error.ok()) {
          result.first_error = Status::Unavailable(
              "node " + std::to_string(chunk.node) +
              " refused the WAL append for '" + items[k].partition_key + "'");
        }
      } else {
        state[k].acked.push_back(chunk.node);
        ++result.replica_acks;
      }
    }
  };

  // Groups this round's (key, node) pairs per node and splits each
  // node's list into batches of at most options.batch keys (0 = one
  // batch per node). Each batch pays one group-commit Sync().
  auto build_chunks = [&](const std::vector<std::pair<size_t, NodeId>>& due) {
    std::map<NodeId, std::vector<size_t>> per_node;
    for (const auto& [k, node] : due) per_node[node].push_back(k);
    std::vector<WriteChunk> chunks;
    for (auto& [node, keys] : per_node) {
      const size_t cap = options.batch == 0 ? keys.size() : options.batch;
      for (size_t off = 0; off < keys.size(); off += cap) {
        WriteChunk chunk;
        chunk.node = node;
        const size_t end = std::min(keys.size(), off + cap);
        chunk.keys.assign(keys.begin() + off, keys.begin() + end);
        chunks.push_back(std::move(chunk));
      }
    }
    return chunks;
  };

  auto make_wire_batch = [&](const WriteChunk& chunk, uint64_t query_id,
                             uint32_t sub_id, uint32_t attempt) {
    WriteBatch batch;
    batch.query_id = query_id;
    batch.sub_id = sub_id;
    batch.attempt = attempt;
    batch.target = chunk.node;
    batch.table = table;
    batch.keys.reserve(chunk.keys.size());
    batch.clusterings.reserve(chunk.keys.size());
    batch.type_ids.reserve(chunk.keys.size());
    batch.tombstones.reserve(chunk.keys.size());
    batch.payloads.reserve(chunk.keys.size());
    for (const size_t k : chunk.keys) {
      const BatchPutItem& item = items[k];
      batch.keys.push_back(item.partition_key);
      batch.clusterings.push_back(item.column.clustering);
      batch.type_ids.push_back(item.column.type_id);
      batch.tombstones.push_back(item.column.tombstone ? 1 : 0);
      batch.payloads.emplace_back(
          reinterpret_cast<const char*>(item.column.payload.data()),
          item.column.payload.size());
    }
    batch.checksum = WriteBatchChecksum(batch);
    return batch;
  };

  if (options.transport == GatherTransport::kMessage) {
    flush_watermark_bytes_.store(options.flush_watermark_bytes,
                                 std::memory_order_relaxed);
  }
  const uint64_t query_id = MintQueryId(options.transport);
  NodeRuntime::QueryOptions query_options;
  query_options.codec = options.codec;
  std::unique_ptr<Transport> transport =
      OpenTransport(options, query_id, query_options);
  const Status admitted = transport->Begin();
  if (!admitted.ok()) {
    // Shed whole: nothing was dispatched, every key missed its quorum.
    result.shed_by_admission = true;
    result.keys_quorum_failed = result.keys;
    result.first_error = admitted;
    Instruments::Add(inst_.put_keys, result.keys);
    Instruments::Add(inst_.put_quorum_failures, result.keys);
    result.wall_us = ElapsedMicros(t0);
    Instruments::Observe(inst_.put_latency, result.wall_us);
    RecordPut(query_id, table, transport->name(), result);
    return result;
  }

  // Round 0: every (key, replica) pair. Later rounds exist only when a
  // ring flip was observed: they carry the copies the new owners are
  // missing. A node that already settled a key — acked or failed — is
  // never re-sent it: faults are deterministic in (node, key), so a
  // retry against a refusing node cannot change the verdict.
  std::vector<std::pair<size_t, NodeId>> due;
  for (size_t k = 0; k < items.size(); ++k) {
    for (const NodeId node : state[k].replicas) due.emplace_back(k, node);
  }
  // sub_id -> the chunk it carried, across every round (replies of a
  // round are all awaited before the next round dispatches).
  std::vector<WriteChunk> by_sub;
  uint32_t round = 0;
  while (!due.empty()) {
    // Scatter this round's batches, then collect one answer per batch
    // sent.
    size_t outstanding = 0;
    for (WriteChunk& chunk : build_chunks(due)) {
      const uint32_t sub_id = static_cast<uint32_t>(by_sub.size());
      // Load feedback at the dispatch *attempt* — the write has not
      // happened yet, exactly like a read attempt that may still fail.
      RecordDispatch(chunk.node, chunk.keys.size());
      result.replica_writes += chunk.keys.size();
      ++result.batches_sent;
      const Status sent = transport->SendWrite(
          make_wire_batch(chunk, query_id, sub_id, round));
      if (!sent.ok()) {
        // Rejecting backpressure: the batch never left, so every key it
        // carried counts as a refused replica write and the quorum
        // decides.
        fold(chunk, WriteAck{}, sent);
        continue;
      }
      by_sub.push_back(std::move(chunk));
      ++outstanding;
    }
    while (outstanding > 0) {
      const TransportReply r = transport->Await();
      --outstanding;
      KV_CHECK(r.trace.sub_id < by_sub.size());
      const WriteChunk& chunk = by_sub[r.trace.sub_id];
      if (r.code != StatusCode::kOk) {
        fold(chunk, WriteAck{}, WriteRefusal(r.code, chunk.node));
        continue;
      }
      // An ack the fold could not match key by key refuses the chunk.
      const Result<WriteAck> ack =
          ParseWriteAck(r.col_a(), r.col_b(), chunk.keys.size());
      fold(chunk, ack.value_or(WriteAck{}), ack.status());
    }
    due.clear();
    const uint64_t begun = transitions_started_.load();
    if (begun == settled && ring_epoch() == resolved_epoch) break;
    // The round overlapped a transition: wait it out and re-resolve, so
    // the verdict below is judged against the owners it left even when
    // no retry round is left to re-send. A transition holds
    // membership_mu_ from its bracket's start to its end, so taking the
    // lock once waits out the one in flight.
    if (transitions_finished_.load() < begun) {
      MutexLock wait(membership_mu_);
    }
    settled = transitions_finished_.load();
    resolved_epoch = ring_epoch();
    for (size_t k = 0; k < items.size(); ++k) {
      state[k].replicas = ReplicasOf(items[k].partition_key);
    }
    if (round >= options.max_epoch_retries) break;
    ++round;
    ++result.epoch_retries;
    Instruments::Add(inst_.put_epoch_retries);
    for (size_t k = 0; k < items.size(); ++k) {
      for (const NodeId node : state[k].replicas) {
        if (!Contains(state[k].acked, node) &&
            !Contains(state[k].failed, node)) {
          due.emplace_back(k, node);
        }
      }
    }
  }

  // Quorum verdicts, judged against each key's *final* replica set — a
  // 2-of-3 degraded write still satisfies kMajority, and an ack from an
  // owner the key has since left counts for nothing.
  for (const KeyWriteState& key : state) {
    const size_t fanout = std::max<size_t>(key.replicas.size(), 1);
    size_t needed = fanout;
    if (options.quorum == PutQuorum::kMajority) needed = fanout / 2 + 1;
    if (options.quorum == PutQuorum::kOne) needed = 1;
    const auto acks = std::count_if(
        key.acked.begin(), key.acked.end(),
        [&key](NodeId node) { return Contains(key.replicas, node); });
    if (static_cast<size_t>(acks) >= needed) {
      ++result.keys_quorum_met;
    } else {
      ++result.keys_quorum_failed;
    }
  }
  Instruments::Add(inst_.put_keys, result.keys);
  Instruments::Add(inst_.put_batches, result.batches_sent);
  Instruments::Add(inst_.put_quorum_failures, result.keys_quorum_failed);

  // Read the query's private wire accounting before releasing it.
  const Transport::Totals totals = transport->End();
  result.wire_frames_sent = totals.wire.frames_sent;
  result.wire_frames_received = totals.wire.frames_received;
  result.wire_bytes_sent = totals.wire.bytes_sent;
  result.wire_bytes_received = totals.wire.bytes_received;
  result.wire_encode_us = totals.wire.encode_us;
  result.wire_decode_us = totals.wire.decode_us;
  result.queue_wait_us = totals.queue_wait_us;
  result.wall_us = ElapsedMicros(t0);
  Instruments::Observe(inst_.put_latency, result.wall_us);
  RecordPut(query_id, table, transport->name(), result);
  return result;
}

}  // namespace kvscale
