#include "cluster/in_process_cluster.hpp"

// kvscale-lint: allow-file(sim-wallclock) real data path: gathers time
// actual store and network work with the wall clock, not simulated time

#include <algorithm>
#include <chrono>
#include <functional>

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

}  // namespace

InProcessCluster::InProcessCluster(uint32_t nodes, PlacementKind placement,
                                   StoreOptions store_options, uint64_t seed,
                                   uint32_t replication)
    : placement_(placement, nodes, seed),
      replication_(std::min(std::max<uint32_t>(replication, 1), nodes)),
      initial_nodes_(nodes),
      base_store_options_(store_options) {
  KV_CHECK(nodes >= 1);
  RegisterClusterMessages(codec_registry_);
  handlers_.read = [this](uint32_t node, const std::string& table) {
    return OpenRead(node, table);
  };
  handlers_.write = [this](uint32_t node, const WriteBatch& batch,
                           NodeRuntime* runtime) {
    return ServeWrite(node, batch, runtime);
  };
  owned_injector_ = std::make_unique<FaultInjector>();
  injector_ = owned_injector_.get();
  MutexLock route_lock(route_mu_);
  MutexLock nodes_lock(nodes_mu_);
  node_options_.reserve(nodes);
  nodes_.reserve(nodes);
  for (uint32_t n = 0; n < nodes; ++n) {
    StoreOptions options = store_options;
    if (!options.wal_path.empty()) {
      // Each node logs to its own file so a single-node crash/replay
      // cycle touches only that node's mutations.
      options.wal_path += ".node" + std::to_string(n);
    }
    node_options_.push_back(options);
    nodes_.push_back(std::make_shared<LocalStore>(node_options_.back()));
    members_.insert(n);
  }
}

uint32_t InProcessCluster::node_count() const {
  MutexLock lock(nodes_mu_);
  return static_cast<uint32_t>(nodes_.size());
}

std::shared_ptr<LocalStore> InProcessCluster::NodePtr(NodeId id) const {
  MutexLock lock(nodes_mu_);
  return id < nodes_.size() ? nodes_[id] : nullptr;
}

bool InProcessCluster::NodeHasWal(NodeId id) const {
  MutexLock lock(nodes_mu_);
  return id < node_options_.size() && !node_options_[id].wal_path.empty();
}

LocalStore& InProcessCluster::node(uint32_t id) {
  std::shared_ptr<LocalStore> store = NodePtr(id);
  KV_CHECK(store != nullptr);
  return *store;  // the slot's shared_ptr keeps the store alive
}

std::vector<NodeId> InProcessCluster::Members() const {
  MutexLock lock(route_mu_);
  return std::vector<NodeId>(members_.begin(), members_.end());
}

void InProcessCluster::AttachTelemetry(SpanTracer* spans,
                                       MetricsRegistry* metrics) {
  spans_ = spans;
  metrics_ = metrics;
  if (spans_ != nullptr) {
    for (uint32_t n = 0; n < node_count(); ++n) {
      spans_->SetTrackName(n, "node-" + std::to_string(n));
    }
    spans_->SetTrackName(master_track(), "master");
  }
  if (spans_ != nullptr) {
    // Span drops are operational signal: mirror them into the registry so
    // a truncated trace is visible next to the metrics it accompanies.
    spans_->set_dropped_counter(
        metrics != nullptr ? &metrics->GetCounter("telemetry.spans.dropped")
                           : nullptr);
  }
  inst_ = metrics != nullptr ? Instruments(*metrics) : Instruments();
  // The shared runtime captured the old pointers at build; the next
  // message gather rebuilds it against the new ones.
  InvalidateRuntime();
}

InProcessCluster::Instruments::Instruments(MetricsRegistry& metrics)
    : subqueries(&metrics.GetCounter("cluster.subqueries")),
      missing(&metrics.GetCounter("cluster.partitions_missing")),
      read_errors(&metrics.GetCounter("cluster.read.errors")),
      retries(&metrics.GetCounter("cluster.read.retries")),
      hedged(&metrics.GetCounter("cluster.read.hedged")),
      failed(&metrics.GetCounter("cluster.subqueries.failed")),
      put_errors(&metrics.GetCounter("cluster.put.errors")),
      put_keys(&metrics.GetCounter("cluster.put.keys")),
      put_batches(&metrics.GetCounter("cluster.put.batches")),
      put_quorum_failures(&metrics.GetCounter("cluster.put.quorum_failures")),
      put_epoch_retries(&metrics.GetCounter("cluster.put.epoch_retries")),
      put_latency(&metrics.GetHistogram("cluster.put.latency_us")),
      subquery_latency(&metrics.GetHistogram("cluster.subquery.latency_us")),
      failover_latency(&metrics.GetHistogram("cluster.failover.latency_us")),
      reply_encode(&metrics.GetHistogram("cluster.reply.encode_us")),
      reply_residency(&metrics.GetHistogram("cluster.reply.residency_us")),
      reply_decode(&metrics.GetHistogram("cluster.reply.decode_us")),
      reply_fold(&metrics.GetHistogram("cluster.reply.fold_us")),
      joins(&metrics.GetCounter("cluster.membership.joins")),
      decommissions(&metrics.GetCounter("cluster.membership.decommissions")),
      perma_failures(
          &metrics.GetCounter("cluster.membership.permanent_failures")),
      epoch(&metrics.GetGauge("cluster.membership.epoch")),
      migrated_partitions(&metrics.GetCounter("cluster.migration.partitions")),
      migrated_blocks(&metrics.GetCounter("cluster.migration.blocks")),
      migrated_bytes(&metrics.GetCounter("cluster.migration.bytes")),
      migration_retries(
          &metrics.GetCounter("cluster.migration.block_retries")),
      migration_failovers(
          &metrics.GetCounter("cluster.migration.source_failovers")),
      repaired(&metrics.GetCounter("cluster.repair.partitions")),
      lost(&metrics.GetCounter("cluster.repair.lost_partitions")) {
  for (size_t k = 0; k < kQueryKindCount; ++k) {
    query_kinds[k] = &metrics.GetCounter(
        "cluster.query." +
        std::string(QueryKindName(static_cast<QueryKind>(k))));
  }
}

void InProcessCluster::Instruments::Add(Counter* counter, uint64_t n) {
  if (counter != nullptr) counter->Increment(n);
}

void InProcessCluster::Instruments::Observe(LatencyHistogram* histogram,
                                            double micros) {
  if (histogram != nullptr) histogram->Record(micros);
}

void InProcessCluster::AttachStageTracer(StageTracer* stages) {
  stage_tracer_ = stages;
}

void InProcessCluster::AttachFlightRecorder(FlightRecorder* recorder) {
  flight_recorder_ = recorder;
}

void InProcessCluster::AttachTimeSeries(MetricsTimeSeries* timeseries) {
  timeseries_ = timeseries;
}

void InProcessCluster::AttachFaultInjector(FaultInjector* injector) {
  // Detaching falls back to the internal (all-healthy) injector so the
  // pointer concurrent gathers read is never null and never mutated by a
  // membership op's first KillNode.
  injector_ = injector != nullptr ? injector : owned_injector_.get();
  InvalidateRuntime();
}

FaultInjector& InProcessCluster::fault_injector() { return *injector_; }

std::vector<NodeId> InProcessCluster::ReplicasOf(
    std::string_view partition_key) {
  std::vector<NodeId> replicas;
  replicas.reserve(replication_);
  MutexLock lock(route_mu_);
  AppendReplicasLocked(partition_key, replicas);
  return replicas;
}

void InProcessCluster::AppendReplicasLocked(std::string_view partition_key,
                                            std::vector<NodeId>& out) {
  auto it = directory_.find(partition_key);
  if (it == directory_.end()) {
    std::vector<NodeId> replicas;
    if (elastic_) {
      // Ring routing: membership ops keep members_ >= replication_, so
      // the lookup cannot hit the short-cluster precondition.
      replicas = ring_.ReplicasOfKey(partition_key, replication_).value();
    } else {
      const NodeId primary = placement_.Place(partition_key);
      replicas.reserve(replication_);
      for (uint32_t r = 0; r < replication_; ++r) {
        replicas.push_back((primary + r) % initial_nodes_);
      }
    }
    it = directory_.emplace(std::string(partition_key), std::move(replicas))
             .first;
  }
  out.insert(out.end(), it->second.begin(), it->second.end());
}

namespace {

/// Hash of a plan's ordered partition-key list: what finds its routed
/// plan. Process-local, so std::hash's per-implementation choice is fine.
uint64_t PlanKeyHash(const QueryPlan& plan) {
  uint64_t h = plan.partitions.size();
  for (const PlanPartition& part : plan.partitions) {
    h = (h ^ std::hash<std::string_view>{}(part.part.key)) *
        0x100000001b3ULL;
  }
  return h;
}

}  // namespace

std::span<const NodeId> InProcessCluster::RoutedPlan::ReplicasOf(
    size_t i) const {
  const uint32_t begin = i == 0 ? 0 : ends[i - 1];
  return std::span<const NodeId>(replicas).subspan(begin, ends[i] - begin);
}

bool InProcessCluster::RoutedPlan::Routes(const QueryPlan& plan) const {
  if (plan.partitions.size() != keys.size()) return false;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (plan.partitions[i].part.key != keys[i]) return false;
  }
  return true;
}

std::shared_ptr<const InProcessCluster::RoutedPlan>
InProcessCluster::RoutePlan(const QueryPlan& plan) {
  const uint64_t hash = PlanKeyHash(plan);
  std::shared_ptr<const RoutedPlan> cached;
  {
    MutexLock lock(route_mu_);
    // Read under route_mu_: directory flips and their epoch bump happen
    // together under this lock, so an entry of this epoch is current.
    const uint64_t epoch = ring_epoch();
    for (RoutedPlanSlot& slot : routed_plans_) {
      if (slot.plan->key_hash == hash && slot.plan->epoch == epoch) {
        slot.last_use = ++routed_plan_uses_;
        cached = slot.plan;
        break;
      }
    }
  }
  if (cached != nullptr && cached->Routes(plan)) return cached;

  auto routed = std::make_shared<RoutedPlan>();
  routed->key_hash = hash;
  const size_t total = plan.partitions.size();
  routed->keys.reserve(total);
  for (const PlanPartition& part : plan.partitions) {
    routed->keys.push_back(part.part.key);
  }
  routed->replicas.reserve(total * replication_);
  routed->ends.reserve(total);
  MutexLock lock(route_mu_);
  routed->epoch = ring_epoch();
  for (const std::string& key : routed->keys) {
    AppendReplicasLocked(key, routed->replicas);
    routed->ends.push_back(static_cast<uint32_t>(routed->replicas.size()));
  }
  ++routed_plan_builds_;
  // Replace this key list's entry or a stale one; else fill a free slot;
  // else evict the least recently used.
  auto victim = std::find_if(
      routed_plans_.begin(), routed_plans_.end(), [&](const RoutedPlanSlot& s) {
        return s.plan->key_hash == hash || s.plan->epoch != routed->epoch;
      });
  if (victim == routed_plans_.end()) {
    if (routed_plans_.size() < kRoutedPlanSlots) {
      victim = routed_plans_.emplace(routed_plans_.end());
    } else {
      victim = std::min_element(
          routed_plans_.begin(), routed_plans_.end(),
          [](const RoutedPlanSlot& a, const RoutedPlanSlot& b) {
            return a.last_use < b.last_use;
          });
    }
  }
  victim->last_use = ++routed_plan_uses_;
  victim->plan = routed;
  return routed;
}

uint64_t InProcessCluster::routed_plan_builds() const {
  MutexLock lock(route_mu_);
  return routed_plan_builds_;
}

NodeId InProcessCluster::OwnerOf(std::string_view partition_key) {
  return ReplicasOf(partition_key).front();
}

void InProcessCluster::RecordDispatch(NodeId node, uint64_t count) {
  MutexLock lock(route_mu_);
  placement_.OnDispatch(node, count);
}

std::vector<int64_t> InProcessCluster::PlacementLoad() const {
  MutexLock lock(route_mu_);
  return placement_.outstanding();
}

// Put / PutBatch live in write_path.cpp, next to the write-side fold and
// quorum accounting they share.

void InProcessCluster::FlushAll() {
  MutexLock membership(membership_mu_);
  std::vector<std::shared_ptr<LocalStore>> stores;
  {
    MutexLock lock(nodes_mu_);
    stores = nodes_;
  }
  for (auto& store : stores) store->FlushAll();
}

void InProcessCluster::KillNode(NodeId node) {
  KV_CHECK(node < node_count());
  fault_injector().KillNode(node);
}

Result<uint64_t> InProcessCluster::ReviveNode(NodeId node) {
  MutexLock membership(membership_mu_);
  KV_CHECK(node < node_count());
  fault_injector().ReviveNode(node);
  // A crash loses everything the old store held in memory; only the
  // commit log survives.
  std::shared_ptr<LocalStore> fresh;
  bool has_wal = false;
  {
    MutexLock lock(nodes_mu_);
    fresh = std::make_shared<LocalStore>(node_options_[node]);
    nodes_[node] = fresh;
    has_wal = !node_options_[node].wal_path.empty();
  }
  if (!has_wal) return uint64_t{0};
  return fresh->Recover();
}

uint64_t InProcessCluster::runtime_builds() const {
  MutexLock lock(runtime_mu_);
  return runtime_builds_;
}

void InProcessCluster::InvalidateRuntime() {
  // In-flight gathers hold their own shared_ptr; the old runtime shuts
  // down when the last of them releases it.
  MutexLock lock(runtime_mu_);
  runtime_.reset();
}

Status InProcessCluster::EnsureElastic(MembershipReport& report) {
  std::vector<std::pair<std::string, std::vector<NodeId>>> affected;
  {
    MutexLock lock(route_mu_);
    if (elastic_) return Status::Ok();
    for (const NodeId m : members_) KV_CHECK(ring_.AddNode(m).ok());
    for (const auto& [key, set] : directory_) affected.emplace_back(key, set);
  }
  // Adoption: move every partition whose ring owners differ from its
  // static placement, then flip. The legacy directory keeps serving
  // gathers until the flip, and keeps serving forever if the stream
  // fails (the ring is rolled back below).
  RingPlan plan = PlanRingTransition(affected);
  const Status streamed = ExecutePlan(std::move(plan), report);
  MutexLock lock(route_mu_);
  if (!streamed.ok()) {
    const std::vector<NodeId> members(members_.begin(), members_.end());
    for (const NodeId m : members) KV_CHECK(ring_.RemoveNode(m).ok());
    return streamed;
  }
  elastic_ = true;
  return Status::Ok();
}

InProcessCluster::RingPlan InProcessCluster::PlanRingTransition(
    const std::vector<std::pair<std::string, std::vector<NodeId>>>& affected) {
  std::vector<std::string> tables;
  {
    MutexLock lock(route_mu_);
    tables.assign(tables_.begin(), tables_.end());
  }
  RingPlan plan;
  for (const auto& [key, old_set] : affected) {
    std::vector<NodeId> new_set;
    {
      MutexLock lock(route_mu_);
      // Membership ops keep members_ >= replication_, so this resolves.
      new_set = ring_.ReplicasOfKey(key, replication_).value();
    }
    if (new_set == old_set) continue;
    std::vector<NodeId> gained;
    for (const NodeId n : new_set) {
      if (std::find(old_set.begin(), old_set.end(), n) == old_set.end()) {
        gained.push_back(n);
      }
    }
    bool lost = false;
    for (const std::string& table : tables) {
      // Which old replicas actually hold this (table, key) right now?
      // Store contents decide — a table the key was never written to
      // must not count as a loss.
      std::vector<NodeId> live;
      bool held_anywhere = false;
      for (const NodeId s : old_set) {
        std::shared_ptr<LocalStore> store = NodePtr(s);
        if (store == nullptr) continue;
        auto found = store->FindTable(table);
        if (!found.ok() || !found.value()->HasPartition(key)) continue;
        held_anywhere = true;
        if (injector_ == nullptr || !injector_->IsNodeDown(s)) {
          live.push_back(s);
        }
      }
      if (!held_anywhere) continue;  // key not in this table: nothing to move
      if (live.empty()) {
        // Data exists but every holder is dead: nothing can re-protect
        // it. The key keeps its old routing so gathers fail loudly.
        lost = true;
        continue;
      }
      for (const NodeId target : gained) {
        plan.moves.push_back(PartitionMove{table, key, target, live});
      }
    }
    if (lost) {
      plan.lost.push_back(key);
    } else {
      plan.flips.emplace_back(key, std::move(new_set));
    }
  }
  return plan;
}

Status InProcessCluster::ExecutePlan(RingPlan plan, MembershipReport& report) {
  const uint64_t migration_id =
      next_query_id_.fetch_add(1, std::memory_order_relaxed);
  MigrationEngine engine([this](NodeId id) { return NodePtr(id); },
                         codec_registry_, injector_);
  auto streamed = engine.Run(migration_id, std::move(plan.moves));
  if (!streamed.ok()) return streamed.status();
  const MigrationStreamStats& stats = streamed.value();

  // Mid-stream source kills can strand partitions the planner saw live
  // sources for: fold the engine's skips into the loss report and keep
  // their old routing entries (same rule as planner-detected losses).
  std::vector<std::string> lost = std::move(plan.lost);
  lost.insert(lost.end(), stats.skipped_keys.begin(),
              stats.skipped_keys.end());
  std::sort(lost.begin(), lost.end());
  lost.erase(std::unique(lost.begin(), lost.end()), lost.end());
  const std::set<std::string> lost_set(lost.begin(), lost.end());

  uint64_t epoch = 0;
  {
    MutexLock lock(route_mu_);
    for (auto& [key, set] : plan.flips) {
      if (!lost_set.contains(key)) directory_[key] = std::move(set);
    }
    epoch = ring_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  report.ring_epoch = epoch;
  report.partitions_moved += stats.partitions;
  report.columns_moved += stats.columns;
  report.blocks_streamed += stats.blocks;
  report.bytes_streamed += stats.bytes;
  report.block_retries += stats.block_retries;
  report.source_failovers += stats.source_failovers;
  report.lost_partitions.insert(report.lost_partitions.end(), lost.begin(),
                                lost.end());
  std::sort(report.lost_partitions.begin(), report.lost_partitions.end());
  report.lost_partitions.erase(std::unique(report.lost_partitions.begin(),
                                           report.lost_partitions.end()),
                               report.lost_partitions.end());
  // A key lost at ring adoption keeps routing to the dead node, so the
  // removal pass re-discovers it: count the deduplicated union, not the
  // per-pass sums.
  report.partitions_lost = report.lost_partitions.size();

  if (inst_.epoch != nullptr) inst_.epoch->Set(static_cast<double>(epoch));
  Instruments::Add(inst_.migrated_partitions, stats.partitions);
  Instruments::Add(inst_.migrated_blocks, stats.blocks);
  Instruments::Add(inst_.migrated_bytes, stats.bytes);
  Instruments::Add(inst_.migration_retries, stats.block_retries);
  Instruments::Add(inst_.migration_failovers, stats.source_failovers);
  return Status::Ok();
}

Result<MembershipReport> InProcessCluster::AddNode() {
  MutexLock membership(membership_mu_);
  const TransitionBracket bracket(*this);
  const auto t0 = std::chrono::steady_clock::now();
  MembershipReport report;
  KV_RETURN_IF_ERROR(EnsureElastic(report));

  NodeId id = 0;
  {
    MutexLock lock(nodes_mu_);
    id = static_cast<NodeId>(nodes_.size());
    StoreOptions options = base_store_options_;
    if (!options.wal_path.empty()) {
      options.wal_path += ".node" + std::to_string(id);
    }
    node_options_.push_back(options);
    nodes_.push_back(std::make_shared<LocalStore>(node_options_.back()));
  }
  report.node = id;

  std::vector<std::pair<std::string, std::vector<NodeId>>> affected;
  {
    MutexLock lock(route_mu_);
    placement_.GrowTo(id + 1);  // load-feedback slots for the new id
    KV_CHECK(ring_.AddNode(id).ok());
    members_.insert(id);
    affected.assign(directory_.begin(), directory_.end());
  }
  // Minimal movement: only keys whose ring set gained the new node plan
  // any moves; the planner drops unchanged sets.
  RingPlan plan = PlanRingTransition(affected);
  const Status streamed = ExecutePlan(std::move(plan), report);
  if (!streamed.ok()) {
    // The join aborts before any routing flip: evict the half-joined
    // node so ownership stays with the data. Its empty slot stays
    // allocated (ids are append-only).
    MutexLock lock(route_mu_);
    KV_CHECK(ring_.RemoveNode(id).ok());
    members_.erase(id);
    return streamed;
  }
  Instruments::Add(inst_.joins);
  // The shared runtime has no queue for the new slot; rebuild so message
  // queries reach the new node through it. In-flight message queries
  // keep the old runtime and serve the new id inline (MessageTransport's
  // stale-node route), so they never see kUnavailable for it.
  InvalidateRuntime();
  report.wall_us = ElapsedMicros(t0);
  return report;
}

Result<MembershipReport> InProcessCluster::DecommissionNode(NodeId node) {
  MutexLock membership(membership_mu_);
  const TransitionBracket bracket(*this);
  const auto t0 = std::chrono::steady_clock::now();
  MembershipReport report;
  report.node = node;
  KV_RETURN_IF_ERROR(EnsureElastic(report));

  std::vector<std::pair<std::string, std::vector<NodeId>>> affected;
  {
    MutexLock lock(route_mu_);
    if (!members_.contains(node)) {
      return Status::NotFound("node " + std::to_string(node) +
                              " is not a member");
    }
    if (members_.size() - 1 < replication_) {
      return Status::FailedPrecondition(
          "decommissioning node " + std::to_string(node) + " would leave " +
          std::to_string(members_.size() - 1) + " members, replication " +
          std::to_string(replication_) + " needs " +
          std::to_string(replication_));
    }
    KV_CHECK(ring_.RemoveNode(node).ok());
    members_.erase(node);
    for (const auto& [key, set] : directory_) {
      if (std::find(set.begin(), set.end(), node) != set.end()) {
        affected.emplace_back(key, set);
      }
    }
  }
  RingPlan plan = PlanRingTransition(affected);
  const Status streamed = ExecutePlan(std::move(plan), report);
  if (!streamed.ok()) {
    // Nothing flipped: re-admit the node (its tokens are deterministic,
    // so the ring comes back bit-identical) and keep serving.
    MutexLock lock(route_mu_);
    KV_CHECK(ring_.AddNode(node).ok());
    members_.insert(node);
    return streamed;
  }
  // Only now does the node go dark: gathers that resolved replicas
  // before the flip can still drain their reads from it.
  fault_injector().KillNode(node);
  Instruments::Add(inst_.decommissions);
  // The slot count is unchanged, so the shared runtime stays: its
  // workers bounce the dead node's queued requests at dequeue.
  report.wall_us = ElapsedMicros(t0);
  return report;
}

Result<MembershipReport> InProcessCluster::FailNodePermanently(NodeId node) {
  MutexLock membership(membership_mu_);
  const TransitionBracket bracket(*this);
  const auto t0 = std::chrono::steady_clock::now();
  MembershipReport report;
  report.node = node;
  {
    MutexLock lock(route_mu_);
    if (!members_.contains(node)) {
      return Status::NotFound("node " + std::to_string(node) +
                              " is not a member");
    }
    if (members_.size() - 1 < replication_) {
      return Status::FailedPrecondition(
          "losing node " + std::to_string(node) + " would leave " +
          std::to_string(members_.size() - 1) + " members, replication " +
          std::to_string(replication_) + " needs " +
          std::to_string(replication_));
    }
  }
  // The failure comes first — this models reacting to an unplanned,
  // unrecoverable death, so nothing below may read the corpse.
  fault_injector().KillNode(node);
  KV_RETURN_IF_ERROR(EnsureElastic(report));

  std::vector<std::pair<std::string, std::vector<NodeId>>> affected;
  {
    MutexLock lock(route_mu_);
    KV_CHECK(ring_.RemoveNode(node).ok());
    members_.erase(node);
    for (const auto& [key, set] : directory_) {
      if (std::find(set.begin(), set.end(), node) != set.end()) {
        affected.emplace_back(key, set);
      }
    }
  }
  // Re-protection: every partition the dead node co-owned streams a
  // fresh copy from a surviving replica to the ring's replacement owner.
  RingPlan plan = PlanRingTransition(affected);
  const uint64_t moved_before = report.partitions_moved;
  const Status streamed = ExecutePlan(std::move(plan), report);
  if (!streamed.ok()) {
    // The node stays dead (it is), but membership rolls back so the
    // cluster's view matches a plain KillNode until a retry heals it.
    MutexLock lock(route_mu_);
    KV_CHECK(ring_.AddNode(node).ok());
    members_.insert(node);
    return streamed;
  }
  report.partitions_repaired = report.partitions_moved - moved_before;
  Instruments::Add(inst_.perma_failures);
  Instruments::Add(inst_.repaired, report.partitions_repaired);
  Instruments::Add(inst_.lost, report.partitions_lost);
  // As in DecommissionNode: no new slot, so no runtime rebuild.
  report.wall_us = ElapsedMicros(t0);
  return report;
}

std::vector<uint64_t> InProcessCluster::ColumnsPerNode(
    const std::string& table) {
  std::vector<std::shared_ptr<LocalStore>> stores;
  {
    MutexLock lock(nodes_mu_);
    stores = nodes_;
  }
  std::vector<uint64_t> counts(stores.size(), 0);
  for (size_t n = 0; n < stores.size(); ++n) {
    auto found = stores[n]->FindTable(table);
    if (found.ok()) counts[n] = found.value()->column_count();
  }
  return counts;
}

}  // namespace kvscale
