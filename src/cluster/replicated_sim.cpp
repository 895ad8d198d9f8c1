#include "cluster/replicated_sim.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_set>

#include "common/check.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "wire/codec.hpp"
#include "wire/messages.hpp"

namespace kvscale {

std::string_view ReadPolicyName(ReadPolicy policy) {
  switch (policy) {
    case ReadPolicy::kPrimary:
      return "primary";
    case ReadPolicy::kRoundRobinReplica:
      return "round-robin-replica";
    case ReadPolicy::kRandomReplica:
      return "random-replica";
    case ReadPolicy::kLeastLoaded:
      return "least-loaded";
    case ReadPolicy::kStaleLeastLoaded:
      return "stale-least-loaded";
  }
  return "?";
}

std::string_view MasterArchName(MasterArch arch) {
  switch (arch) {
    case MasterArch::kSingle:
      return "single-master";
    case MasterArch::kSharded:
      return "sharded-masters";
    case MasterArch::kPeerToPeer:
      return "peer-to-peer";
  }
  return "?";
}

double ReplicatedRunResult::RequestImbalance() const {
  if (reads_per_node.empty()) return 0.0;
  uint64_t max = 0, sum = 0;
  for (uint64_t c : reads_per_node) {
    max = std::max(max, c);
    sum += c;
  }
  if (sum == 0) return 0.0;
  const double mean =
      static_cast<double>(sum) / static_cast<double>(reads_per_node.size());
  return (static_cast<double>(max) - mean) / mean;
}

double ReplicatedRunResult::WarmFraction() const {
  const uint64_t total = warm_reads + cold_reads;
  return total == 0 ? 0.0
                    : static_cast<double>(warm_reads) /
                          static_cast<double>(total);
}

WorkloadSpec RepeatWorkload(const WorkloadSpec& workload, uint32_t times) {
  KV_CHECK(times >= 1);
  WorkloadSpec repeated;
  repeated.table = workload.table;
  repeated.partitions.reserve(workload.partitions.size() * times);
  for (uint32_t pass = 0; pass < times; ++pass) {
    for (const auto& p : workload.partitions) {
      repeated.partitions.push_back(p);
    }
  }
  return repeated;
}

namespace {

/// One in-flight sub-query's bookkeeping.
struct SubQueryState {
  uint32_t attempts = 0;
  bool done = false;
  uint32_t copies_pending = 0;   ///< outstanding fan-out copies
  std::vector<NodeId> replicas;  ///< candidate nodes, primary first
  std::vector<NodeId> tried;
};

/// The whole run; owns the simulator and every virtual resource.
class ReplicatedRun {
 public:
  ReplicatedRun(const ReplicatedClusterConfig& config,
                const WorkloadSpec& workload)
      : config_(config),
        base_(config.base),
        workload_(workload),
        db_model_(base_.db, ParallelismModel(base_.parallelism)),
        rng_(base_.seed),
        ring_(64) {
    KV_CHECK(base_.nodes >= 1);
    KV_CHECK(config_.replication >= 1);
    KV_CHECK(config_.max_attempts >= 1);
    KV_CHECK(!workload.partitions.empty());
    RegisterClusterMessages(codec_);
    for (NodeId n = 0; n < base_.nodes; ++n) KV_CHECK(ring_.AddNode(n).ok());

    const uint32_t endpoints = MasterCount() + base_.nodes;
    network_ = std::make_unique<Network>(sim_, endpoints, base_.network);
    for (uint32_t m = 0; m < MasterCount(); ++m) {
      master_cpu_.push_back(std::make_unique<Resource>(
          sim_, 1, "master-" + std::to_string(m)));
    }
    uint32_t db_concurrency = base_.db_concurrency;
    if (db_concurrency == 0) {
      db_concurrency = std::max<uint32_t>(
          1, static_cast<uint32_t>(std::lround(
                 db_model_.parallelism().OptimalConcurrency(
                     std::max(1.0, workload.MeanKeysize())))));
    }
    for (uint32_t n = 0; n < base_.nodes; ++n) {
      slave_cpu_.push_back(std::make_unique<Resource>(
          sim_, 1, "slave-cpu-" + std::to_string(n)));
      slave_db_.push_back(std::make_unique<Resource>(
          sim_, db_concurrency, "slave-db-" + std::to_string(n)));
      slave_rng_.push_back(rng_.Fork());
    }
    failed_.assign(base_.nodes, false);
    outstanding_.assign(base_.nodes, 0);
    load_snapshot_.assign(base_.nodes, 0);
    warm_partitions_.resize(base_.nodes);
    result_.reads_per_node.assign(base_.nodes, 0);
  }

  ReplicatedRunResult Run() {
    const size_t total = workload_.partitions.size();
    states_.resize(total);
    traces_.resize(total);
    for (uint32_t i = 0; i < total; ++i) {
      // The sim sizes its ring from the config, so a short cluster would
      // trip the ring's precondition; clamp like the paper's simulator
      // always has (replication beyond the cluster is just "everywhere").
      const uint32_t effective = std::min<uint32_t>(
          config_.replication, static_cast<uint32_t>(ring_.node_count()));
      states_[i].replicas =
          ring_.ReplicasOfKey(workload_.partitions[i].key, effective).value();
      traces_[i].query_id = 1;
      traces_[i].sub_id = i;
      traces_[i].keysize = workload_.partitions[i].elements;
    }

    if (config_.fail_node != UINT32_MAX) {
      KV_CHECK(config_.fail_node < base_.nodes);
      sim_.At(config_.fail_at,
              [this] { failed_[config_.fail_node] = true; });
    }
    if (config_.read_policy == ReadPolicy::kStaleLeastLoaded) {
      RefreshSnapshotLoop();
    }

    if (config_.master_arch == MasterArch::kPeerToPeer) {
      RunPeerToPeer();
    } else {
      for (uint32_t i = 0; i < total; ++i) IssueFromMaster(i);
    }

    sim_.Run();

    result_.makespan = std::max(result_.makespan, last_progress_);
    for (const auto& trace : traces_) {
      if (trace.completed > 0) result_.tracer.Record(trace);
    }
    // Count failures from the per-sub-query states rather than deriving
    // them: `completed` is incremented on the fold path and a bug there
    // (double-count, missed duplicate suppression) would silently skew a
    // derived failure count. The invariant ties the two views together.
    result_.failed = 0;
    for (const SubQueryState& st : states_) {
      if (!st.done) ++result_.failed;
    }
    KV_CHECK(result_.completed + result_.failed == total);
    return std::move(result_);
  }

 private:
  uint32_t MasterCount() const {
    return config_.master_arch == MasterArch::kSharded
               ? std::max<uint32_t>(config_.master_count, 1)
               : 1;
  }

  uint32_t MasterOf(uint32_t sub_id) const {
    return sub_id % MasterCount();
  }

  uint32_t SlaveEndpoint(NodeId node) const { return MasterCount() + node; }

  void RefreshSnapshotLoop() {
    load_snapshot_ = outstanding_;
    sim_.Schedule(config_.load_snapshot_interval, [this] {
      if (!sim_.empty()) RefreshSnapshotLoop();
    });
  }

  /// Policy choice among the not-yet-tried replicas of sub-query i.
  NodeId ChooseReplica(uint32_t sub_id) {
    SubQueryState& st = states_[sub_id];
    std::vector<NodeId> candidates;
    for (NodeId r : st.replicas) {
      if (std::find(st.tried.begin(), st.tried.end(), r) == st.tried.end()) {
        candidates.push_back(r);
      }
    }
    if (candidates.empty()) candidates = st.replicas;  // all tried: reuse
    switch (config_.read_policy) {
      case ReadPolicy::kPrimary:
        return candidates.front();
      case ReadPolicy::kRoundRobinReplica:
        return candidates[rr_counter_++ % candidates.size()];
      case ReadPolicy::kRandomReplica:
        return candidates[rng_.Below(candidates.size())];
      case ReadPolicy::kLeastLoaded: {
        NodeId best = candidates.front();
        for (NodeId c : candidates) {
          if (outstanding_[c] < outstanding_[best]) best = c;
        }
        return best;
      }
      case ReadPolicy::kStaleLeastLoaded: {
        NodeId best = candidates.front();
        for (NodeId c : candidates) {
          if (load_snapshot_[c] < load_snapshot_[best]) best = c;
        }
        return best;
      }
    }
    return candidates.front();
  }

  double EncodeRequestBytes(uint32_t sub_id) {
    const PartitionRef& part = workload_.partitions[sub_id];
    double bytes = static_cast<double>(SubQueryRequestBytes(
        base_.size_messages_with_compact_codec ? &codec_ : nullptr, 1, sub_id,
        workload_.table, part.key, part.elements));
    if (!base_.size_messages_with_compact_codec) {
      bytes = std::max(bytes, base_.serializer.bytes_per_message);
    }
    return bytes;
  }

  /// Issues (or re-issues) sub-query `sub_id` from its master. With
  /// read_fanout > 1 the request goes to several replicas at once and
  /// completes when the *slowest* answers — the Kinesis-style multi-read
  /// whose k-fold cost the paper critiques. Fan-out disables retries.
  void IssueFromMaster(uint32_t sub_id) {
    SubQueryState& st = states_[sub_id];
    if (st.done || st.attempts >= config_.max_attempts) return;

    const uint32_t fanout =
        std::min<uint32_t>(std::max<uint32_t>(config_.read_fanout, 1),
                           static_cast<uint32_t>(st.replicas.size()));
    if (fanout > 1) {
      st.attempts = config_.max_attempts;  // no retry path with fan-out
      st.copies_pending = fanout;
      // The policy picks the first target; the remaining copies go to
      // the other replicas in set order.
      const NodeId first = ChooseReplica(sub_id);
      st.tried.push_back(first);
      std::vector<NodeId> targets{first};
      for (NodeId r : st.replicas) {
        if (targets.size() >= fanout) break;
        if (std::find(targets.begin(), targets.end(), r) == targets.end()) {
          targets.push_back(r);
        }
      }
      for (NodeId target : targets) {
        ++outstanding_[target];
        DispatchCopy(sub_id, target, config_.max_attempts);
      }
      return;
    }

    ++st.attempts;
    if (st.attempts > 1) ++result_.retries;
    st.copies_pending = 1;

    const NodeId node = ChooseReplica(sub_id);
    st.tried.push_back(node);
    ++outstanding_[node];
    DispatchCopy(sub_id, node, st.attempts);
  }

  /// Sends one copy of sub-query `sub_id` to `node`. Stage timestamps are
  /// collected in a per-copy draft and committed to the sub-query's trace
  /// only by the fold that completes it, so attempts that lose a race
  /// (e.g. a slow copy finishing after a retry was issued) can never
  /// interleave their stamps with the winner's.
  void DispatchCopy(uint32_t sub_id, NodeId node, uint32_t attempt) {
    const uint32_t master = MasterOf(sub_id);
    const double bytes = EncodeRequestBytes(sub_id);
    const Micros send_cost = base_.serializer.CostFor(bytes) +
                             base_.master_logic_per_message;
    auto draft = std::make_shared<RequestTrace>(traces_[sub_id]);
    draft->node = node;
    master_cpu_[master]->Submit(
        send_cost, [this, sub_id, node, master, bytes, attempt, draft](
                       SimTime, SimTime, SimTime sent) {
          draft->issued = sent;
          // Arm the retry timer.
          if (config_.request_timeout > 0 &&
              attempt < config_.max_attempts) {
            sim_.Schedule(config_.request_timeout, [this, sub_id, attempt] {
              SubQueryState& state = states_[sub_id];
              if (!state.done && state.attempts == attempt) {
                IssueFromMaster(sub_id);
              }
            });
          } else if (config_.request_timeout > 0) {
            // Last attempt: a timeout is a permanent failure.
            sim_.Schedule(config_.request_timeout, [this, sub_id] {
              if (!states_[sub_id].done) {
                last_progress_ = std::max(last_progress_, sim_.now());
              }
            });
          }
          network_->Send(master, SlaveEndpoint(node), bytes,
                         [this, sub_id, node, master, draft] {
                           OnSlaveReceive(sub_id, node, master, draft);
                         });
        });
  }

  void OnSlaveReceive(uint32_t sub_id, NodeId node, uint32_t reply_to,
                      std::shared_ptr<RequestTrace> draft) {
    if (failed_[node]) return;  // the message dies with the node
    draft->received = sim_.now();
    const PartitionRef& part = workload_.partitions[sub_id];
    const double keysize = std::max<double>(part.elements, 1.0);

    slave_db_[node]->Submit(
        [this, node, keysize, part](uint32_t active) {
          const bool warm = warm_partitions_[node].contains(part.key);
          if (warm) {
            ++result_.warm_reads;
          } else {
            ++result_.cold_reads;
            warm_partitions_[node].insert(part.key);
          }
          const Micros device = base_.device.ReadTime(
              base_.bytes_per_element * keysize);
          Micros base = db_model_.QueryTime(keysize) + device;
          if (warm) base *= config_.cache_warm_factor;
          const double inflation =
              db_model_.parallelism().ServiceInflation(
                  keysize, static_cast<double>(active));
          const double sigma = base_.db.noise_sigma;
          const double noise =
              sigma > 0 ? slave_rng_[node].LogNormal(-0.5 * sigma * sigma,
                                                     sigma)
                        : 1.0;
          const Micros gc =
              base_.gc.linear_us_per_element * keysize +
              base_.gc.quadratic_us_per_element2 * keysize * keysize;
          return base * inflation * noise + gc * active;
        },
        [this, sub_id, node, reply_to, draft](SimTime, SimTime started,
                                              SimTime finished) {
          if (failed_[node]) return;  // died while serving
          draft->db_start = started;
          draft->db_end = finished;
          SendResult(sub_id, node, reply_to, draft);
        });
  }

  void SendResult(uint32_t sub_id, NodeId node, uint32_t reply_to,
                  std::shared_ptr<RequestTrace> draft) {
    const PartitionRef& part = workload_.partitions[sub_id];
    PartialResult partial;
    partial.query_id = 1;
    partial.sub_id = sub_id;
    partial.node = node;
    for (const auto& [type, count] :
         SyntheticPartitionCounts(part.key, part.elements)) {
      partial.types.push_back("t" + std::to_string(type));
      partial.counts.push_back(count);
    }
    WireBuffer buf;
    if (base_.size_messages_with_compact_codec) {
      codec_.Encode(partial, buf);
    } else {
      TaggedCodec::Encode(partial, buf);
    }
    const auto bytes = static_cast<double>(buf.size());
    slave_cpu_[node]->Submit(
        base_.serializer.CostFor(bytes),
        [this, sub_id, node, reply_to, draft, bytes](SimTime, SimTime,
                                                     SimTime) {
          if (failed_[node]) return;
          network_->Send(SlaveEndpoint(node), reply_to, bytes,
                         [this, sub_id, node, reply_to, draft] {
                           FoldResult(sub_id, node, reply_to, draft);
                         });
        });
  }

  void FoldResult(uint32_t sub_id, NodeId node, uint32_t master,
                  std::shared_ptr<RequestTrace> draft) {
    master_cpu_[master]->Submit(
        base_.serializer.TypicalCost() * 0.25,
        [this, sub_id, node, draft](SimTime, SimTime, SimTime folded) {
          SubQueryState& st = states_[sub_id];
          if (outstanding_[node] > 0) --outstanding_[node];
          ++result_.reads_per_node[node];  // the DB did serve this copy
          if (st.done) return;  // duplicate from a retried attempt
          if (st.copies_pending > 0) --st.copies_pending;
          if (st.copies_pending > 0) {
            // Fan-out: wait for the slowest replica before completing.
            last_progress_ = std::max(last_progress_, folded);
            return;
          }
          st.done = true;
          // Commit the winning copy's draft as the sub-query's trace.
          draft->completed = folded;
          traces_[sub_id] = *draft;
          ++result_.completed;
          const PartitionRef& part = workload_.partitions[sub_id];
          for (const auto& [type, count] :
               SyntheticPartitionCounts(part.key, part.elements)) {
            result_.aggregated[type] += count;
          }
          last_progress_ = std::max(last_progress_, folded);
        });
  }

  // -- Peer-to-peer mode ------------------------------------------------------

  void RunPeerToPeer() {
    // The coordinator broadcasts the plan; each executor node schedules
    // its share locally, folds locally, and ships one combined result.
    const size_t total = workload_.partitions.size();
    std::vector<std::vector<uint32_t>> per_node(base_.nodes);
    for (uint32_t i = 0; i < total; ++i) {
      per_node[ChooseReplica(i)].push_back(i);
    }
    // Plan distribution: one announce message per participating node.
    for (NodeId node = 0; node < base_.nodes; ++node) {
      if (per_node[node].empty()) continue;
      const double announce_bytes = 64.0 + 8.0 * per_node[node].size();
      network_->Send(0, SlaveEndpoint(node), announce_bytes,
                     [this, node, subs = per_node[node]] {
                       StartLocalExecution(node, subs);
                     });
    }
  }

  void StartLocalExecution(NodeId node, const std::vector<uint32_t>& subs) {
    auto remaining = std::make_shared<size_t>(subs.size());
    for (uint32_t sub_id : subs) {
      // Local dispatch: no serialization, a couple of microseconds of
      // scheduling work on the node's CPU.
      slave_cpu_[node]->Submit(
          2.0, [this, sub_id, node, remaining](SimTime, SimTime,
                                               SimTime dispatched) {
            if (failed_[node]) return;
            RequestTrace& tr = traces_[sub_id];
            tr.issued = dispatched;
            tr.received = dispatched;
            const PartitionRef& part = workload_.partitions[sub_id];
            const double keysize = std::max<double>(part.elements, 1.0);
            slave_db_[node]->Submit(
                [this, node, keysize, part](uint32_t active) {
                  const bool warm = warm_partitions_[node].contains(part.key);
                  if (warm) {
                    ++result_.warm_reads;
                  } else {
                    ++result_.cold_reads;
                    warm_partitions_[node].insert(part.key);
                  }
                  Micros base = db_model_.QueryTime(keysize) +
                                base_.device.ReadTime(
                                    base_.bytes_per_element * keysize);
                  if (warm) base *= config_.cache_warm_factor;
                  const double inflation =
                      db_model_.parallelism().ServiceInflation(
                          keysize, static_cast<double>(active));
                  const double sigma = base_.db.noise_sigma;
                  const double noise =
                      sigma > 0 ? slave_rng_[node].LogNormal(
                                      -0.5 * sigma * sigma, sigma)
                                : 1.0;
                  return base * inflation * noise;
                },
                [this, sub_id, node, remaining](SimTime, SimTime started,
                                                SimTime finished) {
                  if (failed_[node]) return;
                  RequestTrace& tr2 = traces_[sub_id];
                  tr2.db_start = started;
                  tr2.db_end = finished;
                  tr2.completed = finished;  // folded locally
                  states_[sub_id].done = true;
                  ++result_.completed;
                  ++result_.reads_per_node[node];
                  const PartitionRef& p = workload_.partitions[sub_id];
                  for (const auto& [type, count] :
                       SyntheticPartitionCounts(p.key, p.elements)) {
                    result_.aggregated[type] += count;
                  }
                  if (--*remaining == 0) ShipCombinedResult(node);
                });
          });
    }
  }

  void ShipCombinedResult(NodeId node) {
    // One result message per node, folded at the coordinator.
    const double bytes = 256.0;
    slave_cpu_[node]->Submit(
        base_.serializer.CostFor(bytes),
        [this, node, bytes](SimTime, SimTime, SimTime) {
          if (failed_[node]) return;
          network_->Send(SlaveEndpoint(node), 0, bytes, [this] {
            master_cpu_[0]->Submit(
                base_.serializer.TypicalCost() * 0.25,
                [this](SimTime, SimTime, SimTime folded) {
                  last_progress_ = std::max(last_progress_, folded);
                });
          });
        });
  }

  const ReplicatedClusterConfig& config_;
  const ClusterConfig& base_;
  const WorkloadSpec& workload_;
  DbModel db_model_;
  Rng rng_;
  TokenRing ring_;
  CompactCodec codec_;

  Simulator sim_;
  std::unique_ptr<Network> network_;
  std::vector<std::unique_ptr<Resource>> master_cpu_;
  std::vector<std::unique_ptr<Resource>> slave_cpu_;
  std::vector<std::unique_ptr<Resource>> slave_db_;
  std::vector<Rng> slave_rng_;

  std::vector<SubQueryState> states_;
  std::vector<RequestTrace> traces_;
  std::vector<bool> failed_;
  std::vector<int64_t> outstanding_;
  std::vector<int64_t> load_snapshot_;
  std::vector<std::unordered_set<std::string>> warm_partitions_;
  uint64_t rr_counter_ = 0;
  Micros last_progress_ = 0.0;

  ReplicatedRunResult result_;
};

}  // namespace

ReplicatedRunResult RunReplicatedQuery(const ReplicatedClusterConfig& config,
                                       const WorkloadSpec& workload) {
  ReplicatedRun run(config, workload);
  return run.Run();
}

}  // namespace kvscale
