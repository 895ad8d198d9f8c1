#include "cluster/cluster_sim.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/check.hpp"
#include "hash/hash.hpp"
#include "stats/zipf.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "wire/codec.hpp"
#include "wire/messages.hpp"

namespace kvscale {

uint64_t WorkloadSpec::TotalElements() const {
  uint64_t total = 0;
  for (const auto& p : partitions) total += p.elements;
  return total;
}

double WorkloadSpec::MeanKeysize() const {
  if (partitions.empty()) return 0.0;
  return static_cast<double>(TotalElements()) /
         static_cast<double>(partitions.size());
}

double QueryRunResult::RequestImbalance() const {
  if (requests_per_node.empty()) return 0.0;
  uint64_t max = 0;
  uint64_t sum = 0;
  for (uint64_t c : requests_per_node) {
    max = std::max(max, c);
    sum += c;
  }
  if (sum == 0) return 0.0;
  const double mean = static_cast<double>(sum) /
                      static_cast<double>(requests_per_node.size());
  return (static_cast<double>(max) - mean) / mean;
}

TypeCounts SyntheticPartitionCounts(const std::string& key, uint32_t elements,
                                    uint32_t distinct_types) {
  KV_CHECK(distinct_types >= 1);
  // Deterministic pseudo-random split of `elements` over the types,
  // seeded by the key so reruns and ground truth agree.
  TypeCounts counts;
  uint64_t state = Fnv1a64(key);
  uint32_t remaining = elements;
  for (uint32_t t = 0; t + 1 < distinct_types && remaining > 0; ++t) {
    const uint64_t share = SplitMix64(state) % (remaining + 1);
    if (share > 0) counts[t] = share;
    remaining -= static_cast<uint32_t>(share);
  }
  if (remaining > 0) counts[distinct_types - 1] += remaining;
  return counts;
}

TypeCounts ExpectedAggregation(const WorkloadSpec& workload,
                               uint32_t distinct_types) {
  TypeCounts total;
  for (const auto& p : workload.partitions) {
    for (const auto& [type, count] :
         SyntheticPartitionCounts(p.key, p.elements, distinct_types)) {
      total[type] += count;
    }
  }
  return total;
}

WorkloadSpec UniformWorkload(uint64_t elements, uint64_t keys,
                             const std::string& table) {
  KV_CHECK(keys > 0);
  KV_CHECK(elements >= keys);
  WorkloadSpec spec;
  spec.table = table;
  spec.partitions.reserve(keys);
  const uint64_t base = elements / keys;
  uint64_t leftover = elements % keys;
  for (uint64_t k = 0; k < keys; ++k) {
    PartitionRef ref;
    ref.key = "cube:" + std::to_string(k % 8) + ":" + std::to_string(k);
    ref.elements = static_cast<uint32_t>(base + (k < leftover ? 1 : 0));
    spec.partitions.push_back(std::move(ref));
  }
  return spec;
}

WorkloadSpec ZipfWorkload(uint64_t elements, uint64_t keys, double exponent,
                          uint64_t seed, const std::string& table) {
  KV_CHECK(keys > 0);
  KV_CHECK(elements >= keys);
  std::vector<uint64_t> sizes = ZipfPartitionSizes(elements, keys, exponent);
  Rng rng(seed);
  rng.Shuffle(sizes);
  WorkloadSpec spec;
  spec.table = table;
  spec.partitions.reserve(keys);
  for (uint64_t k = 0; k < keys; ++k) {
    spec.partitions.push_back(
        PartitionRef{"zipf:" + std::to_string(k),
                     static_cast<uint32_t>(sizes[k])});
  }
  return spec;
}

namespace {

/// Everything one simulation run needs; kept alive until Run() finishes.
struct RunState {
  Simulator sim;
  std::unique_ptr<Network> network;
  std::unique_ptr<Resource> master_cpu;
  std::vector<std::unique_ptr<Resource>> slave_cpu;  // result serialization
  std::vector<std::unique_ptr<Resource>> slave_db;
  std::vector<Rng> slave_rng;
  CompactCodec codec;
};

}  // namespace

QueryRunResult RunDistributedQuery(const ClusterConfig& config,
                                   const WorkloadSpec& workload) {
  KV_CHECK(config.nodes >= 1);
  KV_CHECK(!workload.partitions.empty());

  const DbModel db_model(config.db, ParallelismModel(config.parallelism));
  const ParallelismModel& par = db_model.parallelism();

  uint32_t db_concurrency = config.db_concurrency;
  if (db_concurrency == 0) {
    db_concurrency = static_cast<uint32_t>(
        std::lround(par.OptimalConcurrency(
            std::max(1.0, workload.MeanKeysize()))));
    db_concurrency = std::max<uint32_t>(db_concurrency, 1);
  }

  RunState state;
  RegisterClusterMessages(state.codec);
  // Endpoint 0 is the master; slaves are endpoints 1..nodes.
  state.network = std::make_unique<Network>(state.sim, config.nodes + 1,
                                            config.network);
  state.master_cpu =
      std::make_unique<Resource>(state.sim, 1, "master-cpu");
  Rng root_rng(config.seed);
  for (uint32_t n = 0; n < config.nodes; ++n) {
    state.slave_cpu.push_back(std::make_unique<Resource>(
        state.sim, 1, "slave-cpu-" + std::to_string(n)));
    state.slave_db.push_back(std::make_unique<Resource>(
        state.sim, db_concurrency, "slave-db-" + std::to_string(n)));
    state.slave_rng.push_back(root_rng.Fork());
  }

  PlacementPolicy placement(config.placement, config.nodes,
                            config.seed ^ 0x9e3779b97f4a7c15ULL);

  QueryRunResult result;
  result.requests_per_node.assign(config.nodes, 0);

  const uint64_t query_id = 1;
  const size_t total = workload.partitions.size();
  auto traces = std::make_shared<std::vector<RequestTrace>>(total);
  auto completed = std::make_shared<size_t>(0);

  // Downstream path of one sub-query once it reaches its slave: database
  // service -> result serialization -> network -> master fold.
  auto serve_at_slave = [&state, &config, &db_model, &par, traces, completed,
                         query_id, total, &result,
                         &workload](uint32_t sub_id, NodeId node) {
    const PartitionRef& part = workload.partitions[sub_id];
    RequestTrace& tr2 = (*traces)[sub_id];
    tr2.received = state.sim.now();
    const double keysize = std::max<double>(part.elements, 1.0);
    state.slave_db[node]->Submit(
                    [&state, &config, &db_model, &par, node,
                     keysize](uint32_t active) {
                      const Micros base =
                          db_model.QueryTime(keysize) +
                          config.device.ReadTime(config.bytes_per_element *
                                                 keysize);
                      double c_eff = static_cast<double>(active);
                      if (config.cap_inflation_at_optimal) {
                        c_eff = std::min(c_eff,
                                         par.OptimalConcurrency(keysize));
                      }
                      const double inflation =
                          par.ServiceInflation(keysize, c_eff);
                      const double sigma = config.db.noise_sigma;
                      const double noise =
                          sigma > 0 ? state.slave_rng[node].LogNormal(
                                          -0.5 * sigma * sigma, sigma)
                                    : 1.0;
                      // GC churn is stop-the-world: one pause stalls every
                      // in-flight request, so each request's share scales
                      // with the concurrency it runs at — the node as a
                      // whole pays one full pause per request (Figure 8's
                      // "+GC" term: key_max pauses on the slowest node).
                      const Micros gc_pause =
                          config.gc.linear_us_per_element * keysize +
                          config.gc.quadratic_us_per_element2 * keysize *
                              keysize;
                      return base * inflation * noise + gc_pause * active;
                    },
                    [&state, &config, traces, completed, sub_id, node, part,
                     query_id, total, &result](SimTime enqueued,
                                               SimTime started,
                                               SimTime finished_db) {
                      RequestTrace& tr3 = (*traces)[sub_id];
                      tr3.db_start = started;
                      tr3.db_end = finished_db;
                      (void)enqueued;  // == tr3.received by construction

                      // Build and size the real result message.
                      PartialResult partial;
                      partial.query_id = query_id;
                      partial.sub_id = sub_id;
                      partial.node = node;
                      for (const auto& [type, count] :
                           SyntheticPartitionCounts(part.key,
                                                    part.elements)) {
                        partial.types.push_back("t" + std::to_string(type));
                        partial.counts.push_back(count);
                      }
                      partial.db_micros = finished_db - started;
                      WireBuffer result_buf;
                      if (config.size_messages_with_compact_codec) {
                        state.codec.Encode(partial, result_buf);
                      } else {
                        TaggedCodec::Encode(partial, result_buf);
                      }
                      const auto result_bytes =
                          static_cast<double>(result_buf.size());
                      const Micros result_cost =
                          config.serializer.CostFor(result_bytes);

                      // Slave CPU serializes the result, then it crosses
                      // the network and the master folds it.
                      state.slave_cpu[node]->Submit(
                          result_cost,
                          [&state, &config, traces, completed, sub_id, node,
                           part, result_bytes, total,
                           &result](SimTime, SimTime, SimTime) {
                            state.network->Send(
                                node + 1, 0, result_bytes,
                                [&state, &config, traces, completed, sub_id,
                                 node, part, total, &result]() {
                                  const Micros fold_cost =
                                      config.serializer.TypicalCost() * 0.25;
                                  state.master_cpu->Submit(
                                      fold_cost,
                                      [traces, completed, sub_id, node, part,
                                       total, &state, &result](
                                          SimTime, SimTime,
                                          SimTime fold_done) {
                                        RequestTrace& tr4 = (*traces)[sub_id];
                                        tr4.completed = fold_done;
                                        for (const auto& [type, count] :
                                             SyntheticPartitionCounts(
                                                 part.key, part.elements)) {
                                          result.aggregated[type] += count;
                                        }
                                        ++(*completed);
                                      });
                                });
                          });
                    });
  };

  // Issue phase: place every sub-query, coalesce consecutive requests to
  // the same node into batches of `send_batch_size`, and charge the
  // master's CPU once per batch (fixed cost amortised, marginal per-byte
  // and per-request logic costs unchanged).
  const uint32_t batch_size = std::max<uint32_t>(config.send_batch_size, 1);
  struct Batch {
    NodeId node = 0;
    double bytes = 0.0;
    std::vector<uint32_t> members;
  };
  std::vector<Batch> batches;
  std::vector<Batch> pending(config.nodes);
  batches.reserve(total / batch_size + config.nodes);

  for (uint32_t sub_id = 0; sub_id < total; ++sub_id) {
    const PartitionRef& part = workload.partitions[sub_id];
    const NodeId node = placement.Place(part.key);
    placement.OnDispatch(node);
    result.requests_per_node[node]++;

    // Size the real request message with the configured codec.
    double request_bytes = static_cast<double>(SubQueryRequestBytes(
        config.size_messages_with_compact_codec ? &state.codec : nullptr,
        query_id, sub_id, workload.table, part.key, part.elements));
    if (!config.size_messages_with_compact_codec) {
      // The tagged codec is structurally verbose but the JVM default adds
      // further object-graph metadata; scale to the profile's measurement.
      request_bytes =
          std::max(request_bytes, config.serializer.bytes_per_message);
    }

    RequestTrace& trace = (*traces)[sub_id];
    trace.query_id = query_id;
    trace.sub_id = sub_id;
    trace.node = node;
    trace.keysize = part.elements;

    Batch& open = pending[node];
    open.node = node;
    open.bytes += request_bytes;
    open.members.push_back(sub_id);
    if (open.members.size() >= batch_size) {
      batches.push_back(std::move(open));
      open = Batch{};
    }
  }
  // Flush partially filled batches in first-member order, so the issue
  // sequence stays faithful to the master's key order.
  {
    std::vector<Batch> leftovers;
    for (auto& open : pending) {
      if (!open.members.empty()) leftovers.push_back(std::move(open));
    }
    std::sort(leftovers.begin(), leftovers.end(),
              [](const Batch& a, const Batch& b) {
                return a.members.front() < b.members.front();
              });
    for (auto& leftover : leftovers) batches.push_back(std::move(leftover));
  }

  for (const Batch& batch : batches) {
    // The master's CPU serializes each batch; cost from the serializer
    // profile: one fixed dispatch + marginal bytes + per-request logic.
    const Micros send_cost =
        config.serializer.cpu_fixed +
        config.serializer.cpu_per_byte * batch.bytes +
        config.master_logic_per_message *
            static_cast<double>(batch.members.size());
    state.master_cpu->Submit(
        send_cost,
        [&state, traces, batch, serve_at_slave](SimTime, SimTime,
                                                SimTime finished) {
          for (uint32_t sub_id : batch.members) {
            (*traces)[sub_id].issued = finished;
          }
          state.network->Send(0, batch.node + 1, batch.bytes,
                              [batch, serve_at_slave]() {
                                for (uint32_t sub_id : batch.members) {
                                  serve_at_slave(sub_id, batch.node);
                                }
                              });
        });
  }

  state.sim.Run();
  KV_CHECK(*completed == total);

  // The master finished issuing when the last request left its CPU.
  Micros last_issue = 0.0;
  for (const auto& tr : *traces) {
    last_issue = std::max(last_issue, tr.issued);
    result.tracer.Record(tr);
  }
  result.master_issue_done = last_issue;
  result.makespan = result.tracer.Makespan();
  result.node_finish_times = result.tracer.NodeFinishTimes();
  result.network_messages = state.network->messages_sent();
  result.network_bytes = state.network->bytes_sent();
  return result;
}

}  // namespace kvscale
