#include "cluster/stream_sim.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "cluster/placement.hpp"
#include "common/check.hpp"
#include "model/master_model.hpp"
#include "model/query_model.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "stats/summary.hpp"
#include "trace/metrics.hpp"
#include "wire/codec.hpp"
#include "wire/messages.hpp"

namespace kvscale {

double EstimatedCapacityQps(const StreamConfig& config) {
  const QueryModel model(
      DbModel(config.base.db, ParallelismModel(config.base.parallelism)),
      MasterModel::FromSerializer(config.base.serializer));
  const Micros per_query = model.Predict(config.elements_per_query,
                                         config.keys_per_query,
                                         config.base.nodes)
                               .total;
  return kSecond / per_query;
}

namespace {

/// Shared-resource stream run (single master, endpoints as in the simple
/// runner: 0 = master, 1..n = slaves).
class StreamRun {
 public:
  explicit StreamRun(const StreamConfig& config)
      : config_(config),
        base_(config.base),
        db_model_(base_.db, ParallelismModel(base_.parallelism)),
        rng_(base_.seed),
        placement_(base_.placement, base_.nodes,
                   base_.seed ^ 0x9e3779b97f4a7c15ULL) {
    KV_CHECK(base_.nodes >= 1);
    KV_CHECK(config.queries >= 1);
    KV_CHECK(config.arrival_qps > 0);
    KV_CHECK(config.keys_per_query >= 1);
    RegisterClusterMessages(codec_);
    network_ =
        std::make_unique<Network>(sim_, base_.nodes + 1, base_.network);
    master_cpu_ = std::make_unique<Resource>(sim_, 1, "master");
    uint32_t db_concurrency = base_.db_concurrency;
    if (db_concurrency == 0) {
      const double keysize =
          static_cast<double>(config.elements_per_query) /
          static_cast<double>(config.keys_per_query);
      db_concurrency = std::max<uint32_t>(
          1, static_cast<uint32_t>(std::lround(
                 db_model_.parallelism().OptimalConcurrency(
                     std::max(1.0, keysize)))));
    }
    for (uint32_t n = 0; n < base_.nodes; ++n) {
      slave_cpu_.push_back(std::make_unique<Resource>(
          sim_, 1, "slave-cpu-" + std::to_string(n)));
      slave_db_.push_back(std::make_unique<Resource>(
          sim_, db_concurrency, "slave-db-" + std::to_string(n)));
      slave_rng_.push_back(rng_.Fork());
    }
  }

  StreamResult Run() {
    // Poisson arrivals: exponential inter-arrival gaps.
    Micros arrival = 0.0;
    arrivals_.reserve(config_.queries);
    const double rate_per_us = config_.arrival_qps / kSecond;
    for (uint32_t q = 0; q < config_.queries; ++q) {
      if (q > 0) arrival += rng_.Exponential(rate_per_us);
      arrivals_.push_back(arrival);
      remaining_.push_back(config_.keys_per_query);
      completions_.push_back(0.0);
      sim_.At(arrival, [this, q] { IssueQuery(q); });
    }

    // Aeneas-style gauges sampled in virtual time (Section IV-B).
    std::unique_ptr<MetricsRecorder> metrics;
    if (config_.metrics_interval > 0) {
      metrics = std::make_unique<MetricsRecorder>(sim_,
                                                  config_.metrics_interval);
      metrics->AddGauge("master queue", [this] {
        return static_cast<double>(master_cpu_->queue_depth());
      });
      metrics->AddGauge("db active (all nodes)", [this] {
        double active = 0;
        for (const auto& db : slave_db_) active += db->active();
        return active;
      });
      metrics->AddGauge("db queued (all nodes)", [this] {
        double queued = 0;
        for (const auto& db : slave_db_) {
          queued += static_cast<double>(db->queue_depth());
        }
        return queued;
      });
      metrics->Start();
    }

    sim_.Run();

    StreamResult result;
    result.offered_qps = config_.arrival_qps;
    result.latencies.reserve(config_.queries);
    Micros last_completion = 0.0;
    for (uint32_t q = 0; q < config_.queries; ++q) {
      KV_CHECK(remaining_[q] == 0);
      ++result.completed;
      result.latencies.push_back(completions_[q] - arrivals_[q]);
      last_completion = std::max(last_completion, completions_[q]);
    }
    result.makespan = last_completion - arrivals_.front();
    result.achieved_qps =
        result.makespan > 0
            ? static_cast<double>(result.completed) * kSecond /
                  result.makespan
            : 0.0;
    result.latency_mean = Mean(result.latencies);
    result.latency_p50 = Percentile(result.latencies, 0.50);
    result.latency_p90 = Percentile(result.latencies, 0.90);
    result.latency_p99 = Percentile(result.latencies, 0.99);
    if (metrics != nullptr) {
      result.metrics_report = metrics->Report(72);
      result.peak_master_queue = metrics->series("master queue").MaxValue();
    }
    return result;
  }

 private:
  void IssueQuery(uint32_t query) {
    const uint64_t base_elements =
        config_.elements_per_query / config_.keys_per_query;
    uint64_t leftover =
        config_.elements_per_query % config_.keys_per_query;
    for (uint64_t k = 0; k < config_.keys_per_query; ++k) {
      const auto elements = static_cast<uint32_t>(
          base_elements + (k < leftover ? 1 : 0));
      // Distinct working set per query (the paper: "a working set might
      // rapidly change over time").
      const std::string key = "q" + std::to_string(query) + ":cube:" +
                              std::to_string(k);
      IssueSubQuery(query, key, elements);
    }
  }

  void IssueSubQuery(uint32_t query, const std::string& key,
                     uint32_t elements) {
    const NodeId node = placement_.Place(key);
    const auto bytes = static_cast<double>(
        SubQueryRequestBytes(&codec_, query, 0, "stream", key, elements));

    master_cpu_->Submit(
        base_.serializer.CostFor(bytes) + base_.master_logic_per_message,
        [this, query, node, bytes, elements](SimTime, SimTime, SimTime) {
          network_->Send(0, node + 1, bytes,
                         [this, query, node, elements] {
                           ServeAtSlave(query, node, elements);
                         });
        });
  }

  void ServeAtSlave(uint32_t query, NodeId node, uint32_t elements) {
    const double keysize = std::max<double>(elements, 1.0);
    slave_db_[node]->Submit(
        [this, node, keysize](uint32_t active) {
          const Micros base = db_model_.QueryTime(keysize) +
                              base_.device.ReadTime(
                                  base_.bytes_per_element * keysize);
          const double inflation =
              db_model_.parallelism().ServiceInflation(
                  keysize, static_cast<double>(active));
          const double sigma = base_.db.noise_sigma;
          const double noise =
              sigma > 0 ? slave_rng_[node].LogNormal(-0.5 * sigma * sigma,
                                                     sigma)
                        : 1.0;
          return base * inflation * noise;
        },
        [this, query, node](SimTime, SimTime, SimTime) {
          const double result_bytes = 96.0;
          slave_cpu_[node]->Submit(
              base_.serializer.CostFor(result_bytes),
              [this, query, node, result_bytes](SimTime, SimTime, SimTime) {
                network_->Send(node + 1, 0, result_bytes, [this, query] {
                  master_cpu_->Submit(
                      base_.serializer.TypicalCost() * 0.25,
                      [this, query](SimTime, SimTime, SimTime folded) {
                        KV_CHECK(remaining_[query] > 0);
                        if (--remaining_[query] == 0) {
                          completions_[query] = folded;
                        }
                      });
                });
              });
        });
  }

  const StreamConfig& config_;
  const ClusterConfig& base_;
  DbModel db_model_;
  Rng rng_;
  PlacementPolicy placement_;
  CompactCodec codec_;

  Simulator sim_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<Resource> master_cpu_;
  std::vector<std::unique_ptr<Resource>> slave_cpu_;
  std::vector<std::unique_ptr<Resource>> slave_db_;
  std::vector<Rng> slave_rng_;

  std::vector<Micros> arrivals_;
  std::vector<uint64_t> remaining_;
  std::vector<Micros> completions_;
};

}  // namespace

StreamResult RunQueryStream(const StreamConfig& config) {
  StreamRun run(config);
  return run.Run();
}

}  // namespace kvscale
