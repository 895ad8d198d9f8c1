#include "cluster/navigational_sim.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <memory>

#include "cluster/placement.hpp"
#include "common/check.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "wire/codec.hpp"
#include "wire/messages.hpp"

namespace kvscale {

bool ParseCubeKey(const std::string& key, uint32_t& level, uint64_t& morton) {
  if (key.rfind("d8:", 0) != 0) return false;
  const size_t second_colon = key.find(':', 3);
  if (second_colon == std::string::npos) return false;
  char* end = nullptr;
  const unsigned long parsed_level =
      std::strtoul(key.c_str() + 3, &end, 10);
  if (end != key.c_str() + second_colon) return false;
  const unsigned long long parsed_morton =
      std::strtoull(key.c_str() + second_colon + 1, &end, 10);
  if (end == nullptr || *end != '\0') return false;
  level = static_cast<uint32_t>(parsed_level);
  morton = parsed_morton;
  return true;
}

PartitionRef D8TreeRoot(const D8Tree& tree) {
  const auto sizes = tree.CubeSizes(0);
  KV_CHECK(sizes.size() == 1);
  return PartitionRef{CubeKey(0, sizes[0].first), sizes[0].second};
}

ExpandFn D8TreeDrillDown(const D8Tree& tree, uint32_t leaf_threshold) {
  return [&tree, leaf_threshold](const PartitionRef& done,
                                 uint32_t) -> std::vector<PartitionRef> {
    uint32_t level = 0;
    uint64_t morton = 0;
    KV_CHECK(ParseCubeKey(done.key, level, morton));
    if (done.elements <= leaf_threshold || level >= tree.max_level()) {
      return {};  // leaf: small enough, or cannot descend further
    }
    // Children at level+1: the 8 sub-cubes of `morton`; keep non-empty.
    uint32_t cx, cy, cz;
    MortonDecode3(morton, level, cx, cy, cz);
    std::vector<PartitionRef> children;
    const auto child_sizes = tree.CubeSizes(level + 1);
    for (uint32_t dx = 0; dx < 2; ++dx) {
      for (uint32_t dy = 0; dy < 2; ++dy) {
        for (uint32_t dz = 0; dz < 2; ++dz) {
          const uint64_t child = MortonEncode3(cx * 2 + dx, cy * 2 + dy,
                                               cz * 2 + dz, level + 1);
          auto it = std::lower_bound(
              child_sizes.begin(), child_sizes.end(), child,
              [](const auto& entry, uint64_t value) {
                return entry.first < value;
              });
          if (it != child_sizes.end() && it->first == child) {
            children.push_back(
                PartitionRef{CubeKey(level + 1, child), it->second});
          }
        }
      }
    }
    return children;
  };
}

namespace {

/// DES state of one navigational run (single master, endpoint 0).
class NavigationalRun {
 public:
  NavigationalRun(const NavigationalConfig& config, const ExpandFn& expand)
      : config_(config),
        base_(config.base),
        expand_(expand),
        db_model_(base_.db, ParallelismModel(base_.parallelism)),
        rng_(base_.seed),
        placement_(base_.placement, base_.nodes,
                   base_.seed ^ 0x9e3779b97f4a7c15ULL) {
    RegisterClusterMessages(codec_);
    network_ = std::make_unique<Network>(sim_, base_.nodes + 1,
                                         base_.network);
    master_cpu_ = std::make_unique<Resource>(sim_, 1, "master");
    uint32_t db_concurrency = base_.db_concurrency;
    if (db_concurrency == 0) db_concurrency = 16;
    for (uint32_t n = 0; n < base_.nodes; ++n) {
      slave_cpu_.push_back(std::make_unique<Resource>(
          sim_, 1, "slave-cpu-" + std::to_string(n)));
      slave_db_.push_back(std::make_unique<Resource>(
          sim_, db_concurrency, "slave-db-" + std::to_string(n)));
      slave_rng_.push_back(rng_.Fork());
    }
  }

  NavigationalResult Run(const std::vector<PartitionRef>& roots) {
    KV_CHECK(!roots.empty());
    for (const auto& root : roots) Issue(root, 0, Kind::kProbe);
    sim_.Run();
    result_.makespan = last_fold_;
    return std::move(result_);
  }

 private:
  enum class Kind { kProbe, kLeafRead };

  void Issue(const PartitionRef& part, uint32_t depth, Kind kind) {
    ++result_.requests;
    if (kind == Kind::kProbe) ++result_.probes;
    result_.max_depth = std::max(result_.max_depth, depth);
    const uint32_t sub_id = next_sub_id_++;
    const NodeId node = placement_.Place(part.key);

    const auto bytes = static_cast<double>(SubQueryRequestBytes(
        &codec_, 1, sub_id, "d8.navigation", part.key, part.elements));

    auto trace = std::make_shared<RequestTrace>();
    trace->query_id = 1;
    trace->sub_id = sub_id;
    trace->node = node;
    trace->keysize = part.elements;

    master_cpu_->Submit(
        base_.serializer.CostFor(bytes),
        [this, part, depth, node, bytes, trace, kind](SimTime, SimTime,
                                                      SimTime sent) {
          trace->issued = sent;
          network_->Send(0, node + 1, bytes,
                         [this, part, depth, node, trace, kind] {
                           trace->received = sim_.now();
                           ServeAtSlave(part, depth, node, trace, kind);
                         });
        });
  }

  void ServeAtSlave(const PartitionRef& part, uint32_t depth, NodeId node,
                    std::shared_ptr<RequestTrace> trace, Kind kind) {
    // Probes read index metadata (child statistics), not the cube's data.
    const double keysize =
        kind == Kind::kProbe
            ? std::min<double>(config_.probe_elements,
                               std::max<double>(part.elements, 1.0))
            : std::max<double>(part.elements, 1.0);
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
        [this, part, depth, node, trace, kind](SimTime, SimTime started,
                                               SimTime finished) {
          trace->db_start = started;
          trace->db_end = finished;
          const double result_bytes = 128.0;
          slave_cpu_[node]->Submit(
              base_.serializer.CostFor(result_bytes),
              [this, part, depth, node, trace, result_bytes, kind](
                  SimTime, SimTime, SimTime) {
                network_->Send(node + 1, 0, result_bytes,
                               [this, part, depth, trace, kind] {
                                 FoldAndExpand(part, depth, trace, kind);
                               });
              });
        });
  }

  void FoldAndExpand(const PartitionRef& part, uint32_t depth,
                     std::shared_ptr<RequestTrace> trace, Kind kind) {
    // The master inspects the result and decides the next reads — the
    // Section VI dependency cost, charged on the master's CPU.
    master_cpu_->Submit(
        base_.serializer.TypicalCost() * 0.25 + config_.decide_cost,
        [this, part, depth, trace, kind](SimTime, SimTime, SimTime folded) {
          trace->completed = folded;
          result_.tracer.Record(*trace);
          last_fold_ = std::max(last_fold_, folded);
          if (kind == Kind::kLeafRead) {
            ++result_.leaves;
            for (const auto& [type, count] :
                 SyntheticPartitionCounts(part.key, part.elements)) {
              result_.aggregated[type] += count;
            }
            return;
          }
          const std::vector<PartitionRef> children = expand_(part, depth);
          if (children.empty()) {
            // Probe says this cube is a leaf: fetch its data for real.
            Issue(part, depth, Kind::kLeafRead);
            return;
          }
          for (const auto& child : children) {
            Issue(child, depth + 1, Kind::kProbe);
          }
        });
  }

  const NavigationalConfig& config_;
  const ClusterConfig& base_;
  const ExpandFn& expand_;
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

  uint32_t next_sub_id_ = 0;
  Micros last_fold_ = 0.0;
  NavigationalResult result_;
};

}  // namespace

NavigationalResult RunNavigationalQuery(const NavigationalConfig& config,
                                        const std::vector<PartitionRef>& roots,
                                        const ExpandFn& expand) {
  NavigationalRun run(config, expand);
  return run.Run(roots);
}

}  // namespace kvscale
