#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <thread>

#include "cluster/in_process_cluster.hpp"
#include "cluster/query_ops.hpp"
#include "common/rng.hpp"
#include "oracle.hpp"
#include "store/local_store.hpp"
#include "store/row.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/span_tracer.hpp"
#include "trace/stage_trace.hpp"
#include "wire/envelope.hpp"
#include "workload/alya.hpp"
#include "workload/box_query.hpp"
#include "workload/d8tree.hpp"

namespace perfbench {
namespace {

using namespace kvscale;  // the harness drives most of the library
using Clock = std::chrono::steady_clock;

constexpr uint32_t kNodes = 4;
constexpr uint32_t kTypes = 8;
constexpr uint32_t kPutItems = 64;         ///< items per PutBatch call
constexpr uint32_t kWriterPartitions = 8;  ///< fresh partitions per write
constexpr size_t kWriterPayloadBytes = 24;
constexpr uint64_t kWatermarkBytes = 256 * kKiB;
constexpr size_t kDefaultCacheBytes = 64 * kMiB;
constexpr size_t kMaxErrors = 8;
/// The cluster's own seed (placement tie-breaks); the workload seed only
/// shapes the inputs the cluster receives.
constexpr uint64_t kClusterSeed = 7;
constexpr uint32_t kMinSetups = 5;
constexpr uint32_t kMaxSetups = 64;
constexpr double kMinSetupSeconds = 3.0;
/// Seeded variants per coarse_mix plan kind: enough that one seed's
/// scan ranges and boxes cost about what another seed's do.
constexpr uint32_t kVariants = 16;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64 over (a, b): independent streams from one seed.
uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a ^ (b * 0x9E3779B97F4A7C15ull);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::string Tag(uint64_t seed, uint64_t salt) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%08llx",
                static_cast<unsigned long long>(Mix(seed, salt) >> 32));
  return buf;
}

// -- Generated inputs --------------------------------------------------------

struct TableData {
  std::string name;
  size_t payload_bytes = 24;
  std::vector<GenPartition> parts;      ///< in load and plan order
  std::vector<uint64_t> payload_seeds;  ///< parallel to parts
};

struct PlanCase {
  QueryPlan plan;
  Expected expected;
};

/// Everything one workload derives from its seed. The cluster receives
/// only what is built from these inputs.
struct Workload {
  std::string name;
  uint64_t seed = 0;
  uint32_t replication = 1;
  uint32_t readers = 2;
  bool writer = false;
  size_t cache_bytes = kDefaultCacheBytes;
  std::vector<TableData> tables;
  std::vector<PlanCase> pool;
  /// Pool indices grouped by query kind (indexed by QueryKind).
  std::vector<std::vector<size_t>> by_kind;
  /// The kinds a reader draws from, uniformly; a kind listed twice gets
  /// twice the share. Each draw then picks one of the kind's variants.
  std::vector<QueryKind> mix = {QueryKind::kCount};
  std::string writer_table;
  std::string writer_tag;
  uint64_t data_bytes = 0;  ///< user bytes the load writes
};

uint64_t UserBytes(const std::string& key, size_t payload_bytes) {
  return key.size() + 16 + payload_bytes;  // key + Column::EncodedSize()
}

WorkloadSpec SpecOf(const std::string& table,
                    std::span<const GenPartition> parts) {
  WorkloadSpec spec;
  spec.table = table;
  for (const GenPartition& part : parts) {
    spec.partitions.push_back(
        PartitionRef{part.key, static_cast<uint32_t>(part.rows.size())});
  }
  return spec;
}

/// `partitions` x `columns` rows with seeded type ids; clustering keys
/// ascend with a seeded jitter of up to `stride`. Load order is a seeded
/// permutation of the partitions. The keys themselves are fixed, so
/// hash placement puts the same number of partitions on each node under
/// every seed: seeds vary the data and the order, not the imbalance.
TableData MakeTable(std::string name, const std::string& prefix,
                    uint64_t seed, uint64_t salt, uint32_t partitions,
                    uint32_t columns, uint32_t stride) {
  Rng rng(Mix(seed, salt));
  TableData table;
  table.name = std::move(name);
  std::vector<uint32_t> order(partitions);
  for (uint32_t i = 0; i < partitions; ++i) order[i] = i;
  rng.Shuffle(order);
  for (const uint32_t i : order) {
    GenPartition part;
    part.key = prefix + "-" + std::to_string(i);
    part.rows.reserve(columns);
    for (uint32_t j = 0; j < columns; ++j) {
      const uint64_t jitter = stride > 1 ? rng.Below(stride) : 0;
      part.rows.push_back(QueryRow{uint64_t{j} * stride + jitter,
                                   static_cast<uint32_t>(rng.Below(kTypes))});
    }
    table.parts.push_back(std::move(part));
    table.payload_seeds.push_back(rng.Next());
  }
  return table;
}

void AddPlan(Workload& w, QueryPlan plan, Expected expected) {
  const size_t kind = static_cast<size_t>(plan.kind);
  if (w.by_kind.size() <= kind) w.by_kind.resize(kind + 1);
  w.by_kind[kind].push_back(w.pool.size());
  w.pool.push_back(PlanCase{std::move(plan), std::move(expected)});
}

/// The Alya D8tree cubes: every non-empty cube of every level is one
/// partition (clustering = particle id, type = particle type), plus seeded
/// box plans whose answers come from per-cube counts of the cloud.
///
/// The cubes go into `table`, beside the workload's other partitions, not
/// into a table of their own: a store's block cache is shared by its
/// tables but keyed by per-table segment ids, so two tables on one node
/// read each other's cached blocks and fold wrong answers (the oracle
/// catches it). One table keeps the workload on answers the program
/// gets right today.
Status AddCubes(Workload& w, std::string table, uint64_t particles,
                uint32_t level) {
  AlyaParams params;
  params.particles = particles;
  params.distinct_types = kTypes;
  params.seed = Mix(w.seed, 0xA17A);
  const std::vector<Particle> cloud = GenerateAlyaParticles(params);
  const D8Tree tree(cloud, level);

  TableData cubes;
  cubes.name = table;
  cubes.payload_bytes = kParticlePayloadBytes;
  std::map<std::string, TypeCounts> cube_counts;
  for (const D8Tree::CubeRef& cube : tree.AllCubes()) {
    GenPartition part;
    part.key = CubeKey(cube.level, cube.morton);
    TypeCounts& counts = cube_counts[part.key];
    for (const uint64_t id : tree.CubeParticles(cube.level, cube.morton)) {
      part.rows.push_back(QueryRow{id, cloud[id].type});
      ++counts[cloud[id].type];
    }
    std::sort(part.rows.begin(), part.rows.end(),
              [](const QueryRow& a, const QueryRow& b) {
                return a.clustering < b.clustering;
              });
    cubes.parts.push_back(std::move(part));
    cubes.payload_seeds.push_back(Mix(w.seed, cube.morton + cube.level));
  }
  Rng rng(Mix(w.seed, 0xB0C5));
  std::vector<size_t> order(cubes.parts.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);
  TableData shuffled;
  shuffled.name = cubes.name;
  shuffled.payload_bytes = cubes.payload_bytes;
  for (const size_t i : order) {
    shuffled.parts.push_back(std::move(cubes.parts[i]));
    shuffled.payload_seeds.push_back(cubes.payload_seeds[i]);
  }
  w.tables.push_back(std::move(shuffled));

  constexpr uint32_t kTargetKeysize = 64;
  for (uint32_t v = 0; v < kVariants; ++v) {
    D8Tree::Box box;
    const float side = static_cast<float>(rng.Uniform(0.25, 0.5));
    box.min_x = static_cast<float>(rng.Uniform(0.0, 1.0 - side));
    box.min_y = static_cast<float>(rng.Uniform(0.0, 1.0 - side));
    box.min_z = static_cast<float>(rng.Uniform(0.0, 1.0 - side));
    box.max_x = box.min_x + side;
    box.max_y = box.min_y + side;
    box.max_z = box.min_z + side;
    QueryPlan plan = MakeBoxPlan(tree, table, box, kTargetKeysize);
    Expected expected = ExpectBox(plan, cube_counts);
    // The oracle's own consistency: interior counts can only undercount
    // and interior + boundary only overcount the true in-box population.
    TypeCounts truth;
    for (const uint64_t id : tree.BoxQueryBruteForce(box)) {
      ++truth[cloud[id].type];
    }
    for (uint32_t t = 0; t < kTypes; ++t) {
      const uint64_t inside = expected.totals.count(t) ? expected.totals[t] : 0;
      const uint64_t edge = expected.boundary_totals.count(t)
                                ? expected.boundary_totals[t]
                                : 0;
      const uint64_t real = truth.count(t) ? truth[t] : 0;
      if (inside > real || real > inside + edge) {
        return Status::Internal("box oracle disagrees with the particle cloud");
      }
    }
    if (plan.partitions.empty()) continue;
    AddPlan(w, std::move(plan), std::move(expected));
  }
  return Status::Ok();
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == "fine_count") {
    // Fig. 4's fine-grained case: thousands of tiny partitions, one
    // replica, data far below the block cache.
    w.replication = 1;
    w.tables.push_back(MakeTable("fine", "fc", seed, 1, 4000, 16, 1));
  } else if (name == "coarse_mix") {
    // Fig. 4's coarse-grained case: few large partitions and a block
    // cache of about a quarter of each node's data.
    w.replication = 2;
    w.tables.push_back(MakeTable("coarse", "cm", seed, 2, 48, 8000, 4));
  } else if (name == "ingest_read") {
    // Reads over a fixed partition set while a writer streams fresh keys
    // into the same table.
    w.replication = 2;
    w.readers = 1;
    w.writer = true;
    w.tables.push_back(MakeTable("ingest", "ir", seed, 3, 512, 32, 1));
    w.writer_table = "ingest";
    w.writer_tag = Tag(seed, 4);
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }

  // pool[0] is the main table's count plan in every workload.
  const TableData& main = w.tables.front();
  const WorkloadSpec spec = SpecOf(main.name, main.parts);
  AddPlan(w, MakeCountPlan(spec), ExpectCount(main.parts));
  if (name == "coarse_mix") {
    Rng rng(Mix(seed, 0x5CA7));
    const uint64_t span = uint64_t{8000} * 4;
    for (uint32_t v = 0; v < kVariants; ++v) {
      ScanSpec scan;
      scan.start = rng.Below(span - 2000);
      scan.end = scan.start + 500 + rng.Below(1500);
      scan.limit = 256;
      AddPlan(w, MakeScanPlan(spec, scan), ExpectScan(main.parts, scan));
      TopKSpec topk;
      topk.k = static_cast<uint32_t>(8 + rng.Below(57));
      AddPlan(w, MakeTopKPlan(spec, topk), ExpectTopK(main.parts, topk));
    }
    KV_RETURN_IF_ERROR(AddCubes(w, main.name, 20000, 4));
    // Box gathers take a few ms, scans ~40 ms, counts and top-k ~65 ms.
    // With the four kinds equally likely the median sits exactly on the
    // scan / count boundary and jumps between the two from run to run.
    // Scans and boxes at double weight put it inside the scan mode, and
    // the cheap boxes leave the p99 well over ten samples beyond it.
    w.mix = {QueryKind::kCount, QueryKind::kScan, QueryKind::kScan,
             QueryKind::kTopK};
    if (w.by_kind.size() > static_cast<size_t>(QueryKind::kBox)) {
      w.mix.insert(w.mix.end(), 2, QueryKind::kBox);
    }
  }

  uint64_t per_copy = 0;
  for (const TableData& table : w.tables) {
    for (const GenPartition& part : table.parts) {
      w.data_bytes += part.rows.size() * UserBytes(part.key,
                                                   table.payload_bytes);
      per_copy += part.rows.size() * (16 + table.payload_bytes);
    }
  }
  if (name == "coarse_mix") {
    w.cache_bytes = static_cast<size_t>(per_copy * w.replication / kNodes / 4);
  }
  return w;
}

/// The writer's op `n` of ingest_read: kWriterPartitions fresh partitions
/// of kPutItems / kWriterPartitions rows each, all derived from the seed.
std::vector<GenPartition> WriterPartitions(const Workload& w, uint64_t n) {
  Rng rng(Mix(w.seed, 0x57A7E000 + n));
  std::vector<GenPartition> parts(kWriterPartitions);
  for (uint32_t k = 0; k < kWriterPartitions; ++k) {
    parts[k].key =
        "w" + w.writer_tag + "-" + std::to_string(n) + "-" + std::to_string(k);
    for (uint32_t j = 0; j < kPutItems / kWriterPartitions; ++j) {
      parts[k].rows.push_back(
          QueryRow{j, static_cast<uint32_t>(rng.Below(kTypes))});
    }
  }
  return parts;
}

BatchPutItem MakeItem(const std::string& key, const QueryRow& row,
                      uint64_t payload_seed, size_t payload_bytes) {
  BatchPutItem item;
  item.partition_key = key;
  item.column.clustering = row.clustering;
  item.column.type_id = row.type_id;
  item.column.payload = MakePayload(payload_seed, row.clustering,
                                    payload_bytes);
  return item;
}

// -- Transport knobs shared by every workload --------------------------------

GatherOptions ReadOptions() {
  GatherOptions o;
  o.transport = GatherTransport::kMessage;
  o.codec = WireCodecKind::kCompact;
  o.batch = true;
  o.workers_per_node = 1;
  o.max_attempts = 3;
  return o;
}

PutOptions WriteOptions(bool watermark) {
  PutOptions o;
  o.transport = GatherTransport::kMessage;
  o.codec = WireCodecKind::kCompact;
  o.workers_per_node = 1;
  o.batch = kPutItems;
  o.quorum = PutQuorum::kMajority;
  o.flush_watermark_bytes = watermark ? kWatermarkBytes : 0;
  return o;
}

// -- Per-thread logs ---------------------------------------------------------

struct ReadLog {
  std::vector<double> latency_ms;
  uint64_t gathers = 0;
  uint64_t subqueries = 0;
  uint64_t retries = 0;
  uint64_t failed_subqueries = 0;
  double admission_wait_us = 0.0;
  double queue_wait_us = 0.0;
  double wire_encode_us = 0.0;
  double wire_decode_us = 0.0;
  uint64_t frames = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  ReadProbe probe;
  std::vector<uint64_t> requests_per_node;

  void Add(const GatherResult& r, double ms) {
    latency_ms.push_back(ms);
    ++gathers;
    subqueries += r.subqueries;
    retries += r.retries;
    failed_subqueries += r.failed;
    admission_wait_us += r.admission_wait_us;
    queue_wait_us += r.queue_wait_us;
    wire_encode_us += r.wire_encode_us;
    wire_decode_us += r.wire_decode_us;
    frames += r.wire_frames_sent;
    bytes_sent += r.wire_bytes_sent;
    bytes_received += r.wire_bytes_received;
    for (const ReadProbe& p : r.probes_per_node) probe.MergeFrom(p);
    if (requests_per_node.size() < r.requests_per_node.size()) {
      requests_per_node.resize(r.requests_per_node.size(), 0);
    }
    for (size_t n = 0; n < r.requests_per_node.size(); ++n) {
      requests_per_node[n] += r.requests_per_node[n];
    }
  }

  void Merge(const ReadLog& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    gathers += o.gathers;
    subqueries += o.subqueries;
    retries += o.retries;
    failed_subqueries += o.failed_subqueries;
    admission_wait_us += o.admission_wait_us;
    queue_wait_us += o.queue_wait_us;
    wire_encode_us += o.wire_encode_us;
    wire_decode_us += o.wire_decode_us;
    frames += o.frames;
    bytes_sent += o.bytes_sent;
    bytes_received += o.bytes_received;
    probe.MergeFrom(o.probe);
    if (requests_per_node.size() < o.requests_per_node.size()) {
      requests_per_node.resize(o.requests_per_node.size(), 0);
    }
    for (size_t n = 0; n < o.requests_per_node.size(); ++n) {
      requests_per_node[n] += o.requests_per_node[n];
    }
  }
};

struct PutLog {
  std::vector<double> latency_ms;
  uint64_t calls = 0;
  uint64_t acks = 0;
  uint64_t batches = 0;
  uint64_t epoch_retries = 0;
  uint64_t quorum_failed_keys = 0;
  uint64_t user_bytes = 0;
  uint64_t memtable_peak = 0;
  double put_s = 0.0;  ///< summed PutBatch wall time
  double wire_encode_us = 0.0;
  double queue_wait_us = 0.0;
  std::vector<uint64_t> acked_ops;  ///< writer ops whose every key landed

  void Add(const PutResult& r, double ms, uint64_t bytes) {
    latency_ms.push_back(ms);
    ++calls;
    acks += r.replica_acks;
    batches += r.batches_sent;
    epoch_retries += r.epoch_retries;
    quorum_failed_keys += r.keys_quorum_failed;
    user_bytes += bytes;
    put_s += ms / 1e3;
    wire_encode_us += r.wire_encode_us;
    queue_wait_us += r.queue_wait_us;
  }

  void Merge(const PutLog& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                      o.latency_ms.end());
    calls += o.calls;
    acks += o.acks;
    batches += o.batches;
    epoch_retries += o.epoch_retries;
    quorum_failed_keys += o.quorum_failed_keys;
    user_bytes += o.user_bytes;
    memtable_peak = std::max(memtable_peak, o.memtable_peak);
    put_s += o.put_s;
    wire_encode_us += o.wire_encode_us;
    queue_wait_us += o.queue_wait_us;
    acked_ops.insert(acked_ops.end(), o.acked_ops.begin(), o.acked_ops.end());
  }
};

/// Tally plus the first few error lines of one thread.
struct Checks {
  OpTally tally;
  std::vector<std::string> errors;

  void Fail(std::string what) {
    if (errors.size() < kMaxErrors) errors.push_back(std::move(what));
  }
  void Merge(const Checks& o) {
    tally.attempted += o.tally.attempted;
    tally.failed += o.tally.failed;
    for (const std::string& e : o.errors) Fail(e);
  }
};

// -- One deployment: a cluster, its WAL files and (traced) instruments -------

class Deployment {
 public:
  Deployment(const Workload& w, const std::string& wal_prefix, bool traced)
      : wal_prefix_(wal_prefix) {
    if (traced) {
      registry_ = std::make_unique<MetricsRegistry>();
      stages_ = std::make_unique<StageTracer>();
    }
    StoreOptions store;
    store.block_cache_bytes = w.cache_bytes;
    // Only the streaming writer logs: the bulk loads of the read workloads
    // would otherwise push hundreds of MB of WAL through the page cache per
    // run, and the host's writeback stalls would set their put tail.
    if (w.writer) store.wal_path = wal_prefix_;
    store.metrics = registry_.get();
    cluster_ = std::make_unique<InProcessCluster>(
        kNodes, PlacementKind::kDhtRandom, store, kClusterSeed,
        w.replication);
    if (traced) {
      cluster_->AttachTelemetry(nullptr, registry_.get());
      cluster_->AttachStageTracer(stages_.get());
    }
  }

  ~Deployment() {
    cluster_.reset();  // joins the node workers and closes the WALs
    std::error_code ec;
    for (uint32_t n = 0; n < kNodes; ++n) {
      std::filesystem::remove(WalPath(n), ec);
    }
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  InProcessCluster& cluster() { return *cluster_; }
  MetricsRegistry* registry() { return registry_.get(); }
  StageTracer* stages() { return stages_.get(); }

  uint64_t WalBytes() const {
    uint64_t total = 0;
    std::error_code ec;
    for (uint32_t n = 0; n < kNodes; ++n) {
      const auto size = std::filesystem::file_size(WalPath(n), ec);
      if (!ec) total += size;
    }
    return total;
  }

  /// Summed memtable bytes of `table` over every node.
  uint64_t MemtableBytes(const std::string& table) {
    uint64_t total = 0;
    for (uint32_t n = 0; n < cluster_->node_count(); ++n) {
      auto found = cluster_->node(n).FindTable(table);
      if (found.ok()) total += found.value()->memtable_bytes();
    }
    return total;
  }

  /// Encoded bytes of every partition of `tables` over every node.
  uint64_t EncodedBytes(const std::vector<std::string>& tables) {
    uint64_t total = 0;
    for (uint32_t n = 0; n < cluster_->node_count(); ++n) {
      for (const std::string& name : tables) {
        auto found = cluster_->node(n).FindTable(name);
        if (!found.ok()) continue;
        for (const std::string& key : found.value()->PartitionKeys()) {
          total += found.value()->PartitionEncodedBytes(key);
        }
      }
    }
    return total;
  }

 private:
  std::string WalPath(uint32_t node) const {
    return wal_prefix_ + ".node" + std::to_string(node);
  }

  std::string wal_prefix_;
  std::unique_ptr<MetricsRegistry> registry_;
  std::unique_ptr<StageTracer> stages_;
  /// Declared last: destroyed first, before the instruments it points at.
  std::unique_ptr<InProcessCluster> cluster_;
};

bool CheckGather(const GatherResult& r, const Expected& expected,
                 Checks& checks) {
  std::string why;
  if (!GatherHealthy(r)) {
    why = "degraded gather: " + std::to_string(r.completed) + "+" +
          std::to_string(r.failed) + " of " + std::to_string(r.subqueries) +
          (r.shed_by_admission ? " (shed)" : "");
  } else {
    why = CompareAnswer(r, expected);
  }
  checks.tally.CountGather(r, why.empty());
  if (!why.empty()) {
    checks.Fail(std::string(QueryKindName(expected.kind)) + ": " + why);
  }
  return why.empty();
}

/// One checked PutBatch; samples the memtable when `sample` is set.
bool TimedPut(Deployment& d, const std::string& table,
              std::vector<BatchPutItem> items, const PutOptions& options,
              uint64_t user_bytes, bool sample, PutLog& log, Checks& checks) {
  const auto t0 = Clock::now();
  const PutResult r = d.cluster().PutBatch(table, std::move(items), options);
  log.Add(r, SecondsSince(t0) * 1e3, user_bytes);
  checks.tally.CountPut(r);
  const bool ok = PutHealthy(r);
  if (!ok) {
    checks.Fail("put: " + std::to_string(r.keys_quorum_failed) +
                " keys missed quorum, acks " + std::to_string(r.replica_acks) +
                " + failures " + std::to_string(r.replica_failures) +
                " of " + std::to_string(r.replica_writes));
  }
  if (sample) {
    log.memtable_peak = std::max(log.memtable_peak, d.MemtableBytes(table));
  }
  return ok;
}

/// Loads every table through the real write path, kPutItems per call.
void Load(Deployment& d, const Workload& w, bool sample, PutLog& log,
          Checks& checks) {
  const PutOptions options = WriteOptions(false);
  for (const TableData& table : w.tables) {
    std::vector<BatchPutItem> items;
    uint64_t bytes = 0;
    for (size_t p = 0; p < table.parts.size(); ++p) {
      const GenPartition& part = table.parts[p];
      for (const QueryRow& row : part.rows) {
        items.push_back(MakeItem(part.key, row, table.payload_seeds[p],
                                 table.payload_bytes));
        bytes += UserBytes(part.key, table.payload_bytes);
        if (items.size() == kPutItems) {
          TimedPut(d, table.name, std::move(items), options, bytes, sample,
                   log, checks);
          items.clear();
          bytes = 0;
        }
      }
    }
    if (!items.empty()) {
      TimedPut(d, table.name, std::move(items), options, bytes, sample, log,
               checks);
    }
  }
}

/// Load, flush and warm up: the first plan of every kind runs once (the
/// count plan twice), so the runtime, routing directory and caches are
/// built before any timing starts. Returns the seconds it took.
double SetUp(Deployment& d, const Workload& w, bool sample, PutLog& log,
             Checks& checks) {
  const auto t0 = Clock::now();
  Load(d, w, sample, log, checks);
  d.cluster().FlushAll();
  const GatherOptions options = ReadOptions();
  std::vector<size_t> warm = {0};
  for (const std::vector<size_t>& kind : w.by_kind) {
    if (!kind.empty()) warm.push_back(kind.front());
  }
  for (const size_t i : warm) {
    const PlanCase& c = w.pool[i];
    CheckGather(d.cluster().Gather(c.plan, options), c.expected, checks);
  }
  return SecondsSince(t0);
}

/// Folds drained stage traces into per-stage histograms. Draining moves
/// the tracer's records out under its lock, so concurrent gathers keep
/// recording while a reader drains.
class StageSink {
 public:
  void Drain(StageTracer& tracer) {
    StageTracer chunk(std::move(tracer));
    for (const RequestTrace& t : chunk.traces()) {
      for (size_t s = 0; s < kStageCount; ++s) {
        stages_[s].Record(t.StageDuration(static_cast<Stage>(s)));
      }
    }
  }
  const LatencyHistogram& stage(Stage s) const {
    return stages_[static_cast<size_t>(s)];
  }

 private:
  LatencyHistogram stages_[kStageCount];
};

struct PhaseResult {
  ReadLog reads;
  PutLog puts;
  Checks checks;
  double elapsed_s = 0.0;
};

/// The timed, closed-loop phase: `w.readers` clients pick seeded plans
/// and wait for each answer; ingest_read adds one writer streaming fresh
/// keys. Every answer is checked.
PhaseResult RunPhase(Deployment& d, const Workload& w, double seconds,
                     StageSink* sink) {
  const uint32_t threads = w.readers + (w.writer ? 1 : 0);
  std::vector<ReadLog> reads(threads);
  std::vector<PutLog> puts(threads);
  std::vector<Checks> checks(threads);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> pool;
    for (uint32_t c = 0; c < w.readers; ++c) {
      pool.emplace_back([&, c] {
        Rng rng(Mix(w.seed, 0xC11E47 + c));
        const GatherOptions options = ReadOptions();
        while (Clock::now() < deadline) {
          const std::vector<size_t>& kind =
              w.by_kind[static_cast<size_t>(w.mix[rng.Below(w.mix.size())])];
          const PlanCase& pc = w.pool[kind[rng.Below(kind.size())]];
          const auto t0 = Clock::now();
          const GatherResult r = d.cluster().Gather(pc.plan, options);
          reads[c].Add(r, SecondsSince(t0) * 1e3);
          CheckGather(r, pc.expected, checks[c]);
          if (sink != nullptr) sink->Drain(*d.stages());
        }
      });
    }
    if (w.writer) {
      pool.emplace_back([&, c = w.readers] {
        const PutOptions options = WriteOptions(true);
        const bool sample = sink != nullptr;
        for (uint64_t n = 0; Clock::now() < deadline; ++n) {
          std::vector<BatchPutItem> items;
          uint64_t bytes = 0;
          const std::vector<GenPartition> parts = WriterPartitions(w, n);
          for (uint32_t k = 0; k < parts.size(); ++k) {
            for (const QueryRow& row : parts[k].rows) {
              items.push_back(MakeItem(parts[k].key, row, Mix(w.seed ^ n, k),
                                       kWriterPayloadBytes));
              bytes += UserBytes(parts[k].key, kWriterPayloadBytes);
            }
          }
          if (TimedPut(d, w.writer_table, std::move(items), options, bytes,
                       sample, puts[c], checks[c])) {
            puts[c].acked_ops.push_back(n);
          }
        }
      });
    }
  }  // jthreads join here
  PhaseResult out;
  out.elapsed_s = SecondsSince(start);
  for (uint32_t t = 0; t < threads; ++t) {
    out.reads.Merge(reads[t]);
    out.puts.Merge(puts[t]);
    out.checks.Merge(checks[t]);
  }
  // No lazy set-up may leak into the timings: the one runtime built in
  // set-up must have served every timed operation.
  const bool one_runtime = d.cluster().runtime_builds() == 1;
  out.checks.tally.CountCheck(one_runtime);
  if (!one_runtime) {
    out.checks.Fail("runtime rebuilt during the timed phase (builds=" +
                    std::to_string(d.cluster().runtime_builds()) + ")");
  }
  return out;
}

/// ingest_read: a seeded sample of acked writer partitions is read back
/// through a count gather and checked against what was written.
void ReadBack(Deployment& d, const Workload& w, const PutLog& puts,
              Checks& checks) {
  if (!w.writer) return;
  if (puts.acked_ops.empty()) {
    checks.tally.CountCheck(false);
    checks.Fail("read-back: the writer acked nothing");
    return;
  }
  Rng rng(Mix(w.seed, 0x2EAD));
  std::vector<GenPartition> parts;
  for (int i = 0; i < 64; ++i) {
    const uint64_t n = puts.acked_ops[rng.Below(puts.acked_ops.size())];
    for (GenPartition& p : WriterPartitions(w, n)) parts.push_back(p);
  }
  std::sort(parts.begin(), parts.end(),
            [](const GenPartition& a, const GenPartition& b) {
              return a.key < b.key;
            });
  parts.erase(std::unique(parts.begin(), parts.end(),
                          [](const GenPartition& a, const GenPartition& b) {
                            return a.key == b.key;
                          }),
              parts.end());
  const QueryPlan plan = MakeCountPlan(SpecOf(w.writer_table, parts));
  CheckGather(d.cluster().Gather(plan, ReadOptions()), ExpectCount(parts),
              checks);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<std::string> TableNames(const Workload& w) {
  std::vector<std::string> names;
  for (const TableData& t : w.tables) {
    if (std::find(names.begin(), names.end(), t.name) == names.end()) {
      names.push_back(t.name);
    }
  }
  return names;
}

// -- Replays: the workload's own requests through each layer ---------------

/// Medians of the per-layer timed calls, per gather or per call.
struct ReplayStats {
  std::vector<double> route_us_per_key;
  std::vector<double> encode_batch_us;
  std::vector<double> decode_batch_us;
  std::vector<double> encode_reply_us;
  std::vector<double> decode_reply_us;
  std::vector<double> fold_us;
  std::vector<double> master_self_us;
};

/// Runs a few sample gathers alone on the traced deployment, turns their
/// stage records into spans nested under each gather, then replays the
/// same plan's calls into route, wire, store and fold under spans that
/// carry the same query id.
void SampleAndReplay(Deployment& d, const Workload& w, SpanTracer& spans,
                     ReplayStats& out, Checks& checks) {
  constexpr uint32_t kClientTrack = 0;
  constexpr uint32_t kReplayTrack = kNodes + 1;
  spans.SetTrackName(kClientTrack, "client");
  for (uint32_t n = 0; n < kNodes; ++n) {
    spans.SetTrackName(n + 1, "node-" + std::to_string(n));
  }
  spans.SetTrackName(kReplayTrack, "replay");

  struct Sample {
    const PlanCase* plan = nullptr;
    Micros g0 = 0.0;
    Micros g1 = 0.0;
    std::vector<RequestTrace> traces;
  };
  std::vector<Sample> samples;
  const GatherOptions options = ReadOptions();
  for (int round = 0; round < 2; ++round) {
    for (const std::vector<size_t>& kind : w.by_kind) {
      if (kind.empty()) continue;
      Sample s;
      s.plan = &w.pool[kind.front()];
      StageTracer discard(std::move(*d.stages()));
      s.g0 = spans.NowMicros();
      const GatherResult r = d.cluster().Gather(s.plan->plan, options);
      s.g1 = spans.NowMicros();
      CheckGather(r, s.plan->expected, checks);
      StageTracer mine(std::move(*d.stages()));
      s.traces = mine.traces();
      if (!s.traces.empty()) samples.push_back(std::move(s));
    }
  }
  if (samples.empty()) return;

  // The stage stamps use the runtime's clock, the spans the tracer's. Both
  // are steady clocks, so they differ by one constant C; every sample
  // bounds it by C <= g1 - (last completion), and the tightest bound is
  // exact up to the shortest post-collect tail of any sample.
  double offset = 1e300;
  for (const Sample& s : samples) {
    Micros last = 0.0;
    for (const RequestTrace& t : s.traces) last = std::max(last, t.completed);
    offset = std::min(offset, s.g1 - last);
  }

  CompactCodec registry;
  RegisterClusterMessages(registry);
  for (const Sample& s : samples) {
    const QueryPlan& plan = s.plan->plan;
    const uint64_t qid = s.traces.front().query_id;
    const std::string query = std::to_string(qid);
    const std::string kind(QueryKindName(plan.kind));

    Span root;
    root.name = "gather." + kind;
    root.track = kClientTrack;
    root.start_us = s.g0;
    root.duration_us = s.g1 - s.g0;
    root.attributes = {{"query", query},
                       {"subqueries", std::to_string(plan.partitions.size())}};
    spans.Record(root);
    std::vector<std::pair<Micros, Micros>> covered;
    for (const RequestTrace& t : s.traces) {
      const Micros stamps[kStageCount + 1] = {t.issued, t.received,
                                              t.db_start, t.db_end,
                                              t.completed};
      for (size_t st = 0; st < kStageCount; ++st) {
        Span stage;
        stage.name = "stage." + std::string(StageName(static_cast<Stage>(st)));
        stage.track = t.node + 1;
        stage.depth = 1;
        stage.start_us = stamps[st] + offset;
        stage.duration_us = stamps[st + 1] - stamps[st];
        stage.attributes = {{"query", query},
                            {"sub", std::to_string(t.sub_id)}};
        spans.Record(std::move(stage));
      }
      covered.emplace_back(std::max(s.g0, t.issued + offset),
                           std::min(s.g1, t.completed + offset));
    }
    // Master self time: the gather's wall time no sub-query stage covers.
    std::sort(covered.begin(), covered.end());
    Micros union_us = 0.0;
    Micros reach = s.g0;
    for (const auto& [lo, hi] : covered) {
      const Micros from = std::max(lo, reach);
      if (hi > from) {
        union_us += hi - from;
        reach = hi;
      }
    }
    out.master_self_us.push_back(root.duration_us - union_us);

    // The replay: the same plan's calls into each layer, one child span
    // per layer, all tagged with this gather's query id.
    SpanTracer::Scope replay = spans.StartSpan("replay." + kind, kReplayTrack);
    replay.Attr("query", query);
    const size_t total = plan.partitions.size();
    std::vector<NodeId> owners(total);
    {
      SpanTracer::Scope span = spans.StartSpan("route.replicas_of",
                                               kReplayTrack);
      span.Attr("query", query);
      const auto t0 = Clock::now();
      for (size_t i = 0; i < total; ++i) {
        owners[i] = d.cluster().ReplicasOf(plan.partitions[i].part.key)[0];
      }
      out.route_us_per_key.push_back(SecondsSince(t0) * 1e6 /
                                     static_cast<double>(total));
    }
    std::vector<std::vector<SubQueryRequest>> per_node(kNodes);
    for (size_t i = 0; i < total; ++i) {
      SubQueryRequest req;
      req.query_id = qid;
      req.sub_id = static_cast<uint32_t>(i);
      req.table = plan.table;
      req.partition_key = plan.partitions[i].part.key;
      req.expected_elements = plan.partitions[i].part.elements;
      req.op = plan.op;
      req.arg_lo = plan.arg_lo;
      req.arg_hi = plan.arg_hi;
      req.arg_limit = plan.arg_limit;
      per_node[owners[i] % kNodes].push_back(std::move(req));
    }
    std::vector<WireBuffer> batch_frames(kNodes);
    {
      SpanTracer::Scope span = spans.StartSpan("wire.encode_subquery_batch",
                                               kReplayTrack);
      span.Attr("query", query);
      const auto t0 = Clock::now();
      for (uint32_t n = 0; n < kNodes; ++n) {
        if (per_node[n].empty()) continue;
        const std::vector<uint32_t> attempts(per_node[n].size(), 0);
        EncodeSubQueryBatch(per_node[n], attempts, 0, WireCodecKind::kCompact,
                            registry, batch_frames[n]);
      }
      out.encode_batch_us.push_back(SecondsSince(t0) * 1e6);
    }
    {
      SpanTracer::Scope span = spans.StartSpan("wire.decode_subquery_batch",
                                               kReplayTrack);
      span.Attr("query", query);
      bool decoded_all = true;
      const auto t0 = Clock::now();
      for (uint32_t n = 0; n < kNodes; ++n) {
        if (per_node[n].empty()) continue;
        decoded_all &= DecodeSubQueryBatch(batch_frames[n].data(),
                                           WireCodecKind::kCompact, registry)
                           .ok();
      }
      out.decode_batch_us.push_back(SecondsSince(t0) * 1e6);
      checks.tally.CountCheck(decoded_all);
      if (!decoded_all) checks.Fail("replayed request batch did not decode");
    }
    std::vector<SubQueryReply> replies(total);
    {
      SpanTracer::Scope span = spans.StartSpan("store.operator", kReplayTrack);
      span.Attr("query", query);
      for (size_t i = 0; i < total; ++i) {
        SubQueryReply& reply = replies[i];
        reply.query_id = qid;
        reply.sub_id = static_cast<uint32_t>(i);
        reply.node = owners[i];
        auto table = d.cluster().node(owners[i]).FindTable(plan.table);
        if (!table.ok()) continue;
        auto columns = ExecuteOperator(*table.value(),
                                       plan.partitions[i].part.key, plan.op,
                                       plan.arg_lo, plan.arg_hi,
                                       plan.arg_limit, nullptr);
        if (!columns.ok()) {
          reply.status = static_cast<uint32_t>(columns.status().code());
          continue;
        }
        reply.type_ids = std::move(columns.value().col_a);
        reply.counts = std::move(columns.value().col_b);
      }
    }
    std::vector<std::vector<std::byte>> frames(total);
    {
      SpanTracer::Scope span = spans.StartSpan("wire.encode_reply_frame",
                                               kReplayTrack);
      span.Attr("query", query);
      const auto t0 = Clock::now();
      for (size_t i = 0; i < total; ++i) {
        WireBuffer buf;
        EncodeReplyFrame(replies[i], 0, 0, WireCodecKind::kCompact, registry,
                         buf);
        frames[i] = buf.TakeBytes();
      }
      out.encode_reply_us.push_back(SecondsSince(t0) * 1e6);
    }
    std::vector<SubQueryReply> decoded(total);
    {
      SpanTracer::Scope span = spans.StartSpan("wire.decode_reply_frame",
                                               kReplayTrack);
      span.Attr("query", query);
      const auto t0 = Clock::now();
      for (size_t i = 0; i < total; ++i) {
        auto frame = DecodeReplyFrame(frames[i], WireCodecKind::kCompact,
                                      registry);
        if (frame.ok()) decoded[i] = std::move(frame.value().reply);
      }
      out.decode_reply_us.push_back(SecondsSince(t0) * 1e6);
    }
    {
      SpanTracer::Scope span = spans.StartSpan("fold", kReplayTrack);
      span.Attr("query", query);
      GatherResult folded;
      const auto t0 = Clock::now();
      PlanFold fold(plan);
      for (size_t i = 0; i < total; ++i) {
        if (decoded[i].status != 0) continue;
        fold.Accept(i, decoded[i].type_ids, decoded[i].counts, folded);
      }
      fold.Finish(folded);
      out.fold_us.push_back(SecondsSince(t0) * 1e6);
      // The replayed replies must fold to the oracle's answer too.
      const std::string why = CompareAnswer(folded, s.plan->expected);
      checks.tally.CountCheck(why.empty());
      if (!why.empty()) checks.Fail("replayed " + kind + ": " + why);
    }
  }
}

/// Per-call medians of the three store operators on the owning node, over
/// a seeded sample of the main table's partitions.
struct StoreCallStats {
  double count_us = 0.0;
  double scan_us = 0.0;
  double topk_us = 0.0;
};

StoreCallStats TimeStoreCalls(Deployment& d, const Workload& w,
                              SpanTracer& spans) {
  const TableData& main = w.tables.front();
  Rng rng(Mix(w.seed, 0x5707E));
  const size_t samples = std::min<size_t>(256, main.parts.size() * 4);
  std::vector<double> count_us, scan_us, topk_us;
  SpanTracer::Scope span = spans.StartSpan("store.calls", kNodes + 1);
  for (size_t s = 0; s < samples; ++s) {
    const GenPartition& part = main.parts[rng.Below(main.parts.size())];
    const NodeId owner = d.cluster().ReplicasOf(part.key)[0];
    auto table = d.cluster().node(owner).FindTable(main.name);
    if (!table.ok()) continue;
    const uint64_t lo = part.rows[part.rows.size() / 4].clustering;
    const uint64_t hi = part.rows[(3 * part.rows.size()) / 4].clustering;
    auto t0 = Clock::now();
    (void)table.value()->CountByType(part.key);
    count_us.push_back(SecondsSince(t0) * 1e6);
    t0 = Clock::now();
    (void)table.value()->ScanRange(part.key, lo, hi, 256);
    scan_us.push_back(SecondsSince(t0) * 1e6);
    t0 = Clock::now();
    (void)table.value()->TopKByClustering(part.key, 32);
    topk_us.push_back(SecondsSince(t0) * 1e6);
  }
  return StoreCallStats{Median(count_us), Median(scan_us), Median(topk_us)};
}

/// Median LocalStore::DurablePutBatch of kPutItems items on a scratch WAL
/// store, with the workload's own row shapes.
double TimeDurablePutBatch(const Workload& w, const std::string& wal_path,
                           SpanTracer& spans) {
  std::vector<double> us;
  {
    StoreOptions options;
    options.wal_path = wal_path;
    LocalStore store(options);
    const TableData& main = w.tables.front();
    SpanTracer::Scope span = spans.StartSpan("store.durable_put_batch",
                                             kNodes + 1);
    // Fresh keys with the main table's row shapes, kPutItems per batch.
    size_t p = 0;
    size_t row = 0;
    for (uint64_t n = 0; n < 200; ++n) {
      std::vector<BatchPutItem> items;
      while (items.size() < kPutItems) {
        const GenPartition& part = main.parts[p % main.parts.size()];
        items.push_back(MakeItem("dp-" + part.key, part.rows[row],
                                 main.payload_seeds[p % main.parts.size()],
                                 main.payload_bytes));
        if (++row == part.rows.size()) {
          row = 0;
          ++p;
        }
      }
      const auto t0 = Clock::now();
      (void)store.DurablePutBatch(main.name, std::move(items));
      us.push_back(SecondsSince(t0) * 1e6);
    }
  }
  std::error_code ec;
  std::filesystem::remove(wal_path, ec);
  return Median(us);
}

// -- Reports -----------------------------------------------------------------

void AddHost(RunReport& report, const Workload& w, const RunConfig& config) {
  report.host = {
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", PERFBENCH_COMPILER},
      {"workload", w.name},
      {"seed", std::to_string(config.seed)},
      {"nodes", std::to_string(kNodes)},
      {"replication", std::to_string(w.replication)},
      {"data_bytes", std::to_string(w.data_bytes)},
      {"cache_bytes_per_node", std::to_string(w.cache_bytes)},
  };
}

void Absorb(RunReport& report, const Checks& checks) {
  report.tally.attempted += checks.tally.attempted;
  report.tally.failed += checks.tally.failed;
  for (const std::string& e : checks.errors) {
    if (report.errors.size() < kMaxErrors) report.errors.push_back(e);
  }
}

void Add(RunReport& report, std::string name, double value, std::string unit) {
  report.metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

/// The read p50 and p99 in ms; a p99 without ten samples beyond it fails
/// the run instead of printing a number.
void AddReadLatency(RunReport& report, const ReadLog& reads) {
  Add(report, "read_p50_ms", Median(reads.latency_ms), "ms");
  auto p99 = TailPercentile(reads.latency_ms, 0.99);
  if (!p99.ok()) {
    report.errors.push_back("read_p99_ms: " + p99.status().message());
    report.correct = false;
    return;
  }
  Add(report, "read_p99_ms", p99.value(), "ms");
}

/// Acked replica columns per second of one log's PutBatch time.
///
/// The writer of ingest_read: its acks over its summed call time. Its
/// calls fall into two modes (alone on the node workers, ~0.3 ms, or
/// queued behind a read, 2-4 ms), so only a total tracks it; a median
/// call sits in the gap between the modes and jumps with their mix.
///
/// A bulk load of the read workloads (`bulk`): its acks per call over its
/// median call time. A load lasts a tenth of a second to a second, and a
/// summed time that short carries every stall of the host into the rate
/// (ten seeds spread 0.27 on coarse_mix); the median call does not.
double IngestRate(const PutLog& log, bool bulk) {
  if (log.calls == 0 || log.put_s <= 0.0) return 0.0;
  const double acks = static_cast<double>(log.acks);
  if (!bulk) return acks / log.put_s;
  return acks / static_cast<double>(log.calls) /
         (Median(log.latency_ms) / 1e3);
}

double PerItem(double total, uint64_t n) {
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

void RunUntraced(const Workload& w, const RunConfig& config,
                 RunReport& report) {
  std::vector<double> setup_s;
  std::vector<PutLog> loads;
  Checks checks;
  std::unique_ptr<Deployment> d;
  // Set up at least kMinSetups times and for at least kMinSetupSeconds:
  // one set-up of fine_count loads in a tenth of a second, too short for
  // its put tail or its own duration to read the same twice.
  double setup_total = 0.0;
  for (uint32_t k = 0; k < kMaxSetups && (k < kMinSetups ||
                                          setup_total < kMinSetupSeconds);
       ++k) {
    d.reset();  // one deployment alive at a time
    d = std::make_unique<Deployment>(
        w, config.work_dir + "/wal-s" + std::to_string(k), false);
    setup_s.push_back(SetUp(*d, w, false, loads.emplace_back(), checks));
    setup_total += setup_s.back();
  }
  const PhaseResult phase = RunPhase(*d, w, config.seconds, nullptr);
  checks.Merge(phase.checks);
  ReadBack(*d, w, phase.puts, checks);

  const uint64_t user_bytes =
      w.data_bytes + (w.writer ? phase.puts.user_bytes : 0);
  const double stored =
      static_cast<double>(d->EncodedBytes(TableNames(w)) + d->WalBytes()) /
      static_cast<double>(user_bytes);

  Add(report, "setup_s", Median(setup_s), "s");
  Add(report, "read_qps",
      static_cast<double>(phase.reads.gathers) / phase.elapsed_s, "1/s");
  AddReadLatency(report, phase.reads);
  // The read workloads: one rate per set-up's load, median over set-ups.
  std::vector<double> rates;
  if (w.writer) {
    rates.push_back(IngestRate(phase.puts, false));
  } else {
    for (const PutLog& load : loads) rates.push_back(IngestRate(load, true));
  }
  Add(report, "ingest_cols_per_s", Median(rates), "1/s");
  Add(report, "peak_rss_mb", PeakRssMb(), "MB");
  Add(report, "stored_bytes_per_user_byte", stored, "ratio");
  Absorb(report, checks);
}

uint64_t CounterValue(const MetricsSnapshot& snap, std::string_view name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

double HistogramMean(const MetricsSnapshot& snap, std::string_view name) {
  for (const HistogramSnapshot& h : snap.histograms) {
    if (h.name == name) return h.mean_us;
  }
  return 0.0;
}

void RunTraced(const Workload& w, const RunConfig& config, RunReport& report) {
  Checks checks;
  // Reference: the same workload with nothing attached, for the overhead.
  double untraced_p50 = 0.0;
  {
    Deployment plain(w, config.work_dir + "/wal-plain", false);
    PutLog ignored;
    SetUp(plain, w, false, ignored, checks);
    const PhaseResult phase = RunPhase(plain, w, config.seconds * 0.4, nullptr);
    checks.Merge(phase.checks);
    untraced_p50 = Median(phase.reads.latency_ms);
  }

  Deployment d(w, config.work_dir + "/wal-traced", true);
  PutLog load_log;
  SetUp(d, w, true, load_log, checks);
  const MetricsSnapshot after_setup = d.registry()->Snapshot();
  d.registry()->Reset();
  StageSink sink;
  { StageTracer discard(std::move(*d.stages())); }
  const PhaseResult phase = RunPhase(d, w, config.seconds * 0.6, &sink);
  checks.Merge(phase.checks);
  const MetricsSnapshot timed = d.registry()->Snapshot();
  const uint64_t wal_bytes = d.WalBytes();  // 0 unless the writer logs
  ReadBack(d, w, phase.puts, checks);

  SpanTracer spans;
  ReplayStats replay;
  SampleAndReplay(d, w, spans, replay, checks);
  const StoreCallStats store = TimeStoreCalls(d, w, spans);
  const double durable_us =
      TimeDurablePutBatch(w, config.work_dir + "/wal-scratch", spans);
  if (!config.trace_out.empty()) {
    const Status written = WriteChromeTrace(spans, config.trace_out);
    if (!written.ok()) checks.Fail("trace: " + written.message());
  }

  const ReadLog& r = phase.reads;
  const PutLog& puts = w.writer ? phase.puts : load_log;
  const MetricsSnapshot& writes = w.writer ? timed : after_setup;
  const double traced_p50 = Median(r.latency_ms);
  const auto stage_us = [&](Stage s, double q) {
    return sink.stage(s).Percentile(q);
  };
  const uint64_t store_reads = r.probe.blocks_decoded + r.probe.blocks_from_cache;
  uint64_t max_requests = 0;
  uint64_t sum_requests = 0;
  for (const uint64_t n : r.requests_per_node) {
    max_requests = std::max(max_requests, n);
    sum_requests += n;
  }
  const double mean_requests =
      r.requests_per_node.empty()
          ? 0.0
          : static_cast<double>(sum_requests) /
                static_cast<double>(r.requests_per_node.size());
  const uint64_t ingest_cols = CounterValue(writes, "store.ingest.columns");

  Add(report, "stage.master_to_slave_us", stage_us(Stage::kMasterToSlave, 0.5), "us");
  Add(report, "stage.in_queue_us", stage_us(Stage::kInQueue, 0.5), "us");
  Add(report, "stage.in_queue_p99_us", stage_us(Stage::kInQueue, 0.99), "us");
  Add(report, "stage.in_db_us", stage_us(Stage::kInDb, 0.5), "us");
  Add(report, "stage.slave_to_master_us", stage_us(Stage::kSlaveToMaster, 0.5), "us");
  Add(report, "master.self_us", Median(replay.master_self_us), "us");
  Add(report, "gather.subqueries_per_s",
      static_cast<double>(r.subqueries) / phase.elapsed_s, "1/s");
  Add(report, "gather.admission_wait_us", PerItem(r.admission_wait_us, r.gathers), "us");
  Add(report, "gather.retries", static_cast<double>(r.retries), "count");
  Add(report, "gather.failed", static_cast<double>(r.failed_subqueries), "count");
  Add(report, "fold.us_per_gather", Median(replay.fold_us), "us");
  Add(report, "runtime.queue_wait_us_per_gather", PerItem(r.queue_wait_us, r.gathers), "us");
  Add(report, "runtime.maintenance_runs",
      static_cast<double>(CounterValue(timed, "cluster.maintenance.runs")), "count");
  Add(report, "runtime.maintenance_dropped",
      static_cast<double>(CounterValue(timed, "cluster.maintenance.dropped")), "count");
  Add(report, "wire.encode_us_per_gather", PerItem(r.wire_encode_us, r.gathers), "us");
  Add(report, "wire.decode_us_per_gather", PerItem(r.wire_decode_us, r.gathers), "us");
  Add(report, "wire.frames_per_gather", PerItem(static_cast<double>(r.frames), r.gathers), "count");
  Add(report, "wire.bytes_sent_per_gather",
      PerItem(static_cast<double>(r.bytes_sent), r.gathers), "B");
  Add(report, "wire.bytes_received_per_gather",
      PerItem(static_cast<double>(r.bytes_received), r.gathers), "B");
  Add(report, "wire.encode_subquery_batch_us", Median(replay.encode_batch_us), "us");
  Add(report, "wire.decode_subquery_batch_us", Median(replay.decode_batch_us), "us");
  Add(report, "wire.encode_reply_frame_us", Median(replay.encode_reply_us), "us");
  Add(report, "wire.decode_reply_frame_us", Median(replay.decode_reply_us), "us");
  Add(report, "put.p50_ms", Median(puts.latency_ms), "ms");
  auto put_p99 = TailPercentile(puts.latency_ms, 0.99);
  if (!put_p99.ok()) {
    report.errors.push_back("put.p99_ms: " + put_p99.status().message());
    report.correct = false;
  }
  Add(report, "put.p99_ms", put_p99.ok() ? put_p99.value() : 0.0, "ms");
  Add(report, "put.wire_encode_us", PerItem(puts.wire_encode_us, puts.calls), "us");
  Add(report, "put.queue_wait_us", PerItem(puts.queue_wait_us, puts.calls), "us");
  Add(report, "put.batches_per_call",
      PerItem(static_cast<double>(puts.batches), puts.calls), "count");
  Add(report, "put.epoch_retries", static_cast<double>(puts.epoch_retries), "count");
  Add(report, "put.quorum_failed_keys", static_cast<double>(puts.quorum_failed_keys), "count");
  Add(report, "store.count_by_type_us", store.count_us, "us");
  Add(report, "store.scan_range_us", store.scan_us, "us");
  Add(report, "store.topk_us", store.topk_us, "us");
  Add(report, "store.blocks_decoded_per_subquery",
      PerItem(static_cast<double>(r.probe.blocks_decoded), r.subqueries), "count");
  Add(report, "store.cache_hit_ratio",
      PerItem(static_cast<double>(r.probe.blocks_from_cache), store_reads), "ratio");
  Add(report, "store.bloom_negatives_per_subquery",
      PerItem(static_cast<double>(r.probe.bloom_negatives), r.subqueries), "count");
  Add(report, "store.segments_per_read",
      PerItem(static_cast<double>(r.probe.segments_consulted), r.subqueries), "count");
  Add(report, "store.bytes_decoded_per_subquery",
      PerItem(static_cast<double>(r.probe.bytes_decoded), r.subqueries), "B");
  Add(report, "store.durable_put_batch_us", durable_us, "us");
  Add(report, "store.group_syncs_per_kcol",
      PerItem(static_cast<double>(CounterValue(writes, "store.ingest.group_syncs")) * 1e3,
              ingest_cols),
      "count");
  Add(report, "store.wal_bytes_per_user_byte",
      PerItem(static_cast<double>(wal_bytes), puts.user_bytes), "ratio");
  Add(report, "store.flush_us", HistogramMean(writes, "store.flush.latency_us"), "us");
  Add(report, "store.memtable_flushes",
      static_cast<double>(CounterValue(writes, "store.memtable.flushes")), "count");
  Add(report, "store.compactions",
      static_cast<double>(CounterValue(writes, "store.compactions")), "count");
  Add(report, "store.memtable_bytes_peak", static_cast<double>(puts.memtable_peak), "B");
  Add(report, "route.replicas_of_us", Median(replay.route_us_per_key), "us");
  Add(report, "route.requests_imbalance",
      mean_requests > 0.0 ? static_cast<double>(max_requests) / mean_requests : 0.0,
      "ratio");
  Add(report, "trace.overhead_pct",
      untraced_p50 > 0.0 ? (traced_p50 - untraced_p50) / untraced_p50 * 100.0 : 0.0,
      "%");
  Absorb(report, checks);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace

RunReport RunBenchmark(const RunConfig& config) {
  RunReport report;
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) {
    report.correct = false;
    report.errors.push_back("cannot create " + config.work_dir + ": " +
                            ec.message());
    return report;
  }
  Result<Workload> made = MakeWorkload(config.workload, config.seed);
  if (!made.ok()) {
    report.correct = false;
    report.errors.push_back(made.status().message());
    return report;
  }
  Workload& w = made.value();
  if (config.corrupt_oracle) {
    ++w.pool.front().expected.totals[0];  // pool[0] is always a count plan
  }
  AddHost(report, w, config);
  if (config.trace) {
    RunTraced(w, config, report);
  } else {
    RunUntraced(w, config, report);
  }
  for (const Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.errors.push_back(m.name + " is not a finite number");
      report.correct = false;
    }
  }
  if (report.tally.failed > 0) report.correct = false;
  return report;
}

std::string ResultJson(const RunReport& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.tally.attempted);
  out += ", \"failed\": " + std::to_string(report.tally.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!first) out += ", ";
    first = false;
    out += JsonString(m.name) + ": {\"value\": " + value +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
