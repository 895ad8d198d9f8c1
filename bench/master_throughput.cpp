// Master query throughput under concurrent clients (the real-data
// counterpart of Figure 11's saturation argument).
//
// Paper setup: Figure 11 evaluates the model until the master's send
// time exceeds the per-query database time — past that point adding
// resources stops helping because the master is the bottleneck. Here the
// same saturation is measured on the real data path: N client threads
// issue gathers through the one shared message runtime, and the table
// reports aggregate queries/s as the client count grows, for each
// replication factor. Throughput climbs while the worker pools have
// headroom and flattens once the master-side scatter/collect loop (one
// core per client, shared queues) saturates — the knee of the curve is
// this build's "single master limit". An optional admission limit caps
// the in-flight queries; shed counts then show how much offered load the
// controller refused rather than queued.
//
// Run: ./build/bench/master_throughput [--elements=40000] [--keys=100]
//      [--nodes=4] [--max-clients=16] [--queries=4] [--max-inflight=0]
//
// Scoreboard mode: --json-out=FILE writes the measured points as JSON;
// --check-against=BASELINE compares the current run against a committed
// scoreboard and fails (exit 1) when throughput regresses past
// --tolerance-pct or the configs differ. tools/bench_check.sh wraps the
// quick-config flow.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "cluster/in_process_cluster.hpp"
#include "common/check.hpp"
#include "common/cli.hpp"
#include "common/table_printer.hpp"
#include "stats/summary.hpp"
#include "store/row.hpp"
#include "workload/granularity.hpp"

namespace kvscale {
namespace {

/// One measured (replication, clients) cell of the scoreboard.
struct BenchPoint {
  uint32_t replication = 0;
  uint32_t clients = 0;
  double queries_per_sec = 0.0;
  double speedup = 0.0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

/// The knobs that shape the measurement; a baseline is only comparable
/// against a run with the identical config.
struct BenchConfig {
  int64_t elements = 0;
  int64_t keys = 0;
  int64_t nodes = 0;
  int64_t max_clients = 0;
  int64_t queries = 0;
  int64_t workers_per_node = 0;
  int64_t max_inflight = 0;
};

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string ScoreboardJson(const BenchConfig& config,
                           const std::vector<BenchPoint>& points) {
  std::string out = "{\"bench\":\"master_throughput\",\"config\":{";
  out += "\"elements\":" + std::to_string(config.elements);
  out += ",\"keys\":" + std::to_string(config.keys);
  out += ",\"nodes\":" + std::to_string(config.nodes);
  out += ",\"max_clients\":" + std::to_string(config.max_clients);
  out += ",\"queries\":" + std::to_string(config.queries);
  out += ",\"workers_per_node\":" + std::to_string(config.workers_per_node);
  out += ",\"max_inflight\":" + std::to_string(config.max_inflight);
  out += "},\"points\":[";
  for (size_t i = 0; i < points.size(); ++i) {
    const BenchPoint& p = points[i];
    if (i > 0) out += ',';
    out += "\n  {\"replication\":" + std::to_string(p.replication);
    out += ",\"clients\":" + std::to_string(p.clients);
    out += ",\"queries_per_sec\":" + FormatDouble(p.queries_per_sec);
    out += ",\"speedup\":" + FormatDouble(p.speedup);
    out += ",\"admitted\":" + std::to_string(p.admitted);
    out += ",\"shed\":" + std::to_string(p.shed);
    out += ",\"p50_us\":" + FormatDouble(p.p50_us);
    out += ",\"p95_us\":" + FormatDouble(p.p95_us);
    out += ",\"p99_us\":" + FormatDouble(p.p99_us);
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

/// Every number following an exact `"key":` occurrence, in document
/// order. The scoreboard's keys are chosen so no key is a quoted prefix
/// of another, which makes this targeted scan unambiguous without a
/// full JSON parser.
std::vector<double> JsonNumbers(const std::string& json,
                                const std::string& key) {
  std::vector<double> out;
  const std::string needle = "\"" + key + "\":";
  size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    out.push_back(std::strtod(json.c_str() + pos, nullptr));
  }
  return out;
}

bool ConfigMatches(const std::string& baseline, const char* key,
                   int64_t current) {
  const std::vector<double> values = JsonNumbers(baseline, key);
  if (values.size() != 1 ||
      static_cast<int64_t>(values[0]) != current) {
    std::fprintf(stderr,
                 "bench-check: config mismatch on \"%s\" (baseline %s, "
                 "current %lld) — regenerate the baseline with "
                 "tools/bench_check.sh --update\n",
                 key,
                 values.empty() ? "missing" : FormatDouble(values[0]).c_str(),
                 static_cast<long long>(current));
    return false;
  }
  return true;
}

/// Lower-bound throughput gate: each baseline point must be matched by a
/// current point at the same (replication, clients) whose queries/s is
/// at least (1 - tolerance) of the recorded value. Only slowdowns fail —
/// a faster run always passes, the baseline is refreshed explicitly.
int CheckAgainstBaseline(const std::string& path, const BenchConfig& config,
                         const std::vector<BenchPoint>& points,
                         double tolerance_pct) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "bench-check: cannot open baseline %s\n",
                 path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string baseline = buffer.str();

  bool ok = true;
  ok &= ConfigMatches(baseline, "elements", config.elements);
  ok &= ConfigMatches(baseline, "keys", config.keys);
  ok &= ConfigMatches(baseline, "nodes", config.nodes);
  ok &= ConfigMatches(baseline, "max_clients", config.max_clients);
  ok &= ConfigMatches(baseline, "queries", config.queries);
  ok &= ConfigMatches(baseline, "workers_per_node", config.workers_per_node);
  ok &= ConfigMatches(baseline, "max_inflight", config.max_inflight);
  if (!ok) return 1;

  const std::vector<double> reps = JsonNumbers(baseline, "replication");
  const std::vector<double> clients = JsonNumbers(baseline, "clients");
  const std::vector<double> qps = JsonNumbers(baseline, "queries_per_sec");
  if (reps.empty() || reps.size() != clients.size() ||
      reps.size() != qps.size()) {
    std::fprintf(stderr, "bench-check: malformed baseline %s\n", path.c_str());
    return 1;
  }

  std::map<std::pair<uint32_t, uint32_t>, double> current;
  for (const BenchPoint& p : points) {
    current[{p.replication, p.clients}] = p.queries_per_sec;
  }

  const double floor_fraction = 1.0 - tolerance_pct / 100.0;
  int failures = 0;
  for (size_t i = 0; i < reps.size(); ++i) {
    const auto key = std::make_pair(static_cast<uint32_t>(reps[i]),
                                    static_cast<uint32_t>(clients[i]));
    const auto it = current.find(key);
    if (it == current.end()) {
      std::fprintf(stderr,
                   "bench-check: FAIL replication=%u clients=%u missing from "
                   "the current run\n",
                   key.first, key.second);
      ++failures;
      continue;
    }
    const double floor = qps[i] * floor_fraction;
    const bool pass = it->second >= floor;
    std::printf("bench-check: %s replication=%u clients=%u %.1f qps "
                "(baseline %.1f, floor %.1f)\n",
                pass ? "ok  " : "FAIL", key.first, key.second, it->second,
                qps[i], floor);
    if (!pass) ++failures;
  }
  if (failures > 0) {
    std::fprintf(stderr,
                 "bench-check: %d point(s) regressed past %.0f%% tolerance\n",
                 failures, tolerance_pct);
    return 1;
  }
  std::printf("bench-check: all %zu points within %.0f%% of the baseline\n",
              reps.size(), tolerance_pct);
  return 0;
}

int Run(int argc, char** argv) {
  int64_t elements = 40000;
  int64_t keys = 100;
  int64_t nodes = 4;
  int64_t max_clients = 16;
  int64_t queries = 4;
  int64_t workers_per_node = 2;
  int64_t max_inflight = 0;
  std::string json_out;
  std::string check_against;
  double tolerance_pct = 50.0;
  CliFlags flags;
  flags.Add("elements", &elements, "total elements per query");
  flags.Add("keys", &keys, "partitions per query");
  flags.Add("nodes", &nodes, "cluster size");
  flags.Add("max-clients", &max_clients, "largest client count to evaluate");
  flags.Add("queries", &queries, "queries each client issues per point");
  flags.Add("workers-per-node", &workers_per_node,
            "worker threads draining each node's queue");
  flags.Add("max-inflight", &max_inflight,
            "admission limit on concurrent queries (0 = unlimited)");
  flags.Add("json-out", &json_out, "write the scoreboard as JSON to FILE");
  flags.Add("check-against", &check_against,
            "compare this run against a baseline scoreboard JSON");
  flags.Add("tolerance-pct", &tolerance_pct,
            "allowed throughput drop vs the baseline before failing");
  if (!flags.Parse(argc, argv)) return 1;
  if (tolerance_pct < 0.0 || tolerance_pct >= 100.0) {
    std::fprintf(stderr, "--tolerance-pct must be in [0, 100)\n");
    return 1;
  }

  bench::Banner(
      "Master throughput: queries/s vs concurrent clients x replication",
      "Fig. 11 argues the master saturates once its per-query send work "
      "exceeds the database time; the real shared runtime shows the same "
      "knee in aggregate queries/s",
      std::to_string(keys) + " partitions x " + std::to_string(elements) +
          " elements, " + std::to_string(nodes) + " nodes, compact codec, "
          "batched scatter");

  std::vector<uint32_t> client_counts;
  for (int64_t c = 1; c <= max_clients; c *= 2) {
    client_counts.push_back(static_cast<uint32_t>(c));
  }

  const BenchConfig config{elements, keys,          nodes,      max_clients,
                           queries,  workers_per_node, max_inflight};
  std::vector<BenchPoint> points;

  TablePrinter table({"replication", "clients", "queries/s", "speedup",
                      "admitted", "shed", "queue wait", "p95"});
  for (const uint32_t replication : {1u, 2u}) {
    if (replication > static_cast<uint32_t>(nodes)) break;
    InProcessCluster cluster(static_cast<uint32_t>(nodes),
                             PlacementKind::kDhtRandom, StoreOptions{}, 7,
                             replication);
    const WorkloadSpec workload = UniformWorkload(
        static_cast<uint64_t>(elements), static_cast<uint64_t>(keys));
    uint64_t part_seed = 0;
    for (const PartitionRef& part : workload.partitions) {
      for (uint32_t j = 0; j < part.elements; ++j) {
        Column column;
        column.clustering = j;
        column.type_id = j % 8;
        column.payload = MakePayload(part_seed, j, 24);
        KV_CHECK(cluster.Put(workload.table, part.key, std::move(column)).ok());
      }
      ++part_seed;
    }
    cluster.FlushAll();

    GatherOptions options;
    options.transport = GatherTransport::kMessage;
    options.codec = WireCodecKind::kCompact;
    options.batch = true;
    options.workers_per_node = static_cast<uint32_t>(workers_per_node);
    options.max_inflight = static_cast<uint32_t>(max_inflight);

    double single_client_qps = 0.0;
    for (const uint32_t clients : client_counts) {
      const ConcurrentGatherReport report = cluster.GatherConcurrent(
          MakeCountPlan(workload), clients, static_cast<uint32_t>(queries), options);
      if (clients == 1) single_client_qps = report.queries_per_sec;
      double queue_wait_us = 0.0;
      std::vector<double> latencies;
      latencies.reserve(report.results.size());
      for (const GatherResult& r : report.results) {
        queue_wait_us += r.queue_wait_us;
        if (!r.shed_by_admission) latencies.push_back(r.wall_us);
      }
      const uint64_t served = report.admitted > 0 ? report.admitted : 1;

      BenchPoint point;
      point.replication = replication;
      point.clients = clients;
      point.queries_per_sec = report.queries_per_sec;
      point.speedup = single_client_qps > 0.0
                          ? report.queries_per_sec / single_client_qps
                          : 0.0;
      point.admitted = report.admitted;
      point.shed = report.shed;
      if (!latencies.empty()) {
        point.p50_us = Percentile(latencies, 0.50);
        point.p95_us = Percentile(latencies, 0.95);
        point.p99_us = Percentile(latencies, 0.99);
      }
      points.push_back(point);

      char speedup[32];
      std::snprintf(speedup, sizeof(speedup), "%.2fx", point.speedup);
      char qps[32];
      std::snprintf(qps, sizeof(qps), "%.1f", report.queries_per_sec);
      table.AddRow({TablePrinter::Cell(static_cast<int64_t>(replication)),
                    TablePrinter::Cell(static_cast<int64_t>(clients)),
                    std::string(qps), std::string(speedup),
                    TablePrinter::Cell(static_cast<int64_t>(report.admitted)),
                    TablePrinter::Cell(static_cast<int64_t>(report.shed)),
                    FormatMicros(queue_wait_us / static_cast<double>(served)),
                    FormatMicros(point.p95_us)});
    }
  }
  table.Print();
  std::printf(
      "\nthe knee (speedup flattening below the client count) marks where "
      "the shared master runtime saturates; replication multiplies the "
      "write volume but the gather still reads one replica per "
      "partition\n");

  if (!json_out.empty()) {
    std::ofstream file(json_out);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", json_out.c_str());
      return 1;
    }
    file << ScoreboardJson(config, points);
    if (!file.good()) {
      std::fprintf(stderr, "write failed: %s\n", json_out.c_str());
      return 1;
    }
    std::printf("scoreboard written to %s\n", json_out.c_str());
  }
  if (!check_against.empty()) {
    return CheckAgainstBaseline(check_against, config, points, tolerance_pct);
  }
  return 0;
}

}  // namespace
}  // namespace kvscale

int main(int argc, char** argv) { return kvscale::Run(argc, argv); }
