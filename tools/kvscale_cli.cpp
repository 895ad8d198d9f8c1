// kvscale — command-line front-end to the performance model.
//
// The paper closes: the model lets a developer "in front of a set of
// technologies and SLAs, choose the right architecture for its system".
// This tool exposes that workflow without writing C++:
//
//   kvscale predict  --elements 1000000 --keys 1000 --nodes 16
//   kvscale optimize --elements 1000000 --nodes 16
//   kvscale sweep    --elements 1000000 --keys 4000 --max-nodes 128
//   kvscale simulate --elements 1000000 --keys 10000 --nodes 16 --slow-master
//   kvscale bands    --elements 1000000 --keys 100 --nodes 16
//   kvscale gather   --elements 100000 --keys 200 --nodes 4 --rounds 2
//   kvscale gather   --nodes 4 --replication 3 --fail-node 0 --fail-rate 0.01
//   kvscale gather   --nodes 4 --codec compact --batch --workers-per-node 2
//   kvscale gather   --query scan --scan-start 10 --scan-end 99 --limit 50
//   kvscale gather   --query topk --k 10 --nodes 4 --replication 2
//   kvscale gather   --query box --box 0.2,0.2,0.2,0.5,0.5,0.5 --level 4
//   kvscale put-bench --nodes 4 --replication 3 --batch 16 --quorum majority
//   kvscale put-bench --codec compact --clients 4 --wal /tmp/ingest.wal
//
// Every subcommand accepts --t-msg-us (master cost per message) and
// --device (dram|hbm|nvm|ssd|hdd) to describe the hardware under study,
// plus --trace-out (Chrome trace-event JSON, open in Perfetto) and
// --metrics-out (JSONL metric snapshot) for machine-readable telemetry.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "common/check.hpp"
#include "cluster/in_process_cluster.hpp"
#include "common/cli.hpp"
#include "common/table_printer.hpp"
#include "model/architecture.hpp"
#include "model/monte_carlo.hpp"
#include "model/optimizer.hpp"
#include "store/row.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/span_tracer.hpp"
#include "telemetry/timeseries.hpp"
#include "trace/stage_trace.hpp"
#include "trace/telemetry_bridge.hpp"
#include "wire/envelope.hpp"
#include "workload/box_query.hpp"

namespace kvscale {
namespace {

/// Flags shared by every subcommand.
struct CommonArgs {
  int64_t elements = 1000000;
  int64_t keys = 1000;
  int64_t nodes = 16;
  double t_msg_us = 19.0;
  std::string device = "dram";
  std::string trace_out;    ///< Chrome trace-event JSON path ("" = off)
  std::string metrics_out;  ///< JSONL metrics snapshot path ("" = off)

  void Register(CliFlags& flags) {
    flags.Add("elements", &elements, "elements the query aggregates");
    flags.Add("keys", &keys, "partitions the query reads");
    flags.Add("nodes", &nodes, "cluster size");
    flags.Add("t-msg-us", &t_msg_us, "master CPU cost per message (us)");
    flags.Add("device", &device, "working-set tier: dram|hbm|nvm|ssd|hdd");
    flags.Add("trace-out", &trace_out,
              "write spans as Chrome trace-event JSON to this file");
    flags.Add("metrics-out", &metrics_out,
              "write a JSONL metrics snapshot to this file");
  }

  bool ResolveDevice(DeviceModel& out) const {
    if (device == "dram") out = DramDevice();
    else if (device == "hbm") out = HbmDevice();
    else if (device == "nvm") out = NvmDevice();
    else if (device == "ssd") out = SataSsdDevice();
    else if (device == "hdd") out = HddDevice();
    else {
      std::fprintf(stderr, "unknown device '%s'\n", device.c_str());
      return false;
    }
    return true;
  }

  QueryModel BuildModel() const {
    MasterModel::Params master;
    master.time_per_message = t_msg_us;
    master.time_per_result = t_msg_us * 0.25;
    DeviceModel dev = DramDevice();
    // Main() resolves --device right after flag parsing, so this cannot
    // fail on user input.
    KV_CHECK(ResolveDevice(dev));
    return QueryModel(DbModel{}, MasterModel(master)).WithDevice(dev);
  }
};

/// Honours --trace-out / --metrics-out; returns false (after printing the
/// error) if a requested export failed.
bool ExportTelemetry(const CommonArgs& args, const SpanTracer& tracer,
                     const MetricsRegistry& registry) {
  if (!args.trace_out.empty()) {
    const Status status = WriteChromeTrace(tracer, args.trace_out);
    if (!status.ok()) {
      std::fprintf(stderr, "--trace-out: %s\n", status.ToString().c_str());
      return false;
    }
    std::printf("wrote %zu spans to %s (open in ui.perfetto.dev)\n",
                tracer.size(), args.trace_out.c_str());
  }
  if (!args.metrics_out.empty()) {
    const Status status = WriteMetricsJsonl(registry, args.metrics_out);
    if (!status.ok()) {
      std::fprintf(stderr, "--metrics-out: %s\n", status.ToString().c_str());
      return false;
    }
    std::printf("wrote metrics snapshot to %s\n", args.metrics_out.c_str());
  }
  return true;
}

int CmdPredict(CommonArgs& args) {
  SpanTracer tracer;
  MetricsRegistry registry;
  tracer.SetTrackName(0, "model");
  const QueryModel model = args.BuildModel();
  SpanTracer::Scope span = tracer.StartSpan("predict", 0);
  span.Attr("elements", std::to_string(args.elements));
  span.Attr("keys", std::to_string(args.keys));
  span.Attr("nodes", std::to_string(args.nodes));
  const QueryPrediction p = model.Predict(
      static_cast<uint64_t>(args.elements), static_cast<uint64_t>(args.keys),
      static_cast<uint32_t>(args.nodes));
  span.End();
  registry.GetGauge("model.predicted_total_us").Set(p.total);
  registry.GetGauge("model.master_issue_us").Set(p.master_issue);
  registry.GetGauge("model.slowest_slave_us").Set(p.slowest_slave);
  std::printf("prediction for %lld elements / %lld partitions / %lld "
              "nodes:\n",
              static_cast<long long>(args.elements),
              static_cast<long long>(args.keys),
              static_cast<long long>(args.nodes));
  TablePrinter table({"component", "value"});
  table.AddRow({"elements per partition", TablePrinter::Cell(p.keysize, 0)});
  table.AddRow({"max partitions on one node (F5)",
                TablePrinter::Cell(p.key_max, 1)});
  table.AddRow({"effective time per request (F8)",
                FormatMicros(p.db_per_request)});
  table.AddRow({"master issue time (F3)", FormatMicros(p.master_issue)});
  table.AddRow({"slowest slave (F4)", FormatMicros(p.slowest_slave)});
  table.AddRow({"result fetch", FormatMicros(p.result_fetch)});
  table.AddRow({"TOTAL (F2)", FormatMicros(p.total)});
  table.AddRow({"bottleneck", p.BottleneckName()});
  table.Print();
  return ExportTelemetry(args, tracer, registry) ? 0 : 1;
}

int CmdOptimize(CommonArgs& args) {
  SpanTracer tracer;
  MetricsRegistry registry;
  tracer.SetTrackName(0, "model");
  PartitionOptimizer optimizer(args.BuildModel());
  SpanTracer::Scope span = tracer.StartSpan("optimize", 0);
  span.Attr("elements", std::to_string(args.elements));
  span.Attr("nodes", std::to_string(args.nodes));
  const auto opt = optimizer.Optimize(static_cast<uint64_t>(args.elements),
                                      static_cast<uint32_t>(args.nodes));
  span.End();
  registry.GetGauge("model.optimal_keys").Set(static_cast<double>(opt.keys));
  registry.GetGauge("model.optimal_total_us").Set(opt.prediction.total);
  std::printf(
      "optimal partitioning for %lld elements on %lld nodes:\n"
      "  %llu partitions of ~%.0f elements -> %s (bottleneck: %s)\n",
      static_cast<long long>(args.elements),
      static_cast<long long>(args.nodes),
      static_cast<unsigned long long>(opt.keys), opt.prediction.keysize,
      FormatMicros(opt.prediction.total).c_str(),
      opt.prediction.BottleneckName().c_str());
  const QueryPrediction fixed = args.BuildModel().Predict(
      static_cast<uint64_t>(args.elements), static_cast<uint64_t>(args.keys),
      static_cast<uint32_t>(args.nodes));
  std::printf("  (your --keys=%lld would take %s: %s)\n",
              static_cast<long long>(args.keys),
              FormatMicros(fixed.total).c_str(),
              FormatPercent(fixed.total / opt.prediction.total - 1.0).c_str());
  return ExportTelemetry(args, tracer, registry) ? 0 : 1;
}

int CmdSweep(CommonArgs& args, int64_t max_nodes) {
  SpanTracer tracer;
  MetricsRegistry registry;
  tracer.SetTrackName(0, "model");
  const QueryModel model = args.BuildModel();
  SpanTracer::Scope span = tracer.StartSpan("sweep", 0);
  span.Attr("elements", std::to_string(args.elements));
  span.Attr("keys", std::to_string(args.keys));
  span.Attr("max_nodes", std::to_string(max_nodes));
  const auto profile = ScalingProfile(
      model, static_cast<uint64_t>(args.elements),
      static_cast<uint64_t>(args.keys), static_cast<uint32_t>(max_nodes));
  span.End();
  LatencyHistogram& sweep_hist = registry.GetHistogram("model.sweep.query_us");
  for (const auto& point : profile) sweep_hist.Record(point.query_time);
  TablePrinter table({"nodes", "query time", "master", "slaves", "bound by"});
  for (uint32_t n = 1; n <= static_cast<uint32_t>(max_nodes); n *= 2) {
    const auto& p = profile[n - 1];
    table.AddRow({TablePrinter::Cell(static_cast<int64_t>(n)),
                  FormatMicros(p.query_time), FormatMicros(p.master_time),
                  FormatMicros(p.slave_time),
                  p.master_bound ? "master" : "slaves"});
  }
  table.Print();
  const uint32_t crossover = MasterSaturationNodes(
      model, static_cast<uint64_t>(args.elements),
      static_cast<uint64_t>(args.keys), static_cast<uint32_t>(max_nodes));
  if (crossover > 0) {
    std::printf("single master saturates at %u nodes for this shape.\n",
                crossover);
  } else {
    std::printf("the master keeps up at every size up to %lld nodes.\n",
                static_cast<long long>(max_nodes));
  }
  registry.GetGauge("model.master_saturation_nodes")
      .Set(static_cast<double>(crossover));
  return ExportTelemetry(args, tracer, registry) ? 0 : 1;
}

int CmdSimulate(CommonArgs& args, bool slow_master, int64_t seed) {
  ClusterConfig config;
  config.nodes = static_cast<uint32_t>(args.nodes);
  config.seed = static_cast<uint64_t>(seed);
  if (slow_master) {
    config.serializer = JavaLikeProfile();
    config.size_messages_with_compact_codec = false;
  } else {
    config.serializer.cpu_fixed = args.t_msg_us * 0.6;
    config.serializer.cpu_per_byte =
        args.t_msg_us * 0.4 / config.serializer.bytes_per_message;
  }
  KV_CHECK(args.ResolveDevice(config.device));
  const auto run = RunDistributedQuery(
      config, UniformWorkload(static_cast<uint64_t>(args.elements),
                              static_cast<uint64_t>(args.keys)));
  std::printf("simulated run (%s master):\n",
              slow_master ? "java-like 150 us" : "optimised");
  std::printf("  makespan %s | master done sending at %s | request "
              "imbalance %s\n",
              FormatMicros(run.makespan).c_str(),
              FormatMicros(run.master_issue_done).c_str(),
              FormatPercent(run.RequestImbalance()).c_str());
  std::printf("%s", run.tracer.SummaryReport().c_str());

  // Virtual-time stages export through the same telemetry pipeline as
  // real executions (trace/telemetry_bridge.hpp).
  SpanTracer tracer;
  MetricsRegistry registry;
  AppendStageSpans(run.tracer, tracer);
  RecordStageHistograms(run.tracer, registry);
  registry.GetGauge("sim.makespan_us").Set(run.makespan);
  registry.GetGauge("sim.network_messages")
      .Set(static_cast<double>(run.network_messages));
  registry.GetGauge("sim.network_bytes").Set(run.network_bytes);
  return ExportTelemetry(args, tracer, registry) ? 0 : 1;
}

int CmdBands(CommonArgs& args, int64_t trials) {
  Rng rng(7);
  SpanTracer tracer;
  MetricsRegistry registry;
  tracer.SetTrackName(0, "model");
  SpanTracer::Scope span = tracer.StartSpan("bands", 0);
  span.Attr("trials", std::to_string(trials));
  const auto bands = PredictDistribution(
      args.BuildModel(), static_cast<uint64_t>(args.elements),
      static_cast<uint64_t>(args.keys), static_cast<uint32_t>(args.nodes),
      static_cast<uint64_t>(trials), rng);
  span.End();
  registry.GetGauge("model.bands.p50_us").Set(bands.p50);
  registry.GetGauge("model.bands.p99_us").Set(bands.p99);
  TablePrinter table({"statistic", "value"});
  table.AddRow({"Formula 2 point", FormatMicros(bands.formula_point)});
  table.AddRow({"mean", FormatMicros(bands.mean)});
  table.AddRow({"p10", FormatMicros(bands.p10)});
  table.AddRow({"p50", FormatMicros(bands.p50)});
  table.AddRow({"p90", FormatMicros(bands.p90)});
  table.AddRow({"p99", FormatMicros(bands.p99)});
  table.Print();
  std::printf("(Monte-Carlo over %lld placement + noise draws)\n",
              static_cast<long long>(trials));
  return ExportTelemetry(args, tracer, registry) ? 0 : 1;
}

/// Parses --box="x0,y0,z0,x1,y1,z1" (unit-cube coordinates, exclusive
/// upper corner) into a D8tree box.
Result<D8Tree::Box> ParseBoxSpec(const std::string& spec) {
  float v[6];
  int consumed = 0;
  if (std::sscanf(spec.c_str(), "%f,%f,%f,%f,%f,%f%n", &v[0], &v[1], &v[2],
                  &v[3], &v[4], &v[5], &consumed) != 6 ||
      consumed != static_cast<int>(spec.size())) {
    return Status::InvalidArgument(
        "--box expects six comma-separated floats x0,y0,z0,x1,y1,z1, got '" +
        spec + "'");
  }
  if (!(v[0] < v[3] && v[1] < v[4] && v[2] < v[5])) {
    return Status::InvalidArgument(
        "--box min corner must be strictly below the max corner on every "
        "axis");
  }
  D8Tree::Box box;
  box.min_x = v[0];
  box.min_y = v[1];
  box.min_z = v[2];
  box.max_x = v[3];
  box.max_y = v[4];
  box.max_z = v[5];
  return box;
}

/// Fault-tolerance flags of the gather subcommand.
struct GatherArgs {
  std::string query = "count";  ///< count|scan|topk|box
  int64_t scan_start = 0;       ///< --query=scan: clustering range lower bound
  int64_t scan_end = -1;        ///< --query=scan: upper bound (-1 = unbounded)
  int64_t limit = 0;            ///< --query=scan: row cap (0 = unbounded)
  int64_t k = 0;                ///< --query=topk: rows to keep (required)
  std::string box;              ///< --query=box: "x0,y0,z0,x1,y1,z1" (required)
  int64_t level = 0;            ///< --query=box: octree depth (0 = default 4)
  int64_t rounds = 2;
  int64_t payload_bytes = 30;
  int64_t seed = 42;
  int64_t replication = 1;
  int64_t fail_node = -1;      ///< -1 = no node killed
  double fail_rate = 0.0;      ///< per-read injected error probability
  double corrupt_rate = 0.0;   ///< fraction of segment blocks bit-flipped
  bool join_node = false;        ///< join one fresh node (live migration)
  int64_t decommission_node = -1;  ///< -1 = no graceful removal
  int64_t perma_kill = -1;     ///< -1 = no permanent unplanned loss
  double migration_corrupt_rate = 0.0;  ///< migration frame bit-flip rate
  double deadline_ms = 0.0;    ///< 0 = no gather deadline
  int64_t max_attempts = 3;
  bool hedge = false;
  std::string codec;           ///< "" = direct calls; tagged|compact = wire
  bool batch = false;
  int64_t queue_depth = 0;     ///< 0 = runtime default
  int64_t workers_per_node = 0;  ///< 0 = runtime default
  std::string queue_policy;    ///< "" = default (block)
  int64_t clients = 1;         ///< concurrent client threads (needs --codec)
  int64_t queries = 1;         ///< queries per client when --clients > 1
  int64_t max_inflight = 0;    ///< admission limit; 0 = unlimited
  std::string admission_policy;  ///< "" = default (block)
  double slow_query_us = 0.0;  ///< flight-recorder slow threshold; 0 = off
  std::string flight_out;      ///< flight-recorder ring JSONL ("" = off)
  std::string slow_log;        ///< slow-query JSONL append file ("" = off)
  std::string timeseries_out;  ///< metric time-series JSONL ("" = off)

  void Register(CliFlags& flags) {
    flags.Add("query", &query,
              "query type: count|scan|topk|box (default count)");
    flags.Add("scan-start", &scan_start,
              "--query=scan: first clustering key of the range");
    flags.Add("scan-end", &scan_end,
              "--query=scan: last clustering key of the range "
              "(-1 = unbounded)");
    flags.Add("limit", &limit,
              "--query=scan: total rows to return (0 = unbounded)");
    flags.Add("k", &k, "--query=topk: rows with the largest clustering keys");
    flags.Add("box", &box,
              "--query=box: spatial region x0,y0,z0,x1,y1,z1 in the unit "
              "cube");
    flags.Add("level", &level,
              "--query=box: D8tree octree depth (0 = default 4)");
    flags.Add("rounds", &rounds,
              "query repetitions (first is cold, later ones hit the cache)");
    flags.Add("payload-bytes", &payload_bytes, "payload bytes per element");
    flags.Add("seed", &seed, "placement + fault-injection seed");
    flags.Add("replication", &replication,
              "copies of every partition (1 = no fault tolerance)");
    flags.Add("fail-node", &fail_node,
              "kill this node before querying (-1 = none)");
    flags.Add("fail-rate", &fail_rate,
              "probability each read attempt fails (0..1)");
    flags.Add("corrupt-rate", &corrupt_rate,
              "fraction of segment blocks to bit-flip after load (0..1)");
    flags.Add("join-node", &join_node,
              "membership drill: join one fresh empty node after load "
              "(streams its ring share over checksummed blocks)");
    flags.Add("decommission-node", &decommission_node,
              "membership drill: gracefully drain then remove this node "
              "(-1 = none)");
    flags.Add("perma-kill", &perma_kill,
              "membership drill: permanently fail this node and re-protect "
              "its partitions from the survivors (-1 = none)");
    flags.Add("migration-corrupt-rate", &migration_corrupt_rate,
              "probability each migration block frame gets a bit flipped "
              "in flight (0..1; checksums force re-sends)");
    flags.Add("deadline-ms", &deadline_ms,
              "virtual per-gather deadline; 0 disables it");
    flags.Add("max-attempts", &max_attempts,
              "read attempts per sub-query before giving up");
    flags.Add("hedge", &hedge,
              "race a duplicate read against the next replica on a spike");
    flags.Add("codec", &codec,
              "route sub-queries through encoded messages: tagged|compact");
    flags.Add("batch", &batch,
              "coalesce the scatter into one frame per node (needs --codec)");
    flags.Add("queue-depth", &queue_depth,
              "per-node request queue capacity (needs --codec)");
    flags.Add("workers-per-node", &workers_per_node,
              "worker threads draining each node's queue (needs --codec)");
    flags.Add("queue-policy", &queue_policy,
              "full-queue behavior: block|reject (needs --codec)");
    flags.Add("clients", &clients,
              "concurrent client threads sharing one runtime (needs --codec)");
    flags.Add("queries", &queries,
              "queries issued per client when --clients > 1");
    flags.Add("max-inflight", &max_inflight,
              "admission limit on concurrent queries; 0 = unlimited");
    flags.Add("admission-policy", &admission_policy,
              "behavior at the admission limit: block|reject");
    flags.Add("slow-query-us", &slow_query_us,
              "flight-recorder slow-query wall-time threshold in us "
              "(0 = off; degraded queries always count as slow)");
    flags.Add("flight-out", &flight_out,
              "write the per-query flight-recorder ring as JSONL");
    flags.Add("slow-log", &slow_log,
              "append slow/degraded query records as JSONL to this file");
    flags.Add("timeseries-out", &timeseries_out,
              "write per-gather metric time-series deltas as JSONL");
  }

  Status Validate(const CommonArgs& args) const {
    auto kind = ParseQueryKind(query);
    if (!kind.ok()) return kind.status();
    if (kind.value() != QueryKind::kScan &&
        (scan_start != 0 || scan_end != -1 || limit != 0)) {
      return Status::InvalidArgument(
          "--scan-start/--scan-end/--limit apply only to --query=scan");
    }
    if (kind.value() != QueryKind::kTopK && k != 0) {
      return Status::InvalidArgument("--k applies only to --query=topk");
    }
    if (kind.value() != QueryKind::kBox && (!box.empty() || level != 0)) {
      return Status::InvalidArgument(
          "--box/--level apply only to --query=box");
    }
    if (kind.value() == QueryKind::kScan) {
      if (scan_start < 0) {
        return Status::InvalidArgument("--scan-start must be >= 0");
      }
      if (scan_end < -1) {
        return Status::InvalidArgument(
            "--scan-end must be >= --scan-start (or -1 for unbounded)");
      }
      if (scan_end >= 0 && scan_end < scan_start) {
        return Status::InvalidArgument(
            "--scan-end " + std::to_string(scan_end) +
            " is below --scan-start " + std::to_string(scan_start));
      }
      if (limit < 0) return Status::InvalidArgument("--limit must be >= 0");
    }
    if (kind.value() == QueryKind::kTopK && k < 1) {
      return Status::InvalidArgument("--query=topk requires --k >= 1");
    }
    if (kind.value() == QueryKind::kBox) {
      if (box.empty()) {
        return Status::InvalidArgument(
            "--query=box requires --box=x0,y0,z0,x1,y1,z1");
      }
      auto parsed = ParseBoxSpec(box);
      if (!parsed.ok()) return parsed.status();
      if (level < 0 || level > 20) {
        return Status::InvalidArgument(
            "--level must be within [1, 20] (0 = default 4)");
      }
    }
    if (rounds < 1) return Status::InvalidArgument("--rounds must be >= 1");
    if (replication < 1 || replication > args.nodes) {
      return Status::InvalidArgument(
          "--replication must be between 1 and --nodes (" +
          std::to_string(args.nodes) + "), got " + std::to_string(replication));
    }
    if (fail_node >= args.nodes) {
      return Status::InvalidArgument(
          "--fail-node " + std::to_string(fail_node) +
          " is out of range: the cluster has only " +
          std::to_string(args.nodes) + " nodes");
    }
    if (fail_rate < 0.0 || fail_rate > 1.0) {
      return Status::InvalidArgument("--fail-rate must be within [0, 1]");
    }
    if (corrupt_rate < 0.0 || corrupt_rate > 1.0) {
      return Status::InvalidArgument("--corrupt-rate must be within [0, 1]");
    }
    if (migration_corrupt_rate < 0.0 || migration_corrupt_rate > 1.0) {
      return Status::InvalidArgument(
          "--migration-corrupt-rate must be within [0, 1]");
    }
    if (decommission_node >= args.nodes + (join_node ? 1 : 0)) {
      return Status::InvalidArgument(
          "--decommission-node " + std::to_string(decommission_node) +
          " is out of range for this run's node ids");
    }
    if (perma_kill >= args.nodes + (join_node ? 1 : 0)) {
      return Status::InvalidArgument(
          "--perma-kill " + std::to_string(perma_kill) +
          " is out of range for this run's node ids");
    }
    if (perma_kill >= 0 && perma_kill == decommission_node) {
      return Status::InvalidArgument(
          "--perma-kill and --decommission-node target the same node");
    }
    if (deadline_ms < 0.0) {
      return Status::InvalidArgument("--deadline-ms must be >= 0");
    }
    if (max_attempts < 1) {
      return Status::InvalidArgument("--max-attempts must be >= 1");
    }
    if (clients < 1) return Status::InvalidArgument("--clients must be >= 1");
    if (queries < 1) return Status::InvalidArgument("--queries must be >= 1");
    if (max_inflight < 0) {
      return Status::InvalidArgument("--max-inflight must be >= 0");
    }
    if (slow_query_us < 0.0) {
      return Status::InvalidArgument("--slow-query-us must be >= 0");
    }
    if (codec.empty()) {
      if (batch || queue_depth != 0 || workers_per_node != 0 ||
          !queue_policy.empty() || clients != 1 || max_inflight != 0 ||
          !admission_policy.empty()) {
        return Status::InvalidArgument(
            "--batch/--queue-depth/--workers-per-node/--queue-policy/"
            "--clients/--max-inflight/--admission-policy configure the "
            "message transport and require --codec {tagged,compact}");
      }
    } else {
      auto parsed = ParseWireCodec(codec);
      if (!parsed.ok()) return parsed.status();
      if (queue_depth < 0) {
        return Status::InvalidArgument("--queue-depth must be >= 1");
      }
      if (workers_per_node < 0) {
        return Status::InvalidArgument("--workers-per-node must be >= 1");
      }
      if (!queue_policy.empty()) {
        auto policy = ParseQueueFullPolicy(queue_policy);
        if (!policy.ok()) return policy.status();
      }
      if (!admission_policy.empty()) {
        auto policy = ParseQueueFullPolicy(admission_policy);
        if (!policy.ok()) return policy.status();
      }
    }
    return Status::Ok();
  }
};

/// Honours the gather observability flags; returns false (after printing
/// the error) if a requested export failed.
bool ExportGatherObservability(const GatherArgs& gather_args,
                               const FlightRecorder& flight,
                               const MetricsTimeSeries& timeseries) {
  if (gather_args.slow_query_us > 0.0 || !gather_args.slow_log.empty()) {
    std::printf("  flight recorder: %llu quer%s recorded, %llu slow/degraded"
                "%s%s\n",
                static_cast<unsigned long long>(flight.recorded()),
                flight.recorded() == 1 ? "y" : "ies",
                static_cast<unsigned long long>(flight.slow_queries()),
                gather_args.slow_log.empty() ? "" : " -> ",
                gather_args.slow_log.c_str());
  }
  if (!gather_args.flight_out.empty()) {
    const Status status = flight.WriteJsonl(gather_args.flight_out);
    if (!status.ok()) {
      std::fprintf(stderr, "--flight-out: %s\n", status.ToString().c_str());
      return false;
    }
    std::printf("wrote %zu flight records to %s\n", flight.size(),
                gather_args.flight_out.c_str());
  }
  if (!gather_args.timeseries_out.empty()) {
    const Status status = timeseries.WriteJsonl(gather_args.timeseries_out);
    if (!status.ok()) {
      std::fprintf(stderr, "--timeseries-out: %s\n",
                   status.ToString().c_str());
      return false;
    }
    std::printf("wrote %zu time-series samples to %s\n", timeseries.size(),
                gather_args.timeseries_out.c_str());
  }
  return true;
}

int CmdGather(CommonArgs& args, const GatherArgs& gather_args) {
  SpanTracer tracer;
  MetricsRegistry registry;

  StoreOptions store_options;
  store_options.metrics = &registry;
  InProcessCluster cluster(static_cast<uint32_t>(args.nodes),
                           PlacementKind::kDhtRandom, store_options,
                           static_cast<uint64_t>(gather_args.seed),
                           static_cast<uint32_t>(gather_args.replication));
  cluster.AttachTelemetry(&tracer, &registry);

  FlightRecorder::Options flight_options;
  flight_options.slow_query_us = gather_args.slow_query_us;
  flight_options.slow_log_path = gather_args.slow_log;
  FlightRecorder flight(flight_options);
  cluster.AttachFlightRecorder(&flight);
  MetricsTimeSeries timeseries(&registry);
  cluster.AttachTimeSeries(&timeseries);

  FaultConfig fault_config;
  fault_config.seed = static_cast<uint64_t>(gather_args.seed);
  fault_config.read_error_rate = gather_args.fail_rate;
  fault_config.migration_corrupt_rate = gather_args.migration_corrupt_rate;
  FaultInjector injector(fault_config);
  const bool chaos = gather_args.fail_node >= 0 ||
                     gather_args.fail_rate > 0.0 ||
                     gather_args.corrupt_rate > 0.0 ||
                     gather_args.migration_corrupt_rate > 0.0;
  if (chaos) cluster.AttachFaultInjector(&injector);

  const QueryKind kind = ParseQueryKind(gather_args.query).value();
  const WorkloadSpec workload = UniformWorkload(
      static_cast<uint64_t>(args.elements), static_cast<uint64_t>(args.keys));
  std::optional<D8Tree> tree;  // built only for --query=box
  const uint32_t tree_level = gather_args.level > 0
                                  ? static_cast<uint32_t>(gather_args.level)
                                  : 4u;
  if (kind == QueryKind::kBox) {
    // Box queries run against the D8tree's denormalized cube partitions,
    // not the uniform workload: every non-empty cube of every level is
    // one partition keyed by CubeKey(level, morton).
    AlyaParams params;
    params.particles = static_cast<uint64_t>(args.elements);
    params.seed = static_cast<uint64_t>(gather_args.seed);
    const std::vector<Particle> particles = GenerateAlyaParticles(params);
    tree.emplace(particles, tree_level);
    SpanTracer::Scope load = tracer.StartSpan("load", cluster.master_track());
    load.Attr("cubes", std::to_string(tree->AllCubes().size()));
    for (const D8Tree::CubeRef& cube : tree->AllCubes()) {
      const std::string key = CubeKey(cube.level, cube.morton);
      for (const uint64_t id : tree->CubeParticles(cube.level, cube.morton)) {
        Column column;
        column.clustering = id;
        column.type_id = particles[id].type;  // ids are dense indices
        column.payload = MakePayload(cube.morton, id, kParticlePayloadBytes);
        KV_CHECK(cluster.Put(workload.table, key, std::move(column)).ok());
      }
    }
    SpanTracer::Scope flush =
        tracer.StartSpan("flush-all", cluster.master_track());
    cluster.FlushAll();
  } else {
    SpanTracer::Scope load = tracer.StartSpan("load", cluster.master_track());
    load.Attr("partitions", std::to_string(workload.partitions.size()));
    uint64_t part_seed = 0;
    for (const PartitionRef& part : workload.partitions) {
      for (uint32_t j = 0; j < part.elements; ++j) {
        Column column;
        column.clustering = j;
        column.type_id = j % 8;
        column.payload = MakePayload(
            part_seed, j, static_cast<size_t>(gather_args.payload_bytes));
        KV_CHECK(cluster.Put(workload.table, part.key, std::move(column)).ok());
      }
      ++part_seed;
    }
    SpanTracer::Scope flush =
        tracer.StartSpan("flush-all", cluster.master_track());
    cluster.FlushAll();
  }

  if (gather_args.corrupt_rate > 0.0) {
    uint64_t corrupted = 0;
    for (uint32_t n = 0; n < cluster.node_count(); ++n) {
      auto table = cluster.node(n).FindTable(workload.table);
      if (table.ok()) {
        corrupted += injector.CorruptTableBlocks(*table.value(),
                                                 gather_args.corrupt_rate);
      }
    }
    std::printf("chaos: bit-flipped %llu segment blocks\n",
                static_cast<unsigned long long>(corrupted));
  }
  if (gather_args.fail_node >= 0) {
    cluster.KillNode(static_cast<NodeId>(gather_args.fail_node));
    std::printf("chaos: node %lld is down\n",
                static_cast<long long>(gather_args.fail_node));
  }

  // Membership drill: join, then drain, then unplanned loss — each op
  // streams ownership over checksummed blocks before routing flips, so
  // the gathers below read the post-churn cluster.
  const auto run_membership = [&](const char* what,
                                  Result<MembershipReport> change) {
    if (!change.ok()) {
      std::fprintf(stderr, "membership: %s failed: %s\n", what,
                   change.status().ToString().c_str());
      return false;
    }
    const MembershipReport& m = change.value();
    std::printf(
        "membership: %s node %u -> epoch %llu | streamed %llu partitions "
        "(%llu columns) in %llu blocks, %llu B | %llu block re-sends, "
        "%llu source failovers | repaired %llu, lost %llu | %s\n",
        what, m.node, static_cast<unsigned long long>(m.ring_epoch),
        static_cast<unsigned long long>(m.partitions_moved),
        static_cast<unsigned long long>(m.columns_moved),
        static_cast<unsigned long long>(m.blocks_streamed),
        static_cast<unsigned long long>(m.bytes_streamed),
        static_cast<unsigned long long>(m.block_retries),
        static_cast<unsigned long long>(m.source_failovers),
        static_cast<unsigned long long>(m.partitions_repaired),
        static_cast<unsigned long long>(m.partitions_lost),
        FormatMicros(m.wall_us).c_str());
    return true;
  };
  if (gather_args.join_node && !run_membership("joined", cluster.AddNode())) {
    return 1;
  }
  if (gather_args.decommission_node >= 0 &&
      !run_membership("decommissioned",
                      cluster.DecommissionNode(static_cast<NodeId>(
                          gather_args.decommission_node)))) {
    return 1;
  }
  if (gather_args.perma_kill >= 0 &&
      !run_membership("permanently failed",
                      cluster.FailNodePermanently(
                          static_cast<NodeId>(gather_args.perma_kill)))) {
    return 1;
  }

  QueryPlan plan;
  switch (kind) {
    case QueryKind::kCount:
      plan = MakeCountPlan(workload);
      break;
    case QueryKind::kScan: {
      ScanSpec spec;
      spec.start = static_cast<uint64_t>(gather_args.scan_start);
      spec.end = gather_args.scan_end < 0
                     ? UINT64_MAX
                     : static_cast<uint64_t>(gather_args.scan_end);
      spec.limit = static_cast<uint32_t>(gather_args.limit);
      plan = MakeScanPlan(workload, spec);
      break;
    }
    case QueryKind::kTopK: {
      TopKSpec spec;
      spec.k = static_cast<uint32_t>(gather_args.k);
      plan = MakeTopKPlan(workload, spec);
      break;
    }
    case QueryKind::kBox: {
      // Target cubes of roughly the mean size at the tree's deepest
      // level: the granularity the operator asked for with --level.
      const uint32_t target_keysize = static_cast<uint32_t>(std::max<uint64_t>(
          1, tree->particle_count() >> (3 * tree_level)));
      plan = MakeBoxPlan(*tree, workload.table,
                         ParseBoxSpec(gather_args.box).value(),
                         target_keysize);
      break;
    }
  }

  GatherOptions options;
  options.max_attempts = static_cast<uint32_t>(gather_args.max_attempts);
  options.hedge = gather_args.hedge;
  options.deadline_us = gather_args.deadline_ms * kMillisecond;

  StageTracer stages;
  if (!gather_args.codec.empty()) {
    options.transport = GatherTransport::kMessage;
    options.codec = ParseWireCodec(gather_args.codec).value();
    options.batch = gather_args.batch;
    if (gather_args.queue_depth > 0) {
      options.queue_depth = static_cast<uint32_t>(gather_args.queue_depth);
    }
    if (gather_args.workers_per_node > 0) {
      options.workers_per_node =
          static_cast<uint32_t>(gather_args.workers_per_node);
    }
    if (!gather_args.queue_policy.empty()) {
      options.queue_policy =
          ParseQueueFullPolicy(gather_args.queue_policy).value();
    }
    options.max_inflight = static_cast<uint32_t>(gather_args.max_inflight);
    if (!gather_args.admission_policy.empty()) {
      options.admission_policy =
          ParseQueueFullPolicy(gather_args.admission_policy).value();
    }
    cluster.AttachStageTracer(&stages);
  }

  if (gather_args.clients > 1) {
    // Multi-client mode: N threads hammer the shared runtime; the
    // figure of merit is queries/s at the master (paper Fig. 11).
    const ConcurrentGatherReport report = cluster.GatherConcurrent(
        plan, static_cast<uint32_t>(gather_args.clients),
        static_cast<uint32_t>(gather_args.queries), options);
    uint64_t failed = 0;
    for (const GatherResult& r : report.results) failed += r.failed;
    std::printf(
        "concurrent %s gather: %lld clients x %lld queries over %zu "
        "partitions (replication %lld, max-inflight %lld)\n",
        QueryKindName(kind).data(),
        static_cast<long long>(gather_args.clients),
        static_cast<long long>(gather_args.queries),
        plan.partitions.size(),
        static_cast<long long>(gather_args.replication),
        static_cast<long long>(gather_args.max_inflight));
    std::printf(
        "  %llu queries in %s: %.1f queries/s | admitted %llu, shed %llu | "
        "%llu failed sub-queries\n",
        static_cast<unsigned long long>(report.queries),
        FormatMicros(report.wall_us).c_str(), report.queries_per_sec,
        static_cast<unsigned long long>(report.admitted),
        static_cast<unsigned long long>(report.shed),
        static_cast<unsigned long long>(failed));
    std::printf("  runtime built %llu time%s for the whole run\n",
                static_cast<unsigned long long>(cluster.runtime_builds()),
                cluster.runtime_builds() == 1 ? "" : "s");
    std::printf("%s", registry.SummaryReport().c_str());
    const bool exported =
        ExportGatherObservability(gather_args, flight, timeseries) &&
        ExportTelemetry(args, tracer, registry);
    return exported ? 0 : 1;
  }

  GatherResult result;
  for (int64_t r = 0; r < gather_args.rounds; ++r) {
    result = cluster.Gather(plan, options);
  }

  uint64_t total = 0;
  for (const auto& [type, count] : result.totals) total += count;
  std::printf("real %s scatter/gather over %zu partitions x %lld rounds "
              "(%s transport, replication %lld):\n",
              QueryKindName(kind).data(), plan.partitions.size(),
              static_cast<long long>(gather_args.rounds),
              gather_args.codec.empty() ? "direct" : "message",
              static_cast<long long>(gather_args.replication));
  switch (kind) {
    case QueryKind::kCount:
      std::printf("  %llu elements counted across %zu types | %llu "
                  "partitions missing\n",
                  static_cast<unsigned long long>(total),
                  result.totals.size(),
                  static_cast<unsigned long long>(result.partitions_missing));
      break;
    case QueryKind::kScan:
      std::printf("  scan [%lld, %s] limit %lld -> %zu rows",
                  static_cast<long long>(gather_args.scan_start),
                  gather_args.scan_end < 0
                      ? "inf"
                      : std::to_string(gather_args.scan_end).c_str(),
                  static_cast<long long>(gather_args.limit),
                  result.rows.size());
      if (!result.rows.empty()) {
        std::printf(" (clustering %llu..%llu)",
                    static_cast<unsigned long long>(
                        result.rows.front().clustering),
                    static_cast<unsigned long long>(
                        result.rows.back().clustering));
      }
      std::printf(" | %llu partitions missing\n",
                  static_cast<unsigned long long>(result.partitions_missing));
      break;
    case QueryKind::kTopK:
      std::printf("  top-%lld -> %zu rows",
                  static_cast<long long>(gather_args.k), result.rows.size());
      if (!result.rows.empty()) {
        std::printf(" (clustering %llu down to %llu)",
                    static_cast<unsigned long long>(
                        result.rows.front().clustering),
                    static_cast<unsigned long long>(
                        result.rows.back().clustering));
      }
      std::printf(" | %llu partitions missing\n",
                  static_cast<unsigned long long>(result.partitions_missing));
      break;
    case QueryKind::kBox: {
      uint64_t boundary = 0;
      for (const auto& [type, count] : result.boundary_totals) {
        boundary += count;
      }
      std::printf("  %llu elements in fully-covered cubes (+%llu in "
                  "boundary cubes needing filtering) across %zu types\n",
                  static_cast<unsigned long long>(total),
                  static_cast<unsigned long long>(boundary),
                  result.totals.size());
      std::printf("  D8tree pruning: %llu partitions touched, %llu pruned "
                  "of %llu candidate cubes\n",
                  static_cast<unsigned long long>(result.partitions_touched),
                  static_cast<unsigned long long>(result.partitions_pruned),
                  static_cast<unsigned long long>(plan.candidate_partitions));
      break;
    }
  }
  std::printf("  sub-queries: %llu completed, %llu failed | %llu retries, "
              "%llu hedged%s\n",
              static_cast<unsigned long long>(result.completed),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.retries),
              static_cast<unsigned long long>(result.hedged),
              result.partial ? "  [PARTIAL RESULT]" : "");
  if (result.partial) {
    std::printf("  lost partitions: %zu (data unreachable on every replica)\n",
                result.lost_partitions.size());
  }
  if (!gather_args.codec.empty()) {
    std::printf("  wire (%s%s): %llu frames (+%llu reply frames), %llu B "
                "sent, %llu B received | encode %s, decode %s\n",
                gather_args.codec.c_str(),
                gather_args.batch ? ", batched" : "",
                static_cast<unsigned long long>(result.wire_frames_sent),
                static_cast<unsigned long long>(result.wire_frames_received),
                static_cast<unsigned long long>(result.wire_bytes_sent),
                static_cast<unsigned long long>(result.wire_bytes_received),
                FormatMicros(result.wire_encode_us).c_str(),
                FormatMicros(result.wire_decode_us).c_str());
    // The last round's real four-stage breakdown (Section V-B).
    std::printf("%s", stages.SummaryReport().c_str());
  }
  std::printf("%s", registry.SummaryReport().c_str());
  const bool exported =
      ExportGatherObservability(gather_args, flight, timeseries) &&
      ExportTelemetry(args, tracer, registry);
  return exported ? 0 : 1;
}

/// Flags of the batched replicated write drill (`kvscale put-bench`).
struct PutBenchArgs {
  int64_t batch = 0;           ///< keys per write batch (0 = one per node)
  std::string quorum = "all";  ///< all|majority|one
  int64_t clients = 1;         ///< concurrent writer threads
  int64_t payload_bytes = 30;
  int64_t seed = 42;
  int64_t replication = 1;
  int64_t fail_node = -1;        ///< -1 = no node killed
  double wal_error_rate = 0.0;   ///< per-(node,key) injected WAL failures
  std::string wal;               ///< WAL path prefix ("" = memory only)
  int64_t flush_watermark = 0;   ///< memtable bytes arming background flush
  int64_t max_epoch_retries = 2;
  std::string codec;             ///< "" = direct calls; tagged|compact = wire
  int64_t queue_depth = 0;       ///< 0 = runtime default
  int64_t workers_per_node = 0;  ///< 0 = runtime default
  int64_t max_inflight = 0;      ///< admission limit; 0 = unlimited
  bool verify = false;           ///< count-gather the table back afterwards

  void Register(CliFlags& flags) {
    flags.Add("batch", &batch,
              "keys per write batch — one group-commit Sync() each "
              "(0 = everything bound for a node in a single batch)");
    flags.Add("quorum", &quorum,
              "per-key ack policy: all|majority|one (default all)");
    flags.Add("clients", &clients,
              "concurrent writer threads splitting the partitions");
    flags.Add("payload-bytes", &payload_bytes, "payload bytes per column");
    flags.Add("seed", &seed, "placement + fault-injection seed");
    flags.Add("replication", &replication,
              "copies of every partition (1 = no fault tolerance)");
    flags.Add("fail-node", &fail_node,
              "kill this node before writing (-1 = none)");
    flags.Add("wal-error-rate", &wal_error_rate,
              "probability each (node, key) WAL write is refused (0..1)");
    flags.Add("wal",
              &wal,
              "write-ahead-log path prefix; node n logs to <wal>.node<n> "
              "(empty = in-memory only, no group commit to amortize)");
    flags.Add("flush-watermark", &flush_watermark,
              "memtable bytes at which the write handler schedules a "
              "background flush on the node's workers (needs --codec; "
              "0 = never)");
    flags.Add("max-epoch-retries", &max_epoch_retries,
              "re-dispatch rounds allowed after a ring-epoch bump");
    flags.Add("codec", &codec,
              "send WriteBatch frames through the runtime: tagged|compact");
    flags.Add("queue-depth", &queue_depth,
              "per-node request queue capacity (needs --codec)");
    flags.Add("workers-per-node", &workers_per_node,
              "worker threads draining each node's queue (needs --codec)");
    flags.Add("max-inflight", &max_inflight,
              "admission limit on concurrent writes; 0 = unlimited");
    flags.Add("verify", &verify,
              "count-gather the table afterwards and check the totals");
  }

  Status Validate(const CommonArgs& args) const {
    auto parsed_quorum = ParsePutQuorum(quorum);
    if (!parsed_quorum.ok()) return parsed_quorum.status();
    if (batch < 0) return Status::InvalidArgument("--batch must be >= 0");
    if (clients < 1) return Status::InvalidArgument("--clients must be >= 1");
    if (payload_bytes < 1) {
      return Status::InvalidArgument("--payload-bytes must be >= 1");
    }
    if (replication < 1 || replication > args.nodes) {
      return Status::InvalidArgument(
          "--replication must be between 1 and --nodes (" +
          std::to_string(args.nodes) + "), got " + std::to_string(replication));
    }
    if (fail_node >= args.nodes) {
      return Status::InvalidArgument(
          "--fail-node " + std::to_string(fail_node) +
          " is out of range: the cluster has only " +
          std::to_string(args.nodes) + " nodes");
    }
    if (wal_error_rate < 0.0 || wal_error_rate > 1.0) {
      return Status::InvalidArgument("--wal-error-rate must be within [0, 1]");
    }
    if (wal_error_rate > 0.0 && wal.empty()) {
      return Status::InvalidArgument("--wal-error-rate needs --wal=PREFIX");
    }
    if (max_epoch_retries < 0) {
      return Status::InvalidArgument("--max-epoch-retries must be >= 0");
    }
    if (max_inflight < 0) {
      return Status::InvalidArgument("--max-inflight must be >= 0");
    }
    if (codec.empty()) {
      if (queue_depth != 0 || workers_per_node != 0 || max_inflight != 0 ||
          flush_watermark != 0) {
        return Status::InvalidArgument(
            "--queue-depth/--workers-per-node/--max-inflight/"
            "--flush-watermark configure the message transport and require "
            "--codec {tagged,compact}");
      }
    } else {
      auto parsed = ParseWireCodec(codec);
      if (!parsed.ok()) return parsed.status();
      if (queue_depth < 0) {
        return Status::InvalidArgument("--queue-depth must be >= 0");
      }
      if (workers_per_node < 0) {
        return Status::InvalidArgument("--workers-per-node must be >= 0");
      }
      if (flush_watermark < 0) {
        return Status::InvalidArgument("--flush-watermark must be >= 0");
      }
    }
    return Status::Ok();
  }
};

int CmdPutBench(CommonArgs& args, const PutBenchArgs& put_args) {
  SpanTracer tracer;
  MetricsRegistry registry;

  StoreOptions store_options;
  store_options.metrics = &registry;
  store_options.wal_path = put_args.wal;
  InProcessCluster cluster(static_cast<uint32_t>(args.nodes),
                           PlacementKind::kDhtRandom, store_options,
                           static_cast<uint64_t>(put_args.seed),
                           static_cast<uint32_t>(put_args.replication));
  cluster.AttachTelemetry(&tracer, &registry);

  FaultConfig fault_config;
  fault_config.seed = static_cast<uint64_t>(put_args.seed);
  fault_config.wal_error_rate = put_args.wal_error_rate;
  FaultInjector injector(fault_config);
  const bool chaos =
      put_args.fail_node >= 0 || put_args.wal_error_rate > 0.0;
  if (chaos) cluster.AttachFaultInjector(&injector);
  if (put_args.fail_node >= 0) {
    cluster.KillNode(static_cast<NodeId>(put_args.fail_node));
    std::printf("chaos: node %lld is down\n",
                static_cast<long long>(put_args.fail_node));
  }

  PutOptions options;
  options.quorum = ParsePutQuorum(put_args.quorum).value();
  options.batch = static_cast<uint32_t>(put_args.batch);
  options.max_epoch_retries =
      static_cast<uint32_t>(put_args.max_epoch_retries);
  if (!put_args.codec.empty()) {
    options.transport = GatherTransport::kMessage;
    options.codec = ParseWireCodec(put_args.codec).value();
    if (put_args.queue_depth > 0) {
      options.queue_depth = static_cast<uint32_t>(put_args.queue_depth);
    }
    if (put_args.workers_per_node > 0) {
      options.workers_per_node =
          static_cast<uint32_t>(put_args.workers_per_node);
    }
    options.max_inflight = static_cast<uint32_t>(put_args.max_inflight);
    options.flush_watermark_bytes =
        static_cast<uint64_t>(put_args.flush_watermark);
  }

  // Each client thread writes a contiguous stripe of the workload's
  // partitions as one PutBatch — the write-side Fig. 11 drill: N threads
  // hammering the shared runtime with group-committed batches.
  const WorkloadSpec workload = UniformWorkload(
      static_cast<uint64_t>(args.elements), static_cast<uint64_t>(args.keys));
  const size_t parts = workload.partitions.size();
  const size_t clients =
      std::min<size_t>(static_cast<size_t>(put_args.clients), parts);
  std::vector<PutResult> results(clients);
  {
    SpanTracer::Scope span =
        tracer.StartSpan("put-bench", cluster.master_track());
    std::vector<std::thread> writers;
    writers.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      writers.emplace_back([&, c] {
        const size_t begin = parts * c / clients;
        const size_t end = parts * (c + 1) / clients;
        std::vector<BatchPutItem> items;
        for (size_t i = begin; i < end; ++i) {
          const PartitionRef& part = workload.partitions[i];
          for (uint32_t j = 0; j < part.elements; ++j) {
            BatchPutItem item;
            item.partition_key = part.key;
            item.column.clustering = j;
            item.column.type_id = j % 8;
            item.column.payload = MakePayload(
                i, j, static_cast<size_t>(put_args.payload_bytes));
            items.push_back(std::move(item));
          }
        }
        results[c] = cluster.PutBatch(workload.table, std::move(items),
                                      options);
      });
    }
    for (std::thread& t : writers) t.join();
  }

  PutResult total;
  for (const PutResult& r : results) {
    total.keys += r.keys;
    total.replica_writes += r.replica_writes;
    total.replica_acks += r.replica_acks;
    total.replica_failures += r.replica_failures;
    total.keys_quorum_met += r.keys_quorum_met;
    total.keys_quorum_failed += r.keys_quorum_failed;
    total.batches_sent += r.batches_sent;
    total.sync_failures += r.sync_failures;
    total.epoch_retries += r.epoch_retries;
    total.shed_by_admission |= r.shed_by_admission;
    if (total.first_error.ok()) total.first_error = r.first_error;
    // Clients run concurrently: elapsed is the slowest stripe.
    total.wall_us = std::max(total.wall_us, r.wall_us);
    total.wire_frames_sent += r.wire_frames_sent;
    total.wire_bytes_sent += r.wire_bytes_sent;
    total.wire_bytes_received += r.wire_bytes_received;
    total.wire_encode_us += r.wire_encode_us;
    total.wire_decode_us += r.wire_decode_us;
  }

  std::printf(
      "batched replicated put: %zu partitions x %lld columns over %zu "
      "client%s (replication %lld, quorum %s, batch %lld%s)\n",
      parts, static_cast<long long>(args.elements / args.keys), clients,
      clients == 1 ? "" : "s", static_cast<long long>(put_args.replication),
      PutQuorumName(options.quorum).data(),
      static_cast<long long>(put_args.batch),
      put_args.wal.empty() ? "" : ", durable");
  std::printf(
      "  %llu keys in %s: %.1f keys/s | %llu batches, %llu replica writes "
      "= %llu acked + %llu failed | %llu sync failures, %llu epoch "
      "retries\n",
      static_cast<unsigned long long>(total.keys),
      FormatMicros(total.wall_us).c_str(),
      total.wall_us > 0.0 ? static_cast<double>(total.keys) /
                                (total.wall_us / 1e6)
                          : 0.0,
      static_cast<unsigned long long>(total.batches_sent),
      static_cast<unsigned long long>(total.replica_writes),
      static_cast<unsigned long long>(total.replica_acks),
      static_cast<unsigned long long>(total.replica_failures),
      static_cast<unsigned long long>(total.sync_failures),
      static_cast<unsigned long long>(total.epoch_retries));
  std::printf("  quorum: %llu keys met, %llu failed%s\n",
              static_cast<unsigned long long>(total.keys_quorum_met),
              static_cast<unsigned long long>(total.keys_quorum_failed),
              total.shed_by_admission ? "  [SHED BY ADMISSION]" : "");
  if (!total.first_error.ok()) {
    std::printf("  first replica refusal: %s\n",
                total.first_error.ToString().c_str());
  }
  if (!put_args.codec.empty()) {
    std::printf("  wire (%s): %llu frames, %llu B sent, %llu B received | "
                "encode %s, decode %s\n",
                put_args.codec.c_str(),
                static_cast<unsigned long long>(total.wire_frames_sent),
                static_cast<unsigned long long>(total.wire_bytes_sent),
                static_cast<unsigned long long>(total.wire_bytes_received),
                FormatMicros(total.wire_encode_us).c_str(),
                FormatMicros(total.wire_decode_us).c_str());
  }

  // The books must balance no matter what chaos did: every attempted
  // replica write is an ack or a failure, and every key got a verdict.
  if (total.replica_acks + total.replica_failures != total.replica_writes ||
      total.keys_quorum_met + total.keys_quorum_failed != total.keys) {
    std::fprintf(stderr,
                 "put-bench: accounting violation (acks %llu + failures "
                 "%llu != writes %llu, or quorum verdicts != keys)\n",
                 static_cast<unsigned long long>(total.replica_acks),
                 static_cast<unsigned long long>(total.replica_failures),
                 static_cast<unsigned long long>(total.replica_writes));
    return 1;
  }

  bool verified = true;
  if (put_args.verify) {
    cluster.FlushAll();
    const GatherResult readback = cluster.Gather(MakeCountPlan(workload));
    uint64_t counted = 0;
    for (const auto& [type, count] : readback.totals) counted += count;
    const uint64_t expected = static_cast<uint64_t>(args.elements);
    // Under chaos a key can miss quorum yet the gather still reads a
    // surviving replica, so only the healthy run pins the exact total.
    verified = chaos ? readback.completed > 0 : counted == expected;
    std::printf("  verify: count-gather found %llu of %llu columns "
                "(%llu partitions missing) -> %s\n",
                static_cast<unsigned long long>(counted),
                static_cast<unsigned long long>(expected),
                static_cast<unsigned long long>(readback.partitions_missing),
                verified ? "ok" : "MISMATCH");
  }

  std::printf("%s", registry.SummaryReport().c_str());
  if (!ExportTelemetry(args, tracer, registry)) return 1;
  if (!verified) return 1;
  // Healthy runs must land every copy; chaos runs only owe us balanced
  // books (checked above) and are reported, not failed.
  return (chaos || total.ok()) ? 0 : 1;
}

void PrintUsage() {
  std::printf(
      "kvscale <command> [flags]\n"
      "commands:\n"
      "  predict    Formula 2 breakdown for (elements, keys, nodes)\n"
      "  optimize   best partition count for the cluster\n"
      "  sweep      query time vs node count + master saturation point\n"
      "  simulate   one virtual-time run of the master/slave prototype\n"
      "  bands      Monte-Carlo percentile bands of the prediction\n"
      "  gather     real scatter/gather over in-process stores, with\n"
      "             store/cluster telemetry (try --rounds 2 for cache hits);\n"
      "             query flags: --query {count,scan,topk,box}\n"
      "             --scan-start --scan-end --limit (scan) | --k (topk)\n"
      "             --box=x0,y0,z0,x1,y1,z1 --level (box)\n"
      "             chaos flags: --replication --fail-node --fail-rate\n"
      "             --corrupt-rate --deadline-ms --max-attempts --hedge\n"
      "             membership flags: --join-node --decommission-node\n"
      "             --perma-kill --migration-corrupt-rate\n"
      "             wire flags: --codec {tagged,compact} --batch\n"
      "             --queue-depth --workers-per-node --queue-policy\n"
      "             multi-query flags: --clients --queries --max-inflight\n"
      "             --admission-policy {block,reject}\n"
      "             observability flags: --slow-query-us --slow-log=FILE\n"
      "             --flight-out=FILE --timeseries-out=FILE\n"
      "  put-bench  batched replicated writes through the same cluster:\n"
      "             --batch --quorum {all,majority,one} --clients\n"
      "             --replication --wal=PREFIX --wal-error-rate\n"
      "             --fail-node --codec {tagged,compact} --queue-depth\n"
      "             --workers-per-node --max-inflight --flush-watermark\n"
      "             --verify\n"
      "common flags: --elements --keys --nodes --t-msg-us --device\n"
      "              --trace-out=FILE --metrics-out=FILE\n"
      "see each command's --help for its extras.\n");
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 1;
  }
  const std::string command = argv[1];
  CommonArgs args;
  CliFlags flags;
  args.Register(flags);

  // Every command resolves --device up front; the discarded ResolveDevice
  // calls deeper in (BuildModel, CmdSimulate) rely on this.
  const auto parse = [&]() {
    if (!flags.Parse(argc - 1, argv + 1)) return false;
    DeviceModel probe;
    return args.ResolveDevice(probe);
  };

  if (command == "predict") {
    if (!parse()) return 1;
    return CmdPredict(args);
  }
  if (command == "optimize") {
    if (!parse()) return 1;
    return CmdOptimize(args);
  }
  if (command == "sweep") {
    int64_t max_nodes = 128;
    flags.Add("max-nodes", &max_nodes, "largest cluster evaluated");
    if (!parse()) return 1;
    return CmdSweep(args, max_nodes);
  }
  if (command == "simulate") {
    bool slow_master = false;
    int64_t seed = 42;
    flags.Add("slow-master", &slow_master,
              "use the java-default 150 us/message profile");
    flags.Add("seed", &seed, "simulation seed");
    if (!parse()) return 1;
    return CmdSimulate(args, slow_master, seed);
  }
  if (command == "bands") {
    int64_t trials = 1000;
    flags.Add("trials", &trials, "Monte-Carlo draws");
    if (!parse()) return 1;
    return CmdBands(args, trials);
  }
  if (command == "gather") {
    GatherArgs gather_args;
    gather_args.Register(flags);
    if (!parse()) return 1;
    const Status valid = gather_args.Validate(args);
    if (!valid.ok()) {
      std::fprintf(stderr, "%s\n", valid.ToString().c_str());
      return 1;
    }
    return CmdGather(args, gather_args);
  }
  if (command == "put-bench") {
    PutBenchArgs put_args;
    put_args.Register(flags);
    if (!parse()) return 1;
    const Status valid = put_args.Validate(args);
    if (!valid.ok()) {
      std::fprintf(stderr, "%s\n", valid.ToString().c_str());
      return 1;
    }
    return CmdPutBench(args, put_args);
  }
  if (command == "--help" || command == "help" || command == "-h") {
    PrintUsage();
    return 0;
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  PrintUsage();
  return 1;
}

}  // namespace
}  // namespace kvscale

int main(int argc, char** argv) { return kvscale::Main(argc, argv); }
