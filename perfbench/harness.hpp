// The benchmark harness: seeded workloads run closed-loop against a real
// InProcessCluster over the message transport.
//
// An untraced run sets the cluster up several times (the median is
// setup_s), keeps the last deployment, drives the workload's clients for
// the requested seconds, checks every answer against the oracle, and
// reports the end-to-end metrics. A traced run repeats the workload on a
// deployment with a MetricsRegistry and a StageTracer attached, then
// replays the workload's own requests through each layer's public
// functions under benchmark-side spans, and reports the per-layer
// metrics. See perfbench/README.md for the workload and metric tables.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for WAL files, created when missing; every file
  /// the run puts there is removed before RunBenchmark returns.
  std::string work_dir;
  /// Chrome-trace output of a traced run (empty = none).
  std::string trace_out;
  /// Self-test hook: falsifies one expected answer, so a correct program
  /// must fail the run.
  bool corrupt_oracle = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  OpTally tally;
  std::vector<Metric> metrics;
  /// Host fingerprint and workload sizes, printed before the result.
  std::vector<std::pair<std::string, std::string>> host;
  /// Why the run is not correct (one line each).
  std::vector<std::string> errors;
};

/// Runs one workload. Unknown workload names come back as an error in
/// the report (correct = false, no metrics).
RunReport RunBenchmark(const RunConfig& config);

/// The result line of the benchmark contract: one JSON object with
/// exactly correct, attempted, failed and metrics.
std::string ResultJson(const RunReport& report);

}  // namespace perfbench
