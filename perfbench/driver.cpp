// perfbench_driver: runs one benchmark workload and prints its result.
//
//   perfbench_driver --workload=fine_count --seed=1 --seconds=10 --trace=0
//                    --work-dir=DIR [--trace-out=FILE]
//
// stdout: a "host {...}" fingerprint line, then the result JSON as the last
// line. Exit code 0 when every answer was correct, 1 when any operation
// failed or any answer was wrong, 2 on a usage error. perfbench/run.py
// builds this binary and is the documented entry point.
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "harness.hpp"

int main(int argc, char** argv) {
  std::string workload;
  int64_t seed = 1;
  double seconds = 10.0;
  int64_t trace = 0;
  std::string work_dir;
  std::string trace_out;
  bool corrupt_oracle = false;
  kvscale::CliFlags flags;
  flags.Add("workload", &workload, "fine_count | coarse_mix | ingest_read");
  flags.Add("seed", &seed, "workload seed (inputs derive only from it)");
  flags.Add("seconds", &seconds, "length of the timed phase");
  flags.Add("trace", &trace, "0 = end-to-end metrics, 1 = per-layer metrics");
  flags.Add("work-dir", &work_dir, "scratch directory for WAL files");
  flags.Add("trace-out", &trace_out, "Chrome trace of a traced run");
  flags.Add("corrupt-oracle", &corrupt_oracle,
            "self-test: falsify one expected answer");
  if (!flags.Parse(argc, argv)) return 2;
  if (workload.empty() || work_dir.empty() || seconds <= 0.0 ||
      (trace != 0 && trace != 1) || seed < 0) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload=NAME --seed=N "
                 "--seconds=S --trace=0|1 --work-dir=DIR\n");
    return 2;
  }

  perfbench::RunConfig config;
  config.workload = workload;
  config.seed = static_cast<uint64_t>(seed);
  config.seconds = seconds;
  config.trace = trace == 1;
  config.work_dir = work_dir;
  config.trace_out = trace_out;
  config.corrupt_oracle = corrupt_oracle;
  const perfbench::RunReport report = perfbench::RunBenchmark(config);

  std::string host = "host {";
  for (size_t i = 0; i < report.host.size(); ++i) {
    if (i > 0) host += ", ";
    host += "\"" + report.host[i].first + "\": \"" + report.host[i].second +
            "\"";
  }
  std::printf("%s}\n", host.c_str());
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  }
  std::printf("%s\n", perfbench::ResultJson(report).c_str());
  return report.correct ? 0 : 1;
}
