// perfbench_selftest: the benchmark's own tests.
//
//   perfbench_selftest WORK_DIR
//
// Pins the three rules the benchmark's numbers rest on: a percentile needs
// ten samples beyond it, shed and partial operations count as failures,
// and a wrong expected answer fails the run. Exit code 0 when all pass.
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "oracle.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> out;
  for (size_t i = 1; i <= n; ++i) out.push_back(static_cast<double>(i));
  return out;
}

void PercentileNeedsTenBeyond() {
  using perfbench::TailPercentile;
  Expect(!TailPercentile(Ramp(999), 0.99).ok(),
         "p99 of 999 samples is refused (9.99 beyond it)");
  Expect(TailPercentile(Ramp(1000), 0.99).ok(),
         "p99 of 1000 samples is reported (10 beyond it)");
  Expect(!TailPercentile(Ramp(19), 0.5).ok(),
         "p50 of 19 samples is refused");
  const auto p50 = TailPercentile(Ramp(21), 0.5);
  Expect(p50.ok() && p50.value() == 11.0, "p50 of 1..21 is 11");
  const auto p99 = TailPercentile(Ramp(2001), 0.99);
  Expect(p99.ok() && p99.value() == 1981.0, "p99 of 1..2001 is 1981");
  Expect(perfbench::Median(Ramp(4)) == 2.5, "median of 1..4 is 2.5");
}

void ShedAndPartialCountAsFailures() {
  kvscale::GatherResult healthy;
  healthy.subqueries = 4;
  healthy.completed = 4;
  kvscale::GatherResult shed = healthy;
  shed.shed_by_admission = true;
  kvscale::GatherResult partial = healthy;
  partial.completed = 3;
  partial.failed = 1;
  partial.partial = true;
  kvscale::GatherResult unbalanced = healthy;
  unbalanced.completed = 3;  // completed + failed != subqueries

  perfbench::OpTally tally;
  tally.CountGather(healthy, true);
  Expect(tally.failed == 0, "a healthy, correct gather is no failure");
  tally.CountGather(shed, true);
  tally.CountGather(partial, true);
  tally.CountGather(unbalanced, true);
  tally.CountGather(healthy, false);
  Expect(tally.attempted == 5 && tally.failed == 4,
         "shed, partial, unbalanced and wrong gathers all fail");
  Expect(tally.ErrorRate() == 0.8, "error rate = failed / attempted");

  kvscale::PutResult put;
  put.keys = 2;
  put.replica_writes = 4;
  put.replica_acks = 4;
  put.keys_quorum_met = 2;
  kvscale::PutResult short_quorum = put;
  short_quorum.replica_acks = 2;
  short_quorum.replica_failures = 2;
  short_quorum.keys_quorum_met = 1;
  short_quorum.keys_quorum_failed = 1;
  kvscale::PutResult shed_put = put;
  shed_put.shed_by_admission = true;
  kvscale::PutResult lost_ack = put;
  lost_ack.replica_acks = 3;  // acks + failures != replica_writes
  perfbench::OpTally puts;
  puts.CountPut(put);
  puts.CountPut(short_quorum);
  puts.CountPut(shed_put);
  puts.CountPut(lost_ack);
  Expect(puts.attempted == 4 && puts.failed == 3,
         "quorum-failed, shed and unaccounted puts all fail");
}

void OracleCatchesWrongAnswers() {
  std::vector<perfbench::GenPartition> parts = {
      {"a", {{1, 0}, {5, 1}, {9, 1}}},
      {"b", {{2, 1}, {5, 2}, {7, 0}}},
  };
  const perfbench::Expected count = perfbench::ExpectCount(parts);
  kvscale::GatherResult result;
  result.totals = {{0, 2}, {1, 3}, {2, 1}};
  Expect(perfbench::CompareAnswer(result, count).empty(),
         "a correct count answer passes");
  perfbench::Expected wrong = count;
  ++wrong.totals[2];
  Expect(!perfbench::CompareAnswer(result, wrong).empty(),
         "one wrong expected count fails the comparison");

  kvscale::ScanSpec scan;
  scan.start = 2;
  scan.end = 8;
  scan.limit = 3;
  const perfbench::Expected rows = perfbench::ExpectScan(parts, scan);
  const std::vector<kvscale::QueryRow> want = {{2, 1}, {5, 1}, {5, 2}};
  Expect(rows.rows == want, "scan merges ascending and applies the limit");
  kvscale::TopKSpec topk;
  topk.k = 2;
  const std::vector<kvscale::QueryRow> top = {{9, 1}, {7, 0}};
  Expect(perfbench::ExpectTopK(parts, topk).rows == top,
         "top-k merges descending and keeps k");
}

void WrongExpectedAnswerFailsTheRun(const std::string& work_dir) {
  perfbench::RunConfig config;
  config.workload = "fine_count";
  config.seed = 7;
  config.seconds = 0.3;
  config.work_dir = work_dir;
  const perfbench::RunReport honest = perfbench::RunBenchmark(config);
  Expect(honest.tally.attempted > 0 && honest.tally.failed == 0,
         "a real run with the true oracle has no failed operation");
  config.corrupt_oracle = true;
  const perfbench::RunReport corrupted = perfbench::RunBenchmark(config);
  Expect(!corrupted.correct && corrupted.tally.failed > 0,
         "one falsified expected answer fails the run");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest WORK_DIR\n");
    return 2;
  }
  PercentileNeedsTenBeyond();
  ShedAndPartialCountAsFailures();
  OracleCatchesWrongAnswers();
  WrongExpectedAnswerFailsTheRun(argv[1]);
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
