// Order statistics and failure accounting for the benchmark.
//
// Two rules from the benchmark's contract live here so the self-tests can
// pin them: a percentile is only reported when at least ten samples lie
// beyond it, and an operation that was shed, came back partial, or
// returned a wrong answer counts as failed — never as a fast success.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/in_process_cluster.hpp"
#include "common/status.hpp"

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr uint64_t kMinTailSamples = 10;

/// The `q` quantile (0 < q < 1) of `samples`, by linear interpolation
/// between order statistics. Refuses with kFailedPrecondition when fewer
/// than kMinTailSamples samples lie beyond it: a p99 of 500 samples is
/// the fifth-largest value, not a percentile anyone can compare.
kvscale::Result<double> TailPercentile(std::vector<double> samples, double q);

/// Median of `samples` (0 when empty).
double Median(std::vector<double> samples);

/// Attempted / failed tally of one run. Every operation the benchmark
/// issues goes through exactly one Count* call.
struct OpTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// One gather: failed when shed at admission, partial, any sub-query
  /// failed, the accounting identity broke, or the answer was wrong.
  void CountGather(const kvscale::GatherResult& result, bool answer_ok);

  /// One PutBatch: failed when any key missed its quorum, the batch was
  /// shed, or replica_acks + replica_failures != replica_writes.
  void CountPut(const kvscale::PutResult& result);

  /// One check with no result object (read-back, runtime reuse).
  void CountCheck(bool ok);

  /// failed / attempted (0 when nothing was attempted).
  double ErrorRate() const;
};

/// True when the gather's degraded-result report is clean: not shed, not
/// partial, nothing failed, and completed + failed == subqueries.
bool GatherHealthy(const kvscale::GatherResult& result);

/// True when the put met its quorum on every key, was not shed, and
/// replica_acks + replica_failures == replica_writes.
bool PutHealthy(const kvscale::PutResult& result);

}  // namespace perfbench
