#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

using kvscale::GatherResult;
using kvscale::PutResult;
using kvscale::Result;
using kvscale::Status;

Result<double> TailPercentile(std::vector<double> samples, double q) {
  if (!(q > 0.0 && q < 1.0)) {
    return Status::InvalidArgument("percentile must lie in (0, 1)");
  }
  const double beyond = static_cast<double>(samples.size()) * (1.0 - q);
  if (beyond + 1e-9 < static_cast<double>(kMinTailSamples)) {
    return Status::FailedPrecondition(
        "p" + std::to_string(q * 100.0) + " of " +
        std::to_string(samples.size()) + " samples leaves fewer than " +
        std::to_string(kMinTailSamples) + " beyond it");
  }
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return (samples[mid - 1] + samples[mid]) / 2.0;
}

bool GatherHealthy(const GatherResult& result) {
  return !result.shed_by_admission && !result.partial && result.failed == 0 &&
         result.completed + result.failed == result.subqueries;
}

bool PutHealthy(const PutResult& result) {
  return result.ok() &&
         result.replica_acks + result.replica_failures ==
             result.replica_writes;
}

void OpTally::CountGather(const GatherResult& result, bool answer_ok) {
  CountCheck(GatherHealthy(result) && answer_ok);
}

void OpTally::CountPut(const PutResult& result) {
  CountCheck(PutHealthy(result));
}

void OpTally::CountCheck(bool ok) {
  ++attempted;
  if (!ok) ++failed;
}

double OpTally::ErrorRate() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

}  // namespace perfbench
