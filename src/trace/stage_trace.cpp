#include "trace/stage_trace.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/table_printer.hpp"

namespace kvscale {

Micros StageTracer::Makespan() const {
  if (traces_.empty()) return 0.0;
  Micros first = traces_.front().issued;
  Micros last = traces_.front().completed;
  for (const auto& t : traces_) {
    first = std::min(first, t.issued);
    last = std::max(last, t.completed);
  }
  return last - first;
}

RunningSummary StageTracer::StageSummary(Stage stage) const {
  RunningSummary summary;
  for (const auto& t : traces_) summary.Add(t.StageDuration(stage));
  return summary;
}

RunningSummary StageTracer::StageSummaryForNode(Stage stage,
                                                uint32_t node) const {
  RunningSummary summary;
  for (const auto& t : traces_) {
    if (t.node == node) summary.Add(t.StageDuration(stage));
  }
  return summary;
}

std::vector<double> StageTracer::StageDurations(Stage stage) const {
  std::vector<double> durations;
  durations.reserve(traces_.size());
  for (const auto& t : traces_) durations.push_back(t.StageDuration(stage));
  return durations;
}

std::vector<uint64_t> StageTracer::RequestsPerNode() const {
  uint32_t max_node = 0;
  for (const auto& t : traces_) max_node = std::max(max_node, t.node);
  std::vector<uint64_t> counts(traces_.empty() ? 0 : max_node + 1, 0);
  for (const auto& t : traces_) ++counts[t.node];
  return counts;
}

std::vector<Micros> StageTracer::NodeFinishTimes() const {
  uint32_t max_node = 0;
  for (const auto& t : traces_) max_node = std::max(max_node, t.node);
  std::vector<Micros> finish(traces_.empty() ? 0 : max_node + 1, 0.0);
  for (const auto& t : traces_) {
    finish[t.node] = std::max(finish[t.node], t.db_end);
  }
  return finish;
}

std::string StageTracer::SummaryReport() const {
  TablePrinter table({"stage", "mean", "sd", "p50", "p95", "p99", "min",
                      "max"});
  for (size_t s = 0; s < kStageCount; ++s) {
    const auto stage = static_cast<Stage>(s);
    const RunningSummary summary = StageSummary(stage);
    std::vector<double> durations = StageDurations(stage);
    std::sort(durations.begin(), durations.end());
    const bool empty = durations.empty();
    table.AddRow({std::string(StageName(stage)), FormatMicros(summary.mean()),
                  FormatMicros(summary.stddev()),
                  empty ? "-" : FormatMicros(PercentileSorted(durations, 0.50)),
                  empty ? "-" : FormatMicros(PercentileSorted(durations, 0.95)),
                  empty ? "-" : FormatMicros(PercentileSorted(durations, 0.99)),
                  FormatMicros(summary.min()), FormatMicros(summary.max())});
  }
  return table.ToString();
}

}  // namespace kvscale
