// The correctness oracle: answers computed from the benchmark's own
// generated rows, never from the program under test.
//
// Count, scan and top-k answers are derived from the rows the benchmark
// generated and wrote; box answers from per-cube counts of the generated
// particle cloud. A gather whose folded answer differs from the
// expectation counts as a failed operation and fails the run.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "cluster/query_plan.hpp"

namespace perfbench {

/// One generated partition: its key and its rows in ascending clustering
/// order (the payload bytes are re-derived at load time, not kept).
struct GenPartition {
  std::string key;
  std::vector<kvscale::QueryRow> rows;
};

/// The answer a correct gather must fold to.
struct Expected {
  kvscale::QueryKind kind = kvscale::QueryKind::kCount;
  kvscale::TypeCounts totals;            ///< count / box interior
  kvscale::TypeCounts boundary_totals;   ///< box boundary cubes
  std::vector<kvscale::QueryRow> rows;   ///< scan / top-k merged rows
};

/// Per-type element counts over `parts`.
Expected ExpectCount(std::span<const GenPartition> parts);

/// Rows with clustering in [start, end], at most `limit` per partition,
/// merged ascending (ties by type id) and cut to `limit`.
Expected ExpectScan(std::span<const GenPartition> parts,
                    const kvscale::ScanSpec& spec);

/// Each partition's `k` largest clustering keys, merged descending (ties
/// by type id) and cut to `k`.
Expected ExpectTopK(std::span<const GenPartition> parts,
                    const kvscale::TopKSpec& spec);

/// A box plan's interior and boundary per-type counts, summed from
/// `cube_counts` (cube key -> per-type counts of the generated cloud).
Expected ExpectBox(const kvscale::QueryPlan& plan,
                   const std::map<std::string, kvscale::TypeCounts>&
                       cube_counts);

/// Empty when `result` folded to `expected`, otherwise a one-line
/// description of the first difference.
std::string CompareAnswer(const kvscale::GatherResult& result,
                          const Expected& expected);

}  // namespace perfbench
