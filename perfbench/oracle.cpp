#include "oracle.hpp"

#include <algorithm>

namespace perfbench {

using kvscale::QueryKind;
using kvscale::QueryRow;
using kvscale::TypeCounts;

namespace {

bool Ascending(const QueryRow& a, const QueryRow& b) {
  if (a.clustering != b.clustering) return a.clustering < b.clustering;
  return a.type_id < b.type_id;
}

bool Descending(const QueryRow& a, const QueryRow& b) {
  if (a.clustering != b.clustering) return a.clustering > b.clustering;
  return a.type_id < b.type_id;
}

std::string DescribeCounts(const TypeCounts& counts) {
  std::string out = "{";
  for (const auto& [type, n] : counts) {
    if (out.size() > 1) out += ',';
    out += std::to_string(type) + ":" + std::to_string(n);
  }
  return out + "}";
}

}  // namespace

Expected ExpectCount(std::span<const GenPartition> parts) {
  Expected out;
  out.kind = QueryKind::kCount;
  for (const GenPartition& part : parts) {
    for (const QueryRow& row : part.rows) ++out.totals[row.type_id];
  }
  return out;
}

Expected ExpectScan(std::span<const GenPartition> parts,
                    const kvscale::ScanSpec& spec) {
  Expected out;
  out.kind = QueryKind::kScan;
  for (const GenPartition& part : parts) {
    uint32_t taken = 0;
    for (const QueryRow& row : part.rows) {
      if (row.clustering < spec.start || row.clustering > spec.end) continue;
      if (spec.limit > 0 && taken == spec.limit) break;
      out.rows.push_back(row);
      ++taken;
    }
  }
  std::sort(out.rows.begin(), out.rows.end(), Ascending);
  if (spec.limit > 0 && out.rows.size() > spec.limit) {
    out.rows.resize(spec.limit);
  }
  return out;
}

Expected ExpectTopK(std::span<const GenPartition> parts,
                    const kvscale::TopKSpec& spec) {
  Expected out;
  out.kind = QueryKind::kTopK;
  for (const GenPartition& part : parts) {
    const size_t n = std::min<size_t>(spec.k, part.rows.size());
    out.rows.insert(out.rows.end(), part.rows.end() - n, part.rows.end());
  }
  std::sort(out.rows.begin(), out.rows.end(), Descending);
  if (out.rows.size() > spec.k) out.rows.resize(spec.k);
  return out;
}

Expected ExpectBox(const kvscale::QueryPlan& plan,
                   const std::map<std::string, TypeCounts>& cube_counts) {
  Expected out;
  out.kind = QueryKind::kBox;
  for (const kvscale::PlanPartition& part : plan.partitions) {
    const auto it = cube_counts.find(part.part.key);
    if (it == cube_counts.end()) continue;  // an empty cube holds nothing
    TypeCounts& dest = part.fully_inside ? out.totals : out.boundary_totals;
    for (const auto& [type, n] : it->second) dest[type] += n;
  }
  return out;
}

std::string CompareAnswer(const kvscale::GatherResult& result,
                          const Expected& expected) {
  switch (expected.kind) {
    case QueryKind::kCount:
    case QueryKind::kBox:
      if (result.totals != expected.totals) {
        return "totals " + DescribeCounts(result.totals) + " != expected " +
               DescribeCounts(expected.totals);
      }
      if (result.boundary_totals != expected.boundary_totals) {
        return "boundary totals " + DescribeCounts(result.boundary_totals) +
               " != expected " + DescribeCounts(expected.boundary_totals);
      }
      return "";
    case QueryKind::kScan:
    case QueryKind::kTopK:
      if (result.rows != expected.rows) {
        return std::to_string(result.rows.size()) +
               " rows differ from the " +
               std::to_string(expected.rows.size()) + " expected";
      }
      return "";
  }
  return "unknown query kind";
}

}  // namespace perfbench
