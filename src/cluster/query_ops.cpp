#include "cluster/query_ops.hpp"

namespace kvscale {

namespace {

/// Appends one (clustering, type_id) row.
void EmitRow(OperatorResult& out, const Column& column) {
  out.col_a.push_back(column.clustering);
  out.col_b.push_back(column.type_id);
}

}  // namespace

Result<WriteAck> ParseWriteAck(std::span<const uint64_t> col_a,
                               std::span<const uint64_t> col_b, size_t keys) {
  if (col_b.size() != 1) {
    return Status::Corruption("write ack: " + std::to_string(col_b.size()) +
                              " sync-failure values, expected 1");
  }
  for (size_t i = 0; i < col_a.size(); ++i) {
    if (col_a[i] >= keys) {
      return Status::Corruption("write ack: refused index " +
                                std::to_string(col_a[i]) + " is outside a " +
                                std::to_string(keys) + "-key batch");
    }
    if (i > 0 && col_a[i] <= col_a[i - 1]) {
      return Status::Corruption(
          "write ack: refused indices not strictly increasing at " +
          std::to_string(i));
    }
  }
  return WriteAck{col_a, col_b[0]};
}

Result<OperatorResult> ExecuteOperator(const Table& table,
                                       std::string_view partition_key,
                                       uint32_t op, uint64_t arg_lo,
                                       uint64_t arg_hi, uint32_t arg_limit,
                                       ReadProbe* probe) {
  // Every operator opens the partition with Table::Read, in place when it
  // can, and emits only the pairs it returns; the row operators keep the
  // limits of Table::ScanRange and Table::TopKByClustering.
  switch (op) {
    case kOpCountByType: {
      auto view = table.Read(partition_key, 0, UINT64_MAX, probe);
      if (!view.ok()) return view.status();
      // Ascending by type id: the reply order the count fold has always
      // seen on the wire.
      const auto counts = view.value().CountTypes();
      OperatorResult out;
      out.col_a.reserve(counts.size());
      out.col_b.reserve(counts.size());
      for (const auto& [type, count] : counts) {
        out.col_a.push_back(type);
        out.col_b.push_back(count);
      }
      return out;
    }
    case kOpRangeScan: {
      auto view = table.Read(partition_key, arg_lo, arg_hi, probe);
      if (!view.ok()) return view.status();
      OperatorResult out;
      view.value().ForEach([&](const Column& column) {
        EmitRow(out, column);
        return arg_limit == 0 || out.col_a.size() < arg_limit;
      });
      return out;
    }
    case kOpTopK: {
      if (arg_limit == 0) return Status::InvalidArgument("top-k with k == 0");
      auto view = table.Read(partition_key, 0, UINT64_MAX, probe);
      if (!view.ok()) return view.status();
      OperatorResult out;
      view.value().ForEachDescending([&](const Column& column) {
        EmitRow(out, column);
        return out.col_a.size() < arg_limit;
      });
      return out;
    }
    default:
      return Status::InvalidArgument("unknown query operator " +
                                     std::to_string(op));
  }
}

}  // namespace kvscale
