// Per-node query operators: the body a NodeRuntime worker (or a
// direct-transport read) executes against one partition of one table.
//
// Every operator returns two paired u64 result columns — an item's slice
// of SubQueryReplyBatch's col_a / col_b — whose meaning the operator
// defines:
//   kOpCountByType: (type_id, count), ascending by type id
//   kOpRangeScan:   (clustering, type_id) rows, ascending clustering
//   kOpTopK:        (clustering, type_id) rows, descending clustering
// A write batch is answered in the same two columns (ParseWriteAck):
//   write ack:      col_a = refused key indices, ascending;
//                   col_b = {sync_failures}
// Keeping the execution switch here — used identically by every
// transport — is what makes a new query type a plan definition
// (cluster/query_plan.hpp) instead of another copy of the gather loop.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "store/table.hpp"
#include "wire/messages.hpp"

namespace kvscale {

/// Two paired u64 result columns; the operator defines the pairing.
struct OperatorResult {
  std::vector<uint64_t> col_a;
  std::vector<uint64_t> col_b;
};

/// A node's answer to one WriteBatch, viewed in its paired columns.
struct WriteAck {
  /// Batch indices of the keys the node refused, strictly ascending.
  std::span<const uint64_t> refused;
  /// Failed group-commit Sync() calls (the columns are still applied).
  uint64_t sync_failures = 0;
};

/// Validates a write batch's answer against the batch's `keys` count:
/// `col_a` strictly increasing and below `keys`, `col_b` exactly one
/// value. Any violation is kCorruption — an index the fold cannot match
/// would otherwise count its key as acked.
Result<WriteAck> ParseWriteAck(std::span<const uint64_t> col_a,
                               std::span<const uint64_t> col_b, size_t keys);

/// Runs one operator against one partition of `table`. An unknown op —
/// already rejected on the wire by DecodeSubQueryBatch — fails with
/// kInvalidArgument (retryable like any per-replica error).
Result<OperatorResult> ExecuteOperator(const Table& table,
                                       std::string_view partition_key,
                                       uint32_t op, uint64_t arg_lo,
                                       uint64_t arg_hi, uint32_t arg_limit,
                                       ReadProbe* probe);

}  // namespace kvscale
