// RPC message set of the master/slave query prototype.
//
// These are the messages exchanged in the paper's four stages, in the
// simulators' one-message-per-key form:
//   master --SubQueryRequest--> slave        (master-to-slaves)
//   slave  --PartialResult----> master       (slaves-to-master)
// plus the in-process cluster's frames: SubQueryBatch requests answered
// by SubQueryReplyBatch replies, write batches and partition-migration
// blocks. Each frame (envelope.hpp) carries exactly one of these
// messages.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "wire/codec.hpp"

namespace kvscale {

// -- Per-node operators ------------------------------------------------------
//
// A SubQueryRequest names the *operator* a node executes against one
// partition, plus up to three scalar arguments. The reply's paired u64
// columns carry whatever result schema the operator defines (see
// SubQueryReply). D8tree box queries have no operator of their own: the
// box is resolved master-side into covering cubes, and each covered
// partition is read with kOpCountByType.
enum QueryOp : uint32_t {
  kOpCountByType = 0,  ///< result: (type_id, count) pairs
  kOpRangeScan = 1,    ///< result: (clustering, type_id) rows, ascending
  kOpTopK = 2,         ///< result: (clustering, type_id) rows, descending
};

/// Operators the decoder accepts; anything >= this is a corrupt frame.
inline constexpr uint32_t kQueryOpCount = 3;

inline bool IsKnownQueryOp(uint64_t op) { return op < kQueryOpCount; }

/// Asks one slave to run one operator over a single partition (one
/// D8tree cube): the simulators' per-message request, which sizes the
/// paper's one-message-per-key regime. The real path never builds one: a
/// gather appends each attempt straight into its node's SubQueryBatch,
/// and a node serves that batch in place. EncodeSubQueryBatch
/// (envelope.hpp) still turns a list of these into a batch frame, for
/// sizing and replay studies.
struct SubQueryRequest {
  static constexpr std::string_view kTypeName = "kvscale.SubQueryRequest";

  uint64_t query_id = 0;
  uint32_t sub_id = 0;           ///< index of this sub-query within the query
  std::string table;             ///< target table name
  std::string partition_key;     ///< DHT partition key (cube id)
  uint32_t expected_elements = 0; ///< elements in the partition (for sizing)
  uint32_t op = kOpCountByType;  ///< QueryOp the node executes
  uint64_t arg_lo = 0;           ///< kOpRangeScan: inclusive clustering lo
  uint64_t arg_hi = 0;           ///< kOpRangeScan: inclusive clustering hi
  uint32_t arg_limit = 0;        ///< per-node row cap (scan limit / top-k k)

  template <typename V>
  void Visit(V&& v) {
    v.Field("query_id", query_id);
    v.Field("sub_id", sub_id);
    v.Field("table", table);
    v.Field("partition_key", partition_key);
    v.Field("expected_elements", expected_elements);
    v.Field("op", op);
    v.Field("arg_lo", arg_lo);
    v.Field("arg_hi", arg_hi);
    v.Field("arg_limit", arg_limit);
  }
};

/// Master -> slave: the sub-queries of one plan bound for one node, as
/// one message — the only form a read request takes on the real path,
/// from the master's scatter to the node's store. The plan-level fields
/// travel once; item i is (sub_ids[i], attempts[i], keys[i],
/// expected_elements[i]), and each item column value fits uint32 (the
/// decoder checks it). `op` is u64 on the wire so an out-of-range id
/// reaches the IsKnownQueryOp gate instead of being truncated into a
/// known one.
struct SubQueryBatch {
  static constexpr std::string_view kTypeName = "kvscale.SubQueryBatch";

  uint64_t query_id = 0;
  std::string table;
  uint64_t op = kOpCountByType;
  uint64_t arg_lo = 0;
  uint64_t arg_hi = 0;
  uint32_t arg_limit = 0;
  std::vector<uint64_t> sub_ids;
  std::vector<uint64_t> attempts;
  std::vector<std::string> keys;             ///< partition key per item
  std::vector<uint64_t> expected_elements;

  /// Items in the batch (the decoder checks every item column agrees).
  size_t size() const { return sub_ids.size(); }

  /// Appends one item to the four item columns.
  void Append(uint32_t sub_id, uint32_t attempt, std::string key,
              uint32_t elements) {
    sub_ids.push_back(sub_id);
    attempts.push_back(attempt);
    keys.push_back(std::move(key));
    expected_elements.push_back(elements);
  }

  template <typename V>
  void Visit(V&& v) {
    v.Field("query_id", query_id);
    v.Field("table", table);
    v.Field("op", op);
    v.Field("arg_lo", arg_lo);
    v.Field("arg_hi", arg_hi);
    v.Field("arg_limit", arg_limit);
    v.Field("sub_ids", sub_ids);
    v.Field("attempts", attempts);
    v.Field("keys", keys);
    v.Field("expected_elements", expected_elements);
  }
};

/// Count-by-type aggregation result for one partition.
struct PartialResult {
  static constexpr std::string_view kTypeName = "kvscale.PartialResult";

  uint64_t query_id = 0;
  uint32_t sub_id = 0;
  uint32_t node = 0;                ///< slave that served the sub-query
  std::vector<std::string> types;   ///< distinct type labels
  std::vector<uint64_t> counts;     ///< counts[i] pairs with types[i]
  double db_micros = 0.0;           ///< time spent inside the data store

  template <typename V>
  void Visit(V&& v) {
    v.Field("query_id", query_id);
    v.Field("sub_id", sub_id);
    v.Field("node", node);
    v.Field("types", types);
    v.Field("counts", counts);
    v.Field("db_micros", db_micros);
  }
};

/// Slave -> master: outcome of one SubQueryRequest on the message-driven
/// real path (node_runtime.hpp). Unlike PartialResult (the simulator's
/// reply, which labels types with strings), this carries two paired u64
/// result columns whose meaning the request's operator defines —
/// kOpCountByType: (type_id, count); kOpRangeScan / kOpTopK:
/// (clustering, type_id) rows — and a non-OK `status` reports the error
/// the replica returned so the master can fail over.
struct SubQueryReply {
  static constexpr std::string_view kTypeName = "kvscale.SubQueryReply";

  uint64_t query_id = 0;
  uint32_t sub_id = 0;
  uint32_t node = 0;                 ///< replica that served (or refused)
  uint32_t status = 0;               ///< static_cast<uint32_t>(StatusCode)
  std::vector<uint64_t> type_ids;    ///< result column A (empty on error)
  std::vector<uint64_t> counts;      ///< result column B; pairs with A
  double db_micros = 0.0;            ///< wall time inside the data store

  template <typename V>
  void Visit(V&& v) {
    v.Field("query_id", query_id);
    v.Field("sub_id", sub_id);
    v.Field("node", node);
    v.Field("status", status);
    v.Field("type_ids", type_ids);
    v.Field("counts", counts);
    v.Field("db_micros", db_micros);
  }
};

/// Slave -> master: the answers to one SubQueryBatch frame, or to the
/// part of it that fit under the node's reply byte bound, as parallel
/// columns. Item i is (sub_ids[i], attempts[i], statuses[i], its store
/// stamps db_start_ns[i] / db_end_ns[i] on the serving runtime's clock,
/// and its paired result columns col_a[a_ends[i-1], a_ends[i]) and
/// col_b[b_ends[i-1], b_ends[i]) with the meaning SubQueryReply gives
/// them). checksums[i] is ReplyItemChecksum of item i, so one damaged
/// item is caught — and failed over — on its own while its siblings
/// fold. A single reply travels as a batch of one.
struct SubQueryReplyBatch {
  static constexpr std::string_view kTypeName = "kvscale.SubQueryReplyBatch";

  uint64_t query_id = 0;
  uint32_t node = 0;                  ///< replica that served every item
  std::vector<uint64_t> sub_ids;
  std::vector<uint64_t> attempts;
  std::vector<uint64_t> statuses;     ///< StatusCode per item
  std::vector<uint64_t> db_start_ns;
  std::vector<uint64_t> db_end_ns;
  std::vector<uint64_t> a_ends;       ///< cumulative end of each item in col_a
  std::vector<uint64_t> b_ends;       ///< cumulative end of each item in col_b
  std::vector<uint64_t> col_a;
  std::vector<uint64_t> col_b;
  std::vector<uint64_t> checksums;    ///< ReplyItemChecksum per item

  template <typename V>
  void Visit(V&& v) {
    v.Field("query_id", query_id);
    v.Field("node", node);
    v.Field("sub_ids", sub_ids);
    v.Field("attempts", attempts);
    v.Field("statuses", statuses);
    v.Field("db_start_ns", db_start_ns);
    v.Field("db_end_ns", db_end_ns);
    v.Field("a_ends", a_ends);
    v.Field("b_ends", b_ends);
    v.Field("col_a", col_a);
    v.Field("col_b", col_b);
    v.Field("checksums", checksums);
  }
};

// -- Partition-migration frames (elastic membership) ------------------------
//
// When the cluster grows or shrinks, the partitions whose ownership moves
// are streamed from a surviving replica to their new owner as a sequence
// of MigrationBlock frames over the same envelope the query path uses. A
// block whose checksum fails on arrival is re-sent; a source that dies
// mid-stream is replaced by another replica holding the same data.

/// One batched block of partitions: keys[i] pairs with payloads[i], the
/// EncodeColumns bytes of that partition. `checksum` is
/// MigrationBlockChecksum, over every other field, so in-flight damage to
/// a key, a payload or the routing fields is detected before any column
/// is applied to the target's store.
struct MigrationBlock {
  static constexpr std::string_view kTypeName = "kvscale.MigrationBlock";

  uint64_t migration_id = 0;
  uint32_t seq = 0;           ///< block ordinal within the stream
  uint32_t source = 0;
  uint32_t target = 0;
  std::string table;
  std::vector<std::string> keys;      ///< partition keys in this block
  std::vector<std::string> payloads;  ///< EncodeColumns bytes per key
  uint64_t checksum = 0;              ///< MigrationBlockChecksum

  template <typename V>
  void Visit(V&& v) {
    v.Field("migration_id", migration_id);
    v.Field("seq", seq);
    v.Field("source", source);
    v.Field("target", target);
    v.Field("table", table);
    v.Field("keys", keys);
    v.Field("payloads", payloads);
    v.Field("checksum", checksum);
  }
};

// -- Write-path frames (batched replicated ingest) --------------------------
//
// The write pipeline scatters one WriteBatch per (replica node, chunk of
// keys) over the same envelope the query path uses, and the node answers
// it like a read: with a one-item SubQueryReplyBatch whose paired columns
// carry the refused key indices and the sync-failure tally
// (cluster/query_ops.hpp), checksummed per item. A batch is
// group-committed: the node appends every surviving key to its WAL, then
// issues a single Sync() for the whole batch — the ingest analogue of the
// read path's sub-query batching.

/// Master -> replica: apply a batch of columns to one table. The five
/// column vectors are parallel: keys[i] owns (clusterings[i],
/// type_ids[i], tombstones[i], payloads[i]). `checksum` is
/// WriteBatchChecksum, over every other field, so in-flight corruption of
/// a key, a clustering, a type id, a tombstone or a payload is detected
/// before any column reaches the store.
struct WriteBatch {
  static constexpr std::string_view kTypeName = "kvscale.WriteBatch";

  uint64_t query_id = 0;
  uint32_t sub_id = 0;     ///< batch ordinal within the put query
  uint32_t attempt = 0;    ///< the put's re-resolution round
  uint32_t target = 0;     ///< replica node this batch is bound for
  std::string table;
  std::vector<std::string> keys;        ///< partition key per column
  std::vector<uint64_t> clusterings;    ///< clustering key per column
  std::vector<uint64_t> type_ids;       ///< type id per column (fits u32)
  std::vector<uint64_t> tombstones;     ///< 0 = value, 1 = deletion marker
  std::vector<std::string> payloads;    ///< opaque value bytes per column
  uint64_t checksum = 0;                ///< WriteBatchChecksum

  template <typename V>
  void Visit(V&& v) {
    v.Field("query_id", query_id);
    v.Field("sub_id", sub_id);
    v.Field("attempt", attempt);
    v.Field("target", target);
    v.Field("table", table);
    v.Field("keys", keys);
    v.Field("clusterings", clusterings);
    v.Field("type_ids", type_ids);
    v.Field("tombstones", tombstones);
    v.Field("payloads", payloads);
    v.Field("checksum", checksum);
  }
};

/// The expected checksum of one MigrationBlock: FNV-1a over every field
/// but `checksum` — ids, seq, source, target, table, then each key and
/// payload with its length first. Defined next to the message so the
/// sender and the verifier can never disagree on the recipe.
uint64_t MigrationBlockChecksum(const MigrationBlock& block);

/// The expected checksum of one WriteBatch: FNV-1a over every field but
/// `checksum`, numeric columns one 64-bit word at a time, strings byte by
/// byte after their length.
uint64_t WriteBatchChecksum(const WriteBatch& batch);

/// The checksum of item `item` of a SubQueryReplyBatch whose parallel
/// columns are consistent: FNV-1a over its id, attempt, status, stamps
/// and result columns, one 64-bit word at a time.
uint64_t ReplyItemChecksum(const SubQueryReplyBatch& batch, size_t item);

/// Registers the whole message set with a CompactCodec instance; both
/// peers must call this so type ids agree.
void RegisterClusterMessages(CompactCodec& codec);

/// Builds a SubQueryRequest representative of the paper's workloads, for
/// sizing studies: key like "cube:<level>:<morton>" and the given element
/// count.
SubQueryRequest MakeRepresentativeSubQuery(uint64_t query_id, uint32_t sub_id,
                                           uint32_t elements);

/// The encoded size of one simulated request — a SubQueryRequest for
/// partition `key` of `table` — with `registry`'s compact codec, or with
/// the tagged codec when `registry` is null. The simulators charge the
/// paper's one-message-per-key regime with it.
size_t SubQueryRequestBytes(const CompactCodec* registry, uint64_t query_id,
                            uint32_t sub_id, std::string_view table,
                            std::string_view key, uint32_t elements);

}  // namespace kvscale
