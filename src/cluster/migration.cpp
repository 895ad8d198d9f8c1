#include "cluster/migration.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "common/check.hpp"
#include "store/row.hpp"
#include "wire/messages.hpp"

namespace kvscale {

namespace {

/// Encodes one partition's columns as a payload string (the codec's field
/// types carry strings, not byte vectors, so the bytes travel as one).
std::string EncodePayload(const std::vector<Column>& columns) {
  WireBuffer buf;
  EncodeColumns(columns, buf);
  const auto bytes = buf.data();
  return std::string(reinterpret_cast<const char*>(bytes.data()),
                     bytes.size());
}

std::span<const std::byte> PayloadBytes(const std::string& payload) {
  return {reinterpret_cast<const std::byte*>(payload.data()), payload.size()};
}

}  // namespace

void MigrationStreamStats::MergeFrom(const MigrationStreamStats& other) {
  blocks += other.blocks;
  partitions += other.partitions;
  columns += other.columns;
  bytes += other.bytes;
  block_retries += other.block_retries;
  source_failovers += other.source_failovers;
  partitions_skipped += other.partitions_skipped;
  skipped_keys.insert(skipped_keys.end(), other.skipped_keys.begin(),
                      other.skipped_keys.end());
}

MigrationEngine::MigrationEngine(StoreAccessor stores,
                                 const CompactCodec& registry,
                                 FaultInjector* injector, Options options)
    : stores_(std::move(stores)),
      registry_(registry),
      injector_(injector),
      options_(options) {
  KV_CHECK(options_.keys_per_block >= 1);
  KV_CHECK(options_.max_block_attempts >= 1);
}

MigrationEngine::MigrationEngine(StoreAccessor stores,
                                 const CompactCodec& registry,
                                 FaultInjector* injector)
    : MigrationEngine(std::move(stores), registry, injector, Options()) {}

Status MigrationEngine::ShipBlock(uint64_t migration_id, uint32_t seq,
                                  NodeId source, NodeId target,
                                  const std::string& table,
                                  std::vector<std::string> keys,
                                  std::vector<std::string> payloads,
                                  MigrationStreamStats& stats) {
  std::shared_ptr<LocalStore> target_store = stores_(target);
  if (target_store == nullptr) {
    return Status::Unavailable("migration target " + std::to_string(target) +
                               " has no store");
  }
  MigrationBlock block;
  block.migration_id = migration_id;
  block.seq = seq;
  block.source = source;
  block.target = target;
  block.table = table;
  block.keys = std::move(keys);
  block.payloads = std::move(payloads);
  block.checksum = MigrationBlockChecksum(block);

  for (uint32_t attempt = 0; attempt < options_.max_block_attempts;
       ++attempt) {
    if (attempt > 0) ++stats.block_retries;
    // Sender side: one block per frame, framed exactly like the query
    // path's messages, with the migration id in the header.
    WireBuffer frame_buf;
    EncodeMessageFrame(block, migration_id, /*trace_flags=*/0, options_.codec,
                       registry_, frame_buf);
    std::vector<std::byte> frame = frame_buf.TakeBytes();
    stats.bytes += frame.size();

    // In-flight corruption: one flipped bit, caught below by the frame
    // validation or the block checksum — never applied to the store.
    if (injector_ != nullptr &&
        injector_->ShouldCorruptMigrationFrame(source, target, seq,
                                               attempt) &&
        !frame.empty()) {
      frame[frame.size() / 2] ^= std::byte{0x10};
    }

    // Receiver side: split the frame, decode the block, verify the
    // checksum over every field before a single column lands.
    auto decoded = DecodeMigrationBlockFrame(frame, options_.codec, registry_);
    if (!decoded.ok()) continue;
    const MigrationBlock& received = decoded.value();
    if (received.migration_id != migration_id) continue;

    Table& table_ref = target_store->GetOrCreateTable(received.table);
    for (size_t i = 0; i < received.keys.size(); ++i) {
      auto columns = DecodeColumns(PayloadBytes(received.payloads[i]));
      // The checksum already vouched for these bytes; an undecodable
      // payload means the sender encoded garbage, not wire damage.
      if (!columns.ok()) {
        return Status::Internal("migration payload undecodable for key " +
                                received.keys[i]);
      }
      for (Column& column : columns.value()) {
        table_ref.Put(received.keys[i], std::move(column));
      }
      ++stats.partitions;
      stats.columns += columns.value().size();
    }
    ++stats.blocks;
    return Status::Ok();
  }
  return Status::Corruption(
      "migration block " + std::to_string(seq) + " from node " +
      std::to_string(source) + " failed validation " +
      std::to_string(options_.max_block_attempts) + " times");
}

Result<MigrationStreamStats> MigrationEngine::Run(
    uint64_t migration_id, std::vector<PartitionMove> moves) {
  MigrationStreamStats stats;
  // Group by (table, target): one logical stream per pair, so the blocks
  // a target applies arrive in one ordered sequence per table.
  std::map<std::pair<std::string, NodeId>, std::vector<PartitionMove>>
      streams;
  for (PartitionMove& move : moves) {
    streams[{move.table, move.target}].push_back(std::move(move));
  }

  uint32_t seq = 0;
  for (auto& [stream_key, stream_moves] : streams) {
    const std::string& table = stream_key.first;
    const NodeId target = stream_key.second;

    // Assemble blocks: consecutive keys served by the same live source.
    std::vector<std::string> keys;
    std::vector<std::string> payloads;
    NodeId block_source = 0;
    auto flush_block = [&]() -> Status {
      if (keys.empty()) return Status::Ok();
      const NodeId source = block_source;
      KV_RETURN_IF_ERROR(ShipBlock(migration_id, seq++, source, target,
                                   table, std::move(keys),
                                   std::move(payloads), stats));
      keys.clear();
      payloads.clear();
      // An armed mid-stream kill fires here: the remaining partitions of
      // this stream fail over to the next surviving replica.
      if (injector_ != nullptr &&
          injector_->OnMigrationBlockStreamed(source)) {
        ++stats.source_failovers;
      }
      return Status::Ok();
    };

    for (const PartitionMove& move : stream_moves) {
      // Pick the first live replica that actually holds the partition.
      bool shipped = false;
      for (const NodeId source : move.sources) {
        if (injector_ != nullptr && injector_->IsNodeDown(source)) continue;
        std::shared_ptr<LocalStore> store = stores_(source);
        if (store == nullptr) continue;
        auto found = store->FindTable(move.table);
        if (!found.ok()) continue;
        auto columns = found.value()->GetPartition(move.key);
        if (!columns.ok()) continue;
        if (!keys.empty() &&
            (block_source != source || keys.size() >= options_.keys_per_block)) {
          KV_RETURN_IF_ERROR(flush_block());
        }
        block_source = source;
        keys.push_back(move.key);
        payloads.push_back(EncodePayload(columns.value()));
        shipped = true;
        break;
      }
      if (!shipped) {
        // No live replica holds it: genuine loss (or a racing kill), the
        // caller folds this into its repair report.
        ++stats.partitions_skipped;
        stats.skipped_keys.push_back(move.key);
      }
    }
    KV_RETURN_IF_ERROR(flush_block());
  }
  std::sort(stats.skipped_keys.begin(), stats.skipped_keys.end());
  stats.skipped_keys.erase(
      std::unique(stats.skipped_keys.begin(), stats.skipped_keys.end()),
      stats.skipped_keys.end());
  return stats;
}

}  // namespace kvscale
