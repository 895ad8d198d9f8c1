#include "fault/fault_injector.hpp"

#include <cstdio>
#include <filesystem>
#include <system_error>

#include "common/rng.hpp"
#include "hash/hash.hpp"
#include "store/table.hpp"

namespace kvscale {

namespace {

/// Maps 64 hashed bits onto [0, 1) the same way Rng::Uniform does.
double UnitFromHash(uint64_t bits) {
  uint64_t s = bits;  // one splitmix64 round scrambles the low entropy away
  return static_cast<double>(SplitMix64(s) >> 11) * 0x1.0p-53;
}

/// Distinct salts keep the error and spike decisions independent.
constexpr uint64_t kErrorSalt = 0x9d3f2c6a715b04e9ULL;
constexpr uint64_t kSpikeSalt = 0x1b45ef8820c7d36dULL;
constexpr uint64_t kReplySalt = 0x7e21ab9c44d0f583ULL;
constexpr uint64_t kReplyFrameSalt = 0x3c9a61f2d8e4b705ULL;
constexpr uint64_t kWalSalt = 0x35c8d91e6f0a27b4ULL;
constexpr uint64_t kMigrationSalt = 0x52af7d03e9c168b7ULL;

uint64_t AttemptBasis(uint64_t seed, uint32_t node,
                      std::string_view partition_key, uint32_t attempt) {
  return Fnv1a64(partition_key) ^ seed ^
         (static_cast<uint64_t>(node) << 40) ^
         (static_cast<uint64_t>(attempt) << 8);
}

}  // namespace

FaultInjector::FaultInjector(FaultConfig config)
    : config_(config), corrupt_rng_state_(config.seed ^ 0xc0ffee) {}

void FaultInjector::KillNode(uint32_t node) {
  MutexLock lock(mu_);
  down_.insert(node);
  down_count_.store(down_.size());
}

void FaultInjector::ReviveNode(uint32_t node) {
  MutexLock lock(mu_);
  down_.erase(node);
  down_count_.store(down_.size());
}

bool FaultInjector::IsNodeDown(uint32_t node) const {
  // The common case, every node up, answers without the lock. A kill
  // publishes the count before it returns, so no read that starts after
  // it can see a stale "up" here.
  if (down_count_.load() == 0) return false;
  MutexLock lock(mu_);
  return down_.contains(node);
}

FaultInjector::ReadFault FaultInjector::OnRead(uint32_t node,
                                               std::string_view partition_key,
                                               uint32_t attempt) const {
  ReadFault fault;
  if (IsNodeDown(node)) {
    rejected_dead_.fetch_add(1, std::memory_order_relaxed);
    fault.status = Status::Unavailable("node " + std::to_string(node) +
                                       " is down");
    return fault;
  }
  // Both rolls are pure hashes of the attempt: with both rates at 0 the
  // answer is "healthy" without computing the basis.
  if (config_.read_error_rate <= 0.0 && config_.latency_spike_rate <= 0.0) {
    return fault;
  }
  const uint64_t basis =
      AttemptBasis(config_.seed, node, partition_key, attempt);
  if (config_.read_error_rate > 0.0 &&
      UnitFromHash(basis ^ kErrorSalt) < config_.read_error_rate) {
    injected_errors_.fetch_add(1, std::memory_order_relaxed);
    fault.status = Status::Unavailable(
        "injected read error on node " + std::to_string(node) + " (attempt " +
        std::to_string(attempt) + ")");
    return fault;
  }
  if (config_.latency_spike_rate > 0.0 &&
      UnitFromHash(basis ^ kSpikeSalt) < config_.latency_spike_rate) {
    injected_spikes_.fetch_add(1, std::memory_order_relaxed);
    fault.extra_latency_us = config_.latency_spike_us;
  }
  return fault;
}

bool FaultInjector::ShouldCorruptReply(uint32_t node,
                                       std::string_view partition_key,
                                       uint32_t attempt) const {
  if (config_.reply_corrupt_rate <= 0.0) return false;
  const uint64_t basis =
      AttemptBasis(config_.seed, node, partition_key, attempt);
  if (UnitFromHash(basis ^ kReplySalt) < config_.reply_corrupt_rate) {
    corrupted_replies_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool FaultInjector::ShouldCorruptReplyFrame(uint32_t node,
                                            std::string_view partition_key,
                                            uint32_t attempt) const {
  if (config_.reply_frame_corrupt_rate <= 0.0) return false;
  const uint64_t basis =
      AttemptBasis(config_.seed, node, partition_key, attempt);
  if (UnitFromHash(basis ^ kReplyFrameSalt) <
      config_.reply_frame_corrupt_rate) {
    corrupted_reply_frames_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool FaultInjector::ShouldCorruptMigrationFrame(uint32_t source,
                                                uint32_t target, uint32_t seq,
                                                uint32_t attempt) const {
  if (config_.migration_corrupt_rate <= 0.0) return false;
  const uint64_t basis = config_.seed ^ kMigrationSalt ^
                         (static_cast<uint64_t>(source) << 48) ^
                         (static_cast<uint64_t>(target) << 32) ^
                         (static_cast<uint64_t>(seq) << 8) ^ attempt;
  if (UnitFromHash(basis) < config_.migration_corrupt_rate) {
    corrupted_migration_frames_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void FaultInjector::ArmMigrationSourceKill(uint32_t node,
                                           uint64_t after_blocks) {
  MutexLock lock(mu_);
  if (after_blocks == 0) {
    armed_source_kills_.erase(node);
  } else {
    armed_source_kills_[node] = after_blocks;
  }
}

bool FaultInjector::OnMigrationBlockStreamed(uint32_t node) {
  MutexLock lock(mu_);
  auto it = armed_source_kills_.find(node);
  if (it == armed_source_kills_.end()) return false;
  if (--it->second > 0) return false;
  armed_source_kills_.erase(it);
  down_.insert(node);
  down_count_.store(down_.size());
  migration_source_kills_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

Status FaultInjector::OnWalWrite(uint32_t node,
                                 std::string_view partition_key) const {
  if (config_.wal_error_rate <= 0.0) return Status::Ok();
  const uint64_t basis =
      AttemptBasis(config_.seed, node, partition_key, /*attempt=*/0);
  if (UnitFromHash(basis ^ kWalSalt) < config_.wal_error_rate) {
    injected_wal_errors_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("injected WAL write error on node " +
                               std::to_string(node));
  }
  return Status::Ok();
}

uint64_t FaultInjector::CorruptTableBlocks(Table& table, double fraction) {
  uint64_t seed;
  {
    MutexLock lock(mu_);
    seed = SplitMix64(corrupt_rng_state_);
  }
  Rng rng(seed);
  return table.CorruptBlocksForFaultInjection(fraction, rng);
}

Status FaultInjector::TruncateFileTail(const std::string& path,
                                       uint64_t bytes) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) return Status::NotFound("truncate target: " + path);
  const uint64_t keep = bytes >= size ? 0 : size - bytes;
  std::filesystem::resize_file(path, keep, ec);
  if (ec) return Status::Unavailable("truncate failed: " + path);
  return Status::Ok();
}

}  // namespace kvscale
