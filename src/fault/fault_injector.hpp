// Deterministic fault injection for the real data path.
//
// The simulators (replicated_sim.hpp) already model node failure in
// virtual time; this subsystem brings the same failure modes to the real
// storage engine and the in-process cluster so fault tolerance can be
// exercised with real bytes. A FaultInjector is consulted at well-defined
// injection points:
//
//   * node liveness — KillNode/ReviveNode mark a node unreachable; the
//     cluster rejects sub-queries to a dead node with kUnavailable
//     before touching its store (the request "times out");
//   * per-read errors — each read attempt fails with kUnavailable with
//     probability `read_error_rate` (a flaky NIC / dropped reply);
//   * latency spikes — each read attempt is charged `latency_spike_us`
//     of *virtual* latency with probability `latency_spike_rate` (a GC
//     pause / slow disk), driving hedged reads and deadlines without
//     slowing the test suite down with real sleeps;
//   * segment corruption — CorruptTableBlocks flips one bit per chosen
//     block of a table's flushed segments; the segment's per-block
//     checksums then surface kCorruption on the next uncached read;
//   * WAL torn tails — TruncateFileTail chops bytes off a commit log to
//     reproduce a crash mid-append.
//
// Per-attempt decisions are *stateless*: they hash (seed, node,
// partition key, attempt) instead of consuming a shared RNG stream, so a
// parallel gather sees bit-identical faults to a serial one and a
// re-run reproduces the exact same chaos. All methods are thread-safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "common/status.hpp"
#include "common/thread_annotations.hpp"
#include "common/units.hpp"

namespace kvscale {

class Table;  // store/table.hpp

/// Tunable fault rates. All default to "perfectly healthy".
struct FaultConfig {
  uint64_t seed = 0x5eedfa17ULL;  ///< decorrelates chaos runs
  /// Probability that one read attempt fails with kUnavailable.
  double read_error_rate = 0.0;
  /// Probability that one read attempt is charged a virtual latency
  /// spike of `latency_spike_us`.
  double latency_spike_rate = 0.0;
  Micros latency_spike_us = 5.0 * kMillisecond;
  /// Probability that the encoded reply of one served sub-query gets a
  /// bit flipped before the master decodes it (a fault class only the
  /// message-driven path has: the read succeeded, the *reply* is
  /// garbage). The damage lands inside that answer's item of the reply
  /// frame, so it fails over alone. Consulted by NodeRuntime at the
  /// reply injection point; the direct-call gather never sees it.
  double reply_corrupt_rate = 0.0;
  /// Probability that a whole reply frame gets a bit flipped in its
  /// envelope header, failing over every answer it carries. Rolled once
  /// per frame, on its first answer's (node, key, attempt).
  double reply_frame_corrupt_rate = 0.0;
  /// Probability that one WAL append (a replica's DurablePut) fails with
  /// kUnavailable — a full or failing log device. Consulted by
  /// InProcessCluster::Put at the write injection point; reads never
  /// see it.
  double wal_error_rate = 0.0;
  /// Probability that one migration block frame gets a bit flipped in
  /// flight (the rebalance stream's version of reply_corrupt_rate).
  /// The block's checksum catches it on arrival and the source re-sends;
  /// consulted by the migration engine, never by the query path.
  double migration_corrupt_rate = 0.0;
};

/// Seedable, deterministic fault source shared by stores and the cluster.
class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config = {});

  const FaultConfig& config() const { return config_; }

  // -- Node liveness ------------------------------------------------------

  /// Marks `node` unreachable: every read attempt against it fails with
  /// kUnavailable until ReviveNode. Safe to call mid-gather from another
  /// thread (attempts already past the liveness check still finish, like
  /// an in-flight reply that beats the failure detector).
  void KillNode(uint32_t node);

  /// Marks `node` reachable again.
  void ReviveNode(uint32_t node);

  /// Takes no lock while no node is down: the per-sub-query liveness
  /// checks on the master and on every node worker stay off the
  /// injector's lock in a healthy cluster. Once KillNode returns, every
  /// later call reports the node down.
  bool IsNodeDown(uint32_t node) const;

  // -- Per-attempt read faults -------------------------------------------

  /// Outcome of consulting the injector for one read attempt.
  struct ReadFault {
    Status status = Status::Ok();  ///< non-OK aborts the attempt
    Micros extra_latency_us = 0.0; ///< virtual latency charged to the attempt
  };

  /// Decides the fate of attempt number `attempt` of a read of
  /// `partition_key` on `node`. Deterministic in (seed, node, key,
  /// attempt) — retries of the same sub-query re-roll, identical reruns
  /// do not.
  ReadFault OnRead(uint32_t node, std::string_view partition_key,
                   uint32_t attempt) const;

  /// True when the encoded reply to attempt `attempt` of a read of
  /// `partition_key` served by `node` should be corrupted in flight.
  /// Deterministic in (seed, node, key, attempt) like OnRead, with an
  /// independent salt.
  bool ShouldCorruptReply(uint32_t node, std::string_view partition_key,
                          uint32_t attempt) const;

  /// True when the reply frame whose first answer is attempt `attempt`
  /// of a read of `partition_key` on `node` should have its envelope
  /// corrupted in flight. Deterministic like ShouldCorruptReply, with an
  /// independent salt.
  bool ShouldCorruptReplyFrame(uint32_t node, std::string_view partition_key,
                               uint32_t attempt) const;

  // -- Migration faults ---------------------------------------------------

  /// True when the encoded frame of migration block `seq` (re-send
  /// attempt `attempt`) from `source` to `target` should be corrupted in
  /// flight. Deterministic in (seed, source, target, seq, attempt) so a
  /// corrupted block's re-send can come through clean.
  bool ShouldCorruptMigrationFrame(uint32_t source, uint32_t target,
                                   uint32_t seq, uint32_t attempt) const;

  /// Arms a delayed permanent failure: after `after_blocks` more
  /// migration blocks leave `node`, the node is killed mid-stream (the
  /// classic "source dies during rebalance" drill). 0 disarms.
  void ArmMigrationSourceKill(uint32_t node, uint64_t after_blocks);

  /// Accounts one migration block streamed from `node`; fires an armed
  /// source kill when its countdown reaches zero. Returns true when this
  /// call killed the node (the engine must fail the stream over to
  /// another replica).
  bool OnMigrationBlockStreamed(uint32_t node);

  // -- Write faults -------------------------------------------------------

  /// Decides the fate of the WAL append for one replica write of
  /// `partition_key` on `node`: Ok, or kUnavailable with probability
  /// `wal_error_rate`. Deterministic in (seed, node, key) with an
  /// independent salt, so identical load phases fail identically.
  Status OnWalWrite(uint32_t node, std::string_view partition_key) const;

  // -- Data corruption ----------------------------------------------------

  /// Flips one bit in roughly `fraction` of `table`'s segment blocks
  /// (at least one block when fraction > 0 and the table has any),
  /// using this injector's seeded RNG. Returns the number of blocks
  /// corrupted. Must not race with reads of `table`.
  uint64_t CorruptTableBlocks(Table& table, double fraction);

  /// Truncates the file at `path` by `bytes` (clamped to the file size):
  /// the torn-tail crash a WAL replay must survive.
  static Status TruncateFileTail(const std::string& path, uint64_t bytes);

  // -- Tallies (what was actually injected) -------------------------------

  uint64_t injected_errors() const {
    return injected_errors_.load(std::memory_order_relaxed);
  }
  uint64_t injected_spikes() const {
    return injected_spikes_.load(std::memory_order_relaxed);
  }
  uint64_t rejected_dead_node_reads() const {
    return rejected_dead_.load(std::memory_order_relaxed);
  }
  uint64_t corrupted_replies() const {
    return corrupted_replies_.load(std::memory_order_relaxed);
  }
  uint64_t corrupted_reply_frames() const {
    return corrupted_reply_frames_.load(std::memory_order_relaxed);
  }
  uint64_t injected_wal_errors() const {
    return injected_wal_errors_.load(std::memory_order_relaxed);
  }
  uint64_t corrupted_migration_frames() const {
    return corrupted_migration_frames_.load(std::memory_order_relaxed);
  }
  uint64_t migration_source_kills() const {
    return migration_source_kills_.load(std::memory_order_relaxed);
  }

 private:
  FaultConfig config_;

  mutable Mutex mu_;
  /// splitmix64 stream for CorruptTableBlocks
  uint64_t corrupt_rng_state_ KV_GUARDED_BY(mu_);
  std::unordered_set<uint32_t> down_ KV_GUARDED_BY(mu_);
  /// down_.size(), stored under mu_ wherever down_ changes, so that
  /// IsNodeDown can skip the lock while every node is up (sequentially
  /// consistent, like the lock it stands in for).
  std::atomic<size_t> down_count_{0};
  /// node -> blocks left before an armed mid-stream source kill fires
  std::unordered_map<uint32_t, uint64_t> armed_source_kills_
      KV_GUARDED_BY(mu_);

  mutable std::atomic<uint64_t> injected_errors_{0};
  mutable std::atomic<uint64_t> injected_spikes_{0};
  mutable std::atomic<uint64_t> rejected_dead_{0};
  mutable std::atomic<uint64_t> corrupted_replies_{0};
  mutable std::atomic<uint64_t> corrupted_reply_frames_{0};
  mutable std::atomic<uint64_t> injected_wal_errors_{0};
  mutable std::atomic<uint64_t> corrupted_migration_frames_{0};
  std::atomic<uint64_t> migration_source_kills_{0};
};

}  // namespace kvscale
