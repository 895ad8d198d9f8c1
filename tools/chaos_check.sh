#!/usr/bin/env bash
# Builds the asan-ubsan CMake preset and runs the chaos/fault-tolerance
# test suites under AddressSanitizer + UndefinedBehaviorSanitizer, then
# drives one end-to-end chaos gather through the CLI, after repeating the
# put-vs-migration race 100 times. A clean exit means the failover,
# corruption, and WAL-replay paths are memory- and UB-clean.
#
# Usage: tools/chaos_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j"$(nproc)"

export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="print_stacktrace=1"

# The suites that exercise fault injection, failover, torn WALs, and the
# concurrent gather paths.
ctest --test-dir build-asan --output-on-failure -j"$(nproc)" \
  -R 'FaultInjector|ClusterFaultTolerance|CommitLog|InProcessCluster|ReplicatedSim|StoreConcurrency|Membership|MigrationFault|QueryPlan|BoxQuery|WireFuzz|WritePath|RoutedPlan'

# The put-vs-migration race, repeated: the slower sanitized build widens
# the window in which a put lands on an old owner after the migration
# streamed its key. Every acked column must survive the join.
./build-asan/tests/write_path_test \
  --gtest_filter='WritePathTest.PutsLandDuringAMembershipChange' \
  --gtest_repeat=100

# Routed plans under membership churn: a plan's shared replica sets are
# replaced at every epoch while gathers still hold the old ones.
./build-asan/tests/membership_test \
  --gtest_filter='RoutedPlanTest.GathersStayBalancedThroughChurn' \
  --gtest_repeat=50

# One sanitized end-to-end chaos run: replication 3, a dead node, flaky
# reads, and corrupted segment blocks must still produce a full answer.
./build-asan/tools/kvscale gather --nodes 4 --keys 60 --elements 6000 \
  --replication 3 --fail-node 0 --fail-rate 0.02 --corrupt-rate 0.02 \
  --rounds 2 --max-attempts 4

# The membership drill under crossfire: while reads stay flaky and
# migration frames get bit-flipped in flight, a node joins, another is
# gracefully drained, and a third dies permanently. Replication 2 must
# heal every partition (lost 0) and the post-churn gather must still
# fold the full answer.
./build-asan/tools/kvscale gather --nodes 4 --keys 60 --elements 6000 \
  --replication 2 --join-node --decommission-node 1 --perma-kill 2 \
  --fail-rate 0.02 --migration-corrupt-rate 0.2 --rounds 2 --max-attempts 4

# The non-count plans under the same crossfire: a range scan over the
# message transport with flaky reads, and a pruned D8tree box query with
# a dead node — the engine must fold both without touching freed memory
# or tripping UB in the row merge.
./build-asan/tools/kvscale gather --query scan --scan-start 5 \
  --scan-end 90 --limit 300 --nodes 4 --keys 60 --elements 6000 \
  --replication 3 --fail-node 0 --fail-rate 0.02 --max-attempts 4 \
  --codec compact --batch
./build-asan/tools/kvscale gather --query box \
  --box 0.25,0.25,0.25,0.75,0.75,0.75 --level 4 --elements 20000 \
  --nodes 4 --replication 3 --fail-node 0 --fail-rate 0.02 \
  --max-attempts 4

# The write path under the same crossfire: durable group-committed
# batches over the wire with a dead node and flaky WAL writes. The
# accounting invariant (every replica write acked or failed, every key
# given a quorum verdict) is checked inside the command; --verify
# gathers the table back afterwards.
./build-asan/tools/kvscale put-bench --nodes 4 --keys 60 --elements 3000 \
  --replication 3 --quorum majority --batch 8 --fail-node 0 \
  --wal build-asan/chaos_put.wal --wal-error-rate 0.05 \
  --codec compact --workers-per-node 2 --clients 4 --verify
rm -f build-asan/chaos_put.wal.node*

echo "chaos_check: OK"
