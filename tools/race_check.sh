#!/usr/bin/env bash
# Builds the tsan CMake preset and runs the concurrency-heavy suites —
# the bounded queues and worker pools of the node runtime, the gather and
# write loops over both transports, reads and writes interleaved on one
# shared runtime, concurrent queries each holding its own runtime query
# handle, FlushAll / ReviveNode racing membership churn, puts racing a
# node join (the put-vs-migration race, repeated 100 times), and the
# store's concurrent readers and the decoded blocks they share — under
# ThreadSanitizer, then drives end-to-end message-transport gathers and
# puts through the CLI. A clean exit means the queue/worker/clock
# machinery is data-race-free.
#
# Usage: tools/race_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"

export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"

# The suites that spawn threads: queue push/pop, runtime worker pools,
# message-vs-direct parity (including the chaos run), wide worker pools,
# and concurrent store reads.
ctest --test-dir build-tsan --output-on-failure -j"$(nproc)" \
  -R 'BoundedQueue|NodeRuntime|MessageGather|InProcessCluster|ClusterFaultTolerance|FaultInjector|StoreConcurrency|SharedRuntime|AdmissionControl|ConcurrentGather|Membership|MigrationFault|QueryPlan|BoxQuery|WritePath|RoutedPlan'

# The shared-block and segment-image drills, repeated: store readers keep
# iterating decoded blocks they hold while compaction erases them from
# the cache, corruption and snapshot reloads replace the segments, and a
# second table churns a tiny shared cache's LRU; readers keep views while
# copy-through compaction retires (and unmaps) their segments, and walk
# a segment's directory keys while other owners drop it.
./build-tsan/tests/store_concurrency_test \
  --gtest_filter='StoreConcurrencyTest.HeldBlockHandles*:StoreConcurrencyTest.HeldViews*:StoreConcurrencyTest.SegmentKeyViews*' \
  --gtest_repeat=5

# The mixed-kind drill, repeated: a writer streams message-transport
# PutBatches (flush watermark armed, so maintenance joins in) while two
# readers gather another table through the same two-worker node pools —
# both kinds go through one worker serve loop and one reply format.
./build-tsan/tests/write_path_test \
  --gtest_filter='WritePathTest.ReadsAndWritesShareNodeWorkers' \
  --gtest_repeat=5

# The put-vs-migration race, repeated: small put batches stream while a
# node joins. A put whose round overlapped the join must wait it out and
# re-send to the new owner; one lost acked column fails the oracle.
./build-tsan/tests/write_path_test \
  --gtest_filter='WritePathTest.PutsLandDuringAMembershipChange' \
  --gtest_repeat=100

# The query-handle drills, repeated: admission, per-query clocks read off
# each query's handle, and eight clients gathering concurrently through
# one runtime, each bit-identical to a sequential gather.
./build-tsan/tests/concurrent_gather_test --gtest_repeat=3

# The routed-plan churn drill, repeated: two clients gather one plan
# object (direct and message) while nodes join and drain, so each epoch
# bump re-routes the plan the clients share; every gather must balance.
./build-tsan/tests/membership_test \
  --gtest_filter='RoutedPlanTest.GathersStayBalancedThroughChurn' \
  --gtest_repeat=50

# The lock-free liveness path: readers race kills and revives and must
# never see a killed node up; then kills and revives in the middle of a
# request frame, which the worker serves through one opened table.
./build-tsan/tests/fault_injection_test \
  --gtest_filter='FaultInjectorTest.AKillIsSeenByEveryReadThatStartsAfterIt' \
  --gtest_repeat=5

./build-tsan/tests/node_runtime_test \
  --gtest_filter='NodeRuntimeTest.AKill*:NodeRuntimeTest.ARevive*' \
  --gtest_repeat=5

# The membership serialization drill, repeated: joins and decommissions
# churn while another thread loops FlushAll and KillNode + ReviveNode on
# a WAL-backed member, with a message-path writer and reader running.
./build-tsan/tests/membership_test \
  --gtest_filter='MembershipChaosTest.FlushAndReviveSerializeWithChurn' \
  --gtest_repeat=5

# One sanitized end-to-end run over the wire: batched compact frames,
# multiple workers per node, chaos on top.
./build-tsan/tools/kvscale gather --nodes 4 --keys 60 --elements 6000 \
  --replication 3 --fail-node 0 --fail-rate 0.02 --rounds 2 \
  --max-attempts 4 --codec compact --batch --workers-per-node 4

# And one with concurrent clients sharing the runtime, admission capped:
# every data structure on the multi-query path gets exercised under TSan.
./build-tsan/tools/kvscale gather --nodes 4 --keys 40 --elements 4000 \
  --replication 2 --fail-rate 0.01 --max-attempts 4 --codec compact \
  --batch --workers-per-node 2 --clients 6 --queries 2 --max-inflight 4

# The non-count plans through the same shared engine: a range scan with
# concurrent clients, and a top-k merge over a 4-wide worker pool — both
# exercise the per-sub-query row buffers under threads.
./build-tsan/tools/kvscale gather --query scan --scan-start 10 \
  --scan-end 80 --limit 200 --nodes 4 --keys 40 --elements 4000 \
  --replication 2 --codec compact --batch --workers-per-node 2 \
  --clients 4 --queries 2
./build-tsan/tools/kvscale gather --query topk --k 25 --nodes 4 \
  --keys 40 --elements 4000 --replication 2 --codec compact \
  --workers-per-node 4

# Concurrent writers through the shared runtime: four client threads
# stream group-committed WriteBatch frames (flush watermark armed, so
# background maintenance competes on the same workers) — the whole
# batched write path under TSan.
./build-tsan/tools/kvscale put-bench --nodes 4 --keys 40 --elements 4000 \
  --replication 2 --quorum all --batch 16 --codec compact \
  --workers-per-node 2 --clients 4 --wal build-tsan/race_put.wal \
  --flush-watermark 16384 --verify
rm -f build-tsan/race_put.wal.node*

echo "race_check: OK"
