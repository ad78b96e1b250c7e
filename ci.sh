#!/bin/sh
# CI gate: build, vet, tests, then the full suite under the race detector
# (exercises the serve shutdown drain, the scan-cancellation paths, and the
# concurrent /metrics-scrape-while-querying test in internal/serve).
set -eux

go build ./...
go vet ./...
go test ./...
go test -race ./...

# Registry differential gate: every registered query kind runs uncached and
# through the result cache (cold and warm, at different worker counts) and
# all three answers must agree — exact for integers, 1e-9 relative for
# floats. Catches cache-key instability and reduction-order bugs.
go test ./internal/baseline -run TestRegistryDifferentialCachedVsUncached -count=1

# Shard differential + metamorphic battery, under the race detector: every
# kind sharded at K in {1,3,5} x workers {1,4} must equal the monolith
# bit-exactly (1e-9 for floats), and the answers must be invariant under
# shard-boundary moves, shard permutation, and window split/merge. The
# battery includes the skewed-shard sweep (80/20 splits at K in {3,5}),
# which forces the work-stealing executor's steal path: workers finishing
# tiny shards must pick up grains from the big shard's kernels with the
# race detector watching. The fan-out path runs every shard's kernels
# concurrently, so -race here guards the remap-and-reduce merge code and
# the cross-shard atomics. The sharded planner differential rides along:
# every coreport/follow plan at K=1, K=4 and a skewed K=3 split whose panel
# events span shards (the events plan must intersect global event bitmaps,
# not per-shard ones), on panels with and without duplicate source ids.
go test -race ./internal/baseline -run 'TestShardDifferential|TestShardMetamorphic|TestShardCancellation|TestPlannerDifferentialSharded' -count=1

# Executor pool smoke: the process-default work-stealing pool must be built
# exactly once no matter how many parallel loops run (asserted through the
# parallel_pool_starts_total obs counter), and cancelled fan-outs must
# drain without leaking goroutines.
go test -race ./internal/parallel -run 'TestDefaultPoolIsSingleton|TestPoolNoGoroutineLeakAcrossLoops|TestFanOut' -count=1

# Qlang differential battery, under the race detector: randomized qlang
# expressions x 2 seeded worlds x {monolith, K in {1,4}} x workers {1,4} x
# all three plan modes must agree with an independent naive evaluator —
# exact for counts, 1e-9 relative for float aggregates — and explain=1
# must report a plan without executing. Guards the bitmap pushdown path
# against the closure fallback it replaces (DESIGN.md §13).
go test -race ./internal/baseline -run 'TestQlangDifferential|TestQlangExplain' -count=1

# Benchmark regression gate: regenerate Table VI on the small preset and
# compare step timings against the checked-in baseline. The baseline values
# are deliberately generous and the threshold is 2x, so only an order-of-
# magnitude regression (accidental serialization, quadratic blowup) trips it.
go run ./cmd/gdeltbench -table 6 -stats -json /tmp/gdeltbench-timings.json \
  -baseline results/bench_baseline.json -threshold 2 >/dev/null

# Cache benchmark gate: repeated identical queries must answer from the
# result cache (cold run misses, every warm run hits, warm == cold) at a
# >=10x per-request speedup. Artifact lands in results/cache_bench.json.
go run ./cmd/gdeltbench -cache-bench \
  -cache-json results/cache_bench.json -cache-min-speedup 10

# Kernel benchmark gate: the vectorized cross-count kernel must stay >=2x
# over the closure fallback at workers=4, the bitmap-pruned co-report over
# a 16-source mid-spectrum panel >=3x over the full event scan, and the
# cost-based planner must never lose to the closure scan on ANY report
# kernel — including the dense top-16 panels where row pruning cannot pay
# and the planner must fall back to the candidate-events plan. Samples of
# the slow and fast paths are interleaved so machine-wide noise cancels in
# the ratio. Artifact lands in results/kernel_bench.json.
go run ./cmd/gdeltbench -kernel-bench -kernel-workers 4 \
  -kernel-json results/kernel_bench.json \
  -kernel-min-typed 2 -kernel-min-pruned 3 -kernel-min-planner 1

# Qlang pushdown benchmark gate: a selective sourcecountry clause (<=5% of
# rows, chosen from the corpus) must answer >=2x faster through the bitmap
# rows plan than through the closure scan; both paths are asserted
# byte-equal before timing. The broad head-country panel rides along
# informationally. Artifact lands in results/qlang_bench.json.
go run ./cmd/gdeltbench -qlang-bench -qlang-workers 4 \
  -qlang-json results/qlang_bench.json -qlang-min-selective 2

# Shard benchmark gate: every BenchPanel query kind at K=4 shards vs the
# K=1 monolith on the standard world, through the persistent work-stealing
# executor. The panel's geomean K1/K4 speedup must clear 2x scaled by
# min(1, cpus/shards) with a 0.9x floor — on hosts with >= 4 cores that is
# the full 2x bar; on a single-core host the fan-out machinery must cost
# no more than ~11% over the monolith (no parallelism exists to win with,
# so the gate checks overhead, not speedup; the JSON records cpus so the
# artifact is honest about which bar applied). The run also asserts
# parallel_pool_starts_total == 1 across the whole panel — the executor
# pool is a process singleton, never rebuilt per query. A CPU profile of
# the bench lands next to the JSON for kernel-level inspection.
go run ./cmd/gdeltbench -preset standard -shard-bench -shard-k 4 \
  -shard-json results/shard_bench.json -shard-min-speedup 2 \
  -cpuprofile results/shard_bench.cpuprofile

# Router chaos smoke, under the race detector: a real 4-replica 2-group
# fleet behind the scatter/gather router, with deterministic replica faults
# (internal/faults.ReplicaChaos). Kill one replica per group and every
# query kind must still answer bit-identical to the monolith with full
# coverage; kill a whole group and every kind must degrade to an explicit
# partial-coverage 200 (never a 5xx), with the partial result kept out of
# the full-coverage cache entry. Hedging, per-try timeouts, breakers and
# per-tenant admission run under the same -race battery.
go test -race ./internal/router -run 'TestChaos' -count=1

# Router overhead row (informational): warm-cache latency of a query served
# direct by a replica vs through the router (one extra hop + affinity
# hashing + coverage accounting). Artifact lands in results/router_bench.json.
go run ./cmd/gdeltbench -router-bench -router-json results/router_bench.json

# Compaction-differential battery, under the race detector: a world grown
# the streaming way — batch prefix, feed ticks appended into the log's
# mutable tail, compactor seals interleaved — must answer every registered
# query kind exactly like the same rows batch-built in one shot, at
# K in {1,4} x workers {1,4} on two seeded worlds. Pins the append-log
# lifecycle end to end: COW clone depths, seal slicing, version
# carry-forward, and the derived-index rebuild of sealed parts.
go test -race ./internal/baseline -run TestCompactionDifferential -count=1

# Append-log crash-safety battery, under the race detector: the snapshot
# isolation, seal, persist-roundtrip and cache-key-safety pins, plus the
# crash harness that kills the compactor's persist protocol at every
# write/sync/rename step and requires the reloaded manifest to be fully-old
# or fully-new — never torn. The live-feed end-to-end test (outage,
# duplicate tick, reordered drop against a local feed server) and the
# checkpoint-resume test (a restarted poller must drop checkpointed ticks
# as duplicates and re-skip gaps too old for the grace window, never
# re-folding them) ride along, as do the cache-staleness pins: after a tail
# append every cached window goes stale, and every registered kind's cached
# cold-window answer must equal an uncached run.
go test -race ./internal/shard -run 'TestLog|TestAppendTail|TestTailAppendInvalidatesEveryWindow|TestColdWindowCacheAfterAppendAllKinds' -count=1
go test -race ./internal/stream -run 'TestLiveFeedEndToEnd|TestLiveResumeFromCheckpoint|TestCheckpoint' -count=1

# Streaming benchmark gate: the back half of a bench corpus arrives as
# real-time feed ticks against a durable append log while querier
# goroutines hammer the log's snapshots. Sustained append throughput and
# the concurrent-query latency distribution land in
# results/stream_bench.json; the hard gate is that no query is ever held
# up longer than one feed tick, scaled by the host's oversubscription
# factor when there are fewer cores than runnable goroutines (readers run
# on copy-on-write snapshots and never take the writer's lock, so the only
# legitimate delay is CPU contention).
go run ./cmd/gdeltbench -stream-bench -stream-json results/stream_bench.json \
  -stream-tick 200ms
