#!/usr/bin/env bash
# verify.sh — the full correctness gate for this repository.
#
# Runs, in order:
#   1. go build ./...              compile everything
#   1b. gofmt -l .                 formatting: fails when gofmt would
#                                  rewrite any file
#   2. go vet ./...                the stock vet analyzers
#   3. go run ./cmd/divlint ./...  the project-invariant suite
#                                  (floatcmp, errcheck, lockcopy,
#                                  maporder, libprint, goleak, errwrap,
#                                  hotalloc, ctxflow, atomicmix, plus
#                                  the stale-suppression audit; see
#                                  DESIGN.md §8)
#   4. go test -race ./...         all tests under the race detector;
#                                  the stress test of the serving miner
#                                  (fpm.Parallel, the bitset kernel, at
#                                  1-32 workers, byte for byte against
#                                  FPGrowth) is this tier's primary
#                                  target
#   5. registry-race tier          the concurrent service subsystems
#                                  (lru, registry, jobs, server) twice
#                                  more under -race: the LRU and the
#                                  registry's reference-model and
#                                  concurrent property tests, rehydration
#                                  single-flight and submit/cancel/
#                                  shutdown interleavings are
#                                  timing-sensitive, so extra runs buy
#                                  extra schedules; the snapshot and
#                                  progress ordering tests run twenty
#                                  times, since a reordering flake
#                                  hides at two
#   6. fault-injection tier        the disk-facing subsystems (faultfs
#                                  injector, registry spill tier, WAL
#                                  chaos tests, spill e2e) once more
#                                  under -race with the fault schedule
#                                  seeded via DIVEX_FAULT_SEED
#                                  (default 1; export a different
#                                  positive integer to explore other
#                                  deterministic schedules — the seed
#                                  is echoed so any failure reproduces)
#   6b. monitor-race tier          the streaming monitor subsystem twice
#                                  more under -race: concurrent ingest
#                                  vs. window advance vs. delete, plus
#                                  the drift-to-SSE e2e, are the
#                                  timing-sensitive paths
#   6c. anytime-race tier          the anytime exploration tier twice
#                                  more under -race: budgeted mining
#                                  (deadline cuts vs. warm-state reuse)
#                                  and the bitset kernel's MineVisit
#                                  stream that /explore and the monitor
#                                  share,
#                                  lattice-navigation cache churn and
#                                  the /explore endpoint are the
#                                  timing-sensitive paths, and the
#                                  byte-identity differential must hold
#                                  under the race detector too
#   6d. significance-race tier     the permutation-testing engine twice
#                                  more under -race: the bounded worker
#                                  pool's atomic permutation claims and
#                                  buffer merges must stay deterministic
#                                  (same seed, any worker count) under
#                                  the race detector, along with the
#                                  /significance endpoint and job route
#   6e. cluster-race tier          the fault-tolerant cluster tier twice
#                                  more under -race: the placement ring,
#                                  phi-accrual gossip, hedged forwards
#                                  (async explore and significance as
#                                  well as POST /jobs) and replica
#                                  streaming, plus the seeded
#                                  kill/partition/slow-walk chaos tests
#                                  over full servers (no job lost, none
#                                  double-completed on live nodes; an
#                                  adopted explore or significance job
#                                  runs as its own kind)
#   6f. admission tier             per-tenant quotas, token-bucket rate
#                                  limits (429 + Retry-After) and the
#                                  weighted-fair-queue isolation test
#                                  under -race, plus the engine's own
#                                  admission tests twice (every job's
#                                  grant released exactly once on every
#                                  path that ends it, duplicates and
#                                  adoptions charged nothing, the fair
#                                  queue's drain order)
#   7. fuzz smoke                  each native fuzz target for 10s of
#                                  fresh input generation on top of the
#                                  checked-in seed corpus (one target
#                                  per package per run, as go test
#                                  requires; each new interesting input
#                                  is minimized for 100 runs at most, so
#                                  the budget goes to fresh inputs, not
#                                  to the default 60 s minimizer),
#                                  FuzzMinersAgree (bitset
#                                  kernel vs. BruteForce),
#                                  FuzzCoverFold (both cover forms vs.
#                                  TallyOf under relabelings),
#                                  FuzzDecodeCSV (the upload decoder
#                                  vs. the encoding/csv record loop it
#                                  replaced, options drawn from the
#                                  input), FuzzParseEvent (the monitor's
#                                  one-pass event decoder vs. the
#                                  encoding/json parser it replaced),
#                                  FuzzParseSpec (the monitor-spec
#                                  decoder: no panic, accepted specs
#                                  round-trip), FuzzScanLog (the WAL
#                                  replay scan: its valid prefix ends a
#                                  line and rescans to the same records,
#                                  and only the last line is dropped)
#                                  FuzzReplicateChunks (the replica
#                                  stream's chunk assembly: what it
#                                  accepts is the sent bytes in order,
#                                  verified for its kind, every ack
#                                  within the declared total) and
#                                  FuzzForwardedJob (the forwarded job
#                                  decoder: only the three kinds, each
#                                  reading the forward's dataset)
#                                  included
#   8. coverage summary            per-package statement coverage for
#                                  the durability layer (internal/jobs)
#                                  and the miners the differential
#                                  suite guards (internal/fpm) —
#                                  informational, printed not gated
#   9. benchmark smoke             every benchmark once, so a bench that
#                                  panics or no longer compiles fails
#                                  the gate, not the next perf session
#   9a. allocation gate            the hot benchmarks whose allocs/op
#                                  repeat exactly (both COMPAS mines,
#                                  anytime top-K, ranking, the in-process
#                                  significance-wy query, permutation
#                                  passes over bitset and row-list
#                                  covers, WY adjust, lattice expand
#                                  (a sweep of every singleton, cold
#                                  and warm), window advance,
#                                  the monitor's event-batch decode
#                                  (two allocations a batch, none an
#                                  event), the monitor's snapshot read
#                                  (the K subgroups it returns, not
#                                  every tracked one), registry
#                                  registration — the two-row
#                                  and the audit-shaped decode arms —
#                                  and disk fall-through, ring lookup)
#                                  at -cpu=1,
#                                  compared by cmd/benchfmt -compare
#                                  with the newest BENCH_*.json: any
#                                  allocs/op rise fails; ns/op deltas
#                                  are printed, not gated (the snapshot
#                                  and this run are different hosts)
#   9b. bench-module tier          vet and test the end-to-end benchmark
#                                  (bench/, a nested module that the
#                                  root ./... never reaches): its stats,
#                                  compare verdicts, seed determinism and
#                                  the ~14 s smoke of all four workloads
#  10. perf snapshot (opt-in)      with DIVEX_BENCH=1, scripts/bench.sh
#                                  re-measures the mine / register /
#                                  disk-fallthrough benchmarks and
#                                  rewrites BENCH_<date>.json — the
#                                  perf-trajectory artifact. Off by
#                                  default: real measurements need a
#                                  quiet machine, not a CI neighbor
#
# Exits non-zero on the first failing step. CI runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> gofmt -l ."
unformatted="$(gofmt -l .)"
if [[ -n "$unformatted" ]]; then
    echo "gofmt would rewrite these files (run gofmt -w on them):"
    echo "$unformatted"
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> divlint ./..."
go run ./cmd/divlint ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> registry-race tier (lru + registry + durable jobs, -count=2)"
go test -race -count=2 ./internal/lru/... ./internal/registry/... ./internal/jobs/... ./internal/server/...
go test -race -count=20 -run 'Tracker|RecoverReattachesPartialSnapshot|ProgressReachesTotal' ./internal/jobs ./internal/permtest

echo "==> fault-injection tier (seed ${DIVEX_FAULT_SEED:-1})"
DIVEX_FAULT_SEED="${DIVEX_FAULT_SEED:-1}" \
    go test -race -run 'Chaos|Spill|Fault|Injector|Retry|Transient|OSPassthrough|RemoveIsTotal|DeleteDatasetPurges' \
    ./internal/faultfs ./internal/registry ./internal/jobs ./internal/server

echo "==> monitor-race tier (streaming ingest/advance/delete, -count=2)"
go test -race -count=2 ./internal/monitor/...
go test -race -run 'Monitor|Statsz' ./internal/server

echo "==> anytime-race tier (budgeted mining + lattice navigation + /explore, -count=2)"
go test -race -count=2 -run 'Anytime|SampleRows|MineVisit' ./internal/fpm ./internal/core
go test -race -count=2 ./internal/lattice/...
go test -race -count=2 -run 'Explore|ParseExploreBody' ./internal/jobs ./internal/server

echo "==> significance-race tier (permutation engine + WY control + /significance, -count=2)"
go test -race -count=2 ./internal/permtest/...
go test -race -count=2 -run 'Permutation|WY|PermFDR|CoverIndex|MaxEnt|Significance' \
    ./internal/fpm ./internal/core ./internal/jobs ./internal/server

echo "==> cluster-race tier (ring + gossip + chaos failover, -count=2)"
go test -race -count=2 ./internal/cluster/...
go test -race -count=2 -run 'Cluster|ForwardedJob' ./internal/server

echo "==> admission tier (tenant quotas + weighted fair queueing, -count=2)"
go test -race -count=2 ./internal/admission/...
go test -race -run 'Admission|FairQueue' ./internal/server
go test -race -count=2 -run 'Admission|FairQueue' ./internal/jobs

echo "==> fuzz smoke (10s per target)"
go test -run=NONE -fuzz='^FuzzParseCSV$' -fuzztime=10s -fuzzminimizetime=100x ./internal/dataset
go test -run=NONE -fuzz='^FuzzDecodeCSV$' -fuzztime=10s -fuzzminimizetime=100x ./internal/dataset
go test -run=NONE -fuzz='^FuzzDiscretize$' -fuzztime=10s -fuzzminimizetime=100x ./internal/discretize
go test -run=NONE -fuzz='^FuzzParseEvent$' -fuzztime=10s -fuzzminimizetime=100x ./internal/monitor
go test -run=NONE -fuzz='^FuzzParseSpec$' -fuzztime=10s -fuzzminimizetime=100x ./internal/monitor
go test -run=NONE -fuzz='^FuzzExploreRequest$' -fuzztime=10s -fuzzminimizetime=100x ./internal/server
go test -run=NONE -fuzz='^FuzzSignificanceRequest$' -fuzztime=10s -fuzzminimizetime=100x ./internal/server
go test -run=NONE -fuzz='^FuzzMinersAgree$' -fuzztime=10s -fuzzminimizetime=100x ./internal/fpm
go test -run=NONE -fuzz='^FuzzCoverFold$' -fuzztime=10s -fuzzminimizetime=100x ./internal/fpm
go test -run=NONE -fuzz='^FuzzScanLog$' -fuzztime=10s -fuzzminimizetime=100x ./internal/jobs
go test -run=NONE -fuzz='^FuzzReplicateChunks$' -fuzztime=10s -fuzzminimizetime=100x ./internal/cluster
go test -run=NONE -fuzz='^FuzzForwardedJob$' -fuzztime=10s -fuzzminimizetime=100x ./internal/server

echo "==> coverage summary (jobs, fpm)"
go test -cover ./internal/jobs ./internal/fpm | awk '{print "    " $0}'

echo "==> benchmark smoke (one iteration each)"
go test -run=NONE -bench=. -benchtime=1x ./...

echo "==> allocation gate (hot benchmarks at -cpu=1 against the newest BENCH_*.json)"
{
    go test -run=NONE -benchmem -cpu=1 -benchtime=200x \
        -bench '^(BenchmarkMineFPGrowthCompas|BenchmarkMineBitsetCompas)$' .
    go test -run=NONE -benchmem -cpu=1 -benchtime=200x \
        -bench '^(BenchmarkAnytimeTopK|BenchmarkRankAnalyze|BenchmarkSignificanceWY)$' ./internal/core
    go test -run=NONE -benchmem -cpu=1 -benchtime=200x \
        -bench '^(BenchmarkPermutationPass|BenchmarkPermutationPassSparse|BenchmarkWYAdjust)$' ./internal/permtest
    go test -run=NONE -benchmem -cpu=1 -benchtime=200x \
        -bench '^BenchmarkLatticeExpand$' ./internal/lattice
    go test -run=NONE -benchmem -cpu=1 -benchtime=200x \
        -bench '^(BenchmarkWindowAdvance|BenchmarkParseBatch|BenchmarkMonitorSnapshot)$' ./internal/monitor
    go test -run=NONE -benchmem -cpu=1 -benchtime=200x \
        -bench '^(BenchmarkRegistryRegister|BenchmarkRegistryGetDiskFallthrough)$' ./internal/registry
    go test -run=NONE -benchmem -cpu=1 -benchtime=200x \
        -bench '^BenchmarkRingLookup$' ./internal/cluster
} | go run ./cmd/benchfmt -compare

echo "==> bench-module tier (end-to-end benchmark module: vet + tests)"
(cd bench && go vet ./... && go test ./...)

if [[ -n "${DIVEX_BENCH:-}" ]]; then
    echo "==> perf snapshot (DIVEX_BENCH set)"
    ./scripts/bench.sh
fi

echo "verify: all gates passed"
