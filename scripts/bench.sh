#!/usr/bin/env bash
# bench.sh — regenerate the committed perf-trajectory snapshot.
#
# Runs the perf-critical benchmark families with -benchmem and -cpu=1
# (so per-worker state does not vary with the core count, and the
# allocation gate in verify.sh compares like with like) —
#
#   BenchmarkMineFPGrowthCompas          the sequential conditional-tree
#                                        mine (the hotalloc-guarded path)
#   BenchmarkMineBitsetCompas            the serving miner: the bitset
#                                        kernel behind /analyze on the
#                                        same exploration
#   BenchmarkRegistryRegister            fresh vs dedup registration:
#                                        a two-row table (fixed cost),
#                                        the audit-cold shapes (a
#                                        5,000x10 random table and a
#                                        quoted-cell COMPAS, where the
#                                        decoder's per-cell cost shows)
#                                        and the dedup hit
#   BenchmarkRegistryGetDiskFallthrough  memory hit vs spill reload
#   BenchmarkMonitorIngest               streaming ingest end to end
#                                        (parse, queue, window fold)
#   BenchmarkParseBatch                  the event decoder alone: one
#                                        100-event batch, no worker
#                                        (two allocations a batch)
#   BenchmarkMonitorSnapshot             one snapshot read of a full
#                                        monitor of the end-to-end
#                                        bench's shape (the top K ranked
#                                        through core.Leaderboard)
#   BenchmarkWindowAdvance               the O(bucket) advance across
#                                        window lengths — flat ns/op is
#                                        the design's acceptance bar
#   BenchmarkAnytimeTopK                 the anytime top-K explore:
#                                        exhaustive vs. pattern-budgeted
#                                        vs. row-sampled on one dataset
#   BenchmarkRankAnalyze                 the ranking half of a cache-hit
#                                        /analyze (top-K, item divergence,
#                                        corrective items for FPR and FNR)
#                                        served from the parent index
#   BenchmarkLatticeExpand               expand every frequent singleton:
#                                        cold (the layout built, then one
#                                        AND-and-popcount per candidate)
#                                        vs. warm (conditional-tally
#                                        cache hits)
#   BenchmarkPermutationPass             one label permutation: seeded
#                                        shuffle, the permuted labels'
#                                        split, and the full max-T sweep
#                                        over bitset covers (two
#                                        AND-and-popcounts a hypothesis;
#                                        0 allocs/op is the bar)
#   BenchmarkPermutationPassSparse       the same pass over a 20,000-row
#                                        table at s = 0.005, whose covers
#                                        are mostly row lists (one code
#                                        byte a covered row; 0 allocs/op)
#   BenchmarkSignificanceWY              the significance-wy query in
#                                        process: Westfall-Young over
#                                        ~250 heart patterns, 1,000
#                                        permutations on one worker
#   BenchmarkWYAdjust                    the step-down adjustment fold,
#                                        counts to monotone p-values
#   BenchmarkRingLookup                  one consistent-hash owner lookup
#                                        across cluster sizes — the cost
#                                        every clustered submit pays
#   BenchmarkForwardJob                  a full SubmitJob forward over
#                                        the in-memory transport (hedge
#                                        machinery included, no hedge
#                                        fired)
#
# — and writes them as BENCH_<date>.json (schema divex-bench/v1, see
# internal/benchfmt) in the repository root. When that day's snapshot
# already exists it is kept, and the new one is named
# BENCH_<date>T<HHMMSS>.json by the UTC time of the run; benchfmt.Newest
# still picks it, since "T" sorts after ".". Committing the file after a
# perf-relevant change extends the trajectory README.md plots and moves
# the baseline of verify.sh's allocation gate (cmd/benchfmt -compare),
# which reads the newest snapshot; an unchanged workload regenerates
# byte-identical JSON apart from the measured numbers.
#
# Environment:
#   BENCH_DATE    override the snapshot date (YYYY-MM-DD; default today)
#   BENCH_TIME    override -benchtime (default 1s)
#
# verify.sh runs this as an opt-in tier when DIVEX_BENCH=1 is exported;
# the default gate only smoke-runs benchmarks for one iteration.
set -euo pipefail
cd "$(dirname "$0")/.."

date="${BENCH_DATE:-$(date +%F)}"
benchtime="${BENCH_TIME:-1s}"
out="BENCH_${date}.json"
if [[ -e "${out}" ]]; then
    out="BENCH_${date}T$(date -u +%H%M%S).json"
fi

echo "==> benchmarks (-benchtime ${benchtime}, -benchmem, -cpu=1)"
{
    go test -run=NONE -benchmem -cpu=1 -benchtime="${benchtime}" \
        -bench '^(BenchmarkMineFPGrowthCompas|BenchmarkMineBitsetCompas)$' .
    go test -run=NONE -benchmem -cpu=1 -benchtime="${benchtime}" \
        -bench '^(BenchmarkRegistryRegister|BenchmarkRegistryGetDiskFallthrough)$' ./internal/registry
    go test -run=NONE -benchmem -cpu=1 -benchtime="${benchtime}" \
        -bench '^(BenchmarkMonitorIngest|BenchmarkParseBatch|BenchmarkMonitorSnapshot|BenchmarkWindowAdvance)$' ./internal/monitor
    go test -run=NONE -benchmem -cpu=1 -benchtime="${benchtime}" \
        -bench '^(BenchmarkAnytimeTopK|BenchmarkRankAnalyze|BenchmarkSignificanceWY)$' ./internal/core
    go test -run=NONE -benchmem -cpu=1 -benchtime="${benchtime}" \
        -bench '^BenchmarkLatticeExpand$' ./internal/lattice
    go test -run=NONE -benchmem -cpu=1 -benchtime="${benchtime}" \
        -bench '^(BenchmarkPermutationPass|BenchmarkPermutationPassSparse|BenchmarkWYAdjust)$' ./internal/permtest
    go test -run=NONE -benchmem -cpu=1 -benchtime="${benchtime}" \
        -bench '^(BenchmarkRingLookup|BenchmarkForwardJob)$' ./internal/cluster
} | tee /dev/stderr | go run ./cmd/benchfmt -date "${date}" -out "${out}"

echo "bench: snapshot written to ${out}"
