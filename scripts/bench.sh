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
#   BenchmarkRegistryRegister            fresh vs dedup registration
#   BenchmarkRegistryGetDiskFallthrough  memory hit vs spill reload
#   BenchmarkMonitorIngest               streaming ingest end to end
#                                        (parse, queue, window fold)
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
#   BenchmarkLatticeExpand               one navigation step, cold
#                                        (narrowed scan) vs. warm
#                                        (conditional-tally cache hit)
#   BenchmarkPermutationPass             one label permutation: seeded
#                                        shuffle plus the full max-T
#                                        statistic sweep over the cover
#                                        index (0 allocs/op is the bar)
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
# internal/benchfmt) in the repository root. Committing the file after a
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

echo "==> benchmarks (-benchtime ${benchtime}, -benchmem, -cpu=1)"
{
    go test -run=NONE -benchmem -cpu=1 -benchtime="${benchtime}" \
        -bench '^(BenchmarkMineFPGrowthCompas|BenchmarkMineBitsetCompas)$' .
    go test -run=NONE -benchmem -cpu=1 -benchtime="${benchtime}" \
        -bench '^(BenchmarkRegistryRegister|BenchmarkRegistryGetDiskFallthrough)$' ./internal/registry
    go test -run=NONE -benchmem -cpu=1 -benchtime="${benchtime}" \
        -bench '^(BenchmarkMonitorIngest|BenchmarkWindowAdvance)$' ./internal/monitor
    go test -run=NONE -benchmem -cpu=1 -benchtime="${benchtime}" \
        -bench '^(BenchmarkAnytimeTopK|BenchmarkRankAnalyze)$' ./internal/core
    go test -run=NONE -benchmem -cpu=1 -benchtime="${benchtime}" \
        -bench '^BenchmarkLatticeExpand$' ./internal/lattice
    go test -run=NONE -benchmem -cpu=1 -benchtime="${benchtime}" \
        -bench '^(BenchmarkPermutationPass|BenchmarkWYAdjust)$' ./internal/permtest
    go test -run=NONE -benchmem -cpu=1 -benchtime="${benchtime}" \
        -bench '^(BenchmarkRingLookup|BenchmarkForwardJob)$' ./internal/cluster
} | tee /dev/stderr | go run ./cmd/benchfmt -date "${date}" -out "${out}"

echo "bench: snapshot written to ${out}"
