#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash bench/run.sh --workload audit-cold --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh run -seed 1
#
# Everything the build writes (compiler cache, binary) stays in
# .bench_build/ under the current directory, so the run touches nothing
# outside the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

# The go command keeps its cache, module path and telemetry under $HOME
# and the user config directory, and its scratch files in TMPDIR; point
# all of them into the checkout.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" TMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/bench" && go build -o "$out/divbench" .) >&2
exec "$out/divbench" "$@"
