#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload hot-key --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build, its caches and the traced
# runs' spans stay under .bench_build (or $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/home"

# Keep the Go toolchain's caches and settings inside the build directory,
# and never let it reach for the network.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
