#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload fig12 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files and the toolchain's
# per-user state included.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench-bin" . >&2
exec "$out/perfbench-bin" "$@"
