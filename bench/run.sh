#!/usr/bin/env bash
# Builds neogeod and the harness from source into .bench_build/ at the
# root of the checkout (Go caches included, so nothing is written outside
# the checkout), then runs the harness from that root with the arguments
# given. Both builds happen before any timer starts.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
cd "$root/bench"
go build -o "$build/neogeod" repro/cmd/neogeod
go build -o "$build/neogeo-bench" .
cd "$root"
exec "$build/neogeo-bench" -neogeod "$build/neogeod" "$@"
