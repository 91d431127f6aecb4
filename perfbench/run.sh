#!/usr/bin/env bash
# Builds the benchmark harness and the two programs it drives from the
# sources in this checkout, then runs the harness. Run it from the root of
# the repository:
#
#   bash perfbench/run.sh --workload campaign-wide --seed 1 --seconds 30 --trace 0
#
# Every build product, Go cache and scratch file stays under .bench_build/
# in the checkout. Without the repository's own sources next to perfbench/
# the build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/bin"

# A fixed build environment: local toolchain only, no module downloads,
# no cgo, and every cache inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

go build -C perfbench -o "$out/bin/perfbench" .
go build -o "$out/bin/" ./cmd/lockstep-inject ./cmd/lockstep-serve

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" -root "$root" "$@"
