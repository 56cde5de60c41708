#!/usr/bin/env bash
# Builds the DLA benchmark from the checkout it runs in and runs it:
#
#   bash dlabench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Run from the root of the checkout. Everything the build and the run
# write stays under the checkout's build directory (CARGO_TARGET_DIR
# when set, else .bench_build).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/tmp" "$build/gocache" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOENV=off
export GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
(cd "$here" && go build -o "$build/dlabench" .)
exec "$build/dlabench" --root "$root" --work "$build" "$@"
