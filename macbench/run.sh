#!/usr/bin/env bash
# Builds the benchmark and macsimd from source, then runs the benchmark.
# Run it from the repository root:
#
#   bash macbench/run.sh --workload paper-grid --seed 1 --seconds 50 --trace 0
#
# Binaries, the Go build cache and every file a run writes stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/macbench/go.mod" ]]; then
	echo "macbench: run from the repository root (needs go.mod, internal/ and macbench/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOFLAGS= GOTOOLCHAIN=local

(cd "$root/macbench" && go build -o "$build/bin/macbench" . && go build -o "$build/bin/macsimd" repro/cmd/macsimd)
exec "$build/bin/macbench" -macsimd "$build/bin/macsimd" -workdir "$build/run" "$@"
