#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload sim-control --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays in
# .bench_build/ at the repository root. The build needs the rest of the
# repository (the module replaces vitis with ../), so outside a full
# checkout it fails and the script exits non-zero without a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/modcache"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/modcache"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
