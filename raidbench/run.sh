#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the root of a
# checkout, for example:
#
#   bash raidbench/run.sh --workload serial-mem --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"

export PATH="$PATH:/usr/local/go/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$out/raidbench" .) >&2
exec "$out/raidbench" --workdir "$out" "$@"
