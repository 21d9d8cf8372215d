#!/usr/bin/env bash
# Builds perfbench from the torusx checkout that holds this script, then
# runs it from the checkout's root with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper-tables --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the benchmark's scratch files all
# live under .bench_build in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if ! grep -qs '^module torusx$' go.mod; then
	echo "perfbench: $root is not a torusx checkout (no go.mod for module torusx)" >&2
	exit 1
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
bin="$out/perfbench.$$"
(cd perfbench && go build -o "$bin" .)
mv -f "$bin" "$out/perfbench"
# Not exec: the benchmark reports its children's peak memory, and a
# process that replaced this shell would count the go build above.
"$out/perfbench" -tmp "$out" "$@"
