#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash polorabench/run.sh --workload cold-pair --seed 1 --seconds 25 --trace 0
#   bash polorabench/run.sh steady --workload serve-read --runs 5 --seconds 25
#   bash polorabench/run.sh compare a.out b.out
#
# Everything the build and the run leave behind goes under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/oracle || ! -f polorabench/go.mod ]]; then
	echo "polorabench: run from the root of a policyoracle checkout" >&2
	exit 2
fi

out="$PWD/.bench_build/polorabench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd polorabench && go build -o "$out/polorabench" .)
exec "$out/polorabench" "$@"
