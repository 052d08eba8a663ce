#!/bin/sh
# run.sh — build and run aeropackbench from the repository root.
#
#   sh bench/run.sh --workload board-linear --seed 1 --seconds 20 --trace 0
#   sh bench/run.sh -seed 1            # every workload
#
# Every build output and Go cache lands in .bench_build at the root, so
# a run reads and writes nothing outside the checkout.  The arguments
# are passed to aeropackbench unchanged.
set -eu

if [ ! -f go.mod ] || [ ! -f cmd/aeropackd/main.go ] || [ ! -f bench/go.mod ]; then
    echo "run.sh: run from the aeropack repository root (go.mod, cmd/aeropackd and bench/ needed)" >&2
    exit 2
fi

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

go -C bench build -o "$build/aeropackbench" ./aeropackbench
exec "$build/aeropackbench" "$@"
