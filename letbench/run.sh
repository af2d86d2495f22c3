#!/usr/bin/env bash
# Builds the letbench benchmark from source and runs it. Run it from the
# repository root, for example:
#
#   bash letbench/run.sh --workload milp-prove --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, temporary files and traces all stay under
# .bench_build in the repository root; nothing is fetched over the network.
set -euo pipefail

root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/letbench" && go build -o "$out/letbench" .)
exec "$out/letbench" "$@"
