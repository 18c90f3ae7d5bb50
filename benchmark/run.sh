#!/usr/bin/env bash
# Builds vipbench from this checkout and runs it with the given flags.
# Run it from the repository root:
#
#   bash benchmark/run.sh --workload vip-chain --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the Go tool's own config and telemetry, the binary
# and the traced pass's output all stay under .bench_build/ in the
# repository root, and the build never touches the network.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off
(cd benchmark && go build -o "$out/vipbench" .)
exec "$out/vipbench" "$@"
