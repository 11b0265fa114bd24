#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the repository. Everything the build and the
# run leave behind (Go build cache, binary, trace files) goes under
# .bench_build/ in that root, or under $CARGO_TARGET_DIR when it is set.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

# The build must not reach the network or write outside the checkout (the
# go command keeps telemetry counters under the user config directory).
export XDG_CONFIG_HOME=$out/config
export GOENV=off
export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod
export GOFLAGS=
export GOPROXY=off
export GOSUMDB=off
export GOTOOLCHAIN=local
export GOWORK=off
export CGO_ENABLED=0

if ! go -C perfbench build -o "$out/perfbench" . >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$out/perfbench" --out "$out" "$@"
