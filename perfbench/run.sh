#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload recursive-read --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, the Go
# toolchain's own configuration and telemetry, binary, data directories,
# trace files) stays under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"
export GOCACHE="${build}/gocache" GOPATH="${build}/gopath" XDG_CONFIG_HOME="${build}/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "${root}/perfbench" && go build -o "${build}/perfbench" .)
exec "${build}/perfbench" "$@"
