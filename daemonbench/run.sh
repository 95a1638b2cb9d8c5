#!/usr/bin/env bash
# Builds cardestd from the checkout this is run in, plus the benchmark's
# runner and inproc binaries, then runs the runner with the given flags:
#
#   bash daemonbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of the repository. Everything it builds or writes
# stays under .bench_build/ there, the Go build cache included.
set -euo pipefail

root=$PWD
bench=$root/daemonbench
out=$root/.bench_build
mkdir -p "$out/bin"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/bin/cardestd" ./cmd/cardestd
go -C "$bench" build -o "$out/bin/runner" ./cmd/runner
# inproc calls the program's layers directly, so an API change can break
# its build; the runner then still runs end to end and fails the checks
# that need it by name.
rm -f "$out/bin/inproc"
go -C "$bench" build -o "$out/bin/inproc" ./cmd/inproc || echo "inproc did not build" >&2

exec "$out/bin/runner" -bin "$out/bin" "$@"
