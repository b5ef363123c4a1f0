#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness from the checkout it
# is started in and runs it with the caller's arguments. Everything the Go
# toolchain writes (build cache, temp files, binaries) is pointed inside the
# checkout, under .bench_build/, so a run touches nothing outside it and works
# where $HOME is missing or read-only.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/sanmapd ] || [ ! -d cmd/sanload ]; then
	echo "benchmark/run.sh: run from the root of a sanmap checkout (go.mod, cmd/sanmapd, cmd/sanload)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-modcacherw

go build -o "$build/bin/harness" ./benchmark
exec "$build/bin/harness" "$@"
