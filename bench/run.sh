#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from
# the checkout's root; every argument goes to the benchmark. Everything
# the build writes (binary, Go build cache) stays under .bench_build.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

(
	cd "$here"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
		XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly \
		go build -o "$build/epg-bench" .
)

cd "$root"
exec "$build/epg-bench" "$@"
