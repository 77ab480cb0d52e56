#!/usr/bin/env bash
# Builds the ledger from source and runs it, keeping everything the build and
# the run write (Go's caches and temporary files, the binary, data directories,
# traces) inside the checkout: .bench_build/ at its root and out/ beside this
# script.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/ledger" .)
exec "$build/ledger" -out "$here/out" "$@"
