#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything it writes stays under .bench_build/ at the repository root:
# the binary, the Go build cache, the deployments' media and the span files.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/mobidx-bench" .)
exec "$build/mobidx-bench" -dir "$build" "$@"
