#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the checkout root) and runs it with the caller's arguments.
# The Go build cache is kept there too, so a run touches nothing outside
# the checkout. The build fails — and the script exits non-zero without a
# result — when the repository around bench/ is missing.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C "$here" -o "$build/faspbench" .
exec "$build/faspbench" "$@"
