#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload solve --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files,
# binary and trace spans all stay under .bench_build/ (or $CARGO_TARGET_DIR).
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" TMPDIR="$out/go-tmp" \
	GOPATH="$out/go-path" GOENV=off GOWORK=off GOTOOLCHAIN=local
(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
