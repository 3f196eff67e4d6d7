#!/usr/bin/env bash
# run.sh — build the repository benchmark from this checkout and run it.
#
# Usage (from anywhere; relative paths in the arguments are resolved
# against the caller's directory):
#
#   bash benchmark/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1|DIR] [-o FILE]
#   bash benchmark/run.sh -compare A.json B.json
#
# The build cache and the binary live under $CARGO_TARGET_DIR when it is
# set, else under .bench_build/ at the repository root, so a run reads and
# writes only inside the checkout. The first run compiles the standard
# library into that cache; later runs relink in about a second.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/lockd" ]; then
	echo "run.sh: $root holds no sublock sources to benchmark" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/go-cache" "$out/go-tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp"
export GOTOOLCHAIN=local GOPROXY=off

go -C "$root/benchmark" build -o "$out/benchmark" .
exec "$out/benchmark" "$@"
