#!/usr/bin/env bash
# Builds dnhunter and dnh_bench (Release) from this checkout's sources, then
# runs dnh_bench. Run from the repository root:
#
#   bash bench/e2e/run.sh --workload capture-j1 --seed 11 --seconds 10 --trace 0
#   bash bench/e2e/run.sh prep --seed 11
#
# Arguments that start with an option run `dnh_bench run`; otherwise the
# first argument is the dnh_bench command. The build tree is
# $CARGO_TARGET_DIR (default .bench_build); inputs, references and outputs
# are cached in its cache/ directory. Build output goes to stderr so the
# result stays the last line of standard output.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
# Keep the compiler's temporary files inside the build tree too.
export TMPDIR="$build/tmp"

if [ ! -f "$build/build.ninja" ] && [ ! -f "$build/Makefile" ]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" "${generator[@]}" >&2
fi
cmake --build "$build" --target dnh_bench -j 4 >&2

export DNH_BENCH_CACHE="${DNH_BENCH_CACHE:-$build/cache}"
case "${1:-}" in
  --*) set -- run "$@" ;;
esac
exec "$build/dnh_bench" "$@"
