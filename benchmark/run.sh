#!/usr/bin/env bash
# Builds the store benchmark (into build-bench/ at the repository root)
# and runs it.
#
#   benchmark/run.sh [--seed N] [--trace] [--smoke] [--out DIR]
#       Every workload, each in its own process: 2 s warm-up, 10 s
#       measured window. --trace adds the traced run and the per-layer
#       metrics; --smoke runs 1 s windows at 1/16 of the key counts.
#       One result file per workload goes to DIR (default
#       build-bench/results).
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       One workload. The last line of output is its JSON result.
#
# Build output goes to standard error. The exit code is non-zero when
# the build fails or any outcome was wrong.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
build="$root/build-bench"

usage() {
  echo "usage: $0 [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]" \
       "[--smoke] [--out DIR]" >&2
  exit 2
}

workload=""
seed=1
seconds=10
warmup=2
scale=1
trace=0
out="$build/results"
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) [ $# -ge 2 ] || usage; workload="$2"; shift 2 ;;
    --seed) [ $# -ge 2 ] || usage; seed="$2"; shift 2 ;;
    --seconds) [ $# -ge 2 ] || usage; seconds="$2"; shift 2 ;;
    --out) [ $# -ge 2 ] || usage; out="$2"; shift 2 ;;
    --trace)
      if [ $# -ge 2 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    --smoke) seconds=1; warmup=0.25; scale=16; shift ;;
    *) usage ;;
  esac
done

{
  if [ ! -f "$build/Makefile" ] && [ ! -f "$build/build.ninja" ]; then
    cmake -S "$bench_dir" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  fi
  cmake --build "$build" -j "$(nproc)"
} >&2

commit=unknown
if [ -e "$root/.git" ]; then
  commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
mkdir -p "$out"
run() {
  "$build/store_bench" --workload "$1" --seed "$seed" --seconds "$seconds" \
    --warmup "$warmup" --scale "$scale" --trace "$trace" --out "$out" \
    --commit "$commit"
}

if [ -n "$workload" ]; then
  run "$workload"
  exit
fi

status=0
for w in $("$build/store_bench" --list); do
  run "$w" || status=1
done
echo "results: $out"
exit "$status"
