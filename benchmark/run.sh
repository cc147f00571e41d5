#!/usr/bin/env bash
# Builds the benchmark (Release, into build-bench/ at the repository root)
# and runs it.
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S]
#                    [--trace 0|1|PATH] [--smoke]
#       One workload. Prints `workload metric value unit` lines; the last
#       line of stdout is the JSON result.
#   benchmark/run.sh --list
#       The workload names.
#   benchmark/run.sh [--seed N] [--smoke] [--out DIR]
#       Every workload, an untraced then a traced run of each. Each run's
#       output is also written to DIR/<workload>-seed<N>[-trace].log
#       (default DIR: build-bench/results); trace JSON goes to
#       build-bench/traces/.
#
# How long a run times operations is `run_seconds` in BENCHMARK.json, the
# one place it is set. --seconds is accepted so that a caller that reads
# BENCHMARK.json itself can pass that value on.
#
# Build output goes to stderr, so stdout carries only benchmark output.
# Relative paths (--trace PATH, --out DIR) are taken from the repository
# root, where the script runs.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
build=build-bench

seconds="$(sed -n 's/^ *"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)"
if [ -z "$seconds" ]; then
  echo "run.sh: no run_seconds in BENCHMARK.json" >&2
  exit 2
fi

jobs="$(nproc 2>/dev/null || echo 1)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi
cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$jobs" >&2
bin="$build/apujoin_bench"

# A --seconds given on the command line comes after this one and wins.
for arg in "$@"; do
  case "$arg" in
    --list) exec "$bin" --list ;;
    --workload|--workload=*) exec "$bin" --seconds "$seconds" "$@" ;;
  esac
done

# All workloads.
seed=42
out="$build/results"
pass=(--seconds "$seconds")
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; pass+=("$1" "$2"); shift 2 ;;
    --seed=*) seed="${1#*=}"; pass+=("$1"); shift ;;
    --out) out="$2"; shift 2 ;;
    --out=*) out="${1#*=}"; shift ;;
    --trace|--trace=*)
      echo "run.sh: --trace needs --workload (all-workload runs trace too)" >&2
      exit 2 ;;
    *) pass+=("$1"); shift ;;
  esac
done
mkdir -p "$out"
for workload in $("$bin" --list); do
  "$bin" --workload "$workload" "${pass[@]}" --trace 0 |
    tee "$out/$workload-seed$seed.log"
  "$bin" --workload "$workload" "${pass[@]}" --trace 1 |
    tee "$out/$workload-seed$seed-trace.log"
done
