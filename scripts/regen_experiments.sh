#!/bin/sh
# Regenerate every paper artifact and the test log from a clean build.
# Usage: scripts/regen_experiments.sh [build-dir]
# paper_figures runs every figure's cells as one batch on JOBS
# parallel workers (see "Parallel execution" in EXPERIMENTS.md);
# JOBS=1 forces serial runs.
set -e
BUILD=${1:-build}
JOBS=${JOBS:-$(nproc 2>/dev/null || echo 1)}
cmake -B "$BUILD" -G Ninja
cmake --build "$BUILD"
# No pipes: under `set -e` a failing step must fail the script (a
# pipeline would report tee's status instead).
ctest --test-dir "$BUILD" > test_output.txt 2>&1
"$BUILD"/bench/paper_figures --jobs="$JOBS" > bench_output.txt 2>&1
