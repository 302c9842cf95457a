#!/usr/bin/env bash
# Regenerates every experiment in the paper's evaluation (plus the
# extension studies) into results/: one file per row of `bench --list`,
# plus table 7 under the generational collector. Takes a few minutes at
# full scale; pass --quick to smoke-test in seconds.
#
# Runs fan out across JOBS worker threads (default: all host cores, or
# GOFREE_JOBS); reported numbers are identical for any value
# (tests/parallel.rs), only wall-clock changes.
set -euo pipefail
cd "$(dirname "$0")/.."
ARGS=("$@")
CORES="$(nproc 2>/dev/null || echo 1)"
JOBS="${GOFREE_JOBS:-$CORES}"
HEADER="# host: $CORES core(s), jobs=$JOBS"
cargo build --release -p gofree-bench
BENCH=target/release/bench
mkdir -p results
for exp in $("$BENCH" --list); do
  echo "== $exp =="
  { echo "$HEADER"
    "$BENCH" "$exp" --jobs "$JOBS" "${ARGS[@]}"
  } | tee "results/$exp.txt"
done
echo "== table7 (gen collector) =="
{ echo "$HEADER"
  "$BENCH" table7 --jobs "$JOBS" --collector gen "${ARGS[@]}"
} | tee results/table7_gen.txt
echo "All experiments regenerated into results/."
