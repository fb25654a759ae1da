#!/usr/bin/env bash
# The artifact-appendix workflow (paper §A.5), adapted: build everything,
# run the full test suite, regenerate every table/figure CSV into
# results/, and run the criterion micro-benchmarks.
#
#   ./scripts/reproduce_all.sh [THREADS] [--full]
#
# THREADS defaults to the machine's hardware parallelism; --full uses the
# paper's exact Table 2 layer sizes (needs >= 16 GB and real patience on
# few cores) instead of the scaled catalogue.

set -euo pipefail
cd "$(dirname "$0")/.."

THREADS="${1:-$(nproc)}"
FULL=""
for a in "$@"; do
  [ "$a" = "--full" ] && FULL="--full"
done

echo "== building (release; the vector backend is picked at run time) =="
cargo build --workspace --release

echo "== test suite =="
cargo test --workspace 2>&1 | grep -E "test result" | tail -40

mkdir -p results
echo "== Figure 5 (layer runtimes; ~minutes) =="
target/release/fig5 --reps 2 --jit --threads "$THREADS" $FULL > results/fig5_results.csv
echo "   -> results/fig5_results.csv"

echo "== Figure 6 (batched GEMM throughput per V-hat size) =="
target/release/fig6 --rows 2048 --t 8 --reps 3 > results/fig6_results.csv
echo "   -> results/fig6_results.csv"

echo "== Table 3 (element errors, both point schedules) =="
target/release/table3 --threads "$THREADS" | tee results/table3.txt

echo "== ablations =="
# (No streaming-stores row: store flavour is a plan-time rule — EXPERIMENTS.md,
# "§4.2.1 — store flavour is a rule".)
target/release/ablations blocking-model                        > results/abl_block.csv
target/release/ablations budden-net       --threads "$THREADS" > results/abl_budden.csv
echo "   -> results/abl_*.csv"

echo "== criterion micro-benchmarks =="
cargo bench --workspace 2>&1 | grep -E "time:" | tail -40

echo "All artefacts regenerated. Compare against EXPERIMENTS.md."
