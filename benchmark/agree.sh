#!/usr/bin/env bash
# Run the full set twice with different seeds and print, per workload and
# end-to-end metric, both values, how much worse the second is, the
# bound from BENCHMARK.json, and pass or fail. Exits non-zero when a pair
# differs by more than its bound.
#
#   benchmark/agree.sh [SEED_A SEED_B] [-- extra run.sh arguments]
set -euo pipefail
here="$(dirname "$0")"
seed_a=11
seed_b=12
if [ $# -ge 2 ] && [ "$1" != "--" ]; then
    seed_a="$1"
    seed_b="$2"
    shift 2
fi
[ "${1:-}" = "--" ] && shift
for seed in "$seed_a" "$seed_b"; do
    "$here/run.sh" --seed "$seed" "$@"
    cp "$here/out/summary.json" "$here/out/agree_$seed.json"
done
"$here/run.sh" --compare "$here/out/agree_$seed_a.json" "$here/out/agree_$seed_b.json" "$here/../BENCHMARK.json"
