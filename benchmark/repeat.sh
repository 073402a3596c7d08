#!/usr/bin/env bash
# Repeatability of the benchmark on one commit.
#
# Two sets of three `e2e` runs of every workload (seeds 0xAC1D, +1, +2
# in both sets): the per-metric medians of the two sets must agree
# within the metric's bound in BENCHMARK.json. Two `traced` runs of
# every workload at the default seed: every count marked # in
# README.md must be identical. Writes benchmark/REPEATABILITY.md and
# exits non-zero if anything disagrees.
#
#   bash benchmark/repeat.sh          # from the root of a checkout, ~20 min
set -euo pipefail

here="$(dirname "$0")"
out="$here/out/repeat"
mkdir -p "$out"
workloads=(serve_read serve_mutate serve_sketch batch_paper)
seeds=(44061 44062 44063)

for set in 1 2; do
    for w in "${workloads[@]}"; do
        for seed in "${seeds[@]}"; do
            bash "$here/run.sh" --workload "$w" --seed "$seed" --trace 0 \
                | tail -n 1 >"$out/e2e.$set.$w.$seed.json"
        done
    done
done
for set in 1 2; do
    for w in "${workloads[@]}"; do
        bash "$here/run.sh" --workload "$w" --seed "${seeds[0]}" --trace 1 \
            | tail -n 1 >"$out/traced.$set.$w.json"
    done
done

python3 "$here/repeat.py" "$here/../BENCHMARK.json" "$out" >"$here/REPEATABILITY.md"
cat "$here/REPEATABILITY.md"
grep -q '^Result: every' "$here/REPEATABILITY.md"
