#!/usr/bin/env bash
# Paired A/B of two prebuilt `e2e` binaries — the gated binary
# `benchmark/run.sh` builds, made once from the parent commit and once
# from the change, each in a checkout *outside* this repo.
#
#   tools/ab.sh PARENT_E2E CHANGE_E2E [PAIRS=10] [SECONDS=15] [SEED0=301] [WORKLOAD...]
#
# One seed per pair, the side that runs first alternates, ATGNN_* is
# cleared. Prints one `P|C <workload> <seed> <result object>` line per run
# (keep them — every run is reported), then tools/ab_summary.awk's table;
# `awk -f tools/ab_summary.awk saved.log` re-summarises a kept log.
set -u
parent=$1 change=$2 pairs=${3:-10} seconds=${4:-15} seed0=${5:-301}
workloads=("${@:6}")
((${#workloads[@]})) || workloads=(train_kron infer_er serve_er dist_kron4)
for v in $(compgen -v ATGNN_ || true); do unset "$v"; done
run() { echo "$1 $3 $4 $("$2" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 | tail -n 1)"; }
for w in "${workloads[@]}"; do
  for ((i = 0; i < pairs; i++)); do
    sides=(P "$parent" C "$change")
    ((i % 2)) && sides=(C "$change" P "$parent")
    run "${sides[0]}" "${sides[1]}" "$w" $((seed0 + i))
    run "${sides[2]}" "${sides[3]}" "$w" $((seed0 + i))
  done
done | tee /dev/stderr | awk -f "$(dirname "${BASH_SOURCE[0]}")/ab_summary.awk"
