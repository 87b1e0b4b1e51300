#!/usr/bin/env bash
# Paired A/B of two prebuilt `e2e` binaries — the gated binary
# `benchmark/run.sh` builds, made once from the parent commit and once
# from the change, each in a checkout *outside* this repo.
#
#   tools/ab.sh PARENT_E2E CHANGE_E2E [PAIRS=10] [SECONDS=15] [SEED0=301] [WORKLOAD...]
#
# One seed per pair, the side that runs first alternates, ATGNN_* is
# cleared. Prints one `P|C <workload> <seed> <result object> <cpu object>`
# line per run (keep them — every run is reported), then
# tools/ab_summary.awk's table; `awk -f tools/ab_summary.awk saved.log`
# re-summarises a kept log. The cpu object is the run's user and sys CPU
# seconds (setup, window and verification together), from bash's `times`,
# and its minor page faults, from the `cminflt` field of this shell's
# /proc stat: sys CPU is where page-fault churn shows, which separates
# allocator effects from kernel time, and the fault count barely drifts.
set -u
parent=$1 change=$2 pairs=${3:-10} seconds=${4:-15} seed0=${5:-301}
workloads=("${@:6}")
((${#workloads[@]})) || workloads=(train_kron infer_er serve_er dist_kron4)
for v in $(compgen -v ATGNN_ || true); do unset "$v"; done
tmp=$(mktemp) && trap 'rm -f "$tmp"' EXIT
run() {
  local before after out st f0
  # `times` and `read` run in this shell, not in a command substitution's
  # fork: `times`' second line is the CPU of this shell's reaped children
  # so far, and field 11 of its stat (`cminflt`, array index 10) their
  # minor faults. $BASHPID, not $$: the loop runs in a pipeline subshell.
  times >"$tmp" && before=$(tail -n 1 "$tmp")
  read -r -a st </proc/$BASHPID/stat && f0=${st[10]}
  out=$("$2" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 | tail -n 1)
  read -r -a st </proc/$BASHPID/stat
  times >"$tmp" && after=$(tail -n 1 "$tmp")
  echo "$1 $3 $4 $out $(awk -v a="$before" -v b="$after" -v f=$((st[10] - f0)) '
    function s(t, p) { split(t, p, "m"); return p[1] * 60 + p[2] }
    BEGIN { split(a, x, " "); split(b, y, " ")
      printf "{\"cpu_user_s\":%.3f,\"cpu_sys_s\":%.3f,\"minor_faults\":%d}", s(y[1]) - s(x[1]), s(y[2]) - s(x[2]), f }')"
}
for w in "${workloads[@]}"; do
  for ((i = 0; i < pairs; i++)); do
    sides=(P "$parent" C "$change")
    ((i % 2)) && sides=(C "$change" P "$parent")
    run "${sides[0]}" "${sides[1]}" "$w" $((seed0 + i))
    run "${sides[2]}" "${sides[3]}" "$w" $((seed0 + i))
  done
done | tee /dev/stderr | awk -f "$(dirname "${BASH_SOURCE[0]}")/ab_summary.awk"
