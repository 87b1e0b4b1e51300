#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--seed N] [--repeat R] [--smoke] [--trace]
#       runs the four workloads, one fresh process each, prints every
#       metric by name with its unit, checks outputs, writes
#       benchmark/results/BENCH_e2e.json (--trace: BENCH_e2e_trace.json,
#       --smoke: under results/smoke/), exits non-zero on any failed gate.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       the driver's form: one workload, result object on the last line.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The product runs its defaults: no knob, no fault plan, no tuning mode
# (and so no tuning database) leaks in from the caller's environment.
for v in $(compgen -v ATGNN_ || true); do unset "$v"; done

workload=0 trace=0 prev=
for arg in "$@"; do
  [[ $arg == --workload ]] && workload=1
  [[ $arg == --trace ]] && trace=1
  [[ $prev == --trace && $arg == 0 ]] && trace=0
  prev=$arg
done

# Only the binary this run needs: the traced binary calls kernels, and a
# kernel-signature change must not be able to break the gated build.
bins=(--bin e2e)
[[ $trace == 1 ]] && bins+=(--bin e2e_trace)
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml "${bins[@]}" 1>&2
target=${CARGO_TARGET_DIR:-benchmark/target}/release

if [[ $workload == 1 ]]; then
  [[ $trace == 1 ]] && exec "$target/e2e_trace" "$@"
  exec "$target/e2e" "$@"
fi
exec "$target/e2e" --git-rev "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" "$@"
