#!/usr/bin/env bash
# Local CI: formatting, lints, tests, and repo-specific hygiene checks.
# Everything runs offline (the workspace has no external dependencies).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test (ATGNN_THREADS=1: sequential inline execution) =="
ATGNN_THREADS=1 cargo test -q --workspace

echo "== cargo test (unrestricted thread pool) =="
# The dev profile pins debug-assertions and overflow-checks on (see
# Cargo.toml), so this pass also exercises every debug-build invariant:
# the plan verifier in model constructors, the comm-volume check in the
# dist forward, and the kernels' internal debug_asserts.
cargo test -q --workspace

echo "== cargo test (forced RCM reorder + scalar microkernels) =="
# The whole suite must hold under the locality layer's other extreme:
# every model runs on an RCM-permuted graph (outputs mapped back through
# the inverse permutation) with the scalar reference kernels.
ATGNN_REORDER=rcm ATGNN_MICROKERNEL=scalar cargo test -q --workspace

echo "== cargo test (SIMD layer off: scalar lanes + tight layout) =="
# The SIMD oracle configuration: lane kernels disabled, seed memory
# layout. The whole suite must hold bit-for-bit here — this is the
# baseline the wide+padded default is equivalence-gated against
# (tests/simd_equivalence.rs, DESIGN.md §6).
ATGNN_SIMD=scalar ATGNN_LAYOUT=tight cargo test -q --workspace

echo "== cargo test (bf16 precision axis: features rounded through bf16) =="
# The narrow configuration: plans resolved under the env round each
# layer's projected features through bf16 once and stream them as f32
# through the ordinary kernels (no kernel holds 16-bit elements). The
# tolerance-gated suites must hold — the dedicated precision suite
# (round-trip properties, round_matrix and narrow-inference bit
# contracts, padded tails through a bf16 train_step, gradient drift
# bounds) plus the kernel-equivalence suites, whose oracles pin their own
# precision. The full workspace is *expected* to fail here (layer
# gradchecks assert f32-exact tolerances); f32 — what an unset
# ATGNN_PRECISION means — is the oracle, and the passes above are its
# full-suite run.
ATGNN_PRECISION=bf16 cargo test -q --test precision --test fused_attention --test simd_equivalence --test extensions

echo "== atgnn-lint: source hygiene (replaces the former grep/awk lints) =="
# A real scanner (string/comment stripping, brace-tracked #[cfg(test)]
# module skipping, per-line allowlist annotations) enforcing:
#   * no unwrap() in kernel code (crates/sparse, crates/tensor)
#   * kernel crates use the rt pool, not raw threads (rt.rs exempt)
#   * layers route attention through ExecPlan, not staged kernels
#   * only the plan layer applies graph reorderings (.permute)
#   * dist code uses the deadline-bounded recv, not recv_unbounded
#   * kernels address Dense storage via stride-aware accessors only
#     (no raw row*cols indexing outside dense.rs — padded-layout safety)
#   * kernels and layers never read plan-knob env vars (ATGNN_LAYOUT,
#     ATGNN_SIMD, ...) directly — knobs reach kernels only
#     through ExecPlan::apply_kernel_knobs, so the plan a model was
#     given cannot be silently bypassed
#   * no std HashMap/HashSet in non-test code of crates/sparse/src
#     (hash-in-kernels: hashing on a kernel path is what made ego
#     extraction 29 % of a served batch, and RandomState iteration order
#     is a determinism hazard the plan analysis cannot see)
# Unlike the old awk strip (which stopped at the FIRST #[cfg(test)] and
# went blind for the rest of the file), the scanner resumes after each
# test module. Suppress a finding with `// atgnn-lint: allow(<rule>)`.
cargo run --release -q -p atgnn-lint -- --deny warnings

echo "== env-knob budget (distinct ATGNN_* names under crates/) =="
# ROADMAP: no PR adds an environment knob. A ratchet, not a target: a PR
# that removes a name lowers KNOB_BUDGET in the same diff.
KNOB_BUDGET=24
knobs=$(grep -rhoE 'ATGNN_[A-Z0-9_]+' crates | sort -u)
knob_count=$(wc -l <<<"$knobs")
if ((knob_count > KNOB_BUDGET)); then
    echo "$knobs"
    echo "error: $knob_count distinct ATGNN_* names under crates/, budget is $KNOB_BUDGET" >&2
    exit 1
fi

echo "== atgnn-lint --dag: abstract interpretation of every canned plan =="
# Shapes, virtual safety, fusion legality, semirings, determinism
# proofs, FP-stability intervals, alias legality, precision verdicts —
# over every model's forward+backward DAGs under both execution plans.
# The staged plan's materialization warnings are expected; only errors
# fail this pass.
cargo run --release -q -p atgnn-lint -- --dag

echo "== analysis_overhead smoke (plan-verifier cost harness) =="
# Smoke mode: small graph, no ratio assertion — verifies the analyzer
# sweep timing harness and the BENCH_analysis.json writer run. The full
# run (no ATGNN_SMOKE) asserts the sweep costs <1% of a training step.
ATGNN_SMOKE=1 cargo run --release -q -p atgnn-bench --bin analysis_overhead

echo "== chaos smoke (one bounded run per fault class) =="
# Injects each fault class (drop, delay, dup, corrupt, crash, hang) into
# a short distributed GAT training job and asserts the run heals with a
# bit-identical final loss. Every run is fenced by the plan's recv and
# barrier timeouts, so a liveness regression fails in seconds.
cargo run --release -q -p atgnn-bench --bin chaos

echo "== ablation_fusion smoke (staged vs one-pass harness) =="
# Smoke mode: smallest graph only, no timing assertions — verifies the
# staged/one-pass pipeline harness, the GAT backward's virtual-Ψ ≡
# materialized bit assert, and the BENCH_fusion.json writer run.
ATGNN_SMOKE=1 cargo run --release -q -p atgnn-bench --bin ablation_fusion

echo "== locality smoke (reorder × microkernel sweep harness) =="
# Smoke mode: smallest graph only, no speedup assertion — verifies the
# reorder/microkernel sweep, the permuted-vs-unpermuted equivalence
# checks, and the BENCH_locality.json writer run.
ATGNN_SMOKE=1 cargo run --release -q -p atgnn-bench --bin locality

echo "== simd smoke (SIMD-width × layout sweep harness) =="
# Smoke mode: tiny graph, no speedup assertion — verifies the
# wide/scalar × padded/tight sweep, the in-run bit-identity and
# tolerance equivalence gates, and the BENCH_simd.json writer run.
ATGNN_SMOKE=1 cargo run --release -q -p atgnn-bench --bin simd

echo "== serve smoke (resilient online inference serving) =="
# Bounded chaos-serve run: the latency/QPS sweep plus one script per
# failure class. The run must SHED past the admission cap with the typed
# Overloaded error, DEGRADE down the ladder under sustained pressure,
# HEAL an injected worker crash, FENCE an injected hang via the
# watchdog, and WARM-RESTART from the checkpoint + intent log — all with
# zero lost accepted requests (accepted == answered + expired +
# cancelled after drain), then write BENCH_serve.json.
ATGNN_SMOKE=1 cargo run --release -q -p atgnn-bench --bin serve

echo "== benchmark smoke (the frozen end-to-end benchmark still builds and gates) =="
# benchmark/ is frozen (BENCHMARK.json), so nothing here edits it; this
# step proves the gated `e2e` binary still builds against the product API
# and that all four workloads pass their correctness gates at smoke size.
bash benchmark/run.sh --smoke

echo "== ci.sh: all checks passed =="
