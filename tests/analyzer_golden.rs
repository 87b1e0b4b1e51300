//! Golden-file tests for the plan verifier.
//!
//! Each case builds a known-bad tensor DAG, runs the *full* analyzer
//! (`atgnn::analyze::validate` — shapes, virtual safety, fusion
//! legality, semirings, determinism, FP-stability, aliasing)
//! and compares the rendered diagnostic stream byte-for-byte against
//! `tests/golden/<case>.txt`. The goldens pin the exact rule, node id,
//! and wording, so an accidental change to any diagnostic — or an
//! analysis silently going quiet — fails loudly.
//!
//! To accept intentional wording changes, regenerate with:
//!
//! ```text
//! ATGNN_BLESS=1 cargo test --test analyzer_golden
//! ```
//!
//! The final test sweeps the clean corpus: every canned model DAG and
//! the fused execution plan must produce *zero* diagnostics of any
//! severity.

use std::path::PathBuf;

use atgnn::analyze::{self, validate};
use atgnn::dag::{Dag, Dim, SemiringKind, Shape, TensorClass};
use atgnn::{ExecPlan, ModelKind};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Renders diagnostics exactly as the CLI prints them, one per line.
/// `validate` visits nodes in a fixed order, so the stream is
/// deterministic without sorting.
fn render(dag: &Dag) -> String {
    validate(dag)
        .iter()
        .map(|d| format!("{d}\n"))
        .collect::<String>()
}

fn check_golden(name: &str, dag: &Dag) {
    let got = render(dag);
    assert!(
        !got.is_empty(),
        "{name}: a golden case must produce at least one diagnostic"
    );
    let path = golden_path(name);
    if std::env::var_os("ATGNN_BLESS").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}; run ATGNN_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "{name}: diagnostics drifted from the golden; if intentional, \
         rerun with ATGNN_BLESS=1 and review the diff"
    );
}

/// `H·W` grown `depth` times without normalization: magnitude `√k^depth`
/// under the analyzer's random-sign model (k = 16 ⇒ gain 4 per hop).
fn chain_of_matmuls(d: &mut Dag, depth: usize) -> usize {
    let h = d.add("H", TensorClass::DenseNk, &[]);
    let w = d.add("W", TensorClass::DenseKk, &[]);
    let mut cur = h;
    for _ in 0..depth {
        cur = d.add("matmul", TensorClass::DenseNk, &[cur, w]);
    }
    cur
}

#[test]
fn golden_shape_mismatch() {
    let mut d = Dag::new();
    let h = d.add("H", TensorClass::DenseNk, &[]);
    let w = d.add_shaped(
        "W",
        TensorClass::DenseKk,
        &[],
        Shape::new(Dim::K, Dim::KPrime),
    );
    // matmul(n×k, k×k') declared as k×k' output: wrong on both axes.
    let _z = d.add("matmul(H,W)", TensorClass::DenseKk, &[h, w]);
    check_golden("shape_mismatch", &d);
}

#[test]
fn golden_unfused_virtual() {
    let mut d = Dag::new();
    let h = d.add("H", TensorClass::DenseNk, &[]);
    let hht = d.add("matmul_nt(H,H)", TensorClass::DenseNn, &[h, h]);
    // The virtual n×n product escapes into a dense matmul instead of a
    // sparse sampler: one escape error plus the never-sampled region.
    let _bad = d.add("matmul(HHt,H)", TensorClass::DenseNk, &[hht, h]);
    check_golden("unfused_virtual", &d);
}

#[test]
fn golden_illegal_fusion() {
    let mut d = Dag::new();
    let h = d.add("H", TensorClass::DenseNk, &[]);
    let a = d.add("A", TensorClass::SparseNn, &[]);
    let v1 = d.add("matmul_nt(H,H)", TensorClass::DenseNn, &[h, h]);
    // A virtual×virtual matmul cannot be evaluated per sampled entry.
    let v2 = d.add_shaped(
        "matmul(V,V)",
        TensorClass::DenseNn,
        &[v1, v1],
        Shape::new(Dim::N, Dim::N),
    );
    let _s = d.add("mask(A,·)", TensorClass::SparseNn, &[a, v2]);
    check_golden("illegal_fusion", &d);
}

#[test]
fn golden_nondet_reduction() {
    let mut d = Dag::new();
    let h = d.add("H", TensorClass::DenseNk, &[]);
    let a = d.add("A", TensorClass::SparseNn, &[]);
    // An aggregation no kernel exports a schedule fact for, over a
    // rounding semiring: no reduction-order-invariance proof exists.
    let _agg = d.add_agg(
        "scatter_add(A,H)",
        TensorClass::DenseNk,
        &[a, h],
        Shape::new(Dim::N, Dim::K),
        SemiringKind::Real,
    );
    check_golden("nondet_reduction", &d);
}

#[test]
fn golden_softmax_overflow() {
    let mut d = Dag::new();
    // 4^5 = 1024 > 709: a raw exp (no max shift) can overflow.
    let big = chain_of_matmuls(&mut d, 5);
    let _e = d.add("exp", TensorClass::DenseNk, &[big]);
    check_golden("softmax_overflow", &d);
}

#[test]
fn golden_cancellation() {
    let mut d = Dag::new();
    let x = chain_of_matmuls(&mut d, 3); // magnitude 64 ≥ CANCEL_MAG
    let _s = d.add("sub", TensorClass::DenseNk, &[x, x]);
    check_golden("cancellation", &d);
}

#[test]
fn golden_alias_unsafe() {
    let mut d = Dag::new();
    let h = d.add("H", TensorClass::DenseNk, &[]);
    let x = d.add("scale", TensorClass::DenseNk, &[h]);
    // Declared in-place over `x`, but `x` has a second consumer below.
    let _bad = d.add("add_inplace(x,h)", TensorClass::DenseNk, &[x, h]);
    let _second = d.add("add", TensorClass::DenseNk, &[x, h]);
    check_golden("alias_unsafe", &d);
}

#[test]
fn clean_corpus_produces_zero_diagnostics() {
    for kind in [
        ModelKind::Va,
        ModelKind::Agnn,
        ModelKind::Gat,
        ModelKind::Gcn,
    ] {
        let diags = analyze::validate_model(kind);
        assert!(diags.is_empty(), "{kind:?} model DAGs: {diags:?}");
        let diags = analyze::validate_plan(&ExecPlan::fused(), kind);
        assert!(diags.is_empty(), "{kind:?} fused plan: {diags:?}");
    }
}
