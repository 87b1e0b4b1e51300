//! Property tests for the locality layer: `Csr::permute` invariants and
//! the end-to-end guarantee that running the fused attention kernels on
//! a reordered graph is observationally equivalent to the unordered run;
//! then the model boundary above it — what a plan resolves to, and when
//! the model may reuse a reordered adjacency it computed earlier.
//!
//! Each property runs over seeded random cases (the in-repo ChaCha8
//! [`Rng`]); a failing case is reproducible from the seed in the
//! assertion message.

use atgnn::loss::Mse;
use atgnn::optimizer::Sgd;
use atgnn::{ExecPlan, GnnModel, Layout, ModelKind, ReorderStrategy};
use atgnn_graphgen::{kronecker, reorder};
use atgnn_sparse::attention::{self, AttentionExec};
use atgnn_sparse::csr::value_allocs;
use atgnn_sparse::{Coo, Csr};
use atgnn_tensor::rng::Rng;
use atgnn_tensor::{init, micro, Activation, Dense};

const CASES: u64 = 48;

/// A random square adjacency with self-loops, n in [4, 24).
fn arb_adjacency(rng: &mut Rng) -> Csr<f64> {
    let n = rng.gen_range(4, 24);
    let m = rng.gen_range(1, 100);
    let mut edges: Vec<(u32, u32)> = (0..m)
        .map(|_| (rng.gen_index(n) as u32, rng.gen_index(n) as u32))
        .collect();
    edges.extend((0..n as u32).map(|i| (i, i)));
    let mut coo = Coo::<f64>::from_edges(n, n, edges);
    coo.dedup_binary();
    Csr::from_coo(&coo)
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
fn arb_permutation(rng: &mut Rng, n: usize) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_index(i + 1));
    }
    perm
}

fn assert_csr_eq(a: &Csr<f64>, b: &Csr<f64>, msg: &str) {
    assert_eq!(a.rows(), b.rows(), "{msg}: row count");
    for r in 0..a.rows() {
        let (ca, va) = a.row(r);
        let (cb, vb) = b.row(r);
        assert_eq!(ca, cb, "{msg}: columns of row {r}");
        assert_eq!(va, vb, "{msg}: values of row {r}");
    }
}

#[test]
fn permute_then_inverse_roundtrips() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x700 + case);
        let a = arb_adjacency(&mut rng);
        let perm = arb_permutation(&mut rng, a.rows());
        let inv = reorder::inverse(&perm);
        let back = a.permute(&perm).permute(&inv);
        assert_csr_eq(&back, &a, &format!("case {case}"));
    }
}

#[test]
fn permute_keeps_columns_strictly_increasing() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x800 + case);
        let a = arb_adjacency(&mut rng);
        let perm = arb_permutation(&mut rng, a.rows());
        let p = a.permute(&perm);
        assert_eq!(p.nnz(), a.nnz(), "case {case}: nnz preserved");
        for r in 0..p.rows() {
            let (cols, _) = p.row(r);
            for w in cols.windows(2) {
                assert!(
                    w[0] < w[1],
                    "case {case}: row {r} columns not strictly increasing"
                );
            }
        }
    }
}

/// The computed reordering permutations (degree sort and RCM) are valid
/// permutations, and `reorder::inverse` inverts them.
#[test]
fn strategy_permutations_are_valid() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x900 + case);
        let a = arb_adjacency(&mut rng);
        for strategy in [reorder::Strategy::Degree, reorder::Strategy::Rcm] {
            let perm = reorder::permutation(&a, strategy)
                .unwrap_or_else(|| panic!("case {case}: forced strategy must produce a perm"));
            let inv = reorder::inverse(&perm);
            for (old, &new) in inv.iter().enumerate() {
                assert_eq!(
                    perm[new as usize] as usize, old,
                    "case {case} {strategy:?}: inverse mismatch at {old}"
                );
            }
        }
    }
}

/// End-to-end oracle: fused GAT attention on the permuted graph, with
/// permuted inputs, equals the unpermuted run after mapping the output
/// back through the inverse permutation.
#[test]
fn fused_attention_commutes_with_permutation() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xa00 + case);
        let a = arb_adjacency(&mut rng);
        let n = a.rows();
        let k = rng.gen_range(1, 9);
        let u: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let v: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let hp = Dense::from_fn(n, k, |i, j| ((i * 13 + j * 7) % 19) as f64 / 9.0 - 1.0);
        let want =
            attention::forward_gat(AttentionExec::FusedOnePass, &a, &u, &v, &hp, 0.2, false).out;

        let perm = arb_permutation(&mut rng, n);
        let inv = reorder::inverse(&perm);
        let ap = a.permute(&perm);
        let up: Vec<f64> = perm.iter().map(|&o| u[o as usize]).collect();
        let vp: Vec<f64> = perm.iter().map(|&o| v[o as usize]).collect();
        let hpp = hp.gather_rows(&perm);
        let got =
            attention::forward_gat(AttentionExec::FusedOnePass, &ap, &up, &vp, &hpp, 0.2, false)
                .out
                .gather_rows(&inv);
        let err = got.max_abs_diff(&want);
        assert!(
            err < 1e-6,
            "case {case}: permuted fused GAT diverges by {err:.2e}"
        );
    }
}

const KINDS: [ModelKind; 4] = [
    ModelKind::Va,
    ModelKind::Agnn,
    ModelKind::Gat,
    ModelKind::Gcn,
];

const DIMS: [usize; 3] = [8, 8, 8];

/// A 64-vertex Kronecker graph prepared for `kind`, and features for it.
fn model_inputs(kind: ModelKind) -> (Csr<f64>, Dense<f64>) {
    let a = GnnModel::prepare_adjacency(kind, &kronecker::adjacency(64, 512, 11));
    let x = init::features(a.rows(), DIMS[0], 5);
    (a, x)
}

fn model(kind: ModelKind) -> GnnModel<f64> {
    GnnModel::uniform(kind, &DIMS, Activation::Tanh, 3)
}

/// Plan resolution is `defaulted_for_width` and nothing else: the same
/// answer every time, the environment's reorder strategy carried through
/// (ci.sh's forced-RCM pass runs this), and no kernel global written by
/// resolving, inferring or training. No test in this binary touches the
/// kernel globals, so reading them before and after is race-free.
#[test]
fn plan_resolution_is_pure_and_process_quiet() {
    let before = micro::mode();
    for kind in KINDS {
        let (a, x) = model_inputs(kind);
        let mut m = model(kind);
        let plan = m.resolved_plan(&a);
        assert_eq!(m.resolved_plan(&a), plan, "{kind:?}: resolution is stable");
        assert_eq!(
            plan,
            m.plan().defaulted_for_width(m.hot_width()),
            "{kind:?}"
        );
        if let Some(forced) = std::env::var("ATGNN_REORDER")
            .ok()
            .as_deref()
            .and_then(ReorderStrategy::parse)
        {
            assert_eq!(plan.reorder(), forced, "{kind:?}: the env's reorder wins");
        }
        let out = m.inference(&a, &x);
        assert_eq!(out.rows(), a.rows());
        assert!(out.max_abs().is_finite(), "{kind:?}");
        let loss = Mse::new(init::features(a.rows(), DIMS[2], 7));
        assert!(m.train_step(&a, &x, &loss, &mut Sgd::new(0.01)).is_finite());
        assert_eq!(
            m.resolved_plan(&a),
            plan,
            "{kind:?}: running changes nothing"
        );
    }
    assert_eq!(micro::mode(), before, "the product wrote a kernel global");

    // Two differently planned models taking turns on one graph each keep
    // their own plan.
    let (a, x) = model_inputs(ModelKind::Gat);
    let padded_rcm = ExecPlan::fused()
        .with_layout(Layout::Padded)
        .with_reorder(ReorderStrategy::Rcm);
    let tight_off = ExecPlan::fused()
        .with_layout(Layout::Tight)
        .with_reorder(ReorderStrategy::Off);
    let (m1, m2) = (
        model(ModelKind::Gat).with_plan(padded_rcm),
        model(ModelKind::Gat).with_plan(tight_off),
    );
    for _ in 0..2 {
        assert_eq!(m1.resolved_plan(&a), padded_rcm);
        m1.inference(&a, &x);
        assert_eq!(m2.resolved_plan(&a), tight_off);
        m2.inference(&a, &x);
    }
}

/// The model caches its reordered adjacency, values included, so a hit
/// must mean "this very matrix, unchanged" — not "this pattern". Each of
/// the three ways to put other values under the same pattern must miss,
/// whether the stale copy would have been read by `inference` or by
/// `train_step`: a warm model must answer exactly as a fresh one does.
#[test]
fn reorder_cache_never_serves_another_matrix_of_the_same_pattern() {
    let rcm = ExecPlan::fused().with_reorder(ReorderStrategy::Rcm);
    let triple = |v: f64| v * 3.0;
    for kind in KINDS {
        let (a, x) = model_inputs(kind);
        let loss = Mse::new(init::features(a.rows(), DIMS[2], 7));
        for change in ["map_values", "with_values", "values_mut"] {
            for reader in ["inference", "train_step"] {
                let mut a = a.clone();
                let mut warm = model(kind).with_plan(rcm);
                // Fill the cache with `a` as it is now…
                warm.inference(&a, &x);
                // …then present other values under the same pattern.
                let b = match change {
                    "map_values" => a.map_values(triple),
                    "with_values" => a.with_values(a.values().iter().map(|&v| triple(v)).collect()),
                    _ => {
                        a.values_mut().iter_mut().for_each(|v| *v = triple(*v));
                        a
                    }
                };
                let mut fresh = model(kind).with_plan(rcm);
                let mut delta = 0.0;
                if reader == "train_step" {
                    let l_warm = warm.train_step(&b, &x, &loss, &mut Sgd::new(0.01));
                    let l_fresh = fresh.train_step(&b, &x, &loss, &mut Sgd::new(0.01));
                    delta = (l_warm - l_fresh).abs();
                }
                delta = delta.max(
                    warm.inference(&b, &x)
                        .max_abs_diff(&fresh.inference(&b, &x)),
                );
                assert_eq!(delta, 0.0, "{kind:?}/{change}/{reader}: max |Δ| = {delta}");
            }
        }
    }
}

/// …and the cache still caches: the same matrix twice is permuted once,
/// counted by the `Csr` value arrays each call creates on this thread.
#[test]
fn reorder_cache_permutes_an_unchanged_matrix_once() {
    let (mut a, x) = model_inputs(ModelKind::Gcn);
    let m = model(ModelKind::Gcn).with_plan(ExecPlan::fused().with_reorder(ReorderStrategy::Rcm));
    let allocs = |a: &Csr<f64>| {
        let before = value_allocs();
        m.inference(a, &x);
        value_allocs() - before
    };
    let cold = allocs(&a);
    let warm = allocs(&a);
    assert_eq!(cold, warm + 1, "the first call makes the one permuted copy");
    assert_eq!(allocs(&a), warm);
    a.values_mut()[0] *= 2.0;
    assert_eq!(allocs(&a), cold, "a written-to matrix is permuted afresh");
}
