//! Fused-vs-staged equivalence for the one-pass attention pipelines.
//!
//! The one-pass sweep (`atgnn_sparse::attention`) must agree with the
//! staged oracle (separate SDDMM → softmax → SpMM passes) on real graph
//! shapes — uniform Erdős–Rényi and skewed Kronecker — at every thread
//! count, for all three attentional models, forward *and* backward.
//! Comparisons use the same 1e-9 tolerance discipline as
//! `tests/runtime_determinism.rs` rather than bitwise equality, so the
//! one-pass kernels stay free to reassociate row reductions — except the
//! aggregation, which is elementwise and is pinned bitwise against `spmm`
//! across column tiles.

use atgnn::loss::Mse;
use atgnn::optimizer::Sgd;
use atgnn::plan::ExecPlan;
use atgnn::{AGnnLayer, GnnModel};
use atgnn_graphgen::{erdos_renyi, kronecker};
use atgnn_sparse::{attention, csr, norm, spmm, Csr};
use atgnn_tensor::{init, rt, Activation, Dense};

fn graphs() -> Vec<(&'static str, Csr<f64>)> {
    vec![
        (
            "erdos_renyi",
            erdos_renyi::adjacency::<f64>(2000, 32_000, 42),
        ),
        ("kronecker", kronecker::adjacency::<f64>(2048, 32_768, 7)),
    ]
}

fn feats(n: usize, k: usize, seed: usize) -> Dense<f64> {
    Dense::from_fn(n, k, |i, j| {
        ((i * 31 + j * 17 + seed * 7) % 23) as f64 / 11.0 - 1.0
    })
}

fn csr_close(a: &Csr<f64>, b: &Csr<f64>, tol: f64, what: &str) {
    assert!(a.same_pattern(b), "{what}: pattern mismatch");
    for (x, y) in a.values().iter().zip(b.values()) {
        assert!((x - y).abs() < tol, "{what}: {x} vs {y}");
    }
}

fn vec_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
    for (x, y) in a.iter().zip(b) {
        assert!((x - y).abs() < tol, "{what}: {x} vs {y}");
    }
}

/// One test (not several) so the in-process `rt::set_threads` sweep cannot
/// race with itself under the parallel test harness.
#[test]
fn fused_matches_staged_on_real_graphs_across_thread_counts() {
    let max = rt::max_threads();
    for (name, a) in graphs() {
        let n = a.rows();
        let h = feats(n, 32, 1);
        let hp = feats(n, 16, 2);
        let g = feats(n, 16, 3);
        let m = feats(n, 32, 4);
        let u: Vec<f64> = (0..n)
            .map(|i| ((i * 13 % 37) as f64) / 19.0 - 1.0)
            .collect();
        let v: Vec<f64> = (0..n)
            .map(|i| ((i * 29 % 41) as f64) / 23.0 - 0.8)
            .collect();
        let beta = 1.3f64;
        for threads in [1usize, 2, 8] {
            rt::set_threads(threads);
            let tag = format!("{name}/threads={threads}");

            // VA forward + backward.
            let f = attention::attention_forward_va(&a, &h, true);
            let s = attention::staged_forward_va(&a, &h, true);
            assert!(f.out.max_abs_diff(&s.out) < 1e-9, "{tag}: va fwd");
            csr_close(&f.psi.unwrap(), &s.psi.unwrap(), 1e-9, &tag);
            let (nf, nhf) = attention::attention_backward_va(&a, &m, &h);
            let (ns, nhs) = attention::staged_backward_va(&a, &m, &h);
            assert!(nhf.max_abs_diff(&nhs) < 1e-9, "{tag}: va bwd NH");
            csr_close(&nf, &ns, 1e-9, &tag);

            // AGNN forward + backward.
            let f = attention::attention_forward_agnn(&a, &h, &hp, beta, true);
            let s = attention::staged_forward_agnn(&a, &h, &hp, beta, true);
            assert!(f.out.max_abs_diff(&s.out) < 1e-9, "{tag}: agnn fwd");
            let (psi, cos) = (f.psi.unwrap(), f.scores.unwrap());
            csr_close(&psi, &s.psi.unwrap(), 1e-9, &tag);
            csr_close(&cos, &s.scores.unwrap(), 1e-9, &tag);
            let bf = attention::attention_backward_agnn(&a, &psi, &cos, &h, &hp, &g, beta);
            let bs = attention::staged_backward_agnn(&a, &psi, &cos, &h, &hp, &g, beta);
            assert!((bf.dbeta - bs.dbeta).abs() < 1e-9, "{tag}: agnn dbeta");
            assert!(bf.ph.max_abs_diff(&bs.ph) < 1e-9, "{tag}: agnn PH");
            csr_close(&bf.p, &bs.p, 1e-9, &tag);
            csr_close(&bf.tc, &bs.tc, 1e-9, &tag);
            vec_close(&bf.row_corr, &bs.row_corr, 1e-9, &tag);

            // GAT forward + backward.
            let f = attention::attention_forward_gat(&a, &u, &v, &hp, 0.2, true);
            let s = attention::staged_forward_gat(&a, &u, &v, &hp, 0.2, true);
            assert!(f.out.max_abs_diff(&s.out) < 1e-9, "{tag}: gat fwd");
            let (psi, c_pre) = (f.psi.unwrap(), f.scores.unwrap());
            csr_close(&psi, &s.psi.unwrap(), 1e-9, &tag);
            csr_close(&c_pre, &s.scores.unwrap(), 1e-9, &tag);
            let (dcf, duf) = attention::attention_backward_gat(&a, &psi, &c_pre, &hp, &g, 0.2);
            let (dcs, dus) = attention::staged_backward_gat(&a, &psi, &c_pre, &hp, &g, 0.2);
            csr_close(&dcf, &dcs, 1e-9, &tag);
            vec_close(&duf, &dus, 1e-9, &tag);

            // All-negative score rows: the row-max subtraction must keep
            // the row softmax finite and normalized where huge negative
            // scores would underflow a naive exp-then-sum.
            let neg_u = vec![-1e4f64; n];
            let neg_v = vec![-750.0f64; n];
            let f = attention::attention_forward_gat(&a, &neg_u, &neg_v, &hp, 0.2, true);
            let s = attention::staged_forward_gat(&a, &neg_u, &neg_v, &hp, 0.2, true);
            assert!(f.out.max_abs_diff(&s.out) < 1e-9, "{tag}: gat neg fwd");
            let psi = f.psi.unwrap();
            assert!(
                psi.values().iter().all(|p| p.is_finite() && *p >= 0.0),
                "{tag}: non-finite Ψ under all-negative scores"
            );
        }
    }
    rt::set_threads(max);
}

/// End-to-end training equivalence: a model whose layers run the fused
/// plan tracks one running the staged plan within the FP-reassociation
/// tolerance, for every attentional layer type.
#[test]
fn layer_training_tracks_staged_oracle() {
    use atgnn::layers::{AgnnLayer, GatLayer, VaLayer};
    let n = 512;
    let a = kronecker::adjacency::<f64>(n, 4096, 3);
    let a_gat = norm::add_self_loops(&a);
    let x = init::features::<f64>(n, 16, 5);
    let target = init::features::<f64>(n, 8, 7);

    type Builder<'g> = (
        &'g str,
        &'g Csr<f64>,
        Box<dyn Fn(ExecPlan) -> GnnModel<f64>>,
    );
    let builders: Vec<Builder> = vec![
        (
            "va",
            &a,
            Box::new(|p| {
                GnnModel::new(vec![Box::new(
                    VaLayer::<f64>::new(16, 8, Activation::Tanh, 11).with_plan(p),
                ) as Box<dyn AGnnLayer<f64>>])
            }),
        ),
        (
            "agnn",
            &a,
            Box::new(|p| {
                GnnModel::new(vec![Box::new(
                    AgnnLayer::<f64>::new(16, 8, Activation::Tanh, 13).with_plan(p),
                ) as Box<dyn AGnnLayer<f64>>])
            }),
        ),
        (
            "gat",
            &a_gat,
            Box::new(|p| {
                GnnModel::new(vec![Box::new(
                    GatLayer::<f64>::new(16, 8, Activation::Tanh, 17).with_plan(p),
                ) as Box<dyn AGnnLayer<f64>>])
            }),
        ),
    ];
    for (name, adj, build) in builders {
        let mut fused = build(ExecPlan::fused());
        let mut staged = build(ExecPlan::staged());
        let loss = Mse::new(target.clone());
        let (mut of, mut os) = (Sgd::new(0.01), Sgd::new(0.01));
        for step in 0..3 {
            let lf = fused.train_step(adj, &x, &loss, &mut of);
            let ls = staged.train_step(adj, &x, &loss, &mut os);
            assert!(
                (lf - ls).abs() < 1e-9,
                "{name}: losses diverged at step {step}: {lf} vs {ls}"
            );
        }
        let inf_f = fused.inference(adj, &x);
        let inf_s = staged.inference(adj, &x);
        assert!(
            inf_f.max_abs_diff(&inf_s) < 1e-9,
            "{name}: post-training inference diverged"
        );
    }
}

/// The acceptance-criterion allocation assertion: the one-pass fused
/// forward allocates **zero** intermediate score `Csr` value buffers in
/// inference mode and in GAT's virtual-`Ψ` training form, exactly the
/// cache matrices when asked for them, and strictly fewer than the staged
/// pipeline either way. (The caching entry points remain for the staged
/// and distributed callers, and for AGNN / VA training.)
#[test]
fn fused_forward_allocates_no_intermediate_score_csrs() {
    let a = kronecker::adjacency::<f64>(1024, 8192, 9);
    let n = a.rows();
    let h = feats(n, 32, 6);
    let hp = feats(n, 16, 7);
    let u: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 0.1 - 0.3).collect();
    let v: Vec<f64> = (0..n).map(|i| (i % 5) as f64 * 0.1 - 0.2).collect();

    // Inference (no caches): zero Csr value allocations on the hot path.
    let before = csr::value_allocs();
    let _ = attention::attention_forward_va(&a, &h, false);
    let _ = attention::attention_forward_agnn(&a, &h, &hp, 1.0, false);
    let _ = attention::attention_forward_gat(&a, &u, &v, &hp, 0.2, false);
    let _ = attention::attention_forward_gat_stats(&a, &u, &v, &hp, 0.2);
    assert_eq!(
        csr::value_allocs() - before,
        0,
        "fused inference and GAT training must allocate zero intermediate score Csrs"
    );

    // Training (caches requested): exactly the returned cache matrices —
    // Ψ for VA, Ψ + secondary for AGNN/GAT — and nothing else.
    let before = csr::value_allocs();
    let _ = attention::attention_forward_va(&a, &h, true);
    assert_eq!(csr::value_allocs() - before, 1, "va caches Ψ only");
    let before = csr::value_allocs();
    let _ = attention::attention_forward_agnn(&a, &h, &hp, 1.0, true);
    assert_eq!(csr::value_allocs() - before, 2, "agnn caches Ψ + cos only");
    let before = csr::value_allocs();
    let _ = attention::attention_forward_gat(&a, &u, &v, &hp, 0.2, true);
    assert_eq!(csr::value_allocs() - before, 2, "gat caches Ψ + C only");

    // The staged pipeline allocates strictly more for the same results.
    let before = csr::value_allocs();
    let _ = attention::staged_forward_gat(&a, &u, &v, &hp, 0.2, true);
    let staged_allocs = csr::value_allocs() - before;
    assert!(
        staged_allocs > 2,
        "staged GAT should allocate intermediates beyond the caches (got {staged_allocs})"
    );
}

fn assert_bits_eq(got: &Dense<f64>, want: &Dense<f64>, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for i in 0..got.rows() {
        for (j, (x, y)) in got.row(i).iter().zip(want.row(i)).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: ({i},{j}) {x} vs {y}");
        }
    }
}

/// The multi-tile aggregation path. Past the L1-derived tile width the
/// sweep cuts every output row into several column tiles — a path the
/// benchmark's `k`s never reach. The tile loop is outer and the neighbor
/// loop inner, so each forward's `out` must be `spmm` over its own `Ψ`
/// bit for bit, and the no-cache schedule (blocked-flat softmax in wide
/// mode) must reproduce the cached one, in both layouts.
#[test]
fn multi_tile_aggregation_is_bitwise_spmm_over_its_own_psi() {
    let t = attention::auto_col_tile(1 << 20, 8);
    let a = erdos_renyi::adjacency::<f64>(48, 384, 23);
    let n = a.rows();
    let u: Vec<f64> = (0..n).map(|i| (i % 11) as f64 * 0.2 - 1.0).collect();
    let v: Vec<f64> = (0..n).map(|i| (i % 13) as f64 * 0.15 - 0.9).collect();
    for k in [t + 1, 2 * t + 5] {
        assert!(attention::auto_col_tile(k, 8) < k, "k={k} fits one tile");
        for padded in [false, true] {
            let layout = |m: Dense<f64>| if padded { m.padded() } else { m };
            let (h, hp) = (layout(feats(n, k, 1)), layout(feats(n, k, 2)));
            let forward = |model: &str, cache: bool| match model {
                "va" => attention::attention_forward_va(&a, &h, cache),
                "agnn" => attention::attention_forward_agnn(&a, &h, &hp, 1.3, cache),
                _ => attention::attention_forward_gat(&a, &u, &v, &hp, 0.2, cache),
            };
            for (model, src) in [("va", &h), ("agnn", &hp), ("gat", &hp)] {
                let tag = format!("{model}/k={k}/padded={padded}");
                let cached = forward(model, true);
                let psi = cached.psi.expect("a cached forward returns Ψ");
                assert_bits_eq(&cached.out, &spmm::spmm(&psi, src), &tag);
                assert_bits_eq(&forward(model, false).out, &cached.out, &tag);
            }
        }
    }
}

/// The fused GAT forward with a dense reference on a graph with self
/// loops — a direct correctness anchor independent of the staged oracle.
#[test]
fn fused_gat_matches_dense_reference() {
    let a = norm::add_self_loops(&erdos_renyi::adjacency::<f64>(64, 512, 21));
    let n = a.rows();
    let hp = feats(n, 8, 8);
    let u: Vec<f64> = (0..n).map(|i| (i % 11) as f64 * 0.2 - 1.0).collect();
    let v: Vec<f64> = (0..n).map(|i| (i % 13) as f64 * 0.15 - 0.9).collect();
    let lrelu = Activation::LeakyRelu(0.2);
    let mut want = Dense::<f64>::zeros(n, 8);
    for (i, &ui) in u.iter().enumerate().take(n) {
        let (cols, _) = a.row(i);
        let scores: Vec<f64> = cols
            .iter()
            .map(|&j| lrelu.eval(ui + v[j as usize]))
            .collect();
        let maxs = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = scores.iter().map(|s| (s - maxs).exp()).collect();
        let total: f64 = exps.iter().sum();
        for (&j, e) in cols.iter().zip(&exps) {
            let p = e / total;
            for (o, &hv) in want.row_mut(i).iter_mut().zip(hp.row(j as usize)) {
                *o += p * hv;
            }
        }
    }
    let got = attention::attention_forward_gat(&a, &u, &v, &hp, 0.2, false);
    assert!(got.out.max_abs_diff(&want) < 1e-12);
}
