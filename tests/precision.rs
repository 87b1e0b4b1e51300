//! The plan's precision axis end to end.
//!
//! Four layers of guarantees, cheapest first:
//!
//! 1. **Round-trip properties** — narrowing is idempotent and monotonic,
//!    the result is always one of the two enclosing representables, and
//!    exact ties obey round-to-nearest-even (checked via the alternation
//!    property: ties on both sides of an *even* value choose it).
//! 2. **What a narrow plan computes** — `round_matrix` is element-wise
//!    `Store::round` (padded tails stay `+0.0`), and a GAT / AGNN
//!    inference under a narrow plan is, bit for bit, the f32 fused sweep
//!    on a projection rounded once by it — on a square graph and on a
//!    `row_prefix` block, across feature widths that stress every
//!    lane-remainder path.
//! 3. **Padded tails** — a bf16 training plan on the padded layout keeps
//!    every padded slot exactly `+0.0` through `train_step`.
//! 4. **Training quality** — analytic gradients under a bf16 plan track
//!    the f32 plan within a pinned tolerance, and training still makes
//!    progress; finite-difference gradcheck stays an f32-only tool
//!    (differencing *through* a rounding step measures the staircase,
//!    not the slope).

use atgnn::layers::{AgnnLayer, GatLayer, GAT_SLOPE};
use atgnn::loss::{Loss, Mse};
use atgnn::optimizer::Sgd;
use atgnn::plan::{ExecPlan, Precision};
use atgnn::{analyze, AGnnLayer, GnnModel, ModelKind};
use atgnn_sparse::spmm::{product_order, ProductOrder};
use atgnn_sparse::{attention, Coo, Csr};
use atgnn_tensor::rng::Rng;
use atgnn_tensor::{convert, gemm, init, Activation, Bf16, Dense, Scalar, Store, F16};

/// The feature widths that stress every kernel path: sub-lane, lane
/// remainders around the 8-wide boundary, and multi-block widths with
/// awkward tails.
const AWKWARD_K: [usize; 7] = [1, 3, 7, 9, 17, 60, 64];

/// Smallest representable value of `S` strictly above the positive
/// representable `r`, found by binary search on the f32 bit line (f32
/// bit patterns are monotonic for positive finite values, and `round` is
/// monotonic).
fn succ_repr<S: Store>(r: f32) -> f32 {
    assert!(r > 0.0 && S::round(r) == r);
    let rb = r.to_bits();
    let (mut lo, mut hi) = (0u32, 1u32 << 17);
    assert!(S::round(f32::from_bits(rb + hi)) > r, "search window");
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if S::round(f32::from_bits(rb + mid)) > r {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    S::round(f32::from_bits(rb + hi))
}

/// The exact midpoint of two adjacent representables. Both have narrow
/// mantissas, so the midpoint carries one extra bit and is itself exact
/// in f32.
fn midpoint(lo: f32, hi: f32) -> f32 {
    let mid = ((lo as f64 + hi as f64) / 2.0) as f32;
    assert_eq!(mid as f64, (lo as f64 + hi as f64) / 2.0, "midpoint exact");
    mid
}

fn round_trip_properties<S: Store>() {
    let mut rng = Rng::seed_from_u64(0xba5e + S::BYTES as u64);
    for case in 0..4000 {
        // Positive normal range of both formats; negative values are
        // covered by the sign-symmetry assertion below.
        let x = (rng.uniform(-3.0, 3.0) as f32).exp2() * rng.uniform(1.0, 10.0) as f32;
        let r = S::round(x);
        // Idempotence: representable values survive the round trip
        // bit-for-bit (this *is* the exactness-on-representables law).
        assert_eq!(S::round(r).to_bits(), r.to_bits(), "case {case}");
        // Sign symmetry (RNE is sign-symmetric).
        assert_eq!((-S::round(-x)).to_bits(), r.to_bits(), "case {case}");
        // The result is one of the two enclosing representables and is
        // strictly nearest away from ties.
        let (below, above) = if r <= x {
            (r, succ_repr::<S>(r))
        } else {
            (prev_repr::<S>(r), r)
        };
        assert!(below <= x && x <= above, "case {case}: {below} {x} {above}");
        let (db, da) = (
            (x as f64 - below as f64).abs(),
            (above as f64 - x as f64).abs(),
        );
        let dr = (x as f64 - r as f64).abs();
        assert!(dr <= db && dr <= da, "case {case}: {x} rounded to {r}");
        if db != da {
            let nearest = if db < da { below } else { above };
            assert_eq!(r.to_bits(), nearest.to_bits(), "case {case}: not nearest");
        }
        // Tie-to-even via alternation: whichever neighbor the midpoint
        // tie picks, the tie on that neighbor's *other* side must pick
        // it as well (even values win both adjacent ties; odd values
        // lose both).
        let c = S::round(midpoint(below, above));
        assert!(c == below || c == above, "case {case}");
        let other_tie = if c == below {
            S::round(midpoint(prev_repr::<S>(below), below))
        } else {
            S::round(midpoint(above, succ_repr::<S>(above)))
        };
        assert_eq!(other_tie.to_bits(), c.to_bits(), "case {case}: tie parity");
    }
    // Zero is preserved with its sign — the padded-tail invariant.
    assert_eq!(S::round(0.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(S::round(-0.0).to_bits(), (-0.0f32).to_bits());
}

/// Largest representable value of `S` strictly below the positive
/// representable `r` (mirror of [`succ_repr`]).
fn prev_repr<S: Store>(r: f32) -> f32 {
    assert!(r > 0.0 && S::round(r) == r);
    let rb = r.to_bits();
    let (mut lo, mut hi) = (0u32, 1u32 << 17);
    assert!(S::round(f32::from_bits(rb - hi)) < r, "search window");
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if S::round(f32::from_bits(rb - mid)) < r {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    S::round(f32::from_bits(rb - hi))
}

#[test]
fn widen_narrow_round_trips_are_exact_and_rne() {
    round_trip_properties::<Bf16>();
    round_trip_properties::<F16>();
    // f32 storage is the identity.
    let mut rng = Rng::seed_from_u64(0xf32);
    for _ in 0..100 {
        let x = rng.uniform(-1e6, 1e6) as f32;
        assert_eq!(<f32 as Store>::round(x).to_bits(), x.to_bits());
    }
}

fn random_graph(n: usize, m: usize, seed: u64) -> Csr<f32> {
    let mut rng = Rng::seed_from_u64(seed);
    let edges: Vec<(u32, u32)> = (0..m)
        .map(|_| (rng.gen_index(n) as u32, rng.gen_index(n) as u32))
        .collect();
    let mut coo = Coo::<f32>::from_edges(n, n, edges);
    coo.symmetrize_binary();
    atgnn_sparse::norm::add_self_loops(&Csr::from_coo(&coo))
}

/// Whole-buffer bit equality: same geometry, same bits in every slot,
/// padded tails included.
fn assert_bits_equal(got: &Dense<f32>, want: &Dense<f32>, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}");
    assert_eq!(got.stride(), want.stride(), "{what}");
    for i in 0..got.rows() {
        for (a, b) in got.row_padded(i).iter().zip(want.row_padded(i)) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: row {i}");
        }
    }
}

/// `round_matrix::<S, T>` is element-wise `S::round` and nothing else:
/// geometry untouched, padded tails still `+0.0`. The sources span both
/// signs and nine decades, so f16 saturation and underflow are on the
/// grid.
fn round_matrix_case<S: Store, T: Scalar>(k: usize, padded: bool) {
    let value = |i: usize, j: usize| {
        (((i * 31 + j * 17) % 23) as f64 - 11.0) * 10f64.powi(((i + j) % 9) as i32 - 4)
    };
    let src = Dense::<T>::from_fn(5, k, |i, j| T::from_f64(value(i, j)));
    let src = if padded { src.padded() } else { src };
    let mut got = src.clone();
    convert::round_matrix::<S, T>(&mut got);
    let what = format!("{} k={k} padded={padded}", S::NAME);
    assert_eq!(
        (got.shape(), got.stride()),
        (src.shape(), src.stride()),
        "{what}"
    );
    for i in 0..src.rows() {
        let (g, s) = (got.row_padded(i), src.row_padded(i));
        for (gv, sv) in g[..k].iter().zip(&s[..k]) {
            let want = S::round(sv.to_f64() as f32) as f64;
            assert_eq!(gv.to_f64().to_bits(), want.to_bits(), "{what}: row {i}");
        }
        for gv in &g[k..] {
            assert_eq!(gv.to_f64().to_bits(), 0, "{what}: row {i} tail");
        }
    }
}

#[test]
fn round_matrix_is_elementwise_round_with_zero_tails() {
    for k in AWKWARD_K {
        for padded in [false, true] {
            round_matrix_case::<Bf16, f32>(k, padded);
            round_matrix_case::<Bf16, f64>(k, padded);
            round_matrix_case::<F16, f32>(k, padded);
            round_matrix_case::<F16, f64>(k, padded);
        }
    }
}

/// What a narrow plan means for a GAT / AGNN inference forward: the f32
/// fused sweep on the aggregated feature buffer — the projection, or for an
/// aggregate-first GAT leg `H` itself — rounded exactly once by
/// `round_matrix`, with the scores (`u`, `v`; AGNN's cosines) read before
/// the rounding. `a` is the square graph or a `row_prefix` block of it.
fn narrow_inference_case(precision: Precision, k: usize, padded: bool) {
    let square = random_graph(60, 240, 0xaa + k as u64);
    let n = square.rows();
    let h = init::features::<f32>(n, 12, 7 + k as u64);
    let h = if padded { h.padded() } else { h };
    let plan = ExecPlan::fused().with_precision(precision);
    let gat = GatLayer::<f32>::new(12, k, Activation::Identity, 3).with_plan(plan);
    let agnn = AgnnLayer::<f32>::new(12, k, Activation::Identity, 5).with_plan(plan);
    let block = square.row_prefix(n / 3, n);
    for a in [&square, &block] {
        let what = format!(
            "{} k={k} padded={padded} rows={}",
            precision.name(),
            a.rows()
        );

        // The leg's shape picks the product order, never the precision:
        // aggregate-first sweeps a rounded copy of `H` itself, scored
        // through the folded vectors `W a₁`, `W a₂`, and projects the
        // aggregated rows in f32.
        let (a_src, a_dst) = gat.attention_vectors();
        let want = match product_order(a.rows(), a.cols(), a.nnz(), 12, k) {
            ProductOrder::ProjectFirst => {
                let mut hp = gemm::matmul(&h, gat.weights());
                let u: Vec<f32> = (0..a.rows()).map(|i| gemm::dot(hp.row(i), a_src)).collect();
                let v = gemm::matvec(&hp, a_dst);
                precision.round_matrix(&mut hp);
                attention::forward_gat(plan.exec(), a, &u, &v, &hp, GAT_SLOPE, false).out
            }
            ProductOrder::AggregateFirst => {
                let (w_src, w_dst) = (
                    gemm::matvec(gat.weights(), a_src),
                    gemm::matvec(gat.weights(), a_dst),
                );
                let u: Vec<f32> = (0..a.rows()).map(|i| gemm::dot(h.row(i), &w_src)).collect();
                let v = gemm::matvec(&h, &w_dst);
                let mut hr = h.clone();
                precision.round_matrix(&mut hr);
                let agg = attention::forward_gat(plan.exec(), a, &u, &v, &hr, GAT_SLOPE, false);
                gemm::matmul(&agg.out, gat.weights())
            }
        };
        assert_bits_equal(&gat.forward(a, &h, None), &want, &format!("gat {what}"));

        let mut hp = gemm::matmul(&h, agnn.weights());
        precision.round_matrix(&mut hp);
        let want = attention::forward_agnn(plan.exec(), a, &h, &hp, agnn.beta(), false);
        assert_bits_equal(
            &agnn.forward(a, &h, None),
            &want.out,
            &format!("agnn {what}"),
        );
    }
}

#[test]
fn narrow_inference_is_the_f32_sweep_on_a_pre_rounded_projection() {
    for k in AWKWARD_K {
        for padded in [false, true] {
            narrow_inference_case(Precision::Bf16, k, padded);
            narrow_inference_case(Precision::F16, k, padded);
        }
    }
}

fn training_setup(
    precision: Precision,
    layout: atgnn::Layout,
) -> (Csr<f64>, Dense<f64>, Mse<f64>, GnnModel<f64>) {
    let a = GnnModel::<f64>::prepare_adjacency(ModelKind::Gat, &{
        let mut rng = Rng::seed_from_u64(0x7a1);
        let edges: Vec<(u32, u32)> = (0..80)
            .map(|_| (rng.gen_index(20) as u32, rng.gen_index(20) as u32))
            .collect();
        let mut coo = Coo::<f64>::from_edges(20, 20, edges);
        coo.symmetrize_binary();
        Csr::from_coo(&coo)
    });
    let x = init::features(20, 12, 3);
    let loss = Mse::new(init::features(20, 4, 5));
    let plan = ExecPlan::fused()
        .with_layout(layout)
        .with_precision(precision);
    // The hidden width is deliberately NOT a lane multiple: a 14-wide
    // layer keeps a real 2-slot tail (stride 16), so padding — and the
    // tails-stay-zero obligation — survives through the whole stack.
    let model =
        GnnModel::<f64>::uniform(ModelKind::Gat, &[12, 14, 4], Activation::Tanh, 9).with_plan(plan);
    (a, x, loss, model)
}

#[test]
fn padded_tails_stay_zero_through_bf16_training() {
    let (a, x, loss, mut model) = training_setup(Precision::Bf16, atgnn::Layout::Padded);
    // The layer stack sees padded matrices: every cached intermediate
    // must keep its tail slots exactly +0.0 even though the feature
    // buffer passed through bf16 rounding.
    let (out, ctxs) = model.forward_cached(&a, &x.padded());
    assert!(out.is_padded() && out.padding_is_zero());
    for (l, ctx) in ctxs.iter().enumerate() {
        assert!(ctx.h_in.padding_is_zero(), "layer {l} input tail");
        assert!(ctx.z.padding_is_zero(), "layer {l} pre-activation tail");
        let hp = ctx.cache.h_proj.as_ref().expect("gat caches H'");
        assert!(hp.padding_is_zero(), "layer {l} projected-feature tail");
    }
    // And training itself still makes progress under the narrow plan.
    let mut opt = Sgd::new(0.01);
    let first = model.train_step(&a, &x, &loss, &mut opt);
    let mut last = first;
    for _ in 0..30 {
        last = model.train_step(&a, &x, &loss, &mut opt);
    }
    assert!(last < first, "bf16 training stalled: {first} -> {last}");
    assert!(last.is_finite());
}

#[test]
fn bf16_gradients_track_f32_within_pinned_tolerance() {
    // Same parameters, same data; the only difference is the storage
    // rounding of the projected features. Analytic gradients are
    // compared against analytic gradients — finite differences through
    // a rounding step would measure the staircase, not the slope.
    let (a, x, loss, f32_model) = training_setup(Precision::F32, atgnn::Layout::Tight);
    let (_, _, _, bf16_model) = training_setup(Precision::Bf16, atgnn::Layout::Tight);

    let grads_of = |model: &GnnModel<f64>| {
        let (out, ctxs) = model.forward_cached(&a, &x);
        let g = loss.gradient(&out.clone().into_tight());
        model.backward(&a, &ctxs, &g).0
    };
    let gw = grads_of(&f32_model);
    let gn = grads_of(&bf16_model);
    let mut max_rel = 0.0f64;
    for (lw, ln) in gw.iter().zip(&gn) {
        for (sw, sn) in lw.slots.iter().zip(&ln.slots) {
            let scale = sw.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-12);
            for (w, n) in sw.iter().zip(sn) {
                max_rel = max_rel.max((w - n).abs() / scale);
            }
        }
    }
    // The pinned training-quality cost of bf16 feature storage on this
    // problem: gradients agree to ~bf16 resolution (2⁻⁸ ≈ 4e-3) with
    // headroom for accumulation, and the narrowing demonstrably took
    // effect (a no-op precision axis would make this test vacuous).
    assert!(max_rel < 5e-2, "bf16 gradient drift {max_rel}");
    assert!(max_rel > 1e-9, "precision axis had no effect on gradients");
}

#[test]
fn auto_precision_never_narrows_a_keep_f32_buffer() {
    for kind in ModelKind::ATTENTIONAL {
        let chosen = analyze::precision::auto_precision(kind);
        if !chosen.is_narrow() {
            continue;
        }
        // If auto picked a narrow format, every buffer the axis narrows
        // must carry a non-keep-f32 verdict in every DAG of the model.
        for dag in analyze::model_dags(kind) {
            let verdicts = analyze::precision::verdicts(&dag);
            for id in analyze::precision::narrowable_buffers(&dag) {
                assert_ne!(
                    verdicts[id],
                    analyze::precision::Narrowing::KeepF32,
                    "{kind:?}: auto narrowed keep-f32 node {id}"
                );
            }
        }
    }
    // And the model constructor consumes the same resolution: a uniform
    // model built under an auto plan holds a concrete precision.
    let model = GnnModel::<f64>::uniform(ModelKind::Gat, &[4, 4, 2], Activation::Tanh, 1)
        .with_plan(ExecPlan::fused().with_precision(Precision::Auto));
    // with_plan keeps the explicit request: `uniform` is the one place
    // that resolves `auto`, and only for the plan the environment gave it.
    assert_eq!(model.plan().precision(), Precision::Auto);
    let resolved = analyze::precision::auto_precision(ModelKind::Gat);
    assert!(resolved == Precision::Bf16 || resolved == Precision::F32);
}
