//! Wide-vs-scalar SIMD equivalence on awkward shapes, and the padded
//! layout's invariants end to end.
//!
//! The kernel contract (DESIGN.md §6) splits into two families:
//!
//! * **lane-oblivious** kernels (`axpy`/`axpy4` aggregation — `spmm`,
//!   the fused sweep's gather, `spmm_t`) are strictly elementwise
//!   `mul_add`, so wide vs blocked vs tight vs padded are **bit
//!   identical**;
//! * **re-associated** kernels (dot products, the softmax's exponential
//!   sum) run a fixed 8-lane tree under wide mode and are gated at a
//!   documented tolerance against the sequential baseline.
//!
//! These tests pin both, on the shapes where lane logic goes wrong:
//! feature widths `k ∈ {1, 3, 7, 8, 9, 31, 33}` (remainders shorter,
//! equal to, and longer than a lane; lane multiples), empty rows,
//! single-row graphs — plus the padded layout's zero-tail invariant
//! through a whole training step.
//!
//! The kernel-mode switches are process-global, so every test that flips
//! them runs under one shared [`Mutex`] (this file is its own
//! integration binary precisely so the flips cannot race the rest of the
//! suite), and restores the entry modes afterwards.

use std::sync::{Mutex, MutexGuard};

use atgnn::loss::Mse;
use atgnn::optimizer::Sgd;
use atgnn::plan::{ExecPlan, Layout};
use atgnn::{GnnModel, ModelKind};
use atgnn_graphgen::kronecker;
use atgnn_sparse::{attention, masked, spmm, Coo, Csr};
use atgnn_tensor::micro::{self, MicroKernel, SimdMode};
use atgnn_tensor::{init, ops, Activation, Dense};

/// Serializes every test that flips the process-global kernel modes.
static MODE_LOCK: Mutex<()> = Mutex::new(());

/// RAII guard: takes the lock, restores the entry modes on drop.
struct Modes {
    _lock: MutexGuard<'static, ()>,
    micro: MicroKernel,
    simd: SimdMode,
}

impl Modes {
    fn lock() -> Self {
        Self {
            _lock: MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner()),
            micro: micro::mode(),
            simd: micro::simd_mode(),
        }
    }
}

impl Drop for Modes {
    fn drop(&mut self) {
        micro::set_mode(self.micro);
        micro::set_simd_mode(self.simd);
    }
}

const AWKWARD_K: [usize; 7] = [1, 3, 7, 8, 9, 31, 33];

/// A small graph with an empty row (vertex 3 has no out-neighbors) and a
/// high-degree row.
fn awkward_graph() -> Csr<f64> {
    let edges = vec![
        (0u32, 1u32),
        (0, 2),
        (0, 3),
        (0, 4),
        (0, 5),
        (1, 0),
        (1, 2),
        (2, 2),
        (4, 0),
        (4, 5),
        (5, 4),
    ];
    Csr::from_coo(&Coo::from_edges(6, 6, edges))
}

fn bit_identical(a: &Dense<f64>, b: &Dense<f64>) -> bool {
    a.shape() == b.shape()
        && (0..a.rows()).all(|r| {
            a.row(r)
                .iter()
                .zip(b.row(r))
                .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

fn rel_err(a: &Dense<f64>, b: &Dense<f64>) -> f64 {
    a.max_abs_diff(b) / a.max_abs().max(1.0)
}

/// Every (micro, simd) mode combination.
const MODES: [(MicroKernel, SimdMode); 4] = [
    (MicroKernel::Blocked, SimdMode::Wide),
    (MicroKernel::Blocked, SimdMode::Scalar),
    (MicroKernel::Scalar, SimdMode::Wide), // wide() is false: scalar oracle
    (MicroKernel::Scalar, SimdMode::Scalar),
];

/// Runs `f` under every (micro, simd) mode combination, collecting the
/// outputs tagged with whether that combination is the wide path.
fn under_all_modes(mut f: impl FnMut() -> Dense<f64>) -> Vec<(bool, Dense<f64>)> {
    MODES
        .iter()
        .map(|&(m, s)| {
            micro::set_mode(m);
            micro::set_simd_mode(s);
            (micro::wide(), f())
        })
        .collect()
}

#[test]
fn spmm_is_bit_identical_across_simd_modes_and_layouts_on_awkward_k() {
    let _m = Modes::lock();
    let a = awkward_graph();
    for k in AWKWARD_K {
        let h = init::features::<f64>(6, k, 41);
        let hp = h.padded();
        let outs = under_all_modes(|| spmm::spmm(&a, &h));
        let padded_outs = under_all_modes(|| spmm::spmm(&a, &hp));
        // The aggregation is elementwise mul_add under Blocked (any SIMD
        // mode, any layout): bit-identical. The Scalar oracle rounds
        // `a*b + c` separately — tolerance only.
        let (_, baseline) = &outs[1]; // Blocked + SimdMode::Scalar
        for (outs, label) in [(&outs, "tight"), (&padded_outs, "padded")] {
            for (i, (_, out)) in outs.iter().enumerate() {
                if i < 2 {
                    assert!(
                        bit_identical(out, baseline),
                        "spmm k={k} {label} combo {i}: expected bit-identity"
                    );
                } else {
                    assert!(rel_err(out, baseline) < 1e-12, "spmm k={k} {label} oracle");
                }
            }
        }
        // `spmm_t` is the same row loop over the pattern's CSC view: in
        // every mode and layout it is `spmm` of the materialized transpose.
        let at = a.transpose();
        for src in [&h, &hp] {
            let back = under_all_modes(|| spmm::spmm_t(&a, src));
            let fwd = under_all_modes(|| spmm::spmm(&at, src));
            for (i, ((_, b), (_, f))) in back.iter().zip(&fwd).enumerate() {
                assert!(bit_identical(b, f), "spmm_t k={k} combo {i} ≠ spmm(Aᵀ)");
            }
        }
    }
}

#[test]
fn gat_sweep_matches_across_modes_on_awkward_k_with_empty_rows() {
    let _m = Modes::lock();
    let a = awkward_graph();
    let u = init::glorot_vec::<f64>(6, 1);
    let v = init::glorot_vec::<f64>(6, 2);
    for k in AWKWARD_K {
        let h = init::features::<f64>(6, k, 43);
        let hp = h.padded();
        let run =
            |src: &Dense<f64>| attention::attention_forward_gat(&a, &u, &v, src, 0.2, false).out;
        let outs = under_all_modes(|| run(&h));
        let padded_outs = under_all_modes(|| run(&hp));
        let (_, baseline) = &outs[1];
        for (outs, label) in [(&outs, "tight"), (&padded_outs, "padded")] {
            for (wide, out) in outs.iter() {
                if *wide {
                    // The wide softmax re-associates: documented tolerance.
                    assert!(
                        rel_err(out, baseline) < 1e-6,
                        "gat k={k} {label} wide exceeds tolerance"
                    );
                } else {
                    assert!(
                        rel_err(out, baseline) < 1e-12,
                        "gat k={k} {label} non-wide drifted"
                    );
                }
            }
        }
        // Layout is fully bit-transparent *within* each mode: scores read
        // logical rows, aggregation is elementwise.
        for (i, ((_, t), (_, p))) in outs.iter().zip(&padded_outs).enumerate() {
            assert!(
                bit_identical(t, p),
                "gat k={k} combo {i}: padded vs tight must be bit-identical"
            );
        }
        // The empty row aggregates nothing: exactly zero in every mode.
        for (_, out) in &outs {
            assert!(out.row(3).iter().all(|&z| z == 0.0), "empty row k={k}");
        }
    }
}

#[test]
fn single_row_graph_is_handled_in_every_mode() {
    let _m = Modes::lock();
    // One vertex, one self-loop — the smallest nonempty softmax row.
    let a: Csr<f64> = Csr::from_coo(&Coo::from_edges(1, 1, vec![(0u32, 0u32)]));
    for k in AWKWARD_K {
        let h = init::features::<f64>(1, k, 7);
        let u = vec![0.4];
        let v = vec![-0.3];
        for (wide, out) in
            under_all_modes(|| attention::attention_forward_gat(&a, &u, &v, &h, 0.2, false).out)
        {
            // softmax over one entry is exactly 1, so out == h.
            let err = rel_err(&out, &h);
            let bound = if wide { 1e-6 } else { 1e-12 };
            assert!(err < bound, "single-row k={k} wide={wide}: {err:.2e}");
        }
    }
}

/// `dot4` is four `dot`s sharing `x`, bit for bit, in every mode.
#[test]
fn dot4_is_four_dots_bitwise_in_every_mode() {
    fn check<T: atgnn_tensor::Scalar>(to_bits: fn(T) -> u64) {
        let of = |n: usize, s: f64| -> Vec<T> {
            (0..n)
                .map(|i| T::from_f64((i as f64 * 0.37 + s).sin() * (1.0 + s)))
                .collect()
        };
        for k in [0usize, 1, 3, 7, 8, 9, 31, 33, 64] {
            let x = of(k, 0.1);
            let ys: Vec<Vec<T>> = (0..4).map(|q| of(k, 0.7 * q as f64 + 0.3)).collect();
            let y = [&ys[0][..], &ys[1][..], &ys[2][..], &ys[3][..]];
            for (m, s) in MODES {
                micro::set_mode(m);
                micro::set_simd_mode(s);
                let got = micro::dot4(&x, y).map(to_bits);
                let want = y.map(|yq| to_bits(micro::dot(&x, yq)));
                assert_eq!(got, want, "dot4 k={k} {m:?}/{s:?}");
            }
        }
    }
    let _m = Modes::lock();
    check::<f32>(|v| u64::from(v.to_bits()));
    check::<f64>(f64::to_bits);
}

#[test]
fn softmax_slice_normalizes_empty_and_single_rows_in_every_mode() {
    let _m = Modes::lock();
    for (m, s) in [
        (MicroKernel::Blocked, SimdMode::Wide),
        (MicroKernel::Blocked, SimdMode::Scalar),
        (MicroKernel::Scalar, SimdMode::Scalar),
    ] {
        micro::set_mode(m);
        micro::set_simd_mode(s);
        let mut empty: [f64; 0] = [];
        masked::softmax_slice(&mut empty); // must not panic
        let mut one = [3.7];
        masked::softmax_slice(&mut one);
        assert_eq!(one[0], 1.0);
        for n in AWKWARD_K {
            let mut row: Vec<f64> = (0..n).map(|i| (i as f64 * 0.71 - 1.0).sin()).collect();
            masked::softmax_slice(&mut row);
            let total: f64 = row.iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "n={n}: sum {total}");
            assert!(row.iter().all(|&p| p > 0.0));
        }
    }
}

#[test]
fn padding_stays_zero_through_a_training_step() {
    let _m = Modes::lock();
    micro::set_mode(MicroKernel::Blocked);
    micro::set_simd_mode(SimdMode::Wide);
    let a = kronecker::adjacency::<f64>(32, 160, 3);
    for k in [7usize, 9, 31] {
        // Padded intermediates: the zero tails must survive the kernels
        // (fma over a +0.0 tail yields +0.0) so a later full-stride pass
        // never reads garbage.
        let x = ops::scale(&init::features::<f64>(a.rows(), k, 5), 0.2).padded();
        assert!(x.padding_is_zero());
        let h = spmm::spmm(&a, &x);
        assert!(h.is_padded() && h.padding_is_zero(), "spmm tail k={k}");
        let u = init::glorot_vec::<f64>(a.rows(), 1);
        let v = init::glorot_vec::<f64>(a.rows(), 2);
        let z = attention::attention_forward_gat(&a, &u, &v, &h, 0.2, false).out;
        assert!(z.is_padded() && z.padding_is_zero(), "sweep tail k={k}");
    }
    // End to end: a full train step under an explicitly padded plan runs
    // the whole layer stack (gemm, scores, softmax, aggregation,
    // backward) over padded buffers and must agree with the tight plan.
    let x = ops::scale(&init::features::<f64>(a.rows(), 8, 5), 0.2);
    let target = init::features::<f64>(a.rows(), 4, 7);
    let prepared = GnnModel::<f64>::prepare_adjacency(ModelKind::Gat, &a);
    let mut losses = Vec::new();
    for layout in [Layout::Padded, Layout::Tight] {
        let mut model = GnnModel::<f64>::uniform(ModelKind::Gat, &[8, 9, 4], Activation::Relu, 9)
            .with_plan(ExecPlan::fused().with_layout(layout));
        let loss = Mse::new(target.clone());
        let mut opt = Sgd::new(0.02);
        losses.push(model.train_step(&prepared, &x, &loss, &mut opt));
    }
    // Same modes, different layout: bit-transparent, identical losses.
    assert_eq!(losses[0].to_bits(), losses[1].to_bits());
}
