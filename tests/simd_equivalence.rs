//! Wide-kernel vs scalar-oracle equivalence on awkward shapes, and the
//! padded layout's invariants end to end.
//!
//! The kernel contract (DESIGN.md §6) splits into two families:
//!
//! * **lane-oblivious** kernels (`axpy`/`axpy4` aggregation — `spmm`,
//!   the fused sweep's gather, `spmm_t`) are strictly elementwise
//!   `mul_add`, so the wide kernels are **bit identical** across tight
//!   and padded layouts;
//! * **re-associated** kernels (dot products, the softmax's exponential
//!   sum) run a fixed 8-lane tree under wide mode and are gated at a
//!   documented tolerance against the scalar oracle.
//!
//! These tests pin both, on the shapes where lane logic goes wrong:
//! feature widths `k ∈ {1, 3, 7, 8, 9, 31, 33}` (remainders shorter,
//! equal to, and longer than a lane; lane multiples), empty rows,
//! single-row graphs — plus the padded layout's zero-tail invariant
//! through a whole training step. A third contract sits under both: the
//! explicit lane body `f32` runs (`micro::F32Lanes`) is bit-identical to
//! the generic `[f32; LANE]` body for the dots and the GEMM tiles.
//!
//! The kernel-mode switch is process-global, so every test that flips it
//! runs under one shared [`Mutex`] (this file is its own integration
//! binary precisely so the flips cannot race the rest of the suite), and
//! restores the entry mode afterwards.

use std::sync::{Mutex, MutexGuard};

use atgnn::loss::Mse;
use atgnn::optimizer::Sgd;
use atgnn::plan::{ExecPlan, Layout};
use atgnn::{GnnModel, ModelKind};
use atgnn_graphgen::kronecker;
use atgnn_sparse::attention::{self, AttentionExec};
use atgnn_sparse::{masked, spmm, Coo, Csr};
use atgnn_tensor::micro::{self, MicroKernel, LANE};
use atgnn_tensor::{gemm, init, ops, Activation, Dense};

/// Serializes every test that flips the process-global kernel mode.
static MODE_LOCK: Mutex<()> = Mutex::new(());

/// RAII guard: takes the lock, restores the entry mode on drop.
struct Modes {
    _lock: MutexGuard<'static, ()>,
    micro: MicroKernel,
}

impl Modes {
    fn lock() -> Self {
        Self {
            _lock: MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner()),
            micro: micro::mode(),
        }
    }
}

impl Drop for Modes {
    fn drop(&mut self) {
        micro::set_mode(self.micro);
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

/// Every kernel mode: the wide kernels, then the scalar oracle.
const MODES: [MicroKernel; 2] = [MicroKernel::Blocked, MicroKernel::Scalar];

/// Runs `f` under every kernel mode, collecting the outputs tagged with
/// whether that mode is the wide path.
fn under_all_modes(mut f: impl FnMut() -> Dense<f64>) -> Vec<(bool, Dense<f64>)> {
    MODES
        .iter()
        .map(|&m| {
            micro::set_mode(m);
            (micro::wide(), f())
        })
        .collect()
}

#[test]
fn spmm_is_bit_identical_across_layouts_and_near_the_oracle_on_awkward_k() {
    let _m = Modes::lock();
    let a = awkward_graph();
    for k in AWKWARD_K {
        let h = init::features::<f64>(6, k, 41);
        let hp = h.padded();
        let outs = under_all_modes(|| spmm::spmm(&a, &h));
        let padded_outs = under_all_modes(|| spmm::spmm(&a, &hp));
        // The aggregation is elementwise mul_add under the wide kernels
        // (any layout): bit-identical. The Scalar oracle rounds
        // `a*b + c` separately — tolerance only.
        let (_, baseline) = &outs[0]; // wide + tight
        for (outs, label) in [(&outs, "tight"), (&padded_outs, "padded")] {
            for (i, (_, out)) in outs.iter().enumerate() {
                if i == 0 {
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
        let run = |src: &Dense<f64>| {
            attention::forward_gat(AttentionExec::FusedOnePass, &a, &u, &v, src, 0.2, false).out
        };
        let outs = under_all_modes(|| run(&h));
        let padded_outs = under_all_modes(|| run(&hp));
        let (_, baseline) = &outs[1]; // scalar oracle + tight
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
        for (wide, out) in under_all_modes(|| {
            attention::forward_gat(AttentionExec::FusedOnePass, &a, &u, &v, &h, 0.2, false).out
        }) {
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
            for m in MODES {
                micro::set_mode(m);
                let got = micro::dot4(&x, y).map(to_bits);
                let want = y.map(|yq| to_bits(micro::dot(&x, yq)));
                assert_eq!(got, want, "dot4 k={k} {m:?}");
            }
        }
    }
    let _m = Modes::lock();
    check::<f32>(|v| u64::from(v.to_bits()));
    check::<f64>(f64::to_bits);
}

/// The explicit lane body `f32` runs.
type Explicit = micro::F32Lanes;
/// The generic lane body, the reference.
type Generic = [f32; LANE];

/// Lengths around every lane boundary, up to two-and-a-bit 64-wide rows.
const LANE_LENGTHS: [usize; 14] = [0, 1, 7, 8, 9, 15, 16, 17, 31, 33, 63, 64, 65, 129];

/// `len` pseudo-random values from `buf`'s element `off` on, so slices
/// start 0–7 elements past an aligned allocation.
fn misaligned(buf: &[f32], off: usize, len: usize) -> &[f32] {
    &buf[off..off + len]
}

fn f32_buf(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 20_001) as f32 / 10_000.0 - 1.0
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn explicit_dots_match_the_generic_lane_body_bitwise() {
    let bufs: Vec<Vec<f32>> = (0..5).map(|s| f32_buf(129 + 8, 60 + s)).collect();
    for len in LANE_LENGTHS {
        for off in 0..LANE {
            let x = misaligned(&bufs[0], off, len);
            let ys: Vec<&[f32]> = (1..5)
                .map(|q| misaligned(&bufs[q], (off + q) % LANE, len))
                .collect();
            let y = [ys[0], ys[1], ys[2], ys[3]];
            let want = micro::dot_lanes::<f32, Generic>(x, y[0]);
            let got = micro::dot_lanes::<f32, Explicit>(x, y[0]);
            assert_eq!(got.to_bits(), want.to_bits(), "dot len={len} off={off}");
            assert_eq!(
                micro::dot_wide(x, y[0]).to_bits(),
                want.to_bits(),
                "dot_wide len={len} off={off}"
            );
            let want4 = micro::dot4_lanes::<f32, Generic>(x, y);
            let got4 = micro::dot4_lanes::<f32, Explicit>(x, y);
            assert_eq!(bits(&got4), bits(&want4), "dot4 len={len} off={off}");
            // dot4 is four dots in the lane body too.
            assert_eq!(
                bits(&want4),
                bits(&y.map(|yq| micro::dot_lanes::<f32, Generic>(x, yq))),
                "dot4 ≠ four dots, len={len} off={off}"
            );
        }
    }
}

/// Shapes covering the 4-row quads and the `m % 4` leftover rows, the
/// 16-column panel pairs, an odd last 8-column panel, the `n % 8` tail
/// columns, and reductions shorter than, equal to and longer than a lane.
const GEMM_M: [usize; 6] = [1, 3, 4, 5, 7, 13];
const GEMM_K: [usize; 5] = [1, 7, 8, 9, 65];
const GEMM_N: [usize; 9] = [8, 9, 15, 16, 17, 24, 31, 33, 64];

fn f32_matrix(rows: usize, cols: usize, seed: u64) -> Dense<f32> {
    Dense::from_vec(rows, cols, f32_buf(rows * cols, seed))
}

fn f32_bit_identical(a: &Dense<f32>, b: &Dense<f32>) -> bool {
    a.shape() == b.shape() && (0..a.rows()).all(|r| bits(a.row(r)) == bits(b.row(r)))
}

#[test]
fn explicit_gemm_tiles_match_the_generic_lane_body_bitwise() {
    let _m = Modes::lock();
    micro::set_mode(MicroKernel::Blocked);
    for m in GEMM_M {
        for k in GEMM_K {
            for n in GEMM_N {
                let a = f32_matrix(m, k, 70);
                let b = f32_matrix(k, n, 71);
                for (a, padded) in [(a.clone(), false), (a.padded(), true)] {
                    let mut want = a.zeros_matching(m, n);
                    gemm::matmul_into_lanes::<f32, Generic>(&a, &b, &mut want);
                    let mut got = Dense::filled(m, n, 7.5);
                    if padded {
                        got = got.padded();
                    }
                    gemm::matmul_into_lanes::<f32, Explicit>(&a, &b, &mut got);
                    assert!(
                        f32_bit_identical(&got, &want),
                        "matmul {m}x{k}x{n} padded={padded}"
                    );
                    // The product entry runs the explicit body.
                    assert!(f32_bit_identical(&gemm::matmul(&a, &b), &want));
                }
            }
        }
    }
    // `matmul_tn`'s 4 × 16 outer-product tiles, their `k % 4` / `j % 16`
    // edges, and more rows than one cache block.
    for rows in [1, 5, 1030] {
        for k in [1, 3, 4, 5, 8, 9] {
            for j in [1, 15, 16, 17, 33] {
                let a = f32_matrix(rows, k, 72);
                let b = f32_matrix(rows, j, 73);
                for (a, b) in [(a.clone(), b.clone()), (a.padded(), b.padded())] {
                    let want = gemm::matmul_tn_lanes::<f32, Generic>(&a, &b);
                    let got = gemm::matmul_tn_lanes::<f32, Explicit>(&a, &b);
                    assert!(f32_bit_identical(&got, &want), "tn {rows}x{k}x{j}");
                    assert!(f32_bit_identical(&gemm::matmul_tn(&a, &b), &want));
                }
            }
        }
    }
}

#[test]
fn matvec_pair_is_two_matvecs_bitwise_in_every_mode() {
    let _m = Modes::lock();
    // 16 389 rows: above the pool threshold, so chunked across threads.
    for rows in [0, 1, 3, 4, 5, 63, 64, 65, 130, 16_389] {
        for k in [1, 8, 9, 64] {
            let a = f32_matrix(rows, k, 74);
            let (x0, x1) = (f32_buf(k, 75), f32_buf(k, 76));
            for mode in MODES {
                micro::set_mode(mode);
                let dots = |x: &[f32], upto: usize| -> Vec<u32> {
                    (0..upto)
                        .map(|r| micro::dot(a.row(r), x).to_bits())
                        .collect()
                };
                for m in [0, rows / 2, rows] {
                    let (u, v) = gemm::matvec_pair(&a, m, &x0, &x1);
                    assert_eq!(bits(&u), dots(&x0, m), "u {rows}x{k} m={m} {mode:?}");
                    assert_eq!(bits(&v), dots(&x1, rows), "v {rows}x{k} m={m} {mode:?}");
                }
                assert_eq!(bits(&gemm::matvec(&a, &x1)), dots(&x1, rows));
            }
        }
    }
}

#[test]
fn softmax_slice_normalizes_empty_and_single_rows_in_every_mode() {
    let _m = Modes::lock();
    for m in MODES {
        micro::set_mode(m);
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
        let z = attention::forward_gat(AttentionExec::FusedOnePass, &a, &u, &v, &h, 0.2, false).out;
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
