//! Register-blocked / SIMD-width microkernel primitives and the kernel-mode
//! switches.
//!
//! The attention hot path spends its cycles in three inner-loop shapes: dot
//! products (SDDMM scoring, `matvec`), axpy updates (SpMM / attention
//! aggregation), and the broadcast-fma register tiles of the dense
//! products in [`crate::gemm`]. This module provides those inner loops at
//! three width tiers, selected by two process-wide switches:
//!
//! * `ATGNN_MICROKERNEL={blocked,scalar}` — [`MicroKernel`]: `scalar`
//!   reproduces the pre-microkernel loops bit-for-bit and remains the
//!   equivalence oracle CI pins.
//! * `ATGNN_SIMD={wide,scalar}` — [`SimdMode`]: `wide` (the default)
//!   upgrades the blocked kernels to the 8-lane ([`LANE`]) shapes — the
//!   [`dot_wide`] lane tree (four rows per pass in [`dot4`]),
//!   [`axpy_wide`], the multi-source fused updates
//!   [`axpy2`]/[`axpy4`], and the lane-structured reductions
//!   [`sum_wide`]/[`max_wide`]. `ATGNN_SIMD=scalar` keeps the 4-way blocked
//!   kernels of the previous generation. The SIMD switch is subordinate to
//!   the microkernel switch: under `ATGNN_MICROKERNEL=scalar` the wide
//!   paths are never taken.
//!
//! The wide loops are written as safe `chunks_exact` loops over
//! [`Scalar::mul_add`] that the autovectorizer lifts to FMA vector code on
//! stable Rust; with the `simd-nightly` feature the same lane arithmetic is
//! expressed through `std::simd` (bit-identical lane-for-lane, since both
//! perform the same fused multiply-adds in the same order).
//!
//! Equivalence policy per kernel family (pinned by tests and by the `simd`
//! bench's in-run gates):
//!
//! * **Lane-oblivious (bit-exact).** [`axpy`], [`axpy_wide`], [`axpy2`],
//!   [`axpy4`] apply `alpha.mul_add(x, out)` strictly elementwise: every
//!   output element sees the identical rounding sequence no matter the
//!   grouping, so wide vs blocked — and padded vs tight layouts — are
//!   bit-identical. The nested fma in `axpy4` is exactly the composition
//!   of four sequential axpys per element.
//! * **Re-associated (documented ≤1e-6 relative tolerance vs the other
//!   modes, deterministic within a mode).** [`dot_wide`] (8-lane tree) vs
//!   [`dot_blocked`] (4 lanes) vs [`dot_scalar`]; the [`sum_wide`] softmax
//!   accumulation. Their lane-reduction order is fixed
//!   ([`crate::rt::ReductionOrder::LaneTree`]) so results stay bit-stable
//!   across thread counts and tile sizes within one mode.

use crate::scalar::Scalar;
use std::sync::atomic::{AtomicU8, Ordering};

/// The SIMD lane width every wide kernel and the padded [`crate::Dense`]
/// layout are shaped around: 8 elements (one AVX2 `f32x8` vector; for `f64`
/// two 4-lane vectors, which current x86 cores execute at the same
/// throughput). Padded strides are always a multiple of this.
pub const LANE: usize = 8;

/// Which inner-kernel family the process uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MicroKernel {
    /// Register-blocked `mul_add` kernels (the default).
    #[default]
    Blocked,
    /// The original scalar `out += a * b` loops, kept as the bit-exact
    /// equivalence oracle (`ATGNN_MICROKERNEL=scalar`).
    Scalar,
}

/// Whether the blocked kernels run at SIMD width ([`LANE`] lanes) or at
/// the 4-way shapes of the previous generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SimdMode {
    /// 8-lane kernels: lane-tree dot, wide axpy, multi-neighbor fused
    /// aggregation updates, lane-structured softmax (the default).
    #[default]
    Wide,
    /// The 4-way blocked kernels (`ATGNN_SIMD=scalar`), bit-identical to
    /// the repo's pre-SIMD blocked behavior.
    Scalar,
}

const MODE_UNSET: u8 = 0;
const MODE_BLOCKED: u8 = 1;
const MODE_SCALAR: u8 = 2;

/// Lazily initialized from `ATGNN_MICROKERNEL`; a plain atomic (not a
/// `OnceLock`) so benches can sweep modes in one process via [`set_mode`].
static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

const SIMD_UNSET: u8 = 0;
const SIMD_WIDE: u8 = 1;
const SIMD_SCALAR: u8 = 2;

/// Lazily initialized from `ATGNN_SIMD`; same sweepable-atomic pattern as
/// [`MODE`].
static SIMD: AtomicU8 = AtomicU8::new(SIMD_UNSET);

/// The active kernel mode, reading `ATGNN_MICROKERNEL` on first use.
/// Any value other than `scalar` selects the blocked kernels.
pub fn mode() -> MicroKernel {
    match MODE.load(Ordering::Relaxed) {
        MODE_BLOCKED => MicroKernel::Blocked,
        MODE_SCALAR => MicroKernel::Scalar,
        _ => {
            let m = match std::env::var("ATGNN_MICROKERNEL").as_deref() {
                Ok("scalar") => MicroKernel::Scalar,
                _ => MicroKernel::Blocked,
            };
            set_mode(m);
            m
        }
    }
}

/// Overrides the kernel mode for the rest of the process (bench sweeps).
pub fn set_mode(m: MicroKernel) {
    let v = match m {
        MicroKernel::Blocked => MODE_BLOCKED,
        MicroKernel::Scalar => MODE_SCALAR,
    };
    MODE.store(v, Ordering::Relaxed);
}

/// The active SIMD width mode, reading `ATGNN_SIMD` on first use. Any
/// value other than `scalar` selects the wide kernels.
pub fn simd_mode() -> SimdMode {
    match SIMD.load(Ordering::Relaxed) {
        SIMD_WIDE => SimdMode::Wide,
        SIMD_SCALAR => SimdMode::Scalar,
        _ => {
            let m = match std::env::var("ATGNN_SIMD").as_deref() {
                Ok("scalar") => SimdMode::Scalar,
                _ => SimdMode::Wide,
            };
            set_simd_mode(m);
            m
        }
    }
}

/// Overrides the SIMD mode for the rest of the process (bench sweeps).
pub fn set_simd_mode(m: SimdMode) {
    let v = match m {
        SimdMode::Wide => SIMD_WIDE,
        SimdMode::Scalar => SIMD_SCALAR,
    };
    SIMD.store(v, Ordering::Relaxed);
}

/// Whether the blocked kernels are active.
#[inline]
pub fn blocked() -> bool {
    mode() == MicroKernel::Blocked
}

/// Whether the 8-lane wide kernels are active: `ATGNN_SIMD=wide` *and*
/// the blocked kernels (the scalar-oracle microkernel mode always wins).
#[inline]
pub fn wide() -> bool {
    blocked() && simd_mode() == SimdMode::Wide
}

/// The accumulation-order fact of the active dot-product kernel, for the
/// plan-time determinism analysis: the wide kernel reduces eight lanes in
/// a fixed binary tree, the blocked kernel groups into four fixed lanes
/// (both a function of the operand slice alone), the scalar kernel runs
/// one ascending sum. All are invariant of thread count and tile size —
/// [`axpy`] and its wide variants are strictly elementwise in every mode,
/// so aggregation tiling never changes an element's rounding sequence.
pub fn accumulation_order() -> crate::rt::ReductionOrder {
    match mode() {
        MicroKernel::Blocked if wide() => crate::rt::ReductionOrder::LaneTree,
        MicroKernel::Blocked => crate::rt::ReductionOrder::FixedLanes,
        MicroKernel::Scalar => crate::rt::ReductionOrder::RowSequential,
    }
}

// ---------------------------------------------------------------------
// Lane primitives (portable / std::simd pair — identical bits)
// ---------------------------------------------------------------------

/// `acc[i] + x[i]·y[i]` over one [`LANE`]-wide chunk.
#[cfg(not(feature = "simd-nightly"))]
#[inline(always)]
fn fma_lanes<T: Scalar>(mut acc: [T; LANE], x: &[T], y: &[T]) -> [T; LANE] {
    for ((a, &xv), &yv) in acc.iter_mut().zip(x).zip(y) {
        *a = xv.mul_add(yv, *a);
    }
    acc
}

#[cfg(feature = "simd-nightly")]
#[inline(always)]
fn fma_lanes<T: Scalar>(acc: [T; LANE], x: &[T], y: &[T]) -> [T; LANE] {
    T::fma8(x, y, acc)
}

/// `out[i] = alpha·x[i] + out[i]` over one [`LANE`]-wide chunk.
#[cfg(not(feature = "simd-nightly"))]
#[inline(always)]
fn axpy_lanes<T: Scalar>(out: &mut [T], alpha: T, x: &[T]) {
    for (o, &xv) in out.iter_mut().zip(x) {
        *o = alpha.mul_add(xv, *o);
    }
}

#[cfg(feature = "simd-nightly")]
#[inline(always)]
fn axpy_lanes<T: Scalar>(out: &mut [T], alpha: T, x: &[T]) {
    T::axpy8(out, alpha, x);
}

/// `acc[i] + a·b[i]` (scalar broadcast) over one [`LANE`]-wide chunk — the
/// gemm outer-product update.
#[cfg(not(feature = "simd-nightly"))]
#[inline(always)]
pub fn fma_splat<T: Scalar>(mut acc: [T; LANE], a: T, b: &[T]) -> [T; LANE] {
    for (l, &bv) in acc.iter_mut().zip(b) {
        *l = a.mul_add(bv, *l);
    }
    acc
}

#[cfg(feature = "simd-nightly")]
#[inline(always)]
pub fn fma_splat<T: Scalar>(acc: [T; LANE], a: T, b: &[T]) -> [T; LANE] {
    T::fma_splat8(acc, a, b)
}

/// The fixed lane-reduction tree of the wide kernels:
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
#[inline(always)]
pub fn lane_tree_sum<T: Scalar>(l: [T; LANE]) -> T {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

// ---------------------------------------------------------------------
// Dot products
// ---------------------------------------------------------------------

/// Dot product `Σ x[i]·y[i]`, dispatching on the kernel modes.
#[inline]
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    if wide() {
        dot_wide(x, y)
    } else if blocked() {
        dot_blocked(x, y)
    } else {
        dot_scalar(x, y)
    }
}

/// The pre-microkernel dot product: multiply, then a single running sum.
#[inline]
pub fn dot_scalar<T: Scalar>(x: &[T], y: &[T]) -> T {
    debug_assert_eq!(x.len(), y.len());
    x.iter()
        .zip(y.iter())
        .map(|(&a, &b)| a * b)
        .fold(T::zero(), |acc, v| acc + v)
}

/// 4-accumulator unrolled dot product over `mul_add`.
///
/// The lane grouping — and therefore the FP rounding — depends only on the
/// slice contents and length, so results are reproducible for a given row
/// no matter which thread evaluates it.
#[inline]
pub fn dot_blocked<T: Scalar>(x: &[T], y: &[T]) -> T {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = [T::zero(); 4];
    let mut xc = x.chunks_exact(4);
    let mut yc = y.chunks_exact(4);
    for (xq, yq) in (&mut xc).zip(&mut yc) {
        for ((a, &xv), &yv) in acc.iter_mut().zip(xq).zip(yq) {
            *a = xv.mul_add(yv, *a);
        }
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (&xv, &yv) in xc.remainder().iter().zip(yc.remainder()) {
        s = xv.mul_add(yv, s);
    }
    s
}

/// 8-lane dot product: one fma vector op per [`LANE`] elements, reduced by
/// the fixed [`lane_tree_sum`] tree, remainder folded sequentially. The
/// reduction order is [`crate::rt::ReductionOrder::LaneTree`] — a function
/// of the slice alone.
#[inline]
pub fn dot_wide<T: Scalar>(x: &[T], y: &[T]) -> T {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = [T::zero(); LANE];
    let mut xc = x.chunks_exact(LANE);
    let mut yc = y.chunks_exact(LANE);
    for (xq, yq) in (&mut xc).zip(&mut yc) {
        acc = fma_lanes(acc, xq, yq);
    }
    let mut s = lane_tree_sum(acc);
    for (&xv, &yv) in xc.remainder().iter().zip(yc.remainder()) {
        s = xv.mul_add(yv, s);
    }
    s
}

/// Four dot products sharing `x`: `[⟨x, y0⟩, ⟨x, y1⟩, ⟨x, y2⟩, ⟨x, y3⟩]`
/// — the SDDMM edge loop scoring four neighbors per pass over `x`, the
/// dot-product analogue of [`axpy4`]. Each result is exactly [`dot`]'s
/// op sequence in the active mode (wide: its own eight lanes, the
/// [`lane_tree_sum`] merge and the sequential remainder of [`dot_wide`];
/// otherwise [`dot`] itself), so it is bit-identical to four `dot` calls.
#[inline]
pub fn dot4<T: Scalar>(x: &[T], y: [&[T]; 4]) -> [T; 4] {
    if !wide() {
        return y.map(|yq| dot(x, yq));
    }
    let [y0, y1, y2, y3] = y;
    debug_assert!(y.iter().all(|yq| yq.len() == x.len()));
    let mut acc = [[T::zero(); LANE]; 4];
    let chunks = x
        .chunks_exact(LANE)
        .zip(y0.chunks_exact(LANE))
        .zip(y1.chunks_exact(LANE))
        .zip(y2.chunks_exact(LANE))
        .zip(y3.chunks_exact(LANE));
    for ((((xq, q0), q1), q2), q3) in chunks {
        acc[0] = fma_lanes(acc[0], xq, q0);
        acc[1] = fma_lanes(acc[1], xq, q1);
        acc[2] = fma_lanes(acc[2], xq, q2);
        acc[3] = fma_lanes(acc[3], xq, q3);
    }
    let tail = x.len() / LANE * LANE;
    let mut s = acc.map(lane_tree_sum);
    for (sq, yq) in s.iter_mut().zip(y) {
        for (&xv, &yv) in x[tail..].iter().zip(&yq[tail..]) {
            *sq = xv.mul_add(yv, *sq);
        }
    }
    s
}

// ---------------------------------------------------------------------
// Axpy family (lane-oblivious: bit-exact across widths and layouts)
// ---------------------------------------------------------------------

/// `out[i] += alpha · x[i]`, dispatching on the kernel modes.
///
/// All modes except the scalar oracle are strictly elementwise over
/// `mul_add`, so callers may slice the operands into arbitrary tiles
/// (attention's column tiling, rt chunking, padded full-stride rows)
/// without changing any element's rounding sequence.
#[inline]
pub fn axpy<T: Scalar>(out: &mut [T], alpha: T, x: &[T]) {
    debug_assert_eq!(out.len(), x.len());
    if wide() {
        axpy_wide(out, alpha, x);
    } else if blocked() {
        let mut oc = out.chunks_exact_mut(4);
        let mut xc = x.chunks_exact(4);
        for (oq, xq) in (&mut oc).zip(&mut xc) {
            for (o, &xv) in oq.iter_mut().zip(xq) {
                *o = alpha.mul_add(xv, *o);
            }
        }
        for (o, &xv) in oc.into_remainder().iter_mut().zip(xc.remainder()) {
            *o = alpha.mul_add(xv, *o);
        }
    } else {
        for (o, &xv) in out.iter_mut().zip(x.iter()) {
            *o += alpha * xv;
        }
    }
}

/// 8-lane `out[i] = alpha·x[i] + out[i]`. Elementwise `mul_add`, so
/// bit-identical to the 4-way blocked [`axpy`].
#[inline]
pub fn axpy_wide<T: Scalar>(out: &mut [T], alpha: T, x: &[T]) {
    debug_assert_eq!(out.len(), x.len());
    let mut oc = out.chunks_exact_mut(LANE);
    let mut xc = x.chunks_exact(LANE);
    for (oq, xq) in (&mut oc).zip(&mut xc) {
        axpy_lanes(oq, alpha, xq);
    }
    for (o, &xv) in oc.into_remainder().iter_mut().zip(xc.remainder()) {
        *o = alpha.mul_add(xv, *o);
    }
}

/// Fused two-source update `out[i] = a1·x1[i] + (a0·x0[i] + out[i])`,
/// rounding exactly as two sequential [`axpy`] calls per element (each
/// `mul_add` is one rounding) — but with one load/store of `out`.
#[inline]
pub fn axpy2<T: Scalar>(out: &mut [T], alpha: [T; 2], x: [&[T]; 2]) {
    let [x0, x1] = x;
    debug_assert!(out.len() == x0.len() && out.len() == x1.len());
    for ((o, &v0), &v1) in out.iter_mut().zip(x0).zip(x1) {
        *o = alpha[1].mul_add(v1, alpha[0].mul_add(v0, *o));
    }
}

/// Fused four-source update: the aggregation inner loop processes four
/// neighbors per pass over the output row. Per element this is the exact
/// rounding sequence of four sequential [`axpy`] calls (nested `mul_add`),
/// so it stays in the bit-exact family.
#[inline]
pub fn axpy4<T: Scalar>(out: &mut [T], alpha: [T; 4], x: [&[T]; 4]) {
    let [x0, x1, x2, x3] = x;
    debug_assert!(out.len() == x0.len() && out.len() == x3.len());
    for ((((o, &v0), &v1), &v2), &v3) in out.iter_mut().zip(x0).zip(x1).zip(x2).zip(x3) {
        let t = alpha[1].mul_add(v1, alpha[0].mul_add(v0, *o));
        *o = alpha[3].mul_add(v3, alpha[2].mul_add(v2, t));
    }
}

// ---------------------------------------------------------------------
// Lane-structured row reductions (softmax support)
// ---------------------------------------------------------------------

/// Sum of a slice with the wide lane schedule: eight accumulators filled
/// in stored order, [`lane_tree_sum`] merge, sequential remainder — the
/// softmax-accumulation counterpart of [`dot_wide`].
#[inline]
pub fn sum_wide<T: Scalar>(x: &[T]) -> T {
    let mut acc = [T::zero(); LANE];
    let mut xc = x.chunks_exact(LANE);
    for xq in &mut xc {
        for (a, &v) in acc.iter_mut().zip(xq) {
            *a += v;
        }
    }
    let mut s = lane_tree_sum(acc);
    for &v in xc.remainder() {
        s += v;
    }
    s
}

/// Maximum of a slice with eight lane accumulators. IEEE `max` is exact in
/// any association (for the non-NaN inputs the kernels feed it), so this
/// matches the sequential fold bit-for-bit while vectorizing.
#[inline]
pub fn max_wide<T: Scalar>(x: &[T]) -> T {
    let mut acc = [T::neg_infinity(); LANE];
    let mut xc = x.chunks_exact(LANE);
    for xq in &mut xc {
        for (a, &v) in acc.iter_mut().zip(xq) {
            *a = a.max(v);
        }
    }
    let mut m = acc.iter().fold(T::neg_infinity(), |a, &v| a.max(v));
    for &v in xc.remainder() {
        m = m.max(v);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, scale: f64) -> Vec<f64> {
        (0..n)
            .map(|i| scale * (i as f64 * 0.37 - 1.5).sin())
            .collect()
    }

    #[test]
    fn dot_blocked_matches_scalar_within_tolerance() {
        for n in [0, 1, 3, 4, 7, 16, 33, 129] {
            let x = seq(n, 1.3);
            let y = seq(n, -0.7);
            let a = dot_blocked(&x, &y);
            let b = dot_scalar(&x, &y);
            assert!(
                (a - b).abs() <= 1e-12 * (1.0 + b.abs()),
                "n={n}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn dot_wide_matches_scalar_within_tolerance() {
        for n in [0, 1, 3, 7, 8, 9, 16, 31, 33, 129] {
            let x = seq(n, 1.3);
            let y = seq(n, -0.7);
            let a = dot_wide(&x, &y);
            let b = dot_scalar(&x, &y);
            assert!(
                (a - b).abs() <= 1e-12 * (1.0 + b.abs()),
                "n={n}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn dot_wide_zero_padding_is_invisible() {
        // Appending zero elements only feeds fma(0,0,·) into the lanes and
        // 0-products into the tree, which never changes the lane sums —
        // the property the padded layout's full-vector rows rely on when
        // the padded length is a whole number of lanes.
        let mut x = seq(24, 0.9);
        let mut y = seq(24, -1.1);
        let base = dot_wide(&x, &y);
        x.resize(32, 0.0);
        y.resize(32, 0.0);
        assert_eq!(base.to_bits(), dot_wide(&x, &y).to_bits());
    }

    #[test]
    fn dot_blocked_is_deterministic() {
        let x = seq(37, 0.9);
        let y = seq(37, 1.1);
        assert_eq!(dot_blocked(&x, &y).to_bits(), dot_blocked(&x, &y).to_bits());
    }

    #[test]
    fn axpy_blocked_is_slice_invariant() {
        // Elementwise blocking: running axpy on the whole row must be
        // bit-identical to running it tile-by-tile at any split point.
        let x = seq(21, 0.8);
        let alpha = 0.613_f64;
        let mut whole = seq(21, 2.0);
        axpy(&mut whole, alpha, &x);
        for split in 0..=21 {
            let mut tiled = seq(21, 2.0);
            let (lo, hi) = tiled.split_at_mut(split);
            axpy(lo, alpha, &x[..split]);
            axpy(hi, alpha, &x[split..]);
            for (w, t) in whole.iter().zip(tiled.iter()) {
                assert_eq!(w.to_bits(), t.to_bits(), "split={split}");
            }
        }
    }

    #[test]
    fn axpy_wide_matches_blocked_bits() {
        for n in [0, 1, 3, 7, 8, 9, 21, 33] {
            let x = seq(n, 0.8);
            let mut wide_out = seq(n, 2.0);
            axpy_wide(&mut wide_out, 0.613, &x);
            let mut want = seq(n, 2.0);
            for (o, &xv) in want.iter_mut().zip(x.iter()) {
                *o = 0.613f64.mul_add(xv, *o);
            }
            for (g, w) in wide_out.iter().zip(want.iter()) {
                assert_eq!(g.to_bits(), w.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn axpy4_matches_four_sequential_axpys_bits() {
        let xs: Vec<Vec<f64>> = (0..4).map(|i| seq(19, 0.3 + i as f64 * 0.4)).collect();
        let alpha = [0.2, -0.7, 1.3, 0.05];
        let mut fused = seq(19, 1.0);
        axpy4(
            &mut fused,
            alpha,
            [&xs[0][..], &xs[1][..], &xs[2][..], &xs[3][..]],
        );
        let mut want = seq(19, 1.0);
        for (a, x) in alpha.iter().zip(xs.iter()) {
            for (o, &xv) in want.iter_mut().zip(x.iter()) {
                *o = a.mul_add(xv, *o);
            }
        }
        for (g, w) in fused.iter().zip(want.iter()) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn axpy2_matches_two_sequential_axpys_bits() {
        let x0 = seq(13, 0.5);
        let x1 = seq(13, -1.2);
        let mut fused = seq(13, 0.9);
        axpy2(&mut fused, [0.3, -0.8], [&x0[..], &x1[..]]);
        let mut want = seq(13, 0.9);
        for (o, &xv) in want.iter_mut().zip(x0.iter()) {
            *o = 0.3f64.mul_add(xv, *o);
        }
        for (o, &xv) in want.iter_mut().zip(x1.iter()) {
            *o = (-0.8f64).mul_add(xv, *o);
        }
        for (g, w) in fused.iter().zip(want.iter()) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn sum_and_max_wide_match_sequential() {
        for n in [0, 1, 7, 8, 9, 31, 64] {
            let x = seq(n, 1.4);
            let seq_sum: f64 = x.iter().sum();
            assert!((sum_wide(&x) - seq_sum).abs() <= 1e-12 * (1.0 + seq_sum.abs()));
            let seq_max = x.iter().fold(f64::NEG_INFINITY, |a, &v| a.max(v));
            assert_eq!(max_wide(&x).to_bits(), seq_max.to_bits(), "n={n}");
        }
    }

    #[test]
    fn scalar_mode_axpy_matches_plain_loop_bits() {
        let x = seq(13, 1.7);
        let mut got = seq(13, -0.4);
        let mut want = got.clone();
        for (o, &xv) in want.iter_mut().zip(x.iter()) {
            *o += 0.25 * xv;
        }
        // Call the scalar path directly (mode() is process-global).
        for (o, &xv) in got.iter_mut().zip(x.iter()) {
            *o += 0.25 * xv;
        }
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }
}
