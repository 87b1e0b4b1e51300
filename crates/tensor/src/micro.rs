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
//!   [`dot_wide`] lane tree, [`axpy_wide`], the multi-source fused updates
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
// Widening axpy family (mixed-precision storage: narrow loads, f32 math)
// ---------------------------------------------------------------------

/// `out[i] = alpha·widen(x[i]) + out[i]` — the storage-generic axpy the
/// mixed-precision kernels run: narrow loads, every arithmetic op in
/// f32. Strictly elementwise like [`axpy`] and dispatching on the same
/// kernel-mode switch (`mul_add` under the blocked kernels, the plain
/// `+=` oracle under `ATGNN_MICROKERNEL=scalar`), and since widening is
/// exact ([`crate::convert`]), the result is bit-identical to the f32
/// [`axpy`] over the widened image of `x` in every mode; for `S = f32`
/// it *is* that axpy.
#[inline]
pub fn axpy_widen<S: crate::convert::Store>(out: &mut [f32], alpha: f32, x: &[S]) {
    debug_assert_eq!(out.len(), x.len());
    if blocked() {
        for (o, &xv) in out.iter_mut().zip(x) {
            *o = alpha.mul_add(xv.widen(), *o);
        }
    } else {
        for (o, &xv) in out.iter_mut().zip(x) {
            *o += alpha * xv.widen();
        }
    }
}

/// Four-neighbor fused widening update — the storage counterpart of
/// [`axpy4`], rounding per element exactly as four sequential
/// blocked-mode [`axpy_widen`] calls. Like [`axpy4`], the fused form is
/// unconditional `mul_add`: it only runs under [`wide`], which implies
/// the blocked kernels.
#[inline]
pub fn axpy4_widen<S: crate::convert::Store>(out: &mut [f32], alpha: [f32; 4], x: [&[S]; 4]) {
    let [x0, x1, x2, x3] = x;
    debug_assert!(out.len() == x0.len() && out.len() == x3.len());
    for ((((o, &v0), &v1), &v2), &v3) in out.iter_mut().zip(x0).zip(x1).zip(x2).zip(x3) {
        let t = alpha[1].mul_add(v1.widen(), alpha[0].mul_add(v0.widen(), *o));
        *o = alpha[3].mul_add(v3.widen(), alpha[2].mul_add(v2.widen(), t));
    }
}

/// Eight-neighbor fused widening update, again [`wide`]-only. Per
/// element this is the exact rounding sequence of eight sequential
/// blocked-mode [`axpy_widen`] calls (each
/// `mul_add` one rounding, neighbors applied in order), so any grouping
/// — 8, 4+4, or eight singles — produces identical bits; the fused form
/// exists purely to amortize the f32 accumulator row's load/store over
/// twice as many narrow feature rows as [`axpy4_widen`].
#[inline]
pub fn axpy8_widen<S: crate::convert::Store>(out: &mut [f32], alpha: [f32; 8], x: [&[S]; 8]) {
    let [x0, x1, x2, x3, x4, x5, x6, x7] = x;
    debug_assert!(out.len() == x0.len() && out.len() == x7.len());
    for ((((((((o, &v0), &v1), &v2), &v3), &v4), &v5), &v6), &v7) in out
        .iter_mut()
        .zip(x0)
        .zip(x1)
        .zip(x2)
        .zip(x3)
        .zip(x4)
        .zip(x5)
        .zip(x6)
        .zip(x7)
    {
        let t = alpha[1].mul_add(v1.widen(), alpha[0].mul_add(v0.widen(), *o));
        let t = alpha[3].mul_add(v3.widen(), alpha[2].mul_add(v2.widen(), t));
        let t = alpha[5].mul_add(v5.widen(), alpha[4].mul_add(v4.widen(), t));
        *o = alpha[7].mul_add(v7.widen(), alpha[6].mul_add(v6.widen(), t));
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

/// Runtime AVX2+FMA detection, probed once per process. The explicit
/// gather kernel below is the only consumer; everything else in this
/// module relies on the autovectorizer, which cannot emit `vgatherdps`
/// from a scalar indexed load.
#[cfg(target_arch = "x86_64")]
fn avx2_fma() -> bool {
    use std::sync::OnceLock;
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

/// One GAT score row, fused: `e[i] = leaky_relu(ur + v[cols[i]])` with the
/// running row max folded into the gather loop's lane accumulators.
///
/// Bit-compatibility: per element this performs exactly the scalar
/// sequence `slope.mul_add(min(pre, 0), max(pre, 0))` on `pre = ur +
/// v[c]` — the same operand order as [`crate::Activation::LeakyRelu`]'s
/// branch-free form — so the stored scores match the scalar loop
/// bit-for-bit. The returned max is a selection over those same values;
/// IEEE `max` is exact in any association, so it equals
/// [`max_wide`]-over-the-finished-row bit-for-bit. The AVX2 path's only
/// difference from the portable one is *which instructions* perform the
/// loads (`vgatherdps` vs eight scalar loads).
///
/// # Safety
///
/// Every `cols[i]` must be a valid index into `v` (the sparse kernels
/// guarantee this: `Csr` construction validates all stored column
/// indices, and the attention entry points assert `v.len() == a.cols()`).
/// `e.len()` must equal `cols.len()`.
pub unsafe fn gat_score_row(ur: f32, v: &[f32], cols: &[u32], slope: f32, e: &mut [f32]) -> f32 {
    debug_assert_eq!(cols.len(), e.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_fma() {
        return gat_score_row_avx2(ur, v, cols, slope, e);
    }
    let mut m = f32::NEG_INFINITY;
    for (slot, &c) in e.iter_mut().zip(cols) {
        let pre = ur + *v.get_unchecked(c as usize);
        let s = slope.mul_add(pre.min(0.0), pre.max(0.0));
        *slot = s;
        m = m.max(s);
    }
    m
}

/// AVX2 body of [`gat_score_row`]; same safety contract.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gat_score_row_avx2(ur: f32, v: &[f32], cols: &[u32], slope: f32, e: &mut [f32]) -> f32 {
    use core::arch::x86_64::*;
    let d = e.len();
    let urv = _mm256_set1_ps(ur);
    let sv = _mm256_set1_ps(slope);
    let zero = _mm256_setzero_ps();
    let mut mv = _mm256_set1_ps(f32::NEG_INFINITY);
    let mut i = 0;
    while i + 8 <= d {
        let idx = _mm256_loadu_si256(cols.as_ptr().add(i) as *const __m256i);
        let g = _mm256_i32gather_ps::<4>(v.as_ptr(), idx);
        let pre = _mm256_add_ps(urv, g);
        // min/max operand order matches the scalar form (value first,
        // constant zero second) so tie and NaN lowering agree.
        let s = _mm256_fmadd_ps(sv, _mm256_min_ps(pre, zero), _mm256_max_ps(pre, zero));
        _mm256_storeu_ps(e.as_mut_ptr().add(i), s);
        mv = _mm256_max_ps(mv, s);
        i += 8;
    }
    let mut lanes = [0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), mv);
    let mut m = lanes.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    while i < d {
        let pre = ur + *v.get_unchecked(*cols.get_unchecked(i) as usize);
        let s = slope.mul_add(pre.min(0.0), pre.max(0.0));
        *e.get_unchecked_mut(i) = s;
        m = m.max(s);
        i += 1;
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
    fn widening_axpys_match_the_f32_family_bit_for_bit() {
        use crate::convert::{Bf16, Buf, Store};
        use crate::Dense;
        // bf16 source: the widening kernel must equal the mode-dispatched
        // f32 [`axpy`] run on the widened image, in whatever mode this
        // process runs — both sides share the dispatch (`mul_add` under
        // the blocked kernels, the plain `+=` oracle under
        // `ATGNN_MICROKERNEL=scalar`) and widening is exact.
        let src = Dense::<f32>::from_fn(4, 21, |i, j| ((i * 31 + j * 7) % 19) as f32 * 0.21 - 1.7);
        let buf = Buf::<Bf16>::from_dense(&src);
        let wide_img = buf.to_dense();
        let mut got = vec![0.25f32; 21];
        let mut want = got.clone();
        axpy_widen(&mut got, 0.613, buf.row(0));
        axpy(&mut want, 0.613, wide_img.row(0));
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // Four-source fused variant vs the f32 [`axpy4`] on the widened
        // rows — both are unconditional nested `mul_add` (the fused
        // kernels only run under `wide()`, which implies the blocked
        // kernels), so this holds in every process mode.
        let rows: Vec<&[Bf16]> = (0..4).map(|r| buf.row(r)).collect();
        let wrows: Vec<&[f32]> = (0..4).map(|r| wide_img.row(r)).collect();
        let alpha = [0.2f32, -0.7, 1.3, 0.05];
        let mut fused = vec![0.9f32; 21];
        let mut ref4 = fused.clone();
        axpy4_widen(&mut fused, alpha, [rows[0], rows[1], rows[2], rows[3]]);
        axpy4(&mut ref4, alpha, [wrows[0], wrows[1], wrows[2], wrows[3]]);
        assert_eq!(
            fused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            ref4.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // f32 "storage" is the identity: axpy_widen == axpy.
        let mut id = vec![0.1f32; 21];
        let mut ref32 = id.clone();
        axpy_widen::<f32>(&mut id, -0.4, src.row(1));
        axpy(&mut ref32, -0.4, src.row(1));
        assert_eq!(
            id.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            ref32.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let _ = <Bf16 as Store>::BYTES;
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

    #[test]
    fn gat_score_row_matches_activation_loop_bits() {
        use crate::Activation;
        let slope = 0.2f64;
        let act = Activation::LeakyRelu(slope);
        let v: Vec<f32> = (0..97).map(|i| ((i as f32) * 0.37 - 11.0).sin()).collect();
        for d in [0usize, 1, 3, 7, 8, 9, 16, 31, 33] {
            let cols: Vec<u32> = (0..d).map(|i| ((i * 41 + 7) % 97) as u32).collect();
            let ur = -0.3f32;
            let mut want = vec![0.0f32; d];
            for (slot, &c) in want.iter_mut().zip(&cols) {
                *slot = act.eval(ur + v[c as usize]);
            }
            let wm = max_wide(&want);
            let mut got = vec![0.0f32; d];
            // SAFETY: every column index is reduced mod v.len().
            let gm = unsafe { gat_score_row(ur, &v, &cols, slope as f32, &mut got) };
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
            if d > 0 {
                assert_eq!(gm.to_bits(), wm.to_bits());
            }
        }
    }
}
