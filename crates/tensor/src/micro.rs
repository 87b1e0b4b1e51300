//! SIMD-width microkernel primitives and the kernel-mode switch.
//!
//! The attention hot path spends its cycles in three inner-loop shapes: dot
//! products (SDDMM scoring, `matvec`), axpy updates (SpMM / attention
//! aggregation), and the broadcast-fma register tiles of the dense
//! products in [`crate::gemm`]. This module provides those inner loops at
//! two tiers, selected by one process-wide switch,
//! `ATGNN_MICROKERNEL={blocked,scalar}` ([`MicroKernel`]):
//!
//! * `blocked` (the default) runs the 8-lane ([`LANE`]) wide kernels — the
//!   [`dot_wide`] lane tree (four rows per pass in [`dot4`]),
//!   [`axpy_wide`], the multi-source fused updates [`axpy2`]/[`axpy4`],
//!   and the lane-structured reductions [`sum_wide`]/[`max_wide`];
//! * `scalar` reproduces the pre-microkernel loops bit-for-bit and remains
//!   the equivalence oracle CI pins.
//!
//! The wide loops are written over one [`LANE`]-wide accumulator type,
//! [`Lanes`]: safe array loops over [`Scalar::mul_add`] that the
//! autovectorizer lifts to FMA vector code, except where it does not — the
//! dots, whose `f32` body is explicit AVX2 ([`F32x8`]). Both bodies give
//! the same bits.
//!
//! Equivalence policy per kernel family (pinned by tests and by the `simd`
//! bench's in-run gates):
//!
//! * **Lane-oblivious (bit-exact).** [`axpy_wide`], [`axpy2`], [`axpy4`]
//!   apply `alpha.mul_add(x, out)` strictly elementwise: every output
//!   element sees the identical rounding sequence no matter the grouping,
//!   so padded vs tight layouts — and any tiling — are bit-identical. The
//!   nested fma in `axpy4` is exactly the composition of four sequential
//!   axpys per element.
//! * **Re-associated (documented ≤1e-6 relative tolerance vs the oracle,
//!   deterministic within a mode).** [`dot_wide`] (8-lane tree) vs
//!   [`dot_scalar`]; the [`sum_wide`] softmax accumulation. Their
//!   lane-reduction order is fixed ([`crate::rt::ReductionOrder::LaneTree`])
//!   so results stay bit-stable across thread counts and tile sizes within
//!   one mode.

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
    /// The 8-lane wide `mul_add` kernels (the default).
    #[default]
    Blocked,
    /// The original scalar `out += a * b` loops, kept as the bit-exact
    /// equivalence oracle (`ATGNN_MICROKERNEL=scalar`).
    Scalar,
}

const MODE_UNSET: u8 = 0;
const MODE_BLOCKED: u8 = 1;
const MODE_SCALAR: u8 = 2;

/// Lazily initialized from `ATGNN_MICROKERNEL`; a plain atomic (not a
/// `OnceLock`) so benches can sweep modes in one process via [`set_mode`].
static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

/// The active kernel mode, reading `ATGNN_MICROKERNEL` on first use.
/// Any value other than `scalar` selects the wide kernels.
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

/// Whether the 8-lane wide kernels are active (everything but the
/// scalar oracle).
#[inline]
pub fn wide() -> bool {
    mode() == MicroKernel::Blocked
}

/// The accumulation-order fact of the active dot-product kernel, for the
/// plan-time determinism analysis: the wide kernel reduces eight lanes in
/// a fixed binary tree (a function of the operand slice alone), the
/// scalar kernel runs one ascending sum. Both are invariant of thread
/// count and tile size — [`axpy`] and its wide variants are strictly
/// elementwise in every mode, so aggregation tiling never changes an
/// element's rounding sequence.
pub fn accumulation_order() -> crate::rt::ReductionOrder {
    match mode() {
        MicroKernel::Blocked => crate::rt::ReductionOrder::LaneTree,
        MicroKernel::Scalar => crate::rt::ReductionOrder::RowSequential,
    }
}

// ---------------------------------------------------------------------
// Lane primitives
// ---------------------------------------------------------------------

/// One [`LANE`]-wide accumulator vector: the register every wide dot and
/// GEMM tile folds into. Element `i` of a kernel's operand always lands
/// in lane `i % LANE`, and each method fixes its rounding sequence per
/// lane, so every implementation is bit-identical to the generic
/// `[T; LANE]` body — an implementation changes the instructions, never
/// the bits.
///
/// [`Scalar::Lanes`] names the implementation the dot kernels run: the
/// explicit AVX2 [`F32x8`] for `f32` when the build targets AVX2 + FMA
/// (`.cargo/config.toml`'s `target-cpu=native`), the generic `[T; LANE]`
/// body otherwise. The GEMM tiles keep the generic body, which the
/// autovectorizer already lifts well ([`crate::gemm`]). The `*_lanes`
/// kernel entries take the implementation as a type parameter so tests
/// and the `simd` bench can run either body.
pub trait Lanes<T>: Copy {
    /// All lanes `+0`.
    fn zero() -> Self;
    /// The lanes `x[0..LANE]`.
    fn load(x: &[T; LANE]) -> Self;
    /// Writes the lanes to `out`.
    fn store(self, out: &mut [T; LANE]);
    /// `self[i] + x[i]·y[i]`, one rounding per lane.
    fn fma(self, x: &[T; LANE], y: &[T; LANE]) -> Self;
    /// `self[i] + a·b[i]` (scalar broadcast), one rounding per lane — the
    /// gemm outer-product update.
    fn fma_splat(self, a: T, b: &[T; LANE]) -> Self;
    /// The fixed lane-reduction tree of the wide kernels:
    /// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
    fn tree_sum(self) -> T;
    /// [`Lanes::tree_sum`] of four accumulators.
    #[inline(always)]
    fn tree_sum4(acc: [Self; 4]) -> [T; 4] {
        acc.map(Self::tree_sum)
    }
}

/// The generic lane body: safe array loops over [`Scalar::mul_add`]. It
/// is what `f64` runs, what `f32` runs on targets without AVX2 + FMA, and
/// the reference the explicit bodies are tested against.
impl<T: Scalar> Lanes<T> for [T; LANE] {
    #[inline(always)]
    fn zero() -> Self {
        [T::zero(); LANE]
    }

    #[inline(always)]
    fn load(x: &[T; LANE]) -> Self {
        *x
    }

    #[inline(always)]
    fn store(self, out: &mut [T; LANE]) {
        *out = self;
    }

    #[inline(always)]
    fn fma(mut self, x: &[T; LANE], y: &[T; LANE]) -> Self {
        for ((a, &xv), &yv) in self.iter_mut().zip(x).zip(y) {
            *a = xv.mul_add(yv, *a);
        }
        self
    }

    #[inline(always)]
    fn fma_splat(mut self, a: T, b: &[T; LANE]) -> Self {
        for (l, &bv) in self.iter_mut().zip(b) {
            *l = a.mul_add(bv, *l);
        }
        self
    }

    #[inline(always)]
    fn tree_sum(self) -> T {
        let l = self;
        ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
    }
}

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
))]
pub use avx2::F32x8;

/// The lane vector `f32` kernels run on this target ([`Scalar::Lanes`]).
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
))]
pub type F32Lanes = F32x8;

/// The lane vector `f32` kernels run on this target ([`Scalar::Lanes`]).
#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
)))]
pub type F32Lanes = [f32; LANE];

/// The explicit 8-lane `f32` body. Left to the autovectorizer, the
/// generic `[f32; 8]` body does not compile to one 8-wide register per
/// accumulator: the SLP vectorizer turns [`dot4`]'s four lane arrays
/// sideways (4-wide FMAs across the four dots, fed by broadcasts and
/// inserts) and [`dot_wide`]'s loop stays scalar `vfmadd231ss`. Here each
/// accumulator is one `__m256` and each update one `vfmadd231ps`.
///
/// Every intrinsic here needs AVX or FMA (SSE3 for the horizontal adds,
/// which AVX implies). The `cfg` compiles this module only when the build
/// enables AVX2 and FMA, which is the safety argument of each `unsafe`
/// block below; the pointer intrinsics additionally name their bounds.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
))]
mod avx2 {
    use super::{Lanes, LANE};
    use std::arch::x86_64::*;

    /// Eight `f32` lanes in one AVX register.
    #[derive(Clone, Copy, Debug)]
    pub struct F32x8(__m256);

    impl Lanes<f32> for F32x8 {
        #[inline(always)]
        fn zero() -> Self {
            // SAFETY: AVX is enabled at build time (module cfg).
            Self(unsafe { _mm256_setzero_ps() })
        }

        #[inline(always)]
        fn load(x: &[f32; LANE]) -> Self {
            // SAFETY: AVX is enabled at build time (module cfg); `x` is
            // eight initialized `f32`s and `loadu` needs no alignment.
            Self(unsafe { _mm256_loadu_ps(x.as_ptr()) })
        }

        #[inline(always)]
        fn store(self, out: &mut [f32; LANE]) {
            // SAFETY: AVX is enabled at build time (module cfg); `out` is
            // eight writable `f32`s and `storeu` needs no alignment.
            unsafe { _mm256_storeu_ps(out.as_mut_ptr(), self.0) }
        }

        #[inline(always)]
        fn fma(self, x: &[f32; LANE], y: &[f32; LANE]) -> Self {
            let (x, y) = (Self::load(x), Self::load(y));
            // SAFETY: FMA is enabled at build time (module cfg).
            Self(unsafe { _mm256_fmadd_ps(x.0, y.0, self.0) })
        }

        #[inline(always)]
        fn fma_splat(self, a: f32, b: &[f32; LANE]) -> Self {
            let b = Self::load(b);
            // SAFETY: AVX and FMA are enabled at build time (module cfg).
            Self(unsafe { _mm256_fmadd_ps(_mm256_set1_ps(a), b.0, self.0) })
        }

        #[inline(always)]
        fn tree_sum(self) -> f32 {
            // [l0+l1, l2+l3, l4+l5, l6+l7], then
            // [(l0+l1)+(l2+l3), (l4+l5)+(l6+l7), ..], then their sum.
            // SAFETY: AVX (and so SSE3) is enabled at build time (module cfg).
            unsafe {
                let lo = _mm256_castps256_ps128(self.0);
                let hi = _mm256_extractf128_ps::<1>(self.0);
                let pairs = _mm_hadd_ps(lo, hi);
                let quads = _mm_hadd_ps(pairs, pairs);
                _mm_cvtss_f32(_mm_add_ss(quads, _mm_movehdup_ps(quads)))
            }
        }

        #[inline(always)]
        fn tree_sum4(acc: [Self; 4]) -> [f32; 4] {
            // Per 128-bit half: the pair sums of a0, a1 and of a2, a3,
            // then the four quad sums, then low half + high half — the
            // tree of `tree_sum`, four accumulators at once.
            let mut out = [0.0; 4];
            // SAFETY: AVX is enabled at build time (module cfg); `out` is
            // four writable `f32`s and `storeu` needs no alignment.
            unsafe {
                let p01 = _mm256_hadd_ps(acc[0].0, acc[1].0);
                let p23 = _mm256_hadd_ps(acc[2].0, acc[3].0);
                let q = _mm256_hadd_ps(p01, p23);
                let sum = _mm_add_ps(_mm256_castps256_ps128(q), _mm256_extractf128_ps::<1>(q));
                _mm_storeu_ps(out.as_mut_ptr(), sum);
            }
            out
        }
    }
}

// ---------------------------------------------------------------------
// Dot products
// ---------------------------------------------------------------------

/// Dot product `Σ x[i]·y[i]`, dispatching on the kernel mode.
#[inline]
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    if wide() {
        dot_wide(x, y)
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

/// 8-lane dot product: one fma vector op per [`LANE`] elements, reduced by
/// the fixed [`Lanes::tree_sum`] tree, remainder folded sequentially. The
/// reduction order is [`crate::rt::ReductionOrder::LaneTree`] — a function
/// of the slice alone. Every product and fma is symmetric in its two
/// factors, so `dot_wide(x, y)` and `dot_wide(y, x)` are bit-identical.
#[inline]
pub fn dot_wide<T: Scalar>(x: &[T], y: &[T]) -> T {
    dot_lanes::<T, T::Lanes>(x, y)
}

/// [`dot_wide`] on the lane body `L`.
#[inline]
pub fn dot_lanes<T: Scalar, L: Lanes<T>>(x: &[T], y: &[T]) -> T {
    debug_assert_eq!(x.len(), y.len());
    let (xc, xr) = x.as_chunks::<LANE>();
    let (yc, yr) = y.as_chunks::<LANE>();
    let mut acc = L::zero();
    for (xq, yq) in xc.iter().zip(yc) {
        acc = acc.fma(xq, yq);
    }
    let mut s = acc.tree_sum();
    for (&xv, &yv) in xr.iter().zip(yr) {
        s = xv.mul_add(yv, s);
    }
    s
}

/// Four dot products sharing `x`: `[⟨x, y0⟩, ⟨x, y1⟩, ⟨x, y2⟩, ⟨x, y3⟩]`
/// — the SDDMM edge loop scoring four neighbors per pass over `x`, the
/// dot-product analogue of [`axpy4`]. Each result is exactly [`dot`]'s
/// op sequence in the active mode (wide: its own eight lanes, the
/// [`Lanes::tree_sum`] merge and the sequential remainder of
/// [`dot_wide`]; otherwise [`dot_scalar`]), so it is bit-identical to
/// four `dot` calls.
#[inline]
pub fn dot4<T: Scalar>(x: &[T], y: [&[T]; 4]) -> [T; 4] {
    if !wide() {
        return y.map(|yq| dot_scalar(x, yq));
    }
    dot4_lanes::<T, T::Lanes>(x, y)
}

/// The wide [`dot4`] on the lane body `L`.
#[inline]
pub fn dot4_lanes<T: Scalar, L: Lanes<T>>(x: &[T], y: [&[T]; 4]) -> [T; 4] {
    debug_assert!(y.iter().all(|yq| yq.len() == x.len()));
    let [y0, y1, y2, y3] = y.map(|yq| yq.as_chunks::<LANE>().0);
    let (xc, _) = x.as_chunks::<LANE>();
    let mut acc = [L::zero(); 4];
    for ((((xq, q0), q1), q2), q3) in xc.iter().zip(y0).zip(y1).zip(y2).zip(y3) {
        acc[0] = acc[0].fma(xq, q0);
        acc[1] = acc[1].fma(xq, q1);
        acc[2] = acc[2].fma(xq, q2);
        acc[3] = acc[3].fma(xq, q3);
    }
    let tail = xc.len() * LANE;
    let mut s = L::tree_sum4(acc);
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

/// `out[i] += alpha · x[i]`, dispatching on the kernel mode.
///
/// Both modes are strictly elementwise, so callers may slice the operands
/// into arbitrary tiles (attention's column tiling, rt chunking, padded
/// full-stride rows) without changing any element's rounding sequence.
#[inline]
pub fn axpy<T: Scalar>(out: &mut [T], alpha: T, x: &[T]) {
    if wide() {
        axpy_wide(out, alpha, x);
    } else {
        axpy_scalar(out, alpha, x);
    }
}

/// The pre-microkernel axpy: `out[i] += alpha * x[i]`, multiply and add
/// rounded separately — the oracle counterpart of [`axpy_wide`].
#[inline]
fn axpy_scalar<T: Scalar>(out: &mut [T], alpha: T, x: &[T]) {
    debug_assert_eq!(out.len(), x.len());
    for (o, &xv) in out.iter_mut().zip(x) {
        *o += alpha * xv;
    }
}

/// 8-lane `out[i] = alpha·x[i] + out[i]`. Elementwise `mul_add`, so
/// bit-identical to the same `mul_add` loop at any grouping.
#[inline]
pub fn axpy_wide<T: Scalar>(out: &mut [T], alpha: T, x: &[T]) {
    debug_assert_eq!(out.len(), x.len());
    let mut oc = out.chunks_exact_mut(LANE);
    let mut xc = x.chunks_exact(LANE);
    for (oq, xq) in (&mut oc).zip(&mut xc) {
        for (o, &xv) in oq.iter_mut().zip(xq) {
            *o = alpha.mul_add(xv, *o);
        }
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
/// in stored order, [`Lanes::tree_sum`] merge, sequential remainder — the
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
    let mut s = acc.tree_sum();
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
    fn axpy_wide_matches_elementwise_fma_bits() {
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
        // Calls the oracle branch directly: mode() is process-global.
        let x = seq(13, 1.7);
        let mut got = seq(13, -0.4);
        axpy_scalar(&mut got, 0.25, &x);
        let mut want = seq(13, -0.4);
        for (o, &xv) in want.iter_mut().zip(x.iter()) {
            *o += 0.25 * xv;
        }
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
        // (1 + ε)(1 − ε) = 1 − ε² rounds to 1 as a separate product, so
        // the oracle's −1 + a·x is 0; inside the fma it is exact, so the
        // wide kernel yields −ε² — a distinct rounding sequence.
        let (alpha, x) = (1.0 + f64::EPSILON, [1.0 - f64::EPSILON]);
        let mut scalar_out = [-1.0];
        let mut wide_out = [-1.0];
        axpy_scalar(&mut scalar_out, alpha, &x);
        axpy_wide(&mut wide_out, alpha, &x);
        assert_eq!(scalar_out[0], 0.0);
        assert_eq!(wide_out[0], -f64::EPSILON * f64::EPSILON);
        assert_ne!(scalar_out[0].to_bits(), wide_out[0].to_bits());
    }
}
