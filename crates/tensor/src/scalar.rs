//! The [`Scalar`] abstraction over floating-point element types.
//!
//! The paper runs all experiments in `float32` but the backward-pass
//! derivations are verified here with central finite differences, which need
//! `float64` headroom. All kernels in the workspace are generic over this
//! trait so both precisions share one implementation.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A floating-point element type usable in every kernel of the workspace.
///
/// The trait is deliberately small: the handful of transcendental functions
/// the GNN formulations need (`exp` for softmax, `sqrt` for norms and Glorot
/// initialization) plus ordering helpers for the tropical semirings.
pub trait Scalar:
    Copy
    + Default
    + Debug
    + Display
    + PartialOrd
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + 'static
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Positive infinity (identity of the min-plus tropical semiring).
    fn infinity() -> Self;
    /// Negative infinity (identity of the max-plus tropical semiring).
    fn neg_infinity() -> Self;
    /// Lossy conversion from `f64`, used for constants and initializers.
    fn from_f64(v: f64) -> Self;
    /// Lossy conversion to `f64`, used for reporting and gradient checks.
    fn to_f64(self) -> f64;
    /// `e^self`.
    fn exp(self) -> Self;
    /// `e^self` via a branch-free polynomial the autovectorizer can lift
    /// to vector code, for the wide softmax path ([`crate::micro`]).
    ///
    /// For `f64` this is exactly [`Scalar::exp`] (gradient checks need the
    /// full 53-bit accuracy); for `f32` it is [`exp_poly_f32`], accurate to
    /// a few ulp — well inside the documented `1e-6` relative tolerance of
    /// the re-associated (wide) kernel family.
    fn exp_fast(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// `self^p`.
    fn powi(self, p: i32) -> Self;
    /// Hyperbolic tangent.
    fn tanh(self) -> Self;
    /// Fused multiply-add `self · a + b` with a single rounding.
    ///
    /// The wide microkernels ([`crate::micro`]) build on this;
    /// the workspace is compiled with `target-cpu=native` (see
    /// `.cargo/config.toml`) so it lowers to a hardware FMA instruction
    /// rather than a libm call.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// IEEE maximum of two values.
    fn max(self, other: Self) -> Self;
    /// IEEE minimum of two values.
    fn min(self, other: Self) -> Self;
    /// Whether the value is finite (not NaN or ±∞).
    fn is_finite(self) -> bool;
    /// Number of bytes one element occupies on the (simulated) wire.
    const BYTES: usize;
    /// The [`crate::micro::LANE`]-wide accumulator vector the wide dot
    /// kernels run on: the explicit AVX2 body for `f32` where the build
    /// targets it, the generic `[Self; LANE]` body otherwise. Every choice
    /// is bit-identical ([`crate::micro::Lanes`]).
    type Lanes: crate::micro::Lanes<Self>;
}

/// Branch-free `expf`: range reduction `x = n·ln2 + r` with a split-constant
/// `ln2` followed by a degree-6 Taylor kernel in Horner/`mul_add` form and an
/// exact `2^n` scale built from the exponent bits. Maximum relative error is
/// a few ulp (≈3e-7) over the finite range; inputs are clamped so the scale
/// never leaves the normal exponent range. Unlike libm's `expf` this has no
/// table lookups or branches, so LLVM vectorizes it across softmax rows.
#[inline(always)]
#[allow(clippy::excessive_precision)] // LN2_HI spells out the exact decimal
pub fn exp_poly_f32(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const LN2_HI: f32 = 0.693_359_375; // high bits of ln 2 (exact in f32)
    const LN2_LO: f32 = -2.121_944_4e-4; // ln 2 − LN2_HI
    let x = x.clamp(-87.336_55, 88.722_83);
    let n = (x * LOG2E).round();
    let r = (-n).mul_add(LN2_HI, x);
    let r = (-n).mul_add(LN2_LO, r);
    // exp(r) ≈ Σ_{k≤6} r^k / k! on r ∈ [−ln2/2, ln2/2].
    let p = r.mul_add(1.0 / 720.0, 1.0 / 120.0);
    let p = r.mul_add(p, 1.0 / 24.0);
    let p = r.mul_add(p, 1.0 / 6.0);
    let p = r.mul_add(p, 0.5);
    let p = r.mul_add(p, 1.0);
    let p = r.mul_add(p, 1.0);
    p * f32::from_bits((((n as i32) + 127) as u32) << 23)
}

macro_rules! impl_scalar {
    ($t:ty, $exp_fast:path, $lanes:ty) => {
        impl Scalar for $t {
            #[inline(always)]
            fn zero() -> Self {
                0.0
            }
            #[inline(always)]
            fn one() -> Self {
                1.0
            }
            #[inline(always)]
            fn infinity() -> Self {
                <$t>::INFINITY
            }
            #[inline(always)]
            fn neg_infinity() -> Self {
                <$t>::NEG_INFINITY
            }
            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn exp(self) -> Self {
                <$t>::exp(self)
            }
            #[inline(always)]
            fn exp_fast(self) -> Self {
                $exp_fast(self)
            }
            #[inline(always)]
            fn ln(self) -> Self {
                <$t>::ln(self)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn powi(self, p: i32) -> Self {
                <$t>::powi(self, p)
            }
            #[inline(always)]
            fn tanh(self) -> Self {
                <$t>::tanh(self)
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            const BYTES: usize = std::mem::size_of::<$t>();
            type Lanes = $lanes;
        }
    };
}

impl_scalar!(f32, crate::scalar::exp_poly_f32, crate::micro::F32Lanes);
impl_scalar!(f64, f64::exp, [f64; crate::micro::LANE]);

#[cfg(test)]
mod tests {
    use super::*;

    fn identities<T: Scalar>() {
        assert_eq!(T::zero() + T::one(), T::one());
        assert_eq!(T::one() * T::one(), T::one());
        assert!(T::infinity() > T::from_f64(1e300_f64.min(1e30)));
        assert!(T::neg_infinity() < T::from_f64(-1e30));
        assert!(!T::infinity().is_finite());
        assert!(T::one().is_finite());
    }

    #[test]
    fn f32_identities() {
        identities::<f32>();
        assert_eq!(<f32 as Scalar>::BYTES, 4);
    }

    #[test]
    fn f64_identities() {
        identities::<f64>();
        assert_eq!(<f64 as Scalar>::BYTES, 8);
    }

    #[test]
    fn transcendentals_match_std() {
        let x = 0.37_f64;
        assert_eq!(Scalar::exp(x), x.exp());
        assert_eq!(Scalar::sqrt(x), x.sqrt());
        assert_eq!(Scalar::tanh(x), x.tanh());
        assert_eq!(Scalar::ln(x), x.ln());
    }

    #[test]
    fn exp_fast_is_exact_for_f64() {
        for x in [-3.7_f64, -0.2, 0.0, 0.9, 12.25] {
            assert_eq!(Scalar::exp_fast(x).to_bits(), f64::exp(x).to_bits());
        }
    }

    #[test]
    fn exp_poly_f32_stays_within_wide_tolerance() {
        let mut worst = 0.0_f64;
        for i in -2000..=2000 {
            let x = i as f32 * 0.04; // covers [-80, 80]
            let got = exp_poly_f32(x) as f64;
            let want = (x as f64).exp();
            worst = worst.max(((got - want) / want).abs());
        }
        assert!(worst < 1e-6, "worst relative error {worst}");
        // Deep underflow must stay tiny and non-negative, not blow up.
        assert!(exp_poly_f32(-1.0e4) >= 0.0);
        assert!((exp_poly_f32(-1.0e4) as f64) < 1e-37);
    }

    #[test]
    fn min_max_ordering() {
        assert_eq!(Scalar::max(1.0_f32, 2.0), 2.0);
        assert_eq!(Scalar::min(1.0_f32, 2.0), 1.0);
    }
}
