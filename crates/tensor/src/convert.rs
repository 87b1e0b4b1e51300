//! The one place f32 ↔ bf16 / f16 rounding is defined.
//!
//! The plan's precision axis (`ExecPlan`'s `precision` field) is an
//! *emulation* axis: `Precision::round_matrix` rounds a layer's feature
//! buffer through a half format with [`round_matrix`] and the matrix stays
//! `T`-typed, so every downstream kernel is the ordinary f32 / `Scalar`
//! kernel — half-precision numerics at full-precision bytes. Nothing in
//! the workspace holds features as 16-bit elements (the storage kernels
//! that did were deleted uncalled; DESIGN.md "Mixed-precision storage"
//! keeps the record). Three invariants anchor what is left:
//!
//! * **Widening is exact.** Every bf16/f16 value is exactly
//!   representable in f32, so `narrow(x).widen()` ([`Store::round`]) is
//!   the *only* lossy step of the axis.
//! * **Rounding lives here.** All narrowing is round-to-nearest-even,
//!   implemented once per format in this module; an `atgnn-lint` rule
//!   (`raw-half-bits`) forbids half-precision bit twiddling anywhere
//!   else in the kernel crates.
//! * **Padded tails stay zero.** `narrow(+0.0)` is the all-zero bit
//!   pattern in every format, so rounding a padded [`Dense`] keeps the
//!   lane-tail invariant the wide kernels rely on
//!   (`fma(a, 0.0, +0.0) = +0.0`).

use crate::dense::Dense;
use crate::scalar::Scalar;

/// A storage format: something a feature value can be rounded through,
/// always widened back to f32 before arithmetic. `f32` itself implements
/// the trait as the identity.
pub trait Store: Copy + Default + Send + Sync + 'static {
    /// Kebab-case format name (`"f32"`, `"bf16"`, `"f16"`).
    const NAME: &'static str;
    /// Bytes per element of the format.
    const BYTES: usize;
    /// Round-to-nearest-even narrowing from f32.
    fn narrow(x: f32) -> Self;
    /// Exact widening back to f32.
    fn widen(self) -> f32;
    /// The storage rounding this format applies: `widen(narrow(x))`.
    #[inline(always)]
    fn round(x: f32) -> f32 {
        Self::narrow(x).widen()
    }
}

impl Store for f32 {
    const NAME: &'static str = "f32";
    const BYTES: usize = 4;
    #[inline(always)]
    fn narrow(x: f32) -> Self {
        x
    }
    #[inline(always)]
    fn widen(self) -> f32 {
        self
    }
}

/// bfloat16: f32's sign and 8-bit exponent with the mantissa truncated
/// to 7 bits — the dynamic range of f32 at a third of the precision.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Bf16(u16);

impl Store for Bf16 {
    const NAME: &'static str = "bf16";
    const BYTES: usize = 2;

    #[inline(always)]
    fn narrow(x: f32) -> Self {
        let bits = x.to_bits();
        if x.is_nan() {
            // Quiet the NaN explicitly: truncation alone could zero a
            // signaling payload and turn NaN into infinity.
            return Bf16(((bits >> 16) as u16) | 0x0040);
        }
        // Round-to-nearest-even in one add: 0x7fff + the current LSB of
        // the surviving mantissa breaks ties toward even. Overflow
        // carries into the exponent and saturates to infinity exactly as
        // RNE requires.
        let round = 0x7fff + ((bits >> 16) & 1);
        Bf16(((bits + round) >> 16) as u16)
    }

    #[inline(always)]
    fn widen(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }
}

/// IEEE binary16: 5-bit exponent, 10-bit mantissa. More mantissa than
/// bf16 but a [2⁻²⁴, 65504] range — the stability analyzer's loss-scale
/// rule exists because of this format.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct F16(u16);

impl Store for F16 {
    const NAME: &'static str = "f16";
    const BYTES: usize = 2;

    fn narrow(x: f32) -> Self {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xff) as i32;
        let man = bits & 0x007f_ffff;
        if exp == 0xff {
            // Infinity keeps its class; NaN maps to a quiet NaN.
            return F16(if man == 0 {
                sign | 0x7c00
            } else {
                sign | 0x7e00
            });
        }
        let unbiased = exp - 127;
        if unbiased >= 16 {
            // Above the largest finite f16 (65504): RNE overflows to ∞.
            return F16(sign | 0x7c00);
        }
        if unbiased >= -14 {
            // Normal range: drop 13 mantissa bits with RNE; a carry out
            // of the mantissa bumps the exponent (and can round the top
            // normal up to ∞), which the plain add handles.
            let half_exp = ((unbiased + 15) as u16) << 10;
            let half_man = (man >> 13) as u16;
            let rem = man & 0x1fff;
            let mut h = sign | half_exp | half_man;
            if rem > 0x1000 || (rem == 0x1000 && (half_man & 1) == 1) {
                h += 1;
            }
            return F16(h);
        }
        if exp == 0 || unbiased < -25 {
            // f32 subnormals (< 2⁻¹²⁶) and anything below half the
            // smallest f16 subnormal round to (signed) zero.
            return F16(sign);
        }
        // Subnormal f16: the value is m24 · 2^(unbiased−23) with the
        // implicit bit restored; the subnormal unit is 2⁻²⁴, so shift
        // m24 down by −(unbiased+1) extra bits with the same RNE rule.
        let m24 = man | 0x0080_0000;
        let shift = (-(unbiased + 1)) as u32;
        let half_man = (m24 >> shift) as u16;
        let rem = m24 & ((1u32 << shift) - 1);
        let tie = 1u32 << (shift - 1);
        let mut h = sign | half_man;
        if rem > tie || (rem == tie && (half_man & 1) == 1) {
            // A carry out of the subnormal mantissa lands exactly on the
            // smallest normal — the encodings are adjacent.
            h += 1;
        }
        F16(h)
    }

    #[inline(always)]
    fn widen(self) -> f32 {
        let h = self.0 as u32;
        let sign = (h & 0x8000) << 16;
        if h & 0x7c00 == 0x7c00 {
            // Infinity / NaN: rebuild the class with the payload shifted
            // into f32's mantissa.
            return f32::from_bits(sign | 0x7f80_0000 | ((h & 0x03ff) << 13));
        }
        // Magic-multiply widening, exact for normals *and* subnormals:
        // shifting the 15 magnitude bits into f32's field positions
        // yields the right value scaled by 2⁻¹¹²; one exact multiply by
        // 2¹¹² (0x7780_0000) restores it, renormalizing subnormals for
        // free.
        let magnitude = f32::from_bits((h & 0x7fff) << 13) * f32::from_bits(0x7780_0000);
        f32::from_bits(magnitude.to_bits() | sign)
    }
}

/// Applies a storage format's rounding to a matrix in place (padding
/// included — zeros round to zeros). This is how the plan's precision
/// axis narrows a layer's feature buffer: the matrix stays `T`-typed, so
/// every downstream kernel is the ordinary `Scalar` kernel on the rounded
/// values.
pub fn round_matrix<S: Store, T: Scalar>(m: &mut Dense<T>) {
    for v in m.as_mut_slice() {
        *v = T::from_f64(S::round(v.to_f64() as f32) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Reference RNE narrowing via integer-exact arithmetic on the f64
    /// image: round x to the nearest multiple of `ulp`, ties to even.
    fn rne_to_grid(x: f64, ulp: f64) -> f64 {
        let q = x / ulp;
        let floor = q.floor();
        let frac = q - floor;
        let down = floor * ulp;
        let up = (floor + 1.0) * ulp;
        if frac < 0.5 {
            down
        } else if frac > 0.5 {
            up
        } else if (floor as i64) % 2 == 0 {
            down
        } else {
            up
        }
    }

    #[test]
    fn bf16_round_trip_is_exact_on_representable_values() {
        // Every u16 pattern that is a finite bf16 must survive
        // widen→narrow→widen unchanged (exhaustive: 65536 cases).
        for bits in 0..=u16::MAX {
            let x = f32::from_bits((bits as u32) << 16);
            if !x.is_finite() {
                continue;
            }
            let rt = Bf16::round(x);
            assert_eq!(rt.to_bits(), x.to_bits(), "bf16 {bits:#06x}");
        }
    }

    #[test]
    fn f16_round_trip_is_exact_on_representable_values() {
        // Exhaustive over all finite f16 values, subnormals included.
        for bits in 0..=u16::MAX {
            let x = F16(bits).widen();
            if !x.is_finite() {
                continue;
            }
            let rt = F16::round(x);
            assert_eq!(
                rt.to_bits(),
                x.to_bits(),
                "f16 {bits:#06x} widened to {x:e}"
            );
        }
    }

    #[test]
    fn bf16_narrowing_is_round_to_nearest_even() {
        // bf16 keeps 8 significand bits: for x in [1, 2) the grid step
        // is 2⁻⁷. Check RNE against the arithmetic reference on values
        // straddling representable points and exact ties.
        for i in 0..256u32 {
            for off in [0.0f64, 0.2, 0.5, 0.8] {
                let x = 1.0 + (i as f64 + off) / 128.0;
                if x >= 2.0 {
                    continue;
                }
                let want = rne_to_grid(x, 1.0 / 128.0);
                let got = Bf16::round(x as f32) as f64;
                assert_eq!(got, want, "x={x}");
            }
        }
    }

    #[test]
    fn f16_narrowing_is_round_to_nearest_even() {
        // f16 keeps 11 significand bits: grid step 2⁻¹⁰ in [1, 2).
        for i in 0..1024u32 {
            for off in [0.0f64, 0.3, 0.5, 0.7] {
                let x = 1.0 + (i as f64 + off) / 1024.0;
                if x >= 2.0 {
                    continue;
                }
                let want = rne_to_grid(x, 1.0 / 1024.0);
                let got = F16::round(x as f32) as f64;
                assert_eq!(got, want, "x={x}");
            }
        }
    }

    #[test]
    fn random_f32_round_trips_land_on_the_nearest_representable() {
        // Property test: for random finite inputs the round-trip error
        // is at most half an ulp of the destination format.
        let mut rng = Rng::seed_from_u64(0x5eed);
        for _ in 0..20_000 {
            let x = (rng.next_f64() * 2.0 - 1.0) as f32 * 100.0;
            let b = Bf16::round(x);
            assert!(
                (b - x).abs() <= x.abs() / 256.0 + f32::MIN_POSITIVE,
                "bf16 {x}"
            );
            let h = F16::round(x);
            assert!(
                (h - x).abs() <= x.abs() / 2048.0 + f32::MIN_POSITIVE,
                "f16 {x}"
            );
            // Idempotence: rounding a rounded value changes nothing.
            assert_eq!(Bf16::round(b).to_bits(), b.to_bits());
            assert_eq!(F16::round(h).to_bits(), h.to_bits());
        }
    }

    #[test]
    fn specials_survive_narrowing() {
        for (x, _name) in [
            (f32::INFINITY, "inf"),
            (f32::NEG_INFINITY, "-inf"),
            (0.0f32, "zero"),
            (-0.0f32, "-zero"),
        ] {
            assert_eq!(Bf16::round(x).to_bits(), x.to_bits());
            assert_eq!(F16::round(x).to_bits(), x.to_bits());
        }
        assert!(Bf16::round(f32::NAN).is_nan());
        assert!(F16::round(f32::NAN).is_nan());
        // Overflow saturates to infinity (RNE above the top normal).
        assert_eq!(F16::round(1e6), f32::INFINITY);
        assert_eq!(F16::round(-1e6), f32::NEG_INFINITY);
        assert_eq!(Bf16::round(f32::MAX), f32::INFINITY);
        // f16 subnormals: the smallest positive f16 is 2⁻²⁴.
        let tiny = (2.0f32).powi(-24);
        assert_eq!(F16::round(tiny), tiny);
        assert_eq!(F16::round(tiny * 0.49), 0.0);
        // bf16 zero-rounding: narrow(+0.0) must be the all-zero pattern
        // (the padded-tail invariant).
        assert_eq!(Bf16::narrow(0.0).0, 0);
        assert_eq!(F16::narrow(0.0).0, 0);
    }
}
