//! Element-wise non-linearities `σ` and their derivatives `σ'`.
//!
//! The paper decouples `σ` from the update function `Φ` (Section 4) so that
//! `Φ` can be applied before the aggregation `⊕`; this module provides the
//! decoupled `σ` as a small enum that every layer stores. The backward
//! recursion `G^{l-1} = σ'(Z^{l-1}) ⊙ Γ^l` (Eq. 6) needs the derivative
//! evaluated at the *pre-activation* `Z`, which [`Activation::derivative`]
//! computes.

use crate::dense::Dense;
use crate::ops;
use crate::scalar::Scalar;

/// An element-wise non-linearity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Activation {
    /// `σ(x) = x` — used for the last layer before a loss with built-in
    /// non-linearity (e.g. softmax cross-entropy).
    Identity,
    /// Rectified linear unit, the paper's default for C-GNN examples.
    Relu,
    /// Leaky ReLU with the given negative slope; GAT scores use slope 0.2.
    LeakyRelu(f64),
    /// Exponential linear unit, GAT's feature non-linearity.
    Elu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Evaluates `σ(x)` for a single element.
    #[inline]
    pub fn eval<T: Scalar>(self, x: T) -> T {
        match self {
            Activation::Identity => x,
            Activation::Relu => Scalar::max(x, T::zero()),
            Activation::LeakyRelu(slope) => {
                // Branch-free select: the attention score loops feed this
                // with effectively random signs, and the data-dependent
                // branch mispredicts ~50% of the time (measured ~4x
                // slower than this form on the fused GAT sweep). For
                // finite x the rounding is identical to the branch —
                // positive x passes through exactly (`fma(s, +0, x)`),
                // negative x rounds `slope·x` once (`fma(s, x, +0)`).
                // Only `x = -0` can differ (the sign of zero is not
                // pinned), which the max-shifted softmax downstream
                // erases: `±0 − m` is the same value.
                T::from_f64(slope).mul_add(Scalar::min(x, T::zero()), Scalar::max(x, T::zero()))
            }
            Activation::Elu => {
                if x >= T::zero() {
                    x
                } else {
                    x.exp() - T::one()
                }
            }
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => T::one() / (T::one() + (-x).exp()),
        }
    }

    /// Evaluates `σ'(x)` for a single element (derivative at the
    /// pre-activation value).
    #[inline]
    pub fn grad<T: Scalar>(self, x: T) -> T {
        match self {
            Activation::Identity => T::one(),
            Activation::Relu => {
                if x > T::zero() {
                    T::one()
                } else {
                    T::zero()
                }
            }
            Activation::LeakyRelu(slope) => {
                if x >= T::zero() {
                    T::one()
                } else {
                    T::from_f64(slope)
                }
            }
            Activation::Elu => {
                if x >= T::zero() {
                    T::one()
                } else {
                    x.exp()
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                T::one() - t * t
            }
            Activation::Sigmoid => {
                let s = T::one() / (T::one() + (-x).exp());
                s * (T::one() - s)
            }
        }
    }

    /// `σ(Z)` applied to a whole matrix, in `z`'s layout.
    pub fn apply<T: Scalar>(self, z: &Dense<T>) -> Dense<T> {
        let mut out = z.zeros_matching(z.rows(), z.cols());
        self.apply_into(z, &mut out);
        out
    }

    /// `out = σ(Z)` over the logical elements, into a same-shape matrix of
    /// any layout (its padding tails are left as they are) — the writing
    /// form of [`Activation::apply`].
    pub fn apply_into<T: Scalar>(self, z: &Dense<T>, out: &mut Dense<T>) {
        ops::map_into(out, z, |v| self.eval(v));
    }

    /// `σ'(Z)` applied to a whole matrix.
    pub fn derivative<T: Scalar>(self, z: &Dense<T>) -> Dense<T> {
        ops::map(z, |v| self.grad(v))
    }

    /// `g ⊙= σ'(Z)` — the chain step of the backward recursion (Eq. 4 and
    /// Eq. 6) in one pass over a buffer the caller owns. Bit-identical to
    /// `ops::hadamard(g, &self.derivative(z))`: it multiplies, never
    /// selects, so `−x · 0 = −0` and NaN propagate the same way.
    /// [`Activation::Identity`] returns without touching memory, since
    /// `x · 1 = x` bit for bit. Panics if the shapes differ.
    pub fn chain_assign<T: Scalar>(self, g: &mut Dense<T>, z: &Dense<T>) {
        assert_eq!(g.shape(), z.shape(), "element-wise op: shape mismatch");
        if self != Activation::Identity {
            ops::zip_assign(g, z, |x, zv| x * self.grad(zv));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACTS: [Activation; 6] = [
        Activation::Identity,
        Activation::Relu,
        Activation::LeakyRelu(0.2),
        Activation::Elu,
        Activation::Tanh,
        Activation::Sigmoid,
    ];

    #[test]
    fn values_at_zero_and_one() {
        assert_eq!(Activation::Relu.eval(-2.0f64), 0.0);
        assert_eq!(Activation::Relu.eval(3.0f64), 3.0);
        assert!((Activation::LeakyRelu(0.2).eval(-1.0f64) + 0.2).abs() < 1e-15);
        assert!((Activation::Sigmoid.eval(0.0f64) - 0.5).abs() < 1e-15);
        assert!((Activation::Elu.eval(-1.0f64) - ((-1.0f64).exp() - 1.0)).abs() < 1e-15);
        assert_eq!(Activation::Identity.eval(7.5f64), 7.5);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let eps = 1e-6;
        // Avoid the ReLU kink at 0.
        for &x in &[-1.3f64, -0.4, 0.7, 2.1] {
            for act in ACTS {
                let fd = (act.eval(x + eps) - act.eval(x - eps)) / (2.0 * eps);
                let an = act.grad(x);
                assert!(
                    (fd - an).abs() < 1e-6,
                    "{act:?} at {x}: fd={fd} analytic={an}"
                );
            }
        }
    }

    #[test]
    fn matrix_apply_is_elementwise() {
        let z = Dense::from_vec(1, 3, vec![-1.0f64, 0.0, 2.0]);
        let out = Activation::Relu.apply(&z);
        assert_eq!(out.as_slice(), &[0.0, 0.0, 2.0]);
        let d = Activation::Relu.derivative(&z);
        assert_eq!(d.as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn chain_assign_is_the_allocating_pair_bit_for_bit() {
        // ±0, negatives, ∞ and NaN on both sides: the product must carry
        // the same sign of zero as the two-pass form and be NaN exactly
        // where it is (which NaN is the hardware's choice).
        let specials = [
            0.0f32,
            -0.0,
            1.5,
            -2.5,
            f32::INFINITY,
            -f32::INFINITY,
            f32::NAN,
        ];
        let (rows, cols) = (specials.len(), 2 * specials.len() + 1);
        let g = Dense::from_fn(rows, cols, |r, c| specials[(r + c) % specials.len()]);
        let z = Dense::from_fn(rows, cols, |r, c| {
            specials[(3 * r + 2 * c) % specials.len()]
        });
        for act in ACTS {
            for (g, z) in [(g.clone(), z.clone()), (g.padded(), z.padded())] {
                let want = ops::hadamard(&g, &act.derivative(&z));
                let mut got = g.clone();
                act.chain_assign(&mut got, &z);
                assert!(got.padding_is_zero(), "{act:?}");
                for r in 0..rows {
                    for (x, y) in got.row(r).iter().zip(want.row(r)) {
                        let same = x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
                        assert!(same, "{act:?} row {r}: {x} vs {y}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn chain_assign_rejects_mismatched_shapes_even_for_identity() {
        let mut g = Dense::<f32>::zeros(2, 3);
        Activation::Identity.chain_assign(&mut g, &Dense::zeros(3, 2));
    }

    #[test]
    fn all_activations_finite_on_range() {
        for act in ACTS {
            for i in -50..=50 {
                let x = i as f64 / 5.0;
                assert!(act.eval(x).is_finite());
                assert!(act.grad(x).is_finite());
            }
        }
    }
}
