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

/// Runs `$body` with `$f` bound to the per-element `$method` (`eval` or
/// `grad`) of `$act`'s variant, matched once: each arm's `$f` is a closure
/// over a constant variant, so the loop inside `$body` is monomorphic
/// instead of re-dispatching on every element. Every element is still
/// the same expression, so the bits are [`Activation::eval`]'s /
/// [`Activation::grad`]'s.
macro_rules! per_variant {
    ($act:expr, $method:ident, |$f:ident| $body:expr) => {
        match $act {
            Activation::Identity => {
                let $f = |x| Activation::Identity.$method(x);
                $body
            }
            Activation::Relu => {
                let $f = |x| Activation::Relu.$method(x);
                $body
            }
            Activation::LeakyRelu(slope) => {
                let $f = move |x| Activation::LeakyRelu(slope).$method(x);
                $body
            }
            Activation::Elu => {
                let $f = |x| Activation::Elu.$method(x);
                $body
            }
            Activation::Tanh => {
                let $f = |x| Activation::Tanh.$method(x);
                $body
            }
            Activation::Sigmoid => {
                let $f = |x| Activation::Sigmoid.$method(x);
                $body
            }
        }
    };
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
        per_variant!(self, eval, |f| ops::map_into(out, z, f));
    }

    /// `Z = σ(Z)` in place over the logical elements (padding tails are
    /// left as they are) — [`Activation::apply`] without a second matrix.
    /// [`Activation::Identity`] returns without touching memory.
    pub fn apply_assign<T: Scalar>(self, z: &mut Dense<T>) {
        if self != Activation::Identity {
            per_variant!(self, eval, |f| ops::map_assign(z, f));
        }
    }

    /// `σ'(Z)` applied to a whole matrix.
    pub fn derivative<T: Scalar>(self, z: &Dense<T>) -> Dense<T> {
        per_variant!(self, grad, |f| ops::map(z, f))
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
            per_variant!(self, grad, |f| {
                ops::zip_assign(g, z, move |x, zv| x * f(zv))
            });
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

    const SPECIALS: [f32; 7] = [
        0.0,
        -0.0,
        1.5,
        -2.5,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];

    /// A matrix past `ops`'s parallel threshold (64 Ki elements), so the
    /// whole-matrix forms run their parallel chunks: every fourth element
    /// is one of `SPECIALS`, the rest ordinary values of both signs. The
    /// `s`-th special slot holds `SPECIALS[(s / stride) % 7]`, so strides
    /// 1 and 7 put every pair of specials at a shared position.
    fn hostile(stride: usize) -> Dense<f32> {
        let (rows, cols) = (300, 230);
        Dense::from_fn(rows, cols, |r, c| {
            let i = r * cols + c;
            if i.is_multiple_of(4) {
                SPECIALS[(i / 4 / stride) % SPECIALS.len()]
            } else {
                ((i * 37) % 401) as f32 / 20.0 - 10.0
            }
        })
    }

    /// Bit equality, any NaN standing for any NaN (which NaN is the
    /// hardware's choice).
    fn same(x: f32, y: f32) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    /// Every logical element of `got` is `f` of the same element of `z`.
    fn is_elementwise(got: &Dense<f32>, z: &Dense<f32>, f: impl Fn(f32) -> f32) -> bool {
        got.shape() == z.shape()
            && (0..z.rows()).all(|r| {
                got.row(r)
                    .iter()
                    .zip(z.row(r))
                    .all(|(&x, &v)| same(x, f(v)))
            })
    }

    #[test]
    fn whole_matrix_forms_are_the_per_element_functions() {
        for act in ACTS {
            for z in [hostile(1), hostile(1).padded()] {
                let tag = format!("{act:?} padded={}", z.is_padded());
                let applied = act.apply(&z);
                assert!(
                    is_elementwise(&applied, &z, |v| act.eval(v)),
                    "{tag}: apply"
                );
                assert!(applied.padding_is_zero(), "{tag}: apply tails");
                let mut into = Dense::filled(z.rows(), z.cols(), 7.0);
                act.apply_into(&z, &mut into);
                assert!(
                    is_elementwise(&into, &z, |v| act.eval(v)),
                    "{tag}: apply_into"
                );
                let mut assigned = z.clone();
                act.apply_assign(&mut assigned);
                assert!(
                    is_elementwise(&assigned, &z, |v| act.eval(v)),
                    "{tag}: apply_assign"
                );
                assert!(assigned.padding_is_zero(), "{tag}: apply_assign tails");
                let derived = act.derivative(&z);
                assert!(
                    is_elementwise(&derived, &z, |v| act.grad(v)),
                    "{tag}: derivative"
                );
                assert!(derived.padding_is_zero(), "{tag}: derivative tails");
            }
        }
    }

    #[test]
    fn chain_assign_is_the_allocating_pair_bit_for_bit() {
        // ±0, negatives, ∞ and NaN on both sides, every special of `g`
        // against every special of `z`: the product must carry the same
        // sign of zero as the two-pass form and be NaN exactly where it is.
        let (g, z) = (hostile(1), hostile(SPECIALS.len()));
        let pairs: std::collections::HashSet<(u32, u32)> = g
            .as_slice()
            .iter()
            .zip(z.as_slice())
            .step_by(4)
            .map(|(x, y)| (x.to_bits(), y.to_bits()))
            .collect();
        assert_eq!(pairs.len(), SPECIALS.len() * SPECIALS.len());
        for act in ACTS {
            for (g, z) in [(g.clone(), z.clone()), (g.padded(), z.padded())] {
                let want = ops::hadamard(&g, &act.derivative(&z));
                let mut got = g.clone();
                act.chain_assign(&mut got, &z);
                assert!(got.padding_is_zero(), "{act:?}");
                for r in 0..z.rows() {
                    for (&x, &y) in got.row(r).iter().zip(want.row(r)) {
                        assert!(same(x, y), "{act:?} row {r}: {x} vs {y}");
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
