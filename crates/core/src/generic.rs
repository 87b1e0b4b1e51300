//! The programmable generic formulation (paper Eq. 1):
//! `H^{l+1} = σ(Z)`, `Z = (Φ ∘ ⊕)(Ψ(A, H), H)`.
//!
//! "One can easily design an arbitrary A-GNN model by appropriately
//! specifying Ψ, ⊕, and Φ" — [`GenericLayer`] is that statement as an
//! API: plug in an edge-score function `Ψ`, any semiring aggregation `⊕`
//! (Section 4.3), and an update `Φ` (linear projection or MLP), plus the
//! `Φ ∘ ⊕` composition order ("the user may want to apply ⊕ and Φ in a
//! different order"; they do not necessarily commute, so "the model
//! designer is responsible for using the correct order").
//!
//! Custom `Ψ` functions support inference; training is provided by the
//! model zoo in [`crate::layers`], whose backward passes are derived
//! analytically.

use atgnn_sparse::{fused, masked, spmm, Csr, Semiring};
use atgnn_tensor::{gemm, Activation, Dense, Scalar};

/// A user-supplied score closure: `(A, H) ↦` values on `A`'s pattern.
pub type ScoreFn<T> = Box<dyn Fn(&Csr<T>, &Dense<T>) -> Csr<T> + Send + Sync>;

/// The edge-score function `Ψ(A, H)`.
pub enum Psi<T> {
    /// `Ψ = A` — degenerates to a C-GNN (paper Section 4.4: "instead of
    /// Ψ, one directly uses the adjacency matrix").
    Adjacency,
    /// Vanilla attention: `Ψ = A ⊙ (H Hᵀ)`.
    DotProduct,
    /// AGNN-style: `Ψ = sm(A ⊙ (β · H Hᵀ ⊘ n nᵀ))`.
    Cosine {
        /// Temperature `β`.
        beta: T,
    },
    /// Any user-defined score function producing values on `A`'s pattern.
    Custom(ScoreFn<T>),
}

impl<T: Scalar> Psi<T> {
    /// Evaluates the score function.
    pub fn eval(&self, a: &Csr<T>, h: &Dense<T>) -> Csr<T> {
        match self {
            Psi::Adjacency => a.clone(),
            Psi::DotProduct => fused::va_scores(a, h),
            Psi::Cosine { beta } => {
                let (s, _) = fused::agnn_scores(a, h, *beta);
                masked::row_softmax(&s)
            }
            Psi::Custom(f) => f(a, h),
        }
    }
}

/// The update function `Φ`.
pub enum Phi<T> {
    /// No projection.
    Identity,
    /// `Φ(X) = X W` — the common linear projection.
    Linear(Dense<T>),
    /// An MLP: "a series of multiplications with different parameter
    /// matrices, interleaved with non-linearities" (Section 4.4, the GIN
    /// case).
    Mlp(Vec<(Dense<T>, Activation)>),
}

impl<T: Scalar> Phi<T> {
    /// Applies the update to a feature matrix.
    pub fn apply(&self, x: &Dense<T>) -> Dense<T> {
        match self {
            Phi::Identity => x.clone(),
            Phi::Linear(w) => gemm::matmul(x, w),
            Phi::Mlp(stages) => {
                let mut h = x.clone();
                for (w, act) in stages {
                    h = act.apply(&gemm::matmul(&h, w));
                }
                h
            }
        }
    }

    /// Output dimensionality given an input dimensionality.
    pub fn out_dim(&self, in_dim: usize) -> usize {
        match self {
            Phi::Identity => in_dim,
            Phi::Linear(w) => w.cols(),
            Phi::Mlp(stages) => stages.last().map(|(w, _)| w.cols()).unwrap_or(in_dim),
        }
    }
}

/// The `Φ ∘ ⊕` composition order (paper Section 4 and 4.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ComposeOrder {
    /// `Φ(⊕(Ψ, H))` — aggregate, then update.
    AggregateThenUpdate,
    /// `⊕(Ψ, Φ(H))` — update, then aggregate ("Φ may be applied first,
    /// before ⊕, to achieve higher performance").
    UpdateThenAggregate,
}

/// A fully programmable GNN layer: `H⁺ = σ((Φ ∘ ⊕)(Ψ(A, H), H))`.
pub struct GenericLayer<T, S> {
    /// The edge-score function.
    pub psi: Psi<T>,
    /// The aggregation semiring `⊕`.
    pub aggregate: S,
    /// The update function `Φ`.
    pub phi: Phi<T>,
    /// The composition order of `Φ` and `⊕`.
    pub order: ComposeOrder,
    /// The decoupled non-linearity `σ`.
    pub activation: Activation,
}

impl<T: Scalar, S: Semiring<T>> GenericLayer<T, S> {
    /// One inference layer: evaluates `Ψ`, composes `Φ` and `⊕` in the
    /// configured order, applies `σ`.
    ///
    /// # Panics
    /// Panics unless `a` is `n × n` for `n = h.rows()`: a custom `Ψ` sees
    /// `(A, H)` whole, so the row-prefix blocks of
    /// [`crate::AGnnLayer::forward`] are not defined here.
    pub fn forward(&self, a: &Csr<T>, h: &Dense<T>) -> Dense<T> {
        assert_eq!(
            (a.rows(), a.cols()),
            (h.rows(), h.rows()),
            "GenericLayer::forward takes a square adjacency over H's rows"
        );
        let psi = self.psi.eval(a, h);
        let z = match self.order {
            ComposeOrder::AggregateThenUpdate => {
                self.phi
                    .apply(&spmm::spmm_semiring(&self.aggregate, &psi, h))
            }
            ComposeOrder::UpdateThenAggregate => {
                spmm::spmm_semiring(&self.aggregate, &psi, &self.phi.apply(h))
            }
        };
        self.activation.apply(&z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgnn_sparse::{norm, Average, Coo, MaxPlus, Real};
    use atgnn_tensor::init;

    fn graph() -> Csr<f64> {
        let mut coo = Coo::from_edges(5, 5, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        coo.symmetrize_binary();
        Csr::from_coo(&coo)
    }

    #[test]
    fn adjacency_psi_with_linear_phi_is_a_gcn() {
        let a = norm::sym_normalize(&graph());
        let h = init::features(5, 3, 1);
        let w = init::glorot(3, 2, 2);
        let layer = GenericLayer {
            psi: Psi::Adjacency,
            aggregate: Real,
            phi: Phi::Linear(w.clone()),
            order: ComposeOrder::UpdateThenAggregate,
            activation: Activation::Relu,
        };
        let want = Activation::Relu.apply(&spmm::spmm(&a, &gemm::matmul(&h, &w)));
        assert!(layer.forward(&a, &h).max_abs_diff(&want) < 1e-13);
    }

    #[test]
    fn compose_orders_agree_for_linear_phi_real_semiring() {
        // Over the real semiring a linear Φ commutes with ⊕.
        let a = graph();
        let h = init::features(5, 3, 3);
        let w = init::glorot(3, 3, 4);
        let mk = |order| GenericLayer {
            psi: Psi::DotProduct,
            aggregate: Real,
            phi: Phi::Linear(w.clone()),
            order,
            activation: Activation::Identity,
        };
        let x = mk(ComposeOrder::AggregateThenUpdate).forward(&a, &h);
        let y = mk(ComposeOrder::UpdateThenAggregate).forward(&a, &h);
        assert!(x.max_abs_diff(&y) < 1e-12);
    }

    #[test]
    fn compose_orders_differ_for_tropical_semiring() {
        // Max aggregation does NOT commute with a linear projection —
        // exactly why the paper exposes the order to the model designer.
        let a = norm::to_aggregation_weights(&graph(), 0.0);
        let h = init::features(5, 3, 5);
        let w = init::glorot(3, 3, 6);
        let mk = |order| GenericLayer {
            psi: Psi::Adjacency,
            aggregate: MaxPlus,
            phi: Phi::Linear(w.clone()),
            order,
            activation: Activation::Identity,
        };
        let x = mk(ComposeOrder::AggregateThenUpdate).forward(&a, &h);
        let y = mk(ComposeOrder::UpdateThenAggregate).forward(&a, &h);
        assert!(x.max_abs_diff(&y) > 1e-6);
    }

    #[test]
    fn average_aggregation_layer() {
        let a = graph();
        let h = Dense::from_fn(5, 1, |i, _| i as f64);
        let layer = GenericLayer {
            psi: Psi::Adjacency,
            aggregate: Average,
            phi: Phi::Identity,
            order: ComposeOrder::AggregateThenUpdate,
            activation: Activation::Identity,
        };
        let out = layer.forward(&a, &h);
        // Vertex 0's neighbors in the symmetrized ring are 1 and 4.
        assert!((out[(0, 0)] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn custom_psi_closure() {
        // A custom Ψ: uniform attention (row-normalized adjacency).
        let a = graph();
        let h = init::features(5, 2, 7);
        let layer = GenericLayer {
            psi: Psi::Custom(Box::new(|a: &Csr<f64>, _h: &Dense<f64>| {
                norm::row_normalize(a)
            })),
            aggregate: Real,
            phi: Phi::Identity,
            order: ComposeOrder::AggregateThenUpdate,
            activation: Activation::Identity,
        };
        let want = spmm::spmm(&norm::row_normalize(&a), &h);
        assert!(layer.forward(&a, &h).max_abs_diff(&want) < 1e-13);
    }

    #[test]
    fn mlp_phi_composes_stages() {
        let a = Csr::<f64>::identity(3);
        let h = init::features(3, 2, 8);
        let w1 = init::glorot(2, 4, 9);
        let w2 = init::glorot(4, 2, 10);
        let layer = GenericLayer {
            psi: Psi::Adjacency,
            aggregate: Real,
            phi: Phi::Mlp(vec![
                (w1.clone(), Activation::Relu),
                (w2.clone(), Activation::Identity),
            ]),
            order: ComposeOrder::AggregateThenUpdate,
            activation: Activation::Identity,
        };
        let want = gemm::matmul(&Activation::Relu.apply(&gemm::matmul(&h, &w1)), &w2);
        assert!(layer.forward(&a, &h).max_abs_diff(&want) < 1e-13);
        assert_eq!(layer.phi.out_dim(2), 2);
    }
}
