//! GIN — the Graph Isomorphism Network (Xu et al.), the paper's example
//! of a model where `Φ` is an MLP (Section 4.4).
//!
//! GIN is a C-GNN (`ψ` is the constant 1), but its update
//! `Φ = MLP((1 + ε) h_i + Σ_{j∈N(i)} h_j)` exercises the general `Φ`
//! machinery and the learnable scalar `ε`:
//!
//! ```text
//! S  = (A + (1+ε) I) H = A H + (1+ε) H
//! Z  = ReLU(S W₁) W₂
//! ```
//!
//! Backward, given `G = ∂L/∂Z`:
//!
//! ```text
//! ∂W₂ = Rᵀ G                 (R = ReLU(S W₁))
//! ∂R  = G W₂ᵀ
//! ∂Z₁ = ∂R ⊙ ReLU'(S W₁)
//! ∂W₁ = Sᵀ ∂Z₁
//! ∂S  = ∂Z₁ W₁ᵀ
//! ∂ε  = Σ ∂S ⊙ H
//! ∂H  = Aᵀ ∂S + (1+ε) ∂S
//! ```

use crate::layer::{AGnnLayer, BackwardResult, Gradients, LayerCache};
use atgnn_sparse::{attention, spmm, Csr};
use atgnn_tensor::{gemm, init, ops, Activation, Dense, Scalar};

/// A GIN layer with a two-stage MLP update and learnable `ε`.
#[derive(Clone, Debug)]
pub struct GinLayer<T: Scalar> {
    w1: Dense<T>,
    w2: Dense<T>,
    eps: Vec<T>,
    activation: Activation,
}

impl<T: Scalar> GinLayer<T> {
    /// Creates a layer `k_in → k_hidden → k_out` with `ε = 0`.
    pub fn new(
        k_in: usize,
        k_hidden: usize,
        k_out: usize,
        activation: Activation,
        seed: u64,
    ) -> Self {
        Self {
            w1: init::glorot(k_in, k_hidden, seed),
            w2: init::glorot(k_hidden, k_out, seed ^ 0x61),
            eps: vec![T::zero()],
            activation,
        }
    }

    /// The learnable self-loop weight `ε`.
    pub fn eps(&self) -> T {
        self.eps[0]
    }

    /// The MLP stage matrices `(W₁, W₂)`.
    pub fn weights(&self) -> (&Dense<T>, &Dense<T>) {
        (&self.w1, &self.w2)
    }

    fn aggregate(&self, a: &Csr<T>, h: &Dense<T>) -> Dense<T> {
        let mut s = spmm::spmm(a, h);
        ops::axpy(&mut s, T::one() + self.eps[0], &attention::dst_rows(a, h));
        s
    }
}

impl<T: Scalar> AGnnLayer<T> for GinLayer<T> {
    fn in_dim(&self) -> usize {
        self.w1.rows()
    }

    fn out_dim(&self) -> usize {
        self.w2.cols()
    }

    fn forward(&self, a: &Csr<T>, h: &Dense<T>, cache: Option<&mut LayerCache<T>>) -> Dense<T> {
        let s = self.aggregate(a, h);
        let z1 = gemm::matmul(&s, &self.w1);
        let r = Activation::Relu.apply(&z1);
        let z = gemm::matmul(&r, &self.w2);
        if let Some(c) = cache {
            c.h_agg = Some(s);
            c.h_proj = Some(z1);
        }
        z
    }

    fn backward(
        &self,
        a: &Csr<T>,
        h: &Dense<T>,
        cache: &LayerCache<T>,
        g: &Dense<T>,
    ) -> BackwardResult<T> {
        let s = cache.h_agg.as_ref().expect("GIN backward needs cached S");
        let z1 = cache.h_proj.as_ref().expect("GIN backward needs cached Z1");
        let r = Activation::Relu.apply(z1);
        let dw2 = gemm::matmul_tn(&r, g);
        let mut dz1 = gemm::matmul_nt(g, &self.w2);
        Activation::Relu.chain_assign(&mut dz1, z1);
        let dw1 = gemm::matmul_tn(s, &dz1);
        let ds = gemm::matmul_nt(&dz1, &self.w1);
        let deps = ops::total_sum(&ops::hadamard(&ds, h));
        let mut dh = spmm::spmm_t(a, &ds);
        ops::axpy(&mut dh, T::one() + self.eps[0], &ds);
        BackwardResult {
            dh_in: dh,
            grads: Gradients::from_slots(vec![dw1.into_vec(), dw2.into_vec(), vec![deps]]),
        }
    }

    fn param_slices_mut(&mut self) -> Vec<&mut [T]> {
        vec![
            self.w1.as_mut_slice(),
            self.w2.as_mut_slice(),
            self.eps.as_mut_slice(),
        ]
    }

    fn param_slices(&self) -> Vec<&[T]> {
        vec![self.w1.as_slice(), self.w2.as_slice(), &self.eps]
    }

    fn activation(&self) -> Activation {
        self.activation
    }

    fn name(&self) -> &'static str {
        "GIN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgnn_sparse::Coo;

    fn setup() -> (Csr<f64>, Dense<f64>, GinLayer<f64>) {
        let mut coo = Coo::from_edges(5, 5, vec![(0, 1), (1, 2), (2, 3), (3, 4), (0, 3)]);
        coo.symmetrize_binary();
        let a = Csr::from_coo(&coo);
        let h = init::features(5, 3, 71);
        let mut layer = GinLayer::new(3, 4, 2, Activation::Tanh, 73);
        layer.eps[0] = 0.3;
        (a, h, layer)
    }

    #[test]
    fn forward_matches_manual_composition() {
        let (a, h, layer) = setup();
        let mut s = spmm::spmm(&a, &h);
        ops::axpy(&mut s, 1.3, &h);
        let want = gemm::matmul(
            &Activation::Relu.apply(&gemm::matmul(&s, &layer.w1)),
            &layer.w2,
        );
        assert!(layer.forward(&a, &h, None).max_abs_diff(&want) < 1e-13);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let (a, h, layer) = setup();
        crate::gradcheck::check_layer(&layer, &a, &h, 1e-5, 1e-5);
    }

    #[test]
    fn eps_is_trainable() {
        let (_, _, mut layer) = setup();
        assert_eq!(layer.param_slices_mut().len(), 3);
        // w1 (3×4) + w2 (4×2) + ε.
        assert_eq!(layer.param_count(), 21);
    }

    #[test]
    fn gin_distinguishes_multisets_where_mean_fails() {
        // The motivating property: sum aggregation (GIN) separates
        // neighborhoods {x, x} from {x} while mean aggregation cannot.
        let a1 = Csr::from_coo(&Coo::from_edges(3, 3, vec![(0, 1), (0, 2)]));
        let a2 = Csr::from_coo(&Coo::from_edges(3, 3, vec![(0, 1)]));
        let h = Dense::from_vec(3, 1, vec![0.0, 1.0, 1.0]);
        let mut layer = GinLayer::<f64>::new(1, 2, 1, Activation::Identity, 7);
        // Fix the MLP so the hidden ReLU passes positive aggregates
        // through (random Glorot weights can zero both paths).
        layer.param_slices_mut()[0].copy_from_slice(&[1.0, -1.0]);
        layer.param_slices_mut()[1].copy_from_slice(&[1.0, 1.0]);
        let z1 = layer.forward(&a1, &h, None);
        let z2 = layer.forward(&a2, &h, None);
        assert!(
            (z1[(0, 0)] - z2[(0, 0)]).abs() > 1e-9,
            "sum aggregation must separate the two neighborhoods"
        );
    }
}
