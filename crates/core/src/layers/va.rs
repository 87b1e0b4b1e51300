//! Vanilla attention (VA) — dot-product attention, paper Section 4.1/5.3.
//!
//! Forward (global formulation):
//!
//! ```text
//! Ψ = A ⊙ (H Hᵀ)            (fused SDDMM; H Hᵀ is virtual)
//! Z = Ψ H W                  (SpMMM)
//! ```
//!
//! Backward (the paper's novel formulation, Eqs. 11–13):
//!
//! ```text
//! M  = G Wᵀ
//! N  = A ⊙ (M Hᵀ)            (SDDMM)
//! N₊ = N + Nᵀ
//! ∂L/∂H = N₊ H + (Aᵀ ⊙ H_×) M = N H + Nᵀ H + Ψᵀ M
//! Y  = ∂L/∂W = Hᵀ (Aᵀ ⊙ H_×) G = (Ψ H)ᵀ G
//! ```
//!
//! using `Aᵀ ⊙ H_× = Ψᵀ` (the score matrix `H_× = H Hᵀ` is symmetric),
//! so `N₊ H` is evaluated as two SpMMs and no pattern union is formed.

use crate::layer::{AGnnLayer, BackwardResult, Gradients, LayerCache};
use crate::plan::ExecPlan;
use atgnn_sparse::{attention, spmm, Csr};
use atgnn_tensor::{gemm, init, ops, Activation, Dense, Scalar};

/// A vanilla-attention layer with parameters `W ∈ R^{k_in × k_out}`.
#[derive(Clone, Debug)]
pub struct VaLayer<T: Scalar> {
    w: Dense<T>,
    activation: Activation,
    plan: ExecPlan,
}

impl<T: Scalar> VaLayer<T> {
    /// Creates a layer with Glorot-initialized weights; the execution
    /// plan comes from `ATGNN_EXEC` (fused one-pass by default).
    pub fn new(k_in: usize, k_out: usize, activation: Activation, seed: u64) -> Self {
        Self {
            w: init::glorot(k_in, k_out, seed),
            activation,
            plan: ExecPlan::from_env(),
        }
    }

    /// Creates a layer with explicit weights (tests, checkpoints).
    pub fn with_weights(w: Dense<T>, activation: Activation) -> Self {
        Self {
            w,
            activation,
            plan: ExecPlan::from_env(),
        }
    }

    /// Overrides the execution plan (fused vs staged sandwich).
    pub fn with_plan(mut self, plan: ExecPlan) -> Self {
        self.plan = plan;
        self
    }

    /// The weight matrix.
    pub fn weights(&self) -> &Dense<T> {
        &self.w
    }

    /// Computes the attention matrix `Ψ = A ⊙ (H Hᵀ)`.
    pub fn psi(a: &Csr<T>, h: &Dense<T>) -> Csr<T> {
        attention::va_psi(a, h)
    }
}

impl<T: Scalar> AGnnLayer<T> for VaLayer<T> {
    fn in_dim(&self) -> usize {
        self.w.rows()
    }

    fn out_dim(&self) -> usize {
        self.w.cols()
    }

    fn forward(&self, a: &Csr<T>, h: &Dense<T>, cache: Option<&mut LayerCache<T>>) -> Dense<T> {
        // Aggregate-first keeps the SpMM at width k_in and produces the
        // `Ψ H` term the weight gradient reuses; the one-pass path scores
        // and aggregates in the same sweep, materializing Ψ only when the
        // backward pass needs it.
        let fa = attention::forward_va(self.plan.exec(), a, h, cache.is_some());
        let z = gemm::matmul(&fa.out, &self.w);
        if let Some(c) = cache {
            c.psi = fa.psi;
            c.h_agg = Some(fa.out);
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
        let psi = cache.psi.as_ref().expect("VA backward needs cached Ψ");
        // M = G Wᵀ.
        let m = gemm::matmul_nt(g, &self.w);
        // N = A ⊙ (M Hᵀ) and N H in one sweep on the fused path.
        // ∂L/∂H = N H + Nᵀ H + Ψᵀ M.
        let (n, mut dh) = attention::backward_va(self.plan.exec(), a, &m, h);
        ops::add_assign(&mut dh, &spmm::spmm_t(&n, h));
        ops::add_assign(&mut dh, &spmm::spmm_t(psi, &m));
        BackwardResult {
            dh_in: dh,
            grads: self.backward_params(a, h, cache, g),
        }
    }

    fn backward_params(
        &self,
        _a: &Csr<T>,
        _h: &Dense<T>,
        cache: &LayerCache<T>,
        g: &Dense<T>,
    ) -> Gradients<T> {
        let h_agg = cache.h_agg.as_ref().expect("VA backward needs cached ΨH");
        // Y = (Ψ H)ᵀ G.
        Gradients::from_slots(vec![gemm::matmul_tn(h_agg, g).into_vec()])
    }

    fn param_slices_mut(&mut self) -> Vec<&mut [T]> {
        vec![self.w.as_mut_slice()]
    }

    fn param_slices(&self) -> Vec<&[T]> {
        vec![self.w.as_slice()]
    }

    fn activation(&self) -> Activation {
        self.activation
    }

    fn name(&self) -> &'static str {
        "VA"
    }

    fn set_plan(&mut self, plan: ExecPlan) {
        self.plan = plan;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgnn_sparse::Coo;

    fn setup() -> (Csr<f64>, Dense<f64>, VaLayer<f64>) {
        let mut coo = Coo::from_edges(5, 5, vec![(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (2, 4)]);
        coo.symmetrize_binary();
        let a = Csr::from_coo(&coo);
        let h = init::features(5, 3, 11);
        let layer = VaLayer::new(3, 2, Activation::Tanh, 7);
        (a, h, layer)
    }

    #[test]
    fn forward_matches_dense_reference() {
        let (a, h, layer) = setup();
        // Reference: Z = (A ⊙ H Hᵀ) H W with everything dense.
        let hx = gemm::matmul_nt(&h, &h);
        let psi = ops::hadamard(&a.to_dense(), &hx);
        let want = gemm::matmul(&gemm::matmul(&psi, &h), layer.weights());
        let got = layer.forward(&a, &h, None);
        assert!(got.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn inference_mode_populates_no_cache() {
        let (a, h, layer) = setup();
        let mut cache = LayerCache::new();
        let with = layer.forward(&a, &h, Some(&mut cache));
        let without = layer.forward(&a, &h, None);
        assert!(with.max_abs_diff(&without) < 1e-15);
        assert!(cache.psi.is_some());
        assert!(cache.h_agg.is_some());
    }

    #[test]
    fn gradients_match_finite_differences() {
        let (a, h, layer) = setup();
        crate::gradcheck::check_layer(&layer, &a, &h, 1e-5, 1e-5);
    }

    #[test]
    fn directed_graph_gradients() {
        // The backward pass must handle A ≠ Aᵀ.
        let coo = Coo::from_edges(4, 4, vec![(0, 1), (1, 2), (2, 0), (3, 1)]);
        let a = Csr::from_coo(&coo);
        let h = init::features(4, 3, 3);
        let layer = VaLayer::<f64>::new(3, 3, Activation::Sigmoid, 5);
        crate::gradcheck::check_layer(&layer, &a, &h, 1e-5, 1e-5);
    }

    #[test]
    fn param_slices_expose_weights() {
        let (_, _, mut layer) = setup();
        assert_eq!(layer.param_count(), 6);
        let slices = layer.param_slices_mut();
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].len(), 6);
    }
}
