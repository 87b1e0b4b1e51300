//! AGNN — attention-based GNN with cosine attention (Thekumparampil et
//! al.), paper Section 4.1.
//!
//! Forward (global formulation):
//!
//! ```text
//! n_i = ‖h_i‖₂
//! Ψ = sm(A ⊙ (β · (H Hᵀ ⊘ n nᵀ)))     (fused cosine SDDMM + graph softmax)
//! Z = Ψ H W
//! ```
//!
//! The Hadamard division by the *outer product* `n nᵀ` is the paper's
//! novel algebraic expression of the cosine normalization; the outer
//! product is virtual — the fused kernel divides each sampled dot product
//! by `n_i n_j` on the fly.
//!
//! Backward, given `G = ∂L/∂Z` (with `S = β·cos` the pre-softmax scores):
//!
//! ```text
//! D   = A ⊙ (G (HW)ᵀ)
//! ∂S  = Ψ ⊙ (D − rep(rowsum(Ψ ⊙ D)))      (softmax backward)
//! ∂β  = Σ_(i,j) ∂S_ij · cos_ij
//! ∂cos = β · ∂S
//! cosine backward:   with  P = ∂cos ⊘ (n nᵀ)  on the pattern,
//!   ∂H += P H + Pᵀ H − diag(rowsum(∂cos ⊙ cos) ⊘ n²) H
//!                    − diag(colsum(∂cos ⊙ cos) ⊘ n²) H
//! product rule:  ∂(HW) = Ψᵀ G,  ∂W = Hᵀ ∂(HW),  ∂H += ∂(HW) Wᵀ
//! ```

use crate::layer::{AGnnLayer, BackwardResult, Gradients, LayerCache};
use crate::plan::ExecPlan;
use atgnn_sparse::attention::{self, Agnn};
use atgnn_sparse::{masked, spmm, Csr};
use atgnn_tensor::{blocks, gemm, init, ops, Activation, Dense, Scalar};

/// An AGNN layer with parameters `W ∈ R^{k_in × k_out}` and the learnable
/// temperature `β` (a single scalar, stored as a one-element slot so the
/// optimizers see a uniform parameter layout).
#[derive(Clone, Debug)]
pub struct AgnnLayer<T: Scalar> {
    w: Dense<T>,
    beta: Vec<T>,
    activation: Activation,
    plan: ExecPlan,
}

impl<T: Scalar> AgnnLayer<T> {
    /// Creates a layer with Glorot weights and `β = 1`; the execution
    /// plan comes from `ATGNN_EXEC` (fused one-pass by default).
    pub fn new(k_in: usize, k_out: usize, activation: Activation, seed: u64) -> Self {
        Self {
            w: init::glorot(k_in, k_out, seed),
            beta: vec![T::one()],
            activation,
            plan: ExecPlan::from_env(),
        }
    }

    /// Creates a layer with explicit parameters.
    pub fn with_params(w: Dense<T>, beta: T, activation: Activation) -> Self {
        Self {
            w,
            beta: vec![beta],
            activation,
            plan: ExecPlan::from_env(),
        }
    }

    /// Overrides the execution plan (fused vs staged sandwich).
    pub fn with_plan(mut self, plan: ExecPlan) -> Self {
        self.plan = plan;
        self
    }

    /// The temperature `β`.
    pub fn beta(&self) -> T {
        self.beta[0]
    }

    /// The weight matrix.
    pub fn weights(&self) -> &Dense<T> {
        &self.w
    }

    /// Computes the attention matrix `Ψ` (softmax of the scaled cosines).
    pub fn psi(&self, a: &Csr<T>, h: &Dense<T>) -> Csr<T> {
        let norms = blocks::row_l2_norms(h);
        attention::psi(a, &self.score(h, &norms))
    }

    /// The layer's score: cosines of `h` against itself, `norms` its row
    /// norms.
    fn score<'a>(&self, h: &'a Dense<T>, norms: &'a [T]) -> Agnn<'a, T> {
        Agnn {
            dst: h,
            src: h,
            n_dst: norms,
            n_src: norms,
            beta: self.beta[0],
        }
    }

    /// The parameter gradients `[∂W, ∂β]`, plus the sweep results and
    /// `∂(HW)` the input gradient is assembled from.
    fn backward_shared(
        &self,
        a: &Csr<T>,
        h: &Dense<T>,
        cache: &LayerCache<T>,
        g: &Dense<T>,
    ) -> (Gradients<T>, attention::AgnnBackward<T>, Dense<T>) {
        let psi = cache.psi.as_ref().expect("AGNN backward needs cached Ψ");
        let cos = cache
            .scores
            .as_ref()
            .expect("AGNN backward needs cached cosines");
        let hp = cache
            .h_proj
            .as_ref()
            .expect("AGNN backward needs cached HW");
        // Softmax backward, ∂β, the normalized gradient P = ∂cos ⊘ n nᵀ,
        // the correction products ∂cos ⊙ cos (with row sums) and P H — one
        // sweep on the fused path.
        let bk = attention::backward_agnn(self.plan.exec(), a, psi, cos, h, hp, g, self.beta[0]);
        // Product-rule terms of Z = Ψ (H W): ∂(HW) = Ψᵀ G, ∂W = Hᵀ ∂(HW).
        let dhp = spmm::spmm_t(psi, g);
        let dw = gemm::matmul_tn(h, &dhp);
        let grads = Gradients::from_slots(vec![dw.into_vec(), vec![bk.dbeta]]);
        (grads, bk, dhp)
    }
}

impl<T: Scalar> AGnnLayer<T> for AgnnLayer<T> {
    fn in_dim(&self) -> usize {
        self.w.rows()
    }

    fn out_dim(&self) -> usize {
        self.w.cols()
    }

    fn forward(&self, a: &Csr<T>, h: &Dense<T>, cache: Option<&mut LayerCache<T>>) -> Dense<T> {
        let hp = gemm::matmul(h, &self.w);
        let norms = blocks::row_l2_norms(h);
        let fa = attention::forward(
            self.plan.exec(),
            a,
            &self.score(h, &norms),
            &hp,
            cache.is_some(),
        );
        if let Some(c) = cache {
            c.psi = fa.psi;
            c.scores = fa.scores;
            c.h_proj = Some(hp);
        }
        fa.out
    }

    fn backward(
        &self,
        a: &Csr<T>,
        h: &Dense<T>,
        cache: &LayerCache<T>,
        g: &Dense<T>,
    ) -> BackwardResult<T> {
        let (grads, bk, dhp) = self.backward_shared(a, h, cache, g);
        let norms = blocks::row_l2_norms(h);
        let inv = |x: T| {
            if x == T::zero() {
                T::zero()
            } else {
                T::one() / x
            }
        };
        let mut dh = bk.ph;
        ops::add_assign(&mut dh, &spmm::spmm_t(&bk.p, h));
        // Diagonal corrections: −(Σ_j ∂cos_ij cos_ij / n_i²) h_i from the
        // row-norm dependence and the symmetric column term.
        let col_corr = masked::col_sums(&bk.tc);
        for i in 0..dh.rows() {
            let ni2 = inv(norms[i]) * inv(norms[i]);
            let coef = (bk.row_corr[i] + col_corr[i]) * ni2;
            let hrow = h.row(i);
            for (o, &hv) in dh.row_mut(i).iter_mut().zip(hrow) {
                *o -= coef * hv;
            }
        }
        // Product rule: ∂H += ∂(HW) Wᵀ.
        ops::add_assign(&mut dh, &gemm::matmul_nt(&dhp, &self.w));
        BackwardResult { dh_in: dh, grads }
    }

    fn backward_params(
        &self,
        a: &Csr<T>,
        h: &Dense<T>,
        cache: &LayerCache<T>,
        g: &Dense<T>,
    ) -> Gradients<T> {
        self.backward_shared(a, h, cache, g).0
    }

    fn param_slices_mut(&mut self) -> Vec<&mut [T]> {
        vec![self.w.as_mut_slice(), self.beta.as_mut_slice()]
    }

    fn param_slices(&self) -> Vec<&[T]> {
        vec![self.w.as_slice(), &self.beta]
    }

    fn activation(&self) -> Activation {
        self.activation
    }

    fn name(&self) -> &'static str {
        "AGNN"
    }

    fn set_plan(&mut self, plan: ExecPlan) {
        self.plan = plan;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgnn_sparse::Coo;

    fn setup() -> (Csr<f64>, Dense<f64>, AgnnLayer<f64>) {
        let mut coo = Coo::from_edges(
            6,
            6,
            vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)],
        );
        coo.symmetrize_binary();
        let a = Csr::from_coo(&coo);
        let h = init::features(6, 3, 41);
        let mut layer = AgnnLayer::new(3, 2, Activation::Tanh, 23);
        layer.beta[0] = 1.3;
        (a, h, layer)
    }

    #[test]
    fn forward_matches_dense_reference() {
        let (a, h, layer) = setup();
        let n = a.rows();
        let norms = blocks::row_l2_norms(&h);
        let mut psi = Dense::<f64>::zeros(n, n);
        for i in 0..n {
            let (cols, _) = a.row(i);
            let scores: Vec<f64> = cols
                .iter()
                .map(|&j| {
                    let j = j as usize;
                    layer.beta() * gemm::dot(h.row(i), h.row(j)) / (norms[i] * norms[j])
                })
                .collect();
            let maxs = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let exps: Vec<f64> = scores.iter().map(|s| (s - maxs).exp()).collect();
            let total: f64 = exps.iter().sum();
            for (&j, e) in cols.iter().zip(&exps) {
                psi[(i, j as usize)] = e / total;
            }
        }
        let want = gemm::matmul(&gemm::matmul(&psi, &h), layer.weights());
        assert!(layer.forward(&a, &h, None).max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let (a, h, layer) = setup();
        crate::gradcheck::check_layer(&layer, &a, &h, 1e-5, 1e-4);
    }

    #[test]
    fn gradients_on_directed_graph() {
        let coo = Coo::from_edges(5, 5, vec![(0, 1), (1, 2), (2, 0), (3, 1), (4, 2), (0, 4)]);
        let a = Csr::from_coo(&coo);
        let h = init::features(5, 2, 51);
        let mut layer = AgnnLayer::<f64>::new(2, 3, Activation::Sigmoid, 29);
        layer.beta[0] = 0.8;
        crate::gradcheck::check_layer(&layer, &a, &h, 1e-5, 1e-4);
    }

    #[test]
    fn beta_is_a_trainable_parameter() {
        let (_, _, mut layer) = setup();
        // W (3×2) + β.
        assert_eq!(layer.param_count(), 7);
        let slices = layer.param_slices_mut();
        assert_eq!(slices[1].len(), 1);
    }

    #[test]
    fn psi_rows_sum_to_one() {
        let (a, h, layer) = setup();
        let psi = layer.psi(&a, &h);
        for total in masked::row_sums(&psi) {
            assert!((total - 1.0).abs() < 1e-12);
        }
    }
}
