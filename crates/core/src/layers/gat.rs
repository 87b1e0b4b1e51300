//! GAT — Graph Attention Network, paper Section 4.1 (Figure 2) and the
//! backward derivation summarized in Figure 1.
//!
//! The local score `aᵀ [W h_i ‖ W h_j]` is split (Figure 2) into
//! `(W h_i)·a₁ + (W h_j)·a₂` so the concatenation disappears and the
//! virtual score matrix becomes `C = u 𝟙ᵀ + 𝟙 vᵀ` with `u = H' a₁`,
//! `v = H' a₂`, `H' = H W`:
//!
//! ```text
//! Ψ = sm(A ⊙ LeakyReLU(C))        (fused; C never materialized)
//! Z = Ψ H'                        (SpMM)
//! ```
//!
//! Backward, given `G = ∂L/∂Z`:
//!
//! ```text
//! D   = A ⊙ (G H'ᵀ)                       (SDDMM)
//! ∂E  = Ψ ⊙ (D − rep(rowsum(Ψ ⊙ D)))      (softmax backward)
//! ∂C  = ∂E ⊙ LeakyReLU'(C)                (on the pattern)
//! ∂u  = sum(∂C)        ∂v = sumᵀ(∂C)
//! ∂a₁ = H'ᵀ ∂u         ∂a₂ = H'ᵀ ∂v
//! ∂H' = Ψᵀ G + ∂u a₁ᵀ + ∂v a₂ᵀ
//! ∂W  = Hᵀ ∂H'         ∂L/∂H = ∂H' Wᵀ
//! ```

use crate::buffers::StepBuffers;
use crate::layer::{AGnnLayer, BackwardResult, Gradients, LayerCache};
use crate::plan::ExecPlan;
use atgnn_sparse::spmm::{self, ProductOrder};
use atgnn_sparse::{attention, masked, Csr};
use atgnn_tensor::{gemm, init, Activation, Dense, Scalar};
use std::borrow::Cow;

/// The GAT LeakyReLU slope from the original paper.
pub const GAT_SLOPE: f64 = 0.2;

/// A single-head GAT layer with parameters `W ∈ R^{k_in × k_out}` and the
/// split attention vectors `a₁, a₂ ∈ R^{k_out}`.
#[derive(Clone, Debug)]
pub struct GatLayer<T: Scalar> {
    w: Dense<T>,
    a_src: Vec<T>,
    a_dst: Vec<T>,
    slope: f64,
    activation: Activation,
    plan: ExecPlan,
}

impl<T: Scalar> GatLayer<T> {
    /// Creates a layer with Glorot-initialized parameters and the standard
    /// LeakyReLU slope 0.2; the execution plan comes from `ATGNN_EXEC`
    /// (fused one-pass by default).
    pub fn new(k_in: usize, k_out: usize, activation: Activation, seed: u64) -> Self {
        Self {
            w: init::glorot(k_in, k_out, seed),
            a_src: init::glorot_vec(k_out, seed ^ 0xa1),
            a_dst: init::glorot_vec(k_out, seed ^ 0xa2),
            slope: GAT_SLOPE,
            activation,
            plan: ExecPlan::from_env(),
        }
    }

    /// Creates a layer with explicit parameters.
    pub fn with_params(
        w: Dense<T>,
        a_src: Vec<T>,
        a_dst: Vec<T>,
        slope: f64,
        activation: Activation,
    ) -> Self {
        assert_eq!(w.cols(), a_src.len(), "a₁ must have k_out entries");
        assert_eq!(w.cols(), a_dst.len(), "a₂ must have k_out entries");
        Self {
            w,
            a_src,
            a_dst,
            slope,
            activation,
            plan: ExecPlan::from_env(),
        }
    }

    /// Overrides the execution plan (fused vs staged sandwich).
    pub fn with_plan(mut self, plan: ExecPlan) -> Self {
        self.plan = plan;
        self
    }

    /// The weight matrix `W`.
    pub fn weights(&self) -> &Dense<T> {
        &self.w
    }

    /// The attention vectors `(a₁, a₂)`.
    pub fn attention_vectors(&self) -> (&[T], &[T]) {
        (&self.a_src, &self.a_dst)
    }

    /// Computes the attention matrix `Ψ` for the given inputs (exposed for
    /// the distributed engine and for DGL-style g-SDDMM integration).
    pub fn psi(&self, a: &Csr<T>, h: &Dense<T>) -> Csr<T> {
        let hp = gemm::matmul(h, &self.w);
        let (u, v) = gemm::matvec_pair(&hp, hp.rows(), &self.a_src, &self.a_dst);
        let gat = attention::Gat {
            u: &u,
            v: &v,
            slope: self.slope,
        };
        attention::psi(a, &gat)
    }

    /// The inference forward `Ψ H W` in the given product order (the
    /// paper's SpMMM choice; [`AGnnLayer::forward`] asks
    /// [`spmm::product_order`]). The two orders reassociate — `(H W) a`
    /// against `H (W a)`, `Ψ (H W)` against `(Ψ H) W` — so they agree to
    /// rounding, not bit for bit; an oracle pins one by passing it here.
    pub fn forward_ordered(&self, a: &Csr<T>, h: &Dense<T>, order: ProductOrder) -> Dense<T> {
        self.forward_in_order(a, h, order, None)
    }

    fn forward_in_order(
        &self,
        a: &Csr<T>,
        h: &Dense<T>,
        order: ProductOrder,
        cache: Option<&mut LayerCache<T>>,
    ) -> Dense<T> {
        assert!(a.rows() <= h.rows(), "GAT forward: A has more rows than H");
        // The buffer the sweep aggregates and the vectors that score its
        // rows: `H'` with `a₁, a₂`, or — `(H W) a = H (W a)` — raw `H` with
        // the attention vectors folded through `W`.
        let (feats, a_src, a_dst) = match order {
            ProductOrder::ProjectFirst => (
                Cow::Owned(gemm::matmul(h, &self.w)),
                Cow::Borrowed(&self.a_src),
                Cow::Borrowed(&self.a_dst),
            ),
            ProductOrder::AggregateFirst => (
                Cow::Borrowed(h),
                Cow::Owned(gemm::matvec(&self.w, &self.a_src)),
                Cow::Owned(gemm::matvec(&self.w, &self.a_dst)),
            ),
        };
        let (u, v) = Self::scores(a, &feats, &a_src, &a_dst);
        // With a cache this is the staged training forward (the fused one
        // is `forward_train`), which materializes `Ψ` and `C`.
        let fa = attention::forward_gat(
            self.plan.exec(),
            a,
            &u,
            &v,
            &feats,
            self.slope,
            cache.is_some(),
        );
        if let Some(c) = cache {
            c.psi = fa.psi;
            c.scores = fa.scores;
            c.h_proj = Some(feats.into_owned());
            c.u = Some(u);
            c.v = Some(v);
        }
        match order {
            ProductOrder::ProjectFirst => fa.out,
            // The `a.rows()` aggregated rows, not the `h.rows()` sources.
            ProductOrder::AggregateFirst => gemm::matmul(&fa.out, &self.w),
        }
    }

    /// The per-vertex scores `u = F a₁` and `v = F a₂` of the buffer `F`
    /// the sweep aggregates, in one pass over `F`. `u` scores
    /// destinations, so a row-prefix block needs it on its own rows only;
    /// `v` covers every source.
    fn scores(a: &Csr<T>, feats: &Dense<T>, a_src: &[T], a_dst: &[T]) -> (Vec<T>, Vec<T>) {
        gemm::matvec_pair(feats, a.rows(), a_src, a_dst)
    }
}

impl<T: Scalar> AGnnLayer<T> for GatLayer<T> {
    fn in_dim(&self) -> usize {
        self.w.rows()
    }

    fn out_dim(&self) -> usize {
        self.w.cols()
    }

    fn forward(&self, a: &Csr<T>, h: &Dense<T>, cache: Option<&mut LayerCache<T>>) -> Dense<T> {
        match cache {
            Some(cache) => self.forward_train(a, h, cache, &mut StepBuffers::new()),
            // Inference takes whichever order the block's shape makes
            // cheaper.
            None => {
                let order =
                    spmm::product_order(a.rows(), a.cols(), a.nnz(), self.in_dim(), self.out_dim());
                self.forward_in_order(a, h, order, None)
            }
        }
    }

    /// Backward reads the cached `H'`, so the training forward projects
    /// first. Fused, it keeps `Ψ` virtual — the inference sweep plus two
    /// floats per row, from which backward recomputes `Ψ` and `C` — and
    /// writes `H'` and `Z` into step buffers; the staged oracle allocates.
    fn forward_train(
        &self,
        a: &Csr<T>,
        h: &Dense<T>,
        cache: &mut LayerCache<T>,
        bufs: &mut StepBuffers<T>,
    ) -> Dense<T> {
        if !self.plan.is_fused() {
            return self.forward_in_order(a, h, ProductOrder::ProjectFirst, Some(cache));
        }
        // `forward_in_order`'s project-first steps, writing.
        let mut hp = bufs.take_like(h, h.rows(), self.out_dim());
        gemm::matmul_into(h, &self.w, &mut hp);
        let (u, v) = Self::scores(a, &hp, &self.a_src, &self.a_dst);
        let mut z = bufs.take_like(&hp, a.rows(), hp.cols());
        let stats = attention::attention_forward_gat_stats_into(a, &u, &v, &hp, self.slope, &mut z);
        cache.row_stats = Some(stats);
        cache.h_proj = Some(hp);
        cache.u = Some(u);
        cache.v = Some(v);
        z
    }

    fn backward(
        &self,
        a: &Csr<T>,
        h: &Dense<T>,
        cache: &LayerCache<T>,
        g: &Dense<T>,
    ) -> BackwardResult<T> {
        let (grads, dh_in) = self.backward_train(a, h, cache, g, true, &mut StepBuffers::new());
        BackwardResult {
            dh_in: dh_in.expect("the input gradient was asked for"),
            grads,
        }
    }

    fn backward_params(
        &self,
        a: &Csr<T>,
        h: &Dense<T>,
        cache: &LayerCache<T>,
        g: &Dense<T>,
    ) -> Gradients<T> {
        self.backward_train(a, h, cache, g, false, &mut StepBuffers::new())
            .0
    }

    /// The parameter gradients `[∂W, ∂a₁, ∂a₂]` and, with `want_dx`,
    /// `∂L/∂H = ∂H' Wᵀ`. On the fused path `∂H'`, the `∂C` values and
    /// `∂L/∂H` come from `bufs`, and all but `∂L/∂H` go back before
    /// returning.
    fn backward_train(
        &self,
        a: &Csr<T>,
        h: &Dense<T>,
        cache: &LayerCache<T>,
        g: &Dense<T>,
        want_dx: bool,
        bufs: &mut StepBuffers<T>,
    ) -> (Gradients<T>, Option<Dense<T>>) {
        let hp = cache.h_proj.as_ref().expect("GAT backward needs cached H'");
        // Softmax backward, LeakyReLU gradient and ∂u = row sums of ∂C —
        // one sweep on the fused path — `Ψᵀ G`, the first term of ∂H', and
        // ∂v = column sums of ∂C (a scatter, kept on the masked kernel).
        let (du, dv, mut dhp) = match &cache.row_stats {
            Some(stats) => {
                let u = cache.u.as_deref().expect("GAT backward needs cached u");
                let v = cache.v.as_deref().expect("GAT backward needs cached v");
                let mut dc = bufs.take_values(a.nnz());
                let du = attention::attention_backward_gat_virtual_into(
                    a, u, v, stats, hp, g, self.slope, &mut dc,
                );
                let mut psi_t_g = bufs.take_like(g, a.cols(), g.cols());
                attention::attention_psi_t_gat_virtual_into(
                    a,
                    u,
                    v,
                    stats,
                    g,
                    self.slope,
                    &mut psi_t_g,
                );
                let dv = masked::col_sums_on(a, &dc);
                bufs.give_values(dc);
                (du, dv, psi_t_g)
            }
            None => {
                let psi = cache.psi.as_ref().expect("GAT backward needs cached Ψ");
                let c_pre = cache.scores.as_ref().expect("GAT backward needs cached C");
                let (dc, du) =
                    attention::backward_gat(self.plan.exec(), a, psi, c_pre, hp, g, self.slope);
                (du, masked::col_sums(&dc), spmm::spmm_t(psi, g))
            }
        };
        // ∂a₁ = H'ᵀ ∂u, ∂a₂ = H'ᵀ ∂v.
        let da_src = gemm::matvec_t(hp, &du);
        let da_dst = gemm::matvec_t(hp, &dv);
        // ∂H' = Ψᵀ G + ∂u a₁ᵀ + ∂v a₂ᵀ.
        for i in 0..dhp.rows() {
            let (dui, dvi) = (du[i], dv[i]);
            let row = dhp.row_mut(i);
            for ((o, &a1), &a2) in row.iter_mut().zip(&self.a_src).zip(&self.a_dst) {
                *o += dui * a1 + dvi * a2;
            }
        }
        // ∂W = Hᵀ ∂H'.
        let dw = gemm::matmul_tn(h, &dhp);
        // ∂L/∂H = ∂H' Wᵀ.
        let dh = want_dx.then(|| {
            let mut dh = bufs.take_like(&dhp, dhp.rows(), self.in_dim());
            gemm::matmul_nt_into(&dhp, &self.w, &mut dh);
            dh
        });
        bufs.give(dhp);
        (
            Gradients::from_slots(vec![dw.into_vec(), da_src, da_dst]),
            dh,
        )
    }

    fn param_slices_mut(&mut self) -> Vec<&mut [T]> {
        vec![
            self.w.as_mut_slice(),
            self.a_src.as_mut_slice(),
            self.a_dst.as_mut_slice(),
        ]
    }

    fn param_slices(&self) -> Vec<&[T]> {
        vec![self.w.as_slice(), &self.a_src, &self.a_dst]
    }

    fn activation(&self) -> Activation {
        self.activation
    }

    fn name(&self) -> &'static str {
        "GAT"
    }

    fn set_plan(&mut self, plan: ExecPlan) {
        self.plan = plan;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgnn_sparse::Coo;

    fn setup() -> (Csr<f64>, Dense<f64>, GatLayer<f64>) {
        let mut coo = Coo::from_edges(
            6,
            6,
            vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (2, 5)],
        );
        coo.symmetrize_binary();
        // Self-loops give every vertex the N̂(v) neighborhood GAT assumes.
        let a = atgnn_sparse::norm::add_self_loops(&Csr::from_coo(&coo));
        let h = init::features(6, 3, 31);
        let layer = GatLayer::new(3, 2, Activation::Elu, 13);
        (a, h, layer)
    }

    #[test]
    fn forward_matches_dense_reference() {
        let (a, h, layer) = setup();
        // Dense reference evaluated by the book.
        let hp = gemm::matmul(&h, layer.weights());
        let u = gemm::matvec(&hp, layer.attention_vectors().0);
        let v = gemm::matvec(&hp, layer.attention_vectors().1);
        let n = a.rows();
        let lrelu = Activation::LeakyRelu(GAT_SLOPE);
        let mut psi = Dense::<f64>::zeros(n, n);
        for i in 0..n {
            let (cols, _) = a.row(i);
            let mut total = 0.0;
            let scores: Vec<f64> = cols
                .iter()
                .map(|&j| lrelu.eval(u[i] + v[j as usize]))
                .collect();
            let maxs = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let exps: Vec<f64> = scores.iter().map(|s| (s - maxs).exp()).collect();
            for e in &exps {
                total += e;
            }
            for (&j, e) in cols.iter().zip(&exps) {
                psi[(i, j as usize)] = e / total;
            }
        }
        let want = gemm::matmul(&psi, &hp);
        assert!(layer.forward(&a, &h, None).max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn psi_rows_sum_to_one() {
        let (a, h, layer) = setup();
        let psi = layer.psi(&a, &h);
        for total in masked::row_sums(&psi) {
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let (a, h, layer) = setup();
        crate::gradcheck::check_layer(&layer, &a, &h, 1e-5, 1e-5);
    }

    #[test]
    fn gradients_on_directed_graph() {
        let coo = Coo::from_edges(5, 5, vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 0), (0, 3)]);
        let a = atgnn_sparse::norm::add_self_loops(&Csr::from_coo(&coo));
        let h = init::features(5, 2, 17);
        let layer = GatLayer::<f64>::new(2, 4, Activation::Tanh, 19);
        crate::gradcheck::check_layer(&layer, &a, &h, 1e-5, 1e-5);
    }

    #[test]
    fn param_layout() {
        let (_, _, mut layer) = setup();
        // W (3×2) + a₁ (2) + a₂ (2).
        assert_eq!(layer.param_count(), 10);
        assert_eq!(layer.param_slices_mut().len(), 3);
    }
}
