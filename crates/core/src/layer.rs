//! The layer abstraction: cached forward, analytic backward.
//!
//! A GNN layer `l` computes `Z^l = f(A, H^l, θ^l)` and the model applies
//! the decoupled non-linearity `H^{l+1} = σ(Z^l)` (paper Eq. 1). During
//! training the forward pass stores the intermediates the backward pass
//! reuses ([`LayerCache`]); the artifact's `--inference` flag corresponds
//! to calling [`AGnnLayer::forward`] with no cache.
//!
//! Parameters are exposed uniformly as flat slices
//! ([`AGnnLayer::param_slices_mut`]) paired position-wise with the
//! [`Gradients`] slots a backward pass returns, so optimizers are
//! oblivious to layer internals.

use crate::buffers::StepBuffers;
use atgnn_sparse::attention::RowStats;
use atgnn_sparse::Csr;
use atgnn_tensor::{Activation, Dense, Scalar};

/// Intermediates cached by a training-mode forward pass.
///
/// Fields are model-specific; unused slots stay `None`. Keeping one open
/// struct (rather than a per-layer associated type) keeps the layer trait
/// object-safe, which the model stack and the distributed engine rely on.
#[derive(Clone, Debug, Default)]
pub struct LayerCache<T: Scalar> {
    /// The attention matrix `Ψ(A, H)` after any softmax, on `A`'s pattern.
    /// Filled by VA and AGNN, and by GAT under the staged plan only: a
    /// fused GAT forward keeps `Ψ` virtual ([`LayerCache::row_stats`]).
    pub psi: Option<Csr<T>>,
    /// Pre-activation / pre-softmax edge scores: AGNN's cosines, and GAT's
    /// `C` values sampled on the pattern under the staged plan only.
    pub scores: Option<Csr<T>>,
    /// A fused GAT forward's per-row softmax max and normaliser, from
    /// which backward recomputes `Ψ` and `C` with `u` and `v`.
    pub row_stats: Option<RowStats<T>>,
    /// The projected features `H' = H W`.
    pub h_proj: Option<Dense<T>>,
    /// The aggregated features `Ψ H` (for aggregate-first orders).
    pub h_agg: Option<Dense<T>>,
    /// GAT's per-vertex source scores `u = H' a₁`.
    pub u: Option<Vec<T>>,
    /// GAT's per-vertex destination scores `v = H' a₂`.
    pub v: Option<Vec<T>>,
    /// Per-head sub-caches (multi-head attention) or per-stage caches
    /// (MLP updates).
    pub sub: Vec<LayerCache<T>>,
}

impl<T: Scalar> LayerCache<T> {
    /// An empty cache.
    pub fn new() -> Self {
        Self {
            psi: None,
            scores: None,
            row_stats: None,
            h_proj: None,
            h_agg: None,
            u: None,
            v: None,
            sub: Vec::new(),
        }
    }
}

/// Parameter gradients of one layer, one flat slot per parameter tensor,
/// ordered exactly like [`AGnnLayer::param_slices_mut`].
#[derive(Clone, Debug, Default)]
pub struct Gradients<T> {
    /// Flattened gradient per parameter tensor.
    pub slots: Vec<Vec<T>>,
}

impl<T: Scalar> Gradients<T> {
    /// No-parameter gradient set.
    pub fn none() -> Self {
        Self { slots: Vec::new() }
    }

    /// Gradient set from flattened slots.
    pub fn from_slots(slots: Vec<Vec<T>>) -> Self {
        Self { slots }
    }

    /// Element-wise accumulation (used when gradients are averaged over
    /// replicas in the distributed engine).
    pub fn accumulate(&mut self, other: &Self) {
        assert_eq!(
            self.slots.len(),
            other.slots.len(),
            "gradient slot mismatch"
        );
        for (a, b) in self.slots.iter_mut().zip(&other.slots) {
            assert_eq!(a.len(), b.len(), "gradient length mismatch");
            for (x, &y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
    }

    /// Scales every gradient by `s`.
    pub fn scale(&mut self, s: T) {
        for slot in &mut self.slots {
            for v in slot {
                *v *= s;
            }
        }
    }
}

/// The result of a layer backward pass.
pub struct BackwardResult<T> {
    /// `∂L/∂H^l` — the gradient w.r.t. the layer *input* features (before
    /// the `σ'` chain of the previous layer is applied).
    pub dh_in: Dense<T>,
    /// Parameter gradients, aligned with `param_slices_mut`.
    pub grads: Gradients<T>,
}

/// A single GNN layer in the global tensor formulation.
pub trait AGnnLayer<T: Scalar>: Send + Sync {
    /// Input feature dimensionality `k_in`.
    fn in_dim(&self) -> usize;
    /// Output feature dimensionality `k_out`.
    fn out_dim(&self) -> usize;

    /// Computes the pre-activation `Z^l = f(A, H^l)`.
    ///
    /// With `cache = Some(..)` (training) the layer stores the
    /// intermediates its backward pass needs; with `None` (the artifact's
    /// `--inference` mode) nothing beyond the output is allocated.
    ///
    /// **Block contract (inference only).** SDDMM → softmax → SpMM never
    /// needs `A` square. With `cache = None`, `a` may be a *row-prefix
    /// block*: `r × n` with `n = h.rows()` and `r <= n`, whose destination
    /// rows are the first `r` source rows (DGL's block convention; see
    /// `Csr::row_prefix`). The result has `r` rows, each bit-identical to
    /// the same row of the call on any square `n × n` matrix that agrees
    /// with `a` on those rows — the per-row reduction order does not
    /// depend on how many rows are computed. Every layer in
    /// [`crate::layers`] honours this under both `AttentionExec` paths;
    /// the training forward (`cache = Some`) and [`AGnnLayer::backward`]
    /// take a square `a` only.
    fn forward(&self, a: &Csr<T>, h: &Dense<T>, cache: Option<&mut LayerCache<T>>) -> Dense<T>;

    /// Given `G^l = ∂L/∂Z^l`, the layer input `H^l`, and the forward
    /// cache, computes `∂L/∂H^l` and all parameter gradients.
    fn backward(
        &self,
        a: &Csr<T>,
        h: &Dense<T>,
        cache: &LayerCache<T>,
        g: &Dense<T>,
    ) -> BackwardResult<T>;

    /// The parameter gradients of [`AGnnLayer::backward`] alone, for a
    /// caller that would drop `∂L/∂H^l` — a training step at layer 0,
    /// where it is `∂L/∂X`. The gradients must be bit-identical to
    /// `backward`'s. The default computes the input gradient and discards
    /// it; the layers [`crate::GnnModel::uniform`] builds skip every
    /// product that feeds only `dh_in`.
    fn backward_params(
        &self,
        a: &Csr<T>,
        h: &Dense<T>,
        cache: &LayerCache<T>,
        g: &Dense<T>,
    ) -> Gradients<T> {
        self.backward(a, h, cache, g).grads
    }

    /// The training forward of `GnnModel`:
    /// [`AGnnLayer::forward`] with a cache, whose outputs and cached
    /// matrices a layer may take from the model's step buffers instead of
    /// allocating them ([`StepBuffers`]). Same bits as `forward`. The
    /// default calls `forward`; a layer that overrides this may implement
    /// `forward` with a cache through it instead.
    fn forward_train(
        &self,
        a: &Csr<T>,
        h: &Dense<T>,
        cache: &mut LayerCache<T>,
        bufs: &mut StepBuffers<T>,
    ) -> Dense<T> {
        let _ = bufs;
        self.forward(a, h, Some(cache))
    }

    /// The backward pass of `GnnModel`: reads the cache of
    /// [`AGnnLayer::forward_train`], and may take its scratch and
    /// `∂L/∂H^l` from the step buffers and give back its scratch (the
    /// model gives back the cache's `h_proj` when it owns the cache).
    /// Returns the parameter gradients and, with `want_dx`, `∂L/∂H^l` —
    /// the bits of [`AGnnLayer::backward`] and
    /// [`AGnnLayer::backward_params`]. The default calls those; a layer
    /// that overrides this may implement them through it instead.
    fn backward_train(
        &self,
        a: &Csr<T>,
        h: &Dense<T>,
        cache: &LayerCache<T>,
        g: &Dense<T>,
        want_dx: bool,
        bufs: &mut StepBuffers<T>,
    ) -> (Gradients<T>, Option<Dense<T>>) {
        let _ = bufs;
        if want_dx {
            let res = self.backward(a, h, cache, g);
            (res.grads, Some(res.dh_in))
        } else {
            (self.backward_params(a, h, cache, g), None)
        }
    }

    /// Flat mutable views of every parameter tensor, in a stable order
    /// matching the [`Gradients`] slots.
    fn param_slices_mut(&mut self) -> Vec<&mut [T]>;

    /// Flat immutable views of every parameter tensor.
    fn param_slices(&self) -> Vec<&[T]>;

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize {
        self.param_slices().iter().map(|s| s.len()).sum()
    }

    /// The non-linearity `σ` this layer is followed by.
    fn activation(&self) -> Activation;

    /// Short human-readable name ("GAT", "VA", …).
    fn name(&self) -> &'static str;

    /// Adopts a (resolved) execution plan. Layers that dispatch on the
    /// plan — the attentional ones, which choose fused vs staged
    /// execution — store it; plan-oblivious layers (GCN, generic) keep
    /// the default no-op. `GnnModel::with_plan` calls this on every
    /// layer so model-level plan changes reach layer-level dispatch.
    fn set_plan(&mut self, _plan: crate::plan::ExecPlan) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradients_accumulate_and_scale() {
        let mut g = Gradients::from_slots(vec![vec![1.0f64, 2.0], vec![3.0]]);
        let h = Gradients::from_slots(vec![vec![0.5, 0.5], vec![1.0]]);
        g.accumulate(&h);
        assert_eq!(g.slots[0], vec![1.5, 2.5]);
        g.scale(2.0);
        assert_eq!(g.slots[1], vec![8.0]);
    }

    #[test]
    #[should_panic(expected = "slot mismatch")]
    fn accumulate_rejects_mismatched_slots() {
        let mut g = Gradients::<f64>::from_slots(vec![vec![1.0]]);
        let h = Gradients::from_slots(vec![]);
        g.accumulate(&h);
    }

    #[test]
    fn empty_cache_has_no_fields() {
        let c: LayerCache<f32> = LayerCache::new();
        assert!(c.psi.is_none() && c.h_proj.is_none() && c.u.is_none());
    }
}
