//! The full GNN pipeline: `L` stacked layers, full-batch training and
//! inference.
//!
//! Mirrors the artifact's `GnnModel` base class: the forward pass caches
//! intermediate results for training, while the `--inference` mode "runs
//! inference only (not storing intermediate matrices)". The backward pass
//! implements the paper's layer recursion
//! `G^{l-1} = σ'(Z^{l-1}) ⊙ Γ^l` (Eq. 6), bootstrapped with
//! `G^L = ∇_{H^L} L ⊙ σ'(Z^L)` (Eq. 4).

use crate::buffers::StepBuffers;
use crate::layer::{AGnnLayer, Gradients, LayerCache};
use crate::layers::{AgnnLayer, GatLayer, GcnLayer, VaLayer};
use crate::loss::Loss;
use crate::optimizer::Optimizer;
use crate::plan::{ExecPlan, Layout, Reordering};
use atgnn_sparse::{norm, Csr};
use atgnn_tensor::{Activation, Dense, Scalar};
use std::borrow::Cow;
use std::sync::Mutex;

/// The models evaluated in the paper (plus the Section 8.4 C-GNN).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    /// Vanilla (dot-product) attention.
    Va,
    /// Cosine attention with learnable temperature.
    Agnn,
    /// Graph attention network.
    Gat,
    /// Graph convolution (C-GNN baseline of Section 8.4).
    Gcn,
}

impl ModelKind {
    /// All attentional models benchmarked in the paper's figures.
    pub const ATTENTIONAL: [ModelKind; 3] = [ModelKind::Va, ModelKind::Agnn, ModelKind::Gat];

    /// Display name matching the paper's plots.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Va => "VA",
            ModelKind::Agnn => "AGNN",
            ModelKind::Gat => "GAT",
            ModelKind::Gcn => "GCN",
        }
    }
}

/// Per-layer training context: the layer input `H^l`, the pre-activation
/// `Z^l`, and the layer's own cache.
pub struct TrainContext<T: Scalar> {
    /// The layer input features `H^l`.
    pub h_in: Dense<T>,
    /// The pre-activation `Z^l`.
    pub z: Dense<T>,
    /// Model-specific cached intermediates.
    pub cache: LayerCache<T>,
}

/// A [`TrainContext`]'s `H^l`, `Z^l` and cache as the backward loop
/// reads them: borrowed from a caller, or owned by `train_step`, which
/// gives them back to its step buffers.
type ContextParts<'c, T> = (Cow<'c, Dense<T>>, Cow<'c, Dense<T>>, Cow<'c, LayerCache<T>>);

/// The one part of running a plan that depends on the graph — its
/// reordering — kept so repeated `inference`/`train_step` calls on the
/// same adjacency permute it once.
struct CachedReordering<T> {
    /// [`Csr::stamp`] of the adjacency this was computed from: the
    /// permuted copy carries its values, so a hit needs the same values
    /// as well as the same pattern.
    stamp: u64,
    /// `None` records "this plan declines to reorder this graph" (e.g.
    /// `auto` on a small graph), so the decision isn't re-made.
    reordering: Option<Reordering<T>>,
}

/// A stack of GNN layers.
pub struct GnnModel<T> {
    layers: Vec<Box<dyn AGnnLayer<T>>>,
    /// The model-level *base* execution plan. `inference`/`train_step`
    /// run it with the width-aware layout default filled in
    /// ([`GnnModel::resolved_plan`]); attention execution (fused vs
    /// staged) is dispatched by the layers, which
    /// [`GnnModel::with_plan`] keeps in sync.
    plan: ExecPlan,
    /// The last adjacency's reordering (a `Mutex` to keep the model
    /// `Sync`; never contended — model methods take `&self`/`&mut self`).
    reorder_cache: Mutex<Option<CachedReordering<T>>>,
    /// [`GnnModel::train_step`]'s buffers, kept from one step to the next
    /// (and only by it: inference and the public forward / backward
    /// pieces allocate).
    step_buffers: StepBuffers<T>,
}

impl<T: Scalar> GnnModel<T> {
    /// Builds a model from explicit layers, with the environment's
    /// execution plan (`ATGNN_EXEC`, `ATGNN_REORDER`).
    pub fn new(layers: Vec<Box<dyn AGnnLayer<T>>>) -> Self {
        assert!(!layers.is_empty(), "a GNN model needs at least one layer");
        for w in layers.windows(2) {
            assert_eq!(w[0].out_dim(), w[1].in_dim(), "layer dimensions must chain");
        }
        Self {
            layers,
            plan: ExecPlan::from_env(),
            reorder_cache: Mutex::new(None),
            step_buffers: StepBuffers::new(),
        }
    }

    /// This model with a different base plan. The plan's attention
    /// execution is propagated into every layer
    /// ([`AGnnLayer::set_plan`]), and the cached reordering and the
    /// training step's buffers are dropped, so the next run reorders under
    /// the new plan's strategy and allocates in its layout.
    pub fn with_plan(mut self, plan: ExecPlan) -> Self {
        self.plan = plan;
        for layer in &mut self.layers {
            layer.set_plan(plan);
        }
        *self
            .reorder_cache
            .get_mut()
            .unwrap_or_else(|e| e.into_inner()) = None;
        self.step_buffers = StepBuffers::new();
        self
    }

    /// The model-level base execution plan (before the width-aware layout
    /// default).
    pub fn plan(&self) -> ExecPlan {
        self.plan
    }

    /// The widest feature dimension the layer stack touches — the `k`
    /// the layout default is chosen for (the hot kernels stream rows of
    /// this width).
    pub fn hot_width(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.in_dim().max(l.out_dim()))
            .max()
            .unwrap_or(0)
    }

    /// The plan this model actually runs:
    /// [`ExecPlan::defaulted_for_width`] of the base plan at
    /// [`GnnModel::hot_width`] — the same for every graph, so `_a` is
    /// only here for the callers that pass it.
    pub fn resolved_plan(&self, _a: &Csr<T>) -> ExecPlan {
        self.plan.defaulted_for_width(self.hot_width())
    }

    /// Runs `f` with the plan this model runs and its reordering of `a`
    /// (computed, or reused if `a` is the matrix the last call saw).
    fn with_resolution<R>(
        &self,
        a: &Csr<T>,
        f: impl FnOnce(ExecPlan, Option<&Reordering<T>>) -> R,
    ) -> R {
        let plan = self.resolved_plan(a);
        let mut guard = self.reorder_cache.lock().unwrap_or_else(|e| e.into_inner());
        let cached = match &mut *guard {
            Some(c) if c.stamp == a.stamp() => c,
            slot => slot.insert(CachedReordering {
                stamp: a.stamp(),
                reordering: plan.reorder_graph(a),
            }),
        };
        f(plan, cached.reordering.as_ref())
    }

    /// Converts caller features into the resolved plan's dense layout —
    /// the inference paths' conversion point, applied at the model
    /// boundary right after the reorder permute (outputs return to the
    /// caller tight via `restore_rows`/`into_tight`); `train_step` writes
    /// the same layout into a step buffer. The layout choice never changes
    /// results: kernels read logical rows for every reduction, so padded
    /// and tight pipelines are bit-identical. The result is what the
    /// layer loop owns: borrowed features are copied here exactly once,
    /// owned ones only if they have to be padded.
    fn ingest(plan: ExecPlan, x: Cow<'_, Dense<T>>) -> Dense<T> {
        match plan.layout() {
            Layout::Padded if !x.is_padded() => x.padded(),
            _ => x.into_owned(),
        }
    }

    /// Builds an `L`-layer model of one kind with the dimension chain
    /// `dims` (`dims.len() == L + 1`). Hidden layers use `activation`;
    /// the last layer is `Identity` (the loss supplies the final
    /// non-linearity), matching common GNN practice.
    pub fn uniform(kind: ModelKind, dims: &[usize], activation: Activation, seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least one layer (two dims)");
        // Plan-time static analysis: reject model kinds whose canned
        // execution DAGs fail validation before any kernel runs — always
        // in debug builds, and in release builds when `ATGNN_ANALYZE`
        // requests a report or deny pass.
        crate::analyze::env_validate(kind);
        let mut layers: Vec<Box<dyn AGnnLayer<T>>> = Vec::with_capacity(dims.len() - 1);
        for (l, w) in dims.windows(2).enumerate() {
            let act = if l + 2 == dims.len() {
                Activation::Identity
            } else {
                activation
            };
            let s = seed.wrapping_add(l as u64 * 0x9E37);
            layers.push(match kind {
                ModelKind::Va => Box::new(VaLayer::new(w[0], w[1], act, s)),
                ModelKind::Agnn => Box::new(AgnnLayer::new(w[0], w[1], act, s)),
                ModelKind::Gat => Box::new(GatLayer::new(w[0], w[1], act, s)),
                ModelKind::Gcn => Box::new(GcnLayer::new(w[0], w[1], act, s)),
            });
        }
        Self::new(layers)
    }

    /// Prepares the adjacency matrix the way each model expects: GCN gets
    /// the symmetric normalization, GAT gets self-loops (so softmax
    /// neighborhoods are the `N̂(v)` of the local formulation), VA/AGNN
    /// use the raw adjacency.
    pub fn prepare_adjacency(kind: ModelKind, a: &Csr<T>) -> Csr<T> {
        match kind {
            ModelKind::Gcn => GcnLayer::normalize(a),
            ModelKind::Gat => norm::add_self_loops(a),
            ModelKind::Va | ModelKind::Agnn => a.clone(),
        }
    }

    /// The layers.
    pub fn layers(&self) -> &[Box<dyn AGnnLayer<T>>] {
        &self.layers
    }

    /// The layers, mutable (checkpoint restore).
    pub fn layers_mut(&mut self) -> &mut [Box<dyn AGnnLayer<T>>] {
        &mut self.layers
    }

    /// Number of layers `L`.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Full-batch inference: `L` forward layers, no intermediate storage
    /// (the artifact's `--inference` mode).
    ///
    /// When the plan's reorder stage applies (see `ExecPlan::reorder_graph`),
    /// the layers run on the permuted graph and features, and the output is
    /// inverse-permuted — so the result rows are in the caller's vertex
    /// order, identical to the unordered run up to FP reassociation.
    pub fn inference(&self, a: &Csr<T>, x: &Dense<T>) -> Dense<T> {
        self.with_resolution(a, |plan, r| match r {
            Some(r) => {
                let xp = Self::ingest(plan, Cow::Owned(r.permute_rows(x)));
                // restore_rows gathers logical rows, so the caller always
                // receives a tight matrix regardless of the plan layout.
                r.restore_rows(&self.run_layers(&r.a, xp, &[a.rows()]))
            }
            None => self
                .run_layers(a, Self::ingest(plan, Cow::Borrowed(x)), &[a.rows()])
                .into_tight(),
        })
    }

    /// Inference for the first `levels[0]` nodes of a graph whose nodes
    /// are numbered by distance from them — an ego subgraph in discovery
    /// order, `levels[h]` nodes within `h` hops (`EgoSubgraph::levels`).
    /// Layer `l` of `L` can only reach an output row from `L - l` hops
    /// away, so it runs on the `levels[L-1-l] × levels[L-l]` leading block
    /// of `a` (the [`AGnnLayer::forward`] block contract) instead of on
    /// all of it; a `levels` shorter than `L + 1` repeats its last entry.
    /// `a` needs the rows of its largest block only: `levels[L-1]` of
    /// them, or all `levels.last()` when `levels` is shorter than `L + 1`.
    ///
    /// Returns the `levels[0]` output rows, tight, bit-identical to the
    /// same rows of [`GnnModel::inference`] on the square graph with
    /// `ReorderStrategy::Off`. A prefix is only a prefix in the caller's
    /// order, so this path never reorders, and nothing is cached per
    /// graph.
    ///
    /// # Panics
    /// Panics if `levels` is empty, decreasing, longer than `depth() + 1`
    /// or does not end at `x.rows()`, or if `a` lacks a block's rows.
    pub fn inference_prefix(&self, a: &Csr<T>, x: Dense<T>, levels: &[usize]) -> Dense<T> {
        assert!(
            !levels.is_empty() && levels.len() <= self.depth() + 1,
            "inference_prefix: {} levels for a {}-layer model",
            levels.len(),
            self.depth()
        );
        assert!(
            levels.windows(2).all(|w| w[0] <= w[1]),
            "inference_prefix: levels {levels:?} decrease"
        );
        assert_eq!(
            levels.last(),
            Some(&x.rows()),
            "inference_prefix: the last level must count every feature row"
        );
        let plan = self.resolved_plan(a);
        self.run_layers(a, Self::ingest(plan, Cow::Owned(x)), levels)
            .into_tight()
    }

    /// The layer loop of [`GnnModel::inference`] (every level is `n`) and
    /// [`GnnModel::inference_prefix`], in the given vertex order: layer
    /// `l` of `L` maps the first `level(L-l)` nodes' features to the first
    /// `level(L-1-l)` nodes' outputs, `level(i)` being `levels[i]` clamped
    /// to the last entry. `σ` is applied to each layer's `Z` in place, so
    /// a layer costs one output matrix, not two.
    fn run_layers(&self, a: &Csr<T>, x: Dense<T>, levels: &[usize]) -> Dense<T> {
        let depth = self.layers.len();
        let level = |i: usize| levels[i.min(levels.len() - 1)];
        let mut h = x;
        for (l, layer) in self.layers.iter().enumerate() {
            let (dst, src) = (level(depth - 1 - l), level(depth - l));
            h = if (dst, src) == (a.rows(), a.cols()) {
                layer.forward(a, &h, None)
            } else {
                layer.forward(&a.row_prefix(dst, src), &h, None)
            };
            layer.activation().apply_assign(&mut h);
        }
        h
    }

    /// Training-mode forward pass: returns the output `H^L` and the
    /// per-layer contexts the backward pass consumes.
    pub fn forward_cached(&self, a: &Csr<T>, x: &Dense<T>) -> (Dense<T>, Vec<TrainContext<T>>) {
        let (ctxs, h) = self.forward_train(a, x.clone(), &mut StepBuffers::new());
        // Under `σ = Identity` the output is a copy of the last `Z^L`.
        let out = h.unwrap_or_else(|| ctxs[ctxs.len() - 1].z.clone());
        (out, ctxs)
    }

    /// Backward pass from `∇_{H^L} L`. Returns per-layer gradients
    /// (index-aligned with the layers) and, as the second element, the
    /// gradient w.r.t. the input features `X`.
    pub fn backward(
        &self,
        a: &Csr<T>,
        ctxs: &[TrainContext<T>],
        grad_output: &Dense<T>,
    ) -> (Vec<Gradients<T>>, Dense<T>) {
        let parts = ctxs
            .iter()
            .map(|c| {
                (
                    Cow::Borrowed(&c.h_in),
                    Cow::Borrowed(&c.z),
                    Cow::Borrowed(&c.cache),
                )
            })
            .collect();
        let (grads, dx) =
            self.backward_owned(a, parts, grad_output.clone(), true, &mut StepBuffers::new());
        (grads, dx.expect("the input gradient was asked for"))
    }

    /// The layer loop of [`GnnModel::forward_cached`] and
    /// [`GnnModel::train_step`] from the ingested input `x`, with every
    /// `n × k` matrix taken from `bufs` ([`AGnnLayer::forward_train`]).
    /// The output `H^L` is returned only when it is not the last
    /// context's `Z^L`: under `σ = Identity` it would be a copy.
    fn forward_train(
        &self,
        a: &Csr<T>,
        x: Dense<T>,
        bufs: &mut StepBuffers<T>,
    ) -> (Vec<TrainContext<T>>, Option<Dense<T>>) {
        let depth = self.layers.len();
        let mut h = Some(x);
        let mut ctxs = Vec::with_capacity(depth);
        for (l, layer) in self.layers.iter().enumerate() {
            let h_in = h
                .take()
                .expect("every layer but the last leaves its output");
            let mut cache = LayerCache::new();
            let z = layer.forward_train(a, &h_in, &mut cache, bufs);
            let act = layer.activation();
            if l + 1 < depth || act != Activation::Identity {
                let mut h_next = bufs.take_like(&z, z.rows(), z.cols());
                act.apply_into(&z, &mut h_next);
                h = Some(h_next);
            }
            ctxs.push(TrainContext { h_in, z, cache });
        }
        (ctxs, h)
    }

    /// The backward layer loop of [`GnnModel::backward`] and
    /// [`GnnModel::train_step`], from `G = ∂L/∂H^L` in a buffer `g` it
    /// owns: `σ'` is chained into `g` in place, and every replaced
    /// gradient goes back to `bufs`. The contexts are borrowed (the public
    /// `backward`) or owned (`train_step`); an owned layer's `Z^l` goes
    /// back as soon as `σ'` is chained, its `H^l` and cached `H'` once the
    /// layer is done — so over a warm step's buffers the loop allocates
    /// nothing it has not returned. Without `want_dx` layer 0 computes its
    /// parameter gradients only and `∂L/∂X` is never formed; the parameter
    /// gradients are the same bits either way.
    fn backward_owned(
        &self,
        a: &Csr<T>,
        ctxs: Vec<ContextParts<'_, T>>,
        mut g: Dense<T>,
        want_dx: bool,
        bufs: &mut StepBuffers<T>,
    ) -> (Vec<Gradients<T>>, Option<Dense<T>>) {
        assert_eq!(ctxs.len(), self.layers.len(), "context count mismatch");
        let mut grads = Vec::with_capacity(self.layers.len());
        for (l, (layer, (h_in, z, cache))) in self.layers.iter().zip(ctxs).enumerate().rev() {
            // G^L = ∇_{H^L} L ⊙ σ'(Z^L) (Eq. 4), then
            // G^{l-1} = σ'(Z^{l-1}) ⊙ Γ^l (Eq. 6).
            layer.activation().chain_assign(&mut g, &z);
            if let Cow::Owned(z) = z {
                bufs.give(z);
            }
            let (layer_grads, dh) =
                layer.backward_train(a, &h_in, &cache, &g, l > 0 || want_dx, bufs);
            if let Cow::Owned(h_in) = h_in {
                bufs.give(h_in);
            }
            if let Cow::Owned(LayerCache {
                h_proj: Some(hp), ..
            }) = cache
            {
                bufs.give(hp);
            }
            grads.push(layer_grads);
            if let Some(dh) = dh {
                bufs.give(std::mem::replace(&mut g, dh));
            }
        }
        grads.reverse();
        if want_dx {
            return (grads, Some(g));
        }
        bufs.give(g);
        (grads, None)
    }

    /// One full-batch training step (forward + backward + update).
    /// Returns the loss value before the update.
    ///
    /// Under a reordering plan the forward/backward passes run in the
    /// permuted vertex order, but the loss (whose targets are indexed by
    /// the caller's vertex ids) always sees outputs in the original
    /// order: the forward output is inverse-permuted before the loss, and
    /// the loss gradient is permuted back before the backward pass.
    /// Weight gradients are sums over vertices, so they are unaffected by
    /// the ordering up to FP reassociation.
    ///
    /// The step keeps its buffers: every `n × k` matrix it forms — the
    /// ingested input, `H'`, `Z^l` and `H^{l+1}`, the loss's output and
    /// gradient, `∂H'` and `∂L/∂H` — and the layers' nnz-long `∂C` are
    /// taken from the model's [`StepBuffers`] and given back where the
    /// step is done with them (the outputs once the loss gradient exists,
    /// `Z^l` once `σ'` is chained). A warm step on a graph of the last
    /// step's shape allocates none of them for the layers that write
    /// into step buffers (GAT under the fused plan); the model holds no
    /// more of them between steps than the step held at its peak.
    ///
    /// The buffers stay with the model after the last step, until
    /// [`GnnModel::with_plan`] or the end of [`crate::train::fit`]: a
    /// caller that calls `train_step` and then only infers keeps the
    /// step's working set through inference, unless it re-plans
    /// (`model.with_plan(model.plan())`).
    pub fn train_step(
        &mut self,
        a: &Csr<T>,
        x: &Dense<T>,
        loss: &dyn Loss<T>,
        opt: &mut dyn Optimizer<T>,
    ) -> T {
        let mut bufs = std::mem::take(&mut self.step_buffers);
        let (value, grads) = self.with_resolution(a, |plan, r| {
            let a = r.map_or(a, |r| &r.a);
            let n = a.rows();
            // `ingest`'s layout: the plan's, or padding the caller's
            // features already carry (a permuted copy is tight).
            let padded = plan.layout() == Layout::Padded || (r.is_none() && x.is_padded());
            bufs.begin(n, a.nnz(), x.cols(), padded);
            let mut h0 = bufs.take(x.rows(), x.cols(), padded);
            match r {
                Some(r) => r.permute_rows_into(x, &mut h0),
                None => h0.copy_from(x),
            }
            let (ctxs, h_last) = self.forward_train(a, h0, &mut bufs);
            let out_p = h_last.as_ref().unwrap_or_else(|| &ctxs[ctxs.len() - 1].z);
            let k = out_p.cols();
            // The loss reads tight caller-order rows; its gradient is
            // written in the plan's layout (and order) for backward.
            let grad_padded = plan.layout() == Layout::Padded;
            let (value, g) = match r {
                Some(r) => {
                    let mut out = bufs.take(n, k, false);
                    r.restore_rows_into(out_p, &mut out);
                    if let Some(h) = h_last {
                        bufs.give(h);
                    }
                    let value = loss.value(&out);
                    let mut grad = bufs.take(n, k, false);
                    loss.gradient_into(&out, &mut grad);
                    bufs.give(out);
                    let mut g = bufs.take(n, k, grad_padded);
                    r.permute_rows_into(&grad, &mut g);
                    bufs.give(grad);
                    (value, g)
                }
                None => {
                    let tight = out_p.is_padded().then(|| {
                        let mut out = bufs.take(n, k, false);
                        out.copy_from(out_p);
                        out
                    });
                    let out = tight.as_ref().unwrap_or(out_p);
                    let value = loss.value(out);
                    let mut g = bufs.take(n, k, grad_padded);
                    loss.gradient_into(out, &mut g);
                    for m in tight.into_iter().chain(h_last) {
                        bufs.give(m);
                    }
                    (value, g)
                }
            };
            let parts = ctxs
                .into_iter()
                .map(|c| (Cow::Owned(c.h_in), Cow::Owned(c.z), Cow::Owned(c.cache)))
                .collect();
            (value, self.backward_owned(a, parts, g, false, &mut bufs).0)
        });
        self.step_buffers = bufs;
        self.apply_gradients(&grads, opt);
        value
    }

    /// Drops [`GnnModel::train_step`]'s buffers: a training run is over.
    pub(crate) fn release_step_buffers(&mut self) {
        self.step_buffers = StepBuffers::new();
    }

    /// Applies precomputed gradients through an optimizer (exposed so the
    /// distributed engine can all-reduce gradients first).
    pub fn apply_gradients(&mut self, grads: &[Gradients<T>], opt: &mut dyn Optimizer<T>) {
        assert_eq!(grads.len(), self.layers.len(), "gradient count mismatch");
        opt.begin();
        for (l, (layer, g)) in self.layers.iter_mut().zip(grads).enumerate() {
            let mut params = layer.param_slices_mut();
            opt.step(l, &mut params, g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{Mse, SoftmaxCrossEntropy};
    use crate::optimizer::{Adam, Sgd};
    use atgnn_sparse::Coo;
    use atgnn_tensor::init;

    fn graph(n: usize) -> Csr<f64> {
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| [(i, (i + 1) % n as u32), (i, (i + 2) % n as u32)])
            .collect();
        let mut coo = Coo::from_edges(n, n, edges);
        coo.symmetrize_binary();
        Csr::from_coo(&coo)
    }

    #[test]
    fn inference_matches_cached_forward() {
        for kind in [
            ModelKind::Va,
            ModelKind::Agnn,
            ModelKind::Gat,
            ModelKind::Gcn,
        ] {
            let a = GnnModel::<f64>::prepare_adjacency(kind, &graph(8));
            let x = init::features(8, 4, 1);
            let model = GnnModel::<f64>::uniform(kind, &[4, 5, 3], Activation::Relu, 2);
            let (out, ctxs) = model.forward_cached(&a, &x);
            assert_eq!(ctxs.len(), 2);
            assert!(
                model.inference(&a, &x).max_abs_diff(&out) < 1e-14,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn whole_model_gradient_matches_finite_difference() {
        // End-to-end: 2-layer GAT + MSE, checked on the input gradient.
        let kind = ModelKind::Gat;
        let a = GnnModel::<f64>::prepare_adjacency(kind, &graph(6));
        let x = init::features(6, 3, 5);
        let model = GnnModel::<f64>::uniform(kind, &[3, 4, 2], Activation::Tanh, 7);
        let target = init::features(6, 2, 9);
        let loss = Mse::new(target);
        let (out, ctxs) = model.forward_cached(&a, &x);
        let (_, dx) = model.backward(&a, &ctxs, &loss.gradient(&out));
        let eps = 1e-6;
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                let mut p = x.clone();
                p[(i, j)] += eps;
                let mut m = x.clone();
                m[(i, j)] -= eps;
                let fd = (loss.value(&model.inference(&a, &p))
                    - loss.value(&model.inference(&a, &m)))
                    / (2.0 * eps);
                assert!(
                    (fd - dx[(i, j)]).abs() < 1e-6,
                    "dX[{i},{j}] fd={fd} analytic={}",
                    dx[(i, j)]
                );
            }
        }
    }

    #[test]
    fn training_reduces_mse_loss_for_every_model() {
        for kind in [
            ModelKind::Va,
            ModelKind::Agnn,
            ModelKind::Gat,
            ModelKind::Gcn,
        ] {
            let a = GnnModel::<f64>::prepare_adjacency(kind, &graph(10));
            let x = init::features(10, 4, 11);
            let target = init::features(10, 2, 13);
            let loss = Mse::new(target);
            let mut model = GnnModel::<f64>::uniform(kind, &[4, 4, 2], Activation::Tanh, 17);
            // Small step size: the property under test is "gradients point
            // downhill", which must hold for any seed; large steps can
            // diverge for unlucky initializations.
            let mut opt = Sgd::new(0.01);
            let first = model.train_step(&a, &x, &loss, &mut opt);
            let mut last = first;
            for _ in 0..30 {
                last = model.train_step(&a, &x, &loss, &mut opt);
            }
            assert!(
                last < first,
                "{kind:?}: loss did not decrease ({first} -> {last})"
            );
        }
    }

    #[test]
    fn node_classification_converges_with_adam() {
        // Two clusters connected internally; labels = cluster id. A GAT
        // should fit this easily.
        let mut coo = Coo::<f64>::new(8, 8);
        for i in 0..4u32 {
            for j in 0..4u32 {
                if i != j {
                    coo.push(i, j, 1.0);
                    coo.push(i + 4, j + 4, 1.0);
                }
            }
        }
        coo.push(0, 4, 1.0);
        coo.push(4, 0, 1.0);
        coo.dedup_binary();
        let a = GnnModel::<f64>::prepare_adjacency(ModelKind::Gat, &Csr::from_coo(&coo));
        let x = init::features(8, 4, 19);
        let labels: Vec<usize> = (0..8).map(|v| usize::from(v >= 4)).collect();
        let loss = SoftmaxCrossEntropy::dense(labels);
        let mut model = GnnModel::<f64>::uniform(ModelKind::Gat, &[4, 8, 2], Activation::Elu, 23);
        let mut opt = Adam::new(0.02);
        for _ in 0..150 {
            model.train_step(&a, &x, &loss, &mut opt);
        }
        let out = model.inference(&a, &x);
        assert!(
            loss.accuracy(&out) >= 0.9,
            "accuracy {}",
            loss.accuracy(&out)
        );
    }

    #[test]
    fn reordered_inference_matches_unordered() {
        use crate::plan::{ExecPlan, ReorderStrategy};
        for kind in [
            ModelKind::Va,
            ModelKind::Agnn,
            ModelKind::Gat,
            ModelKind::Gcn,
        ] {
            let a = GnnModel::<f64>::prepare_adjacency(kind, &graph(32));
            let x = init::features(32, 4, 31);
            let mk = |strategy: ReorderStrategy| {
                GnnModel::<f64>::uniform(kind, &[4, 5, 3], Activation::Tanh, 2)
                    .with_plan(ExecPlan::fused().with_reorder(strategy))
            };
            let want = mk(ReorderStrategy::Off).inference(&a, &x);
            for strategy in [ReorderStrategy::Degree, ReorderStrategy::Rcm] {
                let got = mk(strategy).inference(&a, &x);
                assert!(
                    got.max_abs_diff(&want) < 1e-9,
                    "{kind:?}/{}: reordered inference diverged",
                    strategy.name()
                );
            }
        }
    }

    #[test]
    fn reordered_training_matches_unordered_losses() {
        use crate::plan::{ExecPlan, ReorderStrategy};
        let a = GnnModel::<f64>::prepare_adjacency(ModelKind::Gat, &graph(24));
        let x = init::features(24, 4, 37);
        let target = init::features(24, 2, 41);
        let run = |strategy: ReorderStrategy| {
            let loss = Mse::new(target.clone());
            let mut model =
                GnnModel::<f64>::uniform(ModelKind::Gat, &[4, 4, 2], Activation::Tanh, 43)
                    .with_plan(ExecPlan::fused().with_reorder(strategy));
            let mut opt = Sgd::new(0.01);
            (0..5)
                .map(|_| model.train_step(&a, &x, &loss, &mut opt))
                .collect::<Vec<_>>()
        };
        let base = run(ReorderStrategy::Off);
        for strategy in [ReorderStrategy::Degree, ReorderStrategy::Rcm] {
            let got = run(strategy);
            for (step, (b, g)) in base.iter().zip(&got).enumerate() {
                assert!(
                    (b - g).abs() < 1e-9 * (1.0 + b.abs()),
                    "{} step {step}: loss {b} vs {g}",
                    strategy.name()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimensions must chain")]
    fn mismatched_layer_dims_rejected() {
        let l1: Box<dyn AGnnLayer<f64>> = Box::new(VaLayer::new(3, 4, Activation::Relu, 1));
        let l2: Box<dyn AGnnLayer<f64>> = Box::new(VaLayer::new(5, 2, Activation::Relu, 2));
        let _ = GnnModel::new(vec![l1, l2]);
    }

    #[test]
    fn deep_models_run() {
        // The paper sweeps L ∈ {2..10}; exercise the deep end.
        let a = graph(12);
        let x = init::features(12, 4, 25);
        let dims = [4usize; 11];
        let model = GnnModel::<f64>::uniform(ModelKind::Agnn, &dims, Activation::Relu, 27);
        assert_eq!(model.depth(), 10);
        let out = model.inference(&a, &x);
        assert_eq!(out.shape(), (12, 4));
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }
}
