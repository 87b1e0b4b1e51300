//! The distributed GNN model: replicated parameters, block-distributed
//! features, full training loop.
//!
//! [`DistGnnModel`] is constructed identically on every rank (replicated
//! parameters, deterministic seeds — "the weight matrices W and vectors a
//! are replicated across all processes"). A training step runs the
//! distributed forward and backward passes, all-reduces the parameter
//! gradients once (`O(k²)` volume), and applies the same SGD update on
//! every rank, keeping the replicas bit-identical.

use crate::context::DistContext;
use crate::layers::{
    backward_agnn, backward_gat, backward_gcn, backward_gin, backward_va, forward_agnn,
    forward_gat, forward_gcn, forward_gin, forward_va, DistCache, DistGrads,
};
use atgnn::checkpoint::{self, CheckpointError};
use atgnn::layers::{AgnnLayer, GatLayer, GcnLayer, VaLayer};
use atgnn::{ExecPlan, ModelKind};
use atgnn_sparse::attention::AttentionExec;
use atgnn_tensor::{ops, Activation, Dense, Scalar};

/// One distributed layer: the replicated parameters plus the model tag.
pub enum DistLayer<T: Scalar> {
    /// Vanilla attention.
    Va {
        /// `W`.
        w: Dense<T>,
    },
    /// AGNN.
    Agnn {
        /// `W`.
        w: Dense<T>,
        /// Temperature `β`.
        beta: T,
    },
    /// GAT.
    Gat {
        /// `W`.
        w: Dense<T>,
        /// `a₁`.
        a_src: Vec<T>,
        /// `a₂`.
        a_dst: Vec<T>,
        /// LeakyReLU slope.
        slope: f64,
    },
    /// GCN (expects a pre-normalized adjacency).
    Gcn {
        /// `W`.
        w: Dense<T>,
    },
    /// GIN, with a two-stage MLP update and learnable `ε`.
    Gin {
        /// First MLP stage.
        w1: Dense<T>,
        /// Second MLP stage.
        w2: Dense<T>,
        /// Self-loop weight `ε`.
        eps: T,
    },
    /// Multi-head GAT: each head is a full single-head GAT; outputs are
    /// concatenated along the feature axis.
    GatMultiHead {
        /// Per-head parameters `(W, a₁, a₂)`.
        heads: Vec<(Dense<T>, Vec<T>, Vec<T>)>,
        /// LeakyReLU slope.
        slope: f64,
    },
}

impl<T: Scalar> DistLayer<T> {
    /// The canned tensor DAG this layer executes, when one exists.
    ///
    /// Multi-head GAT runs the single-head GAT DAG once per head, so it
    /// maps to [`ModelKind::Gat`]; GIN has no canned attentional DAG
    /// (it is a plain message-passing MLP) and returns `None`.
    pub fn kind(&self) -> Option<ModelKind> {
        match self {
            DistLayer::Va { .. } => Some(ModelKind::Va),
            DistLayer::Agnn { .. } => Some(ModelKind::Agnn),
            DistLayer::Gat { .. } | DistLayer::GatMultiHead { .. } => Some(ModelKind::Gat),
            DistLayer::Gcn { .. } => Some(ModelKind::Gcn),
            DistLayer::Gin { .. } => None,
        }
    }

    /// `(k_in, k_out)` of this layer's projection, when it has one.
    /// Only the debug-build comm-volume check needs it.
    #[cfg(debug_assertions)]
    fn k_dims(&self) -> Option<(usize, usize)> {
        match self {
            DistLayer::Va { w }
            | DistLayer::Agnn { w, .. }
            | DistLayer::Gat { w, .. }
            | DistLayer::Gcn { w } => Some((w.rows(), w.cols())),
            DistLayer::Gin { w1, w2, .. } => Some((w1.rows(), w2.cols())),
            DistLayer::GatMultiHead { heads, .. } => heads
                .first()
                .map(|(w, _, _)| (w.rows(), heads.iter().map(|(w, _, _)| w.cols()).sum())),
        }
    }

    fn forward(
        &self,
        ctx: &DistContext<'_, T>,
        exec: AttentionExec,
        h_j: &Dense<T>,
    ) -> DistCache<T> {
        // Rule 5 of the plan-time analyzer: the grid must keep this layer
        // within the paper's global communication bound. Only an error
        // stops the run; exceeding the bound is a warning (a graph with
        // very few vertices per rank does), which a release build never
        // sees either.
        #[cfg(debug_assertions)]
        if let Some((k_in, k_out)) = self.k_dims() {
            if let Some(d) = ctx.check_comm_volume(k_in, k_out) {
                assert!(d.severity != atgnn::Severity::Error, "{d}");
            }
        }
        match self {
            DistLayer::Va { w } => forward_va(ctx, exec, w, h_j),
            DistLayer::Agnn { w, beta } => forward_agnn(ctx, exec, w, *beta, h_j),
            DistLayer::Gat {
                w,
                a_src,
                a_dst,
                slope,
            } => forward_gat(ctx, exec, w, a_src, a_dst, *slope, h_j),
            DistLayer::Gcn { w } => forward_gcn(ctx, w, h_j),
            DistLayer::Gin { w1, w2, eps } => forward_gin(ctx, w1, w2, *eps, h_j),
            DistLayer::GatMultiHead { heads, slope } => {
                // Run every head and concatenate the output blocks; the
                // per-head caches ride in `sub`.
                let mut cache = DistCache::new(h_j.clone());
                let rows = ctx.grid.block_len(ctx.n, ctx.j);
                let k_out: usize = heads.iter().map(|(w, _, _)| w.cols()).sum();
                let mut z = Dense::zeros(rows, k_out);
                let mut col = 0;
                for (w, a_src, a_dst) in heads {
                    let head_cache = forward_gat(ctx, exec, w, a_src, a_dst, *slope, h_j);
                    for r in 0..rows {
                        z.row_mut(r)[col..col + w.cols()].copy_from_slice(head_cache.z.row(r));
                    }
                    col += w.cols();
                    cache.sub.push(head_cache);
                }
                cache.z = z;
                cache
            }
        }
    }

    fn backward(
        &self,
        ctx: &DistContext<'_, T>,
        cache: &DistCache<T>,
        g_j: &Dense<T>,
    ) -> (Dense<T>, DistGrads<T>) {
        match self {
            DistLayer::Va { w } => backward_va(ctx, w, cache, g_j),
            DistLayer::Agnn { w, beta } => backward_agnn(ctx, w, *beta, cache, g_j),
            DistLayer::Gat {
                w,
                a_src,
                a_dst,
                slope,
            } => backward_gat(ctx, w, a_src, a_dst, *slope, cache, g_j),
            DistLayer::Gcn { w } => backward_gcn(ctx, w, cache, g_j),
            DistLayer::Gin { w1, w2, eps } => backward_gin(ctx, w1, w2, *eps, cache, g_j),
            DistLayer::GatMultiHead { heads, slope } => {
                let k_in = heads[0].0.rows();
                let mut dh = Dense::zeros(g_j.rows(), k_in);
                let mut grads: DistGrads<T> = Vec::new();
                let mut col = 0;
                for (idx, (w, a_src, a_dst)) in heads.iter().enumerate() {
                    let kh = w.cols();
                    let g_h = Dense::from_fn(g_j.rows(), kh, |r, c| g_j[(r, col + c)]);
                    let (dh_h, g) =
                        backward_gat(ctx, w, a_src, a_dst, *slope, &cache.sub[idx], &g_h);
                    atgnn_tensor::ops::add_assign(&mut dh, &dh_h);
                    grads.extend(g);
                    col += kh;
                }
                (dh, grads)
            }
        }
    }

    fn param_slices_mut(&mut self) -> Vec<&mut [T]> {
        match self {
            DistLayer::Va { w } | DistLayer::Gcn { w } => vec![w.as_mut_slice()],
            DistLayer::Agnn { w, .. } => vec![w.as_mut_slice()],
            DistLayer::Gat {
                w, a_src, a_dst, ..
            } => {
                vec![w.as_mut_slice(), a_src.as_mut_slice(), a_dst.as_mut_slice()]
            }
            DistLayer::Gin { w1, w2, .. } => vec![w1.as_mut_slice(), w2.as_mut_slice()],
            DistLayer::GatMultiHead { heads, .. } => heads
                .iter_mut()
                .flat_map(|(w, a1, a2)| {
                    vec![w.as_mut_slice(), a1.as_mut_slice(), a2.as_mut_slice()]
                })
                .collect(),
        }
    }

    /// The complete trainable state of this layer as checkpoint slots —
    /// unlike [`DistLayer::param_slices_mut`], scalar parameters (`β`,
    /// `ε`) are included, so a restore reproduces training exactly.
    fn state_vecs(&self) -> Vec<Vec<f64>> {
        let flat = |s: &[T]| s.iter().map(|v| v.to_f64()).collect::<Vec<f64>>();
        match self {
            DistLayer::Va { w } | DistLayer::Gcn { w } => vec![flat(w.as_slice())],
            DistLayer::Agnn { w, beta } => vec![flat(w.as_slice()), vec![beta.to_f64()]],
            DistLayer::Gat {
                w, a_src, a_dst, ..
            } => vec![flat(w.as_slice()), flat(a_src), flat(a_dst)],
            DistLayer::Gin { w1, w2, eps } => {
                vec![flat(w1.as_slice()), flat(w2.as_slice()), vec![eps.to_f64()]]
            }
            DistLayer::GatMultiHead { heads, .. } => heads
                .iter()
                .flat_map(|(w, a1, a2)| vec![flat(w.as_slice()), flat(a1), flat(a2)])
                .collect(),
        }
    }

    /// Mutable views over the same slots [`DistLayer::state_vecs`]
    /// serializes, in the same order.
    fn state_slices_mut(&mut self) -> Vec<&mut [T]> {
        match self {
            DistLayer::Va { w } | DistLayer::Gcn { w } => vec![w.as_mut_slice()],
            DistLayer::Agnn { w, beta } => {
                vec![w.as_mut_slice(), std::slice::from_mut(beta)]
            }
            DistLayer::Gat {
                w, a_src, a_dst, ..
            } => vec![w.as_mut_slice(), a_src.as_mut_slice(), a_dst.as_mut_slice()],
            DistLayer::Gin { w1, w2, eps } => vec![
                w1.as_mut_slice(),
                w2.as_mut_slice(),
                std::slice::from_mut(eps),
            ],
            DistLayer::GatMultiHead { heads, .. } => heads
                .iter_mut()
                .flat_map(|(w, a1, a2)| {
                    vec![w.as_mut_slice(), a1.as_mut_slice(), a2.as_mut_slice()]
                })
                .collect(),
        }
    }
}

/// A distributed GNN: a stack of [`DistLayer`]s plus their activations.
pub struct DistGnnModel<T: Scalar> {
    layers: Vec<(DistLayer<T>, Activation)>,
    /// How the attentional sandwiches execute: the one-pass fused sweep
    /// applies whenever a layer's softmax reduction is rank-local (1×1
    /// grids); staged block pipelines otherwise.
    exec: AttentionExec,
}

impl<T: Scalar> DistGnnModel<T> {
    /// Builds the replicated model with parameters *identical* to
    /// [`atgnn::GnnModel::uniform`] called with the same arguments —
    /// the distributed-equals-sequential tests rely on this.
    pub fn uniform(kind: ModelKind, dims: &[usize], activation: Activation, seed: u64) -> Self {
        // The distributed plan runs the same canned execution DAGs;
        // `ATGNN_ANALYZE=deny|report` inspects them before allocating
        // any rank state (debug builds always re-verify via the layer
        // comm-volume check below).
        atgnn::analyze::env_validate(kind);
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for (l, w) in dims.windows(2).enumerate() {
            let act = if l + 2 == dims.len() {
                Activation::Identity
            } else {
                activation
            };
            let s = seed.wrapping_add(l as u64 * 0x9E37);
            let layer = match kind {
                ModelKind::Va => DistLayer::Va {
                    w: VaLayer::<T>::new(w[0], w[1], act, s).weights().clone(),
                },
                ModelKind::Agnn => {
                    let r = AgnnLayer::<T>::new(w[0], w[1], act, s);
                    DistLayer::Agnn {
                        w: r.weights().clone(),
                        beta: r.beta(),
                    }
                }
                ModelKind::Gat => {
                    let r = GatLayer::<T>::new(w[0], w[1], act, s);
                    let (a_src, a_dst) = r.attention_vectors();
                    DistLayer::Gat {
                        w: r.weights().clone(),
                        a_src: a_src.to_vec(),
                        a_dst: a_dst.to_vec(),
                        slope: atgnn::layers::GAT_SLOPE,
                    }
                }
                ModelKind::Gcn => DistLayer::Gcn {
                    w: GcnLayer::<T>::new(w[0], w[1], act, s).weights().clone(),
                },
            };
            layers.push((layer, act));
        }
        Self {
            layers,
            exec: ExecPlan::from_env().exec(),
        }
    }

    /// Overrides the attention execution path (fused vs staged).
    pub fn with_exec(mut self, exec: AttentionExec) -> Self {
        self.exec = exec;
        self
    }

    /// Runs the plan-time analyzer over every distinct layer DAG this
    /// model will execute, under its configured [`AttentionExec`].
    ///
    /// Returns every diagnostic the abstract interpreter produces
    /// (determinism, FP-stability, aliasing, precision, plus the plan
    /// structure checks); an empty vector means the run is proven safe.
    /// Layers without a canned DAG (GIN) are skipped — their kernels are
    /// covered by the kernel-level tests, not the DAG analyzer.
    pub fn verify_plan(&self) -> Vec<atgnn::Diagnostic> {
        let plan = match self.exec {
            AttentionExec::FusedOnePass => ExecPlan::fused(),
            AttentionExec::Staged => ExecPlan::staged(),
        };
        let mut kinds: Vec<ModelKind> = Vec::new();
        for (layer, _) in &self.layers {
            if let Some(k) = layer.kind() {
                if !kinds.contains(&k) {
                    kinds.push(k);
                }
            }
        }
        let mut diags = Vec::new();
        for k in kinds {
            diags.extend(atgnn::analyze::validate_plan(&plan, k));
        }
        diags
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// In-crate access to the layer list (checkpoint/recovery tests).
    #[cfg(test)]
    pub(crate) fn layers_mut(&mut self) -> &mut Vec<(DistLayer<T>, Activation)> {
        &mut self.layers
    }

    /// Distributed inference: the caller passes its column-side input
    /// block `X_j` and receives the output block.
    pub fn inference(&self, ctx: &DistContext<'_, T>, x_j: &Dense<T>) -> Dense<T> {
        let mut h = x_j.clone();
        for (layer, act) in &self.layers {
            ctx.comm.set_phase("forward");
            let cache = layer.forward(ctx, self.exec, &h);
            h = act.apply(&cache.z);
        }
        h
    }

    /// Training-mode forward pass.
    pub fn forward_cached(
        &self,
        ctx: &DistContext<'_, T>,
        x_j: &Dense<T>,
    ) -> (Dense<T>, Vec<DistCache<T>>) {
        let mut h = x_j.clone();
        let mut caches = Vec::with_capacity(self.layers.len());
        for (layer, act) in &self.layers {
            ctx.comm.set_phase("forward");
            let cache = layer.forward(ctx, self.exec, &h);
            h = act.apply(&cache.z);
            caches.push(cache);
        }
        (h, caches)
    }

    /// Distributed backward pass from the column-side output gradient,
    /// which it consumes (`σ'` is chained into the buffer in place).
    /// Returns the *globally all-reduced* parameter gradients per layer
    /// (identical on every rank).
    pub fn backward(
        &self,
        ctx: &DistContext<'_, T>,
        caches: &[DistCache<T>],
        mut g: Dense<T>,
    ) -> Vec<DistGrads<T>> {
        ctx.comm.set_phase("backward");
        let mut grads = Vec::with_capacity(self.layers.len());
        for ((layer, act), cache) in self.layers.iter().zip(caches).rev() {
            act.chain_assign(&mut g, &cache.z);
            let (dh, local_grads) = layer.backward(ctx, cache, &g);
            ctx.comm.set_phase("grad-allreduce");
            let reduced: DistGrads<T> = local_grads
                .into_iter()
                .map(|slot| ctx.allreduce_params(slot))
                .collect();
            ctx.comm.set_phase("backward");
            grads.push(reduced);
            g = dh;
        }
        grads.reverse();
        grads
    }

    /// One full-batch training step against an MSE target block, with the
    /// paper's `W := W − α Y` update applied identically on every rank.
    /// Returns the *global* MSE loss.
    pub fn train_step_mse(
        &mut self,
        ctx: &DistContext<'_, T>,
        x_j: &Dense<T>,
        target_j: &Dense<T>,
        lr: T,
        k_out: usize,
    ) -> T {
        let (out, caches) = self.forward_cached(ctx, x_j);
        // Global MSE: each rank holds a replicated column block; sum the
        // squared error over one representative per block (the diagonal),
        // then all-reduce.
        let local = if ctx.i == ctx.j {
            ops::sum_sq_diff(&out, target_j)
        } else {
            T::zero()
        };
        let denom = T::from_f64((ctx.n * k_out) as f64);
        let total = ctx.allreduce_params(vec![local])[0] / denom;
        // Gradient of the global MSE w.r.t. this block, built in the
        // output's own buffer.
        let scale = T::from_f64(2.0) / denom;
        let mut grad_j = out;
        ops::zip_assign(&mut grad_j, target_j, |o, t| (o - t) * scale);
        let grads = self.backward(ctx, &caches, grad_j);
        self.apply_sgd(&grads, lr);
        total
    }

    /// Writes a CRC-checked checkpoint of the *complete* replicated
    /// parameter state (including scalar parameters like AGNN's `β`) to
    /// `path`, tagged with the training `step` it belongs to. Parameters
    /// are replicated, so one rank writing suffices; the write is atomic
    /// (temp file + rename).
    pub fn save_checkpoint(
        &self,
        step: u64,
        path: &std::path::Path,
    ) -> Result<(), CheckpointError> {
        let layers: Vec<Vec<Vec<f64>>> = self
            .layers
            .iter()
            .map(|(layer, _)| layer.state_vecs())
            .collect();
        checkpoint::save_raw(step, &layers, path)
    }

    /// Restores the complete parameter state from a checkpoint written by
    /// [`DistGnnModel::save_checkpoint`] and returns the training step it
    /// belongs to. Damaged files (truncated, checksum mismatch) and shape
    /// mismatches are rejected with a typed error, leaving the model
    /// unmodified in the damaged-file cases.
    pub fn load_checkpoint(&mut self, path: &std::path::Path) -> Result<u64, CheckpointError> {
        let raw = checkpoint::load_raw(path)?;
        let params: Vec<Vec<&mut [T]>> = self
            .layers
            .iter_mut()
            .map(|(layer, _)| layer.state_slices_mut())
            .collect();
        checkpoint::restore_slices(&raw, params)?;
        Ok(raw.step)
    }

    /// Applies plain SGD with the given (already reduced) gradients.
    pub fn apply_sgd(&mut self, grads: &[DistGrads<T>], lr: T) {
        assert_eq!(grads.len(), self.layers.len(), "gradient count mismatch");
        for ((layer, _), g) in self.layers.iter_mut().zip(grads) {
            let mut slots = layer.param_slices_mut();
            // AGNN carries β as a second gradient slot but exposes only W
            // mutably here; update β explicitly below.
            for (slot, grad) in slots.iter_mut().zip(g.iter()) {
                for (x, &d) in slot.iter_mut().zip(grad) {
                    *x -= lr * d;
                }
            }
            drop(slots);
            if let DistLayer::Agnn { beta, .. } = layer {
                if let Some(db) = g.get(1).and_then(|s| s.first()) {
                    *beta -= lr * *db;
                }
            }
            if let DistLayer::Gin { eps, .. } = layer {
                if let Some(de) = g.get(2).and_then(|s| s.first()) {
                    *eps -= lr * *de;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgnn::loss::{Loss, Mse};
    use atgnn::GnnModel;
    use atgnn_net::Cluster;
    use atgnn_sparse::{Coo, Csr};
    use atgnn_tensor::init;

    fn graph(n: usize) -> Csr<f64> {
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| {
                [
                    (i, (i + 1) % n as u32),
                    (i, (i + 4) % n as u32),
                    (i, (i * 3 + 2) % n as u32),
                ]
            })
            .filter(|&(a, b)| a != b)
            .collect();
        let mut coo = Coo::from_edges(n, n, edges);
        coo.symmetrize_binary();
        Csr::from_coo(&coo)
    }

    const KINDS: [ModelKind; 4] = [
        ModelKind::Va,
        ModelKind::Agnn,
        ModelKind::Gat,
        ModelKind::Gcn,
    ];

    #[test]
    fn every_fused_dist_plan_verifies_clean() {
        for kind in KINDS {
            let model = DistGnnModel::<f64>::uniform(kind, &[6, 5, 4], Activation::Relu, 7)
                .with_exec(AttentionExec::FusedOnePass);
            let diags = model.verify_plan();
            assert!(diags.is_empty(), "{kind:?}: {diags:?}");
        }
    }

    #[test]
    fn staged_dist_plans_warn_about_materialization() {
        use atgnn::Severity;
        let model = DistGnnModel::<f64>::uniform(ModelKind::Gat, &[6, 5], Activation::Relu, 7)
            .with_exec(AttentionExec::Staged);
        let diags = model.verify_plan();
        assert!(!diags.is_empty(), "staged GAT should warn");
        assert!(
            diags.iter().all(|d| d.severity == Severity::Warning),
            "staged materialization is a warning, not an error: {diags:?}"
        );
    }

    #[test]
    fn layer_kinds_map_back_to_their_dags() {
        for kind in KINDS {
            let model = DistGnnModel::<f64>::uniform(kind, &[4, 3], Activation::Relu, 1);
            assert_eq!(model.layers[0].0.kind(), Some(kind));
        }
        let gin = DistLayer::<f64>::Gin {
            w1: Dense::zeros(3, 3),
            w2: Dense::zeros(3, 3),
            eps: 0.0,
        };
        assert_eq!(gin.kind(), None);
    }

    #[test]
    fn distributed_inference_equals_sequential() {
        let n = 12;
        for kind in KINDS {
            let a = GnnModel::<f64>::prepare_adjacency(kind, &graph(n));
            let x = init::features(n, 3, 5);
            let seq =
                GnnModel::<f64>::uniform(kind, &[3, 4, 2], Activation::Relu, 7).inference(&a, &x);
            for p in [1usize, 4, 9] {
                let a = a.clone();
                let x = x.clone();
                let seq = seq.clone();
                let (errs, _) = Cluster::run(p, move |comm| {
                    let ctx = DistContext::new(&comm, &a).expect("square grid and adjacency");
                    let model = DistGnnModel::<f64>::uniform(kind, &[3, 4, 2], Activation::Relu, 7);
                    let (c0, c1) = ctx.col_range();
                    let out = model.inference(&ctx, &x.slice_rows(c0, c1 - c0));
                    out.max_abs_diff(&seq.slice_rows(c0, c1 - c0))
                });
                for e in errs {
                    assert!(e < 1e-9, "{kind:?} p={p}: block error {e}");
                }
            }
        }
    }

    #[test]
    fn reordered_blocks_match_permuted_sequential_inference() {
        use atgnn::plan::{ExecPlan, ReorderStrategy};
        let n = 12;
        for kind in [ModelKind::Gat, ModelKind::Agnn] {
            let a = GnnModel::<f64>::prepare_adjacency(kind, &graph(n));
            let x = init::features(n, 3, 5);
            // Sequential reference WITHOUT reordering: the distributed
            // outputs are compared against it through the permutation.
            let seq = GnnModel::<f64>::uniform(kind, &[3, 4, 2], Activation::Relu, 7)
                .with_plan(ExecPlan::fused().with_reorder(ReorderStrategy::Off))
                .inference(&a, &x);
            let plan = ExecPlan::fused().with_reorder(ReorderStrategy::Rcm);
            for p in [1usize, 4] {
                let a = a.clone();
                let x = x.clone();
                let seq = seq.clone();
                let (errs, _) = Cluster::run(p, move |comm| {
                    let ctx = DistContext::new_with_plan(&comm, &a, &plan)
                        .expect("square grid and adjacency");
                    let model = DistGnnModel::<f64>::uniform(kind, &[3, 4, 2], Activation::Relu, 7);
                    let out = model.inference(&ctx, &ctx.local_input(&x));
                    // Rows [c0, c1) of the permuted output correspond to
                    // original vertices perm[c0..c1].
                    let (c0, c1) = ctx.col_range();
                    let m = ctx.reorder().expect("forced rcm must reorder");
                    let want = seq.gather_rows(&m.perm[c0..c1]);
                    out.max_abs_diff(&want)
                });
                for e in errs {
                    assert!(e < 1e-9, "{kind:?} p={p}: reordered block error {e}");
                }
            }
        }
    }

    #[test]
    fn distributed_gradients_equal_sequential() {
        let n = 10;
        for kind in KINDS {
            let a = GnnModel::<f64>::prepare_adjacency(kind, &graph(n));
            let x = init::features(n, 3, 11);
            let target = init::features(n, 2, 13);
            // Sequential reference gradients.
            let seq_model = GnnModel::<f64>::uniform(kind, &[3, 4, 2], Activation::Tanh, 17);
            let loss = Mse::new(target.clone());
            let (out, ctxs) = seq_model.forward_cached(&a, &x);
            let (seq_grads, _) = seq_model.backward(&a, &ctxs, &loss.gradient(&out));
            for p in [4usize, 9] {
                let a = a.clone();
                let x = x.clone();
                let target = target.clone();
                let seq_grads = seq_grads.clone();
                let (errs, _) = Cluster::run(p, move |comm| {
                    let ctx = DistContext::new(&comm, &a).expect("square grid and adjacency");
                    let model =
                        DistGnnModel::<f64>::uniform(kind, &[3, 4, 2], Activation::Tanh, 17);
                    let (c0, c1) = ctx.col_range();
                    let x_j = x.slice_rows(c0, c1 - c0);
                    let (out_j, caches) = model.forward_cached(&ctx, &x_j);
                    // Global-MSE gradient for this block.
                    let diff = ops::sub(&out_j, &target.slice_rows(c0, c1 - c0));
                    let grad_j = ops::scale(&diff, 2.0 / (n * 2) as f64);
                    let dist_grads = model.backward(&ctx, &caches, grad_j);
                    let mut worst = 0.0f64;
                    for (sg, dg) in seq_grads.iter().zip(&dist_grads) {
                        for (ss, ds) in sg.slots.iter().zip(dg) {
                            for (a, b) in ss.iter().zip(ds) {
                                worst = worst.max((a - b).abs());
                            }
                        }
                    }
                    worst
                });
                for e in errs {
                    assert!(e < 1e-9, "{kind:?} p={p}: grad error {e}");
                }
            }
        }
    }

    /// Four vertices on sixteen ranks send more than the bound's
    /// coefficient allows — a `Rule::CommVolume` warning, which must not
    /// abort the debug-build forward.
    #[cfg(debug_assertions)]
    #[test]
    fn tiny_graph_on_a_large_grid_runs_in_debug_builds() {
        let (n, dims) = (4, [1, 1]);
        let a = GnnModel::<f64>::prepare_adjacency(ModelKind::Gat, &graph(n));
        let x = init::features(n, 1, 3);
        let run = |p: usize| {
            let (a, x) = (a.clone(), x.clone());
            let (blocks, _) = Cluster::run(p, move |comm| {
                let ctx = DistContext::new(&comm, &a).expect("square grid and adjacency");
                assert!(ctx.check_comm_volume(1, 1).is_some() == (p == 16));
                let model =
                    DistGnnModel::<f64>::uniform(ModelKind::Gat, &dims, Activation::Relu, 5);
                let (c0, c1) = ctx.col_range();
                (c0, model.inference(&ctx, &x.slice_rows(c0, c1 - c0)))
            });
            blocks
        };
        let single = run(1).remove(0).1;
        for (c0, block) in run(16) {
            assert!(block.max_abs_diff(&single.slice_rows(c0, block.rows())) < 1e-12);
        }
    }

    #[test]
    fn distributed_training_tracks_sequential() {
        // Three SGD steps distributed vs sequential: outputs must match.
        let n = 8;
        let kind = ModelKind::Gat;
        let a = GnnModel::<f64>::prepare_adjacency(kind, &graph(n));
        let x = init::features(n, 3, 19);
        let target = init::features(n, 2, 23);
        // Sequential.
        let mut seq_model = GnnModel::<f64>::uniform(kind, &[3, 3, 2], Activation::Tanh, 29);
        let loss = Mse::new(target.clone());
        let mut opt = atgnn::optimizer::Sgd::new(0.05);
        let mut seq_losses = Vec::new();
        for _ in 0..3 {
            seq_losses.push(seq_model.train_step(&a, &x, &loss, &mut opt));
        }
        let seq_out = seq_model.inference(&a, &x);
        // Distributed.
        let (results, _) = Cluster::run(4, move |comm| {
            let ctx = DistContext::new(&comm, &a).expect("square grid and adjacency");
            let mut model = DistGnnModel::<f64>::uniform(kind, &[3, 3, 2], Activation::Tanh, 29);
            let (c0, c1) = ctx.col_range();
            let x_j = x.slice_rows(c0, c1 - c0);
            let t_j = target.slice_rows(c0, c1 - c0);
            let mut losses = Vec::new();
            for _ in 0..3 {
                losses.push(model.train_step_mse(&ctx, &x_j, &t_j, 0.05, 2));
            }
            let out_j = model.inference(&ctx, &x_j);
            (losses, out_j.max_abs_diff(&seq_out.slice_rows(c0, c1 - c0)))
        });
        for (losses, err) in results {
            for (a, b) in losses.iter().zip(&seq_losses) {
                assert!((a - b).abs() < 1e-9, "loss mismatch {a} vs {b}");
            }
            assert!(err < 1e-8, "output drift {err}");
        }
    }

    #[test]
    fn distributed_gin_equals_sequential() {
        // GIN is outside the uniform-constructor kinds; wire it manually
        // with identical parameters on both sides.
        use atgnn::layers::GinLayer;
        use atgnn::AGnnLayer;
        let n = 12;
        let a = graph(n);
        let x = init::features(n, 3, 41);
        let seq_layer = GinLayer::<f64>::new(3, 5, 2, Activation::Identity, 43);
        let seq_model =
            atgnn::GnnModel::new(vec![Box::new(seq_layer.clone()) as Box<dyn AGnnLayer<f64>>]);
        let seq = seq_model.inference(&a, &x);
        // Sequential gradients through a linear probe loss.
        let probe = init::features(n, 2, 45);
        let (out, ctxs) = seq_model.forward_cached(&a, &x);
        let _ = out;
        let (seq_grads, _) = seq_model.backward(&a, &ctxs, &probe);
        let (w1, w2) = (seq_layer.weights().0.clone(), seq_layer.weights().1.clone());
        let eps = seq_layer.eps();
        let (results, _) = Cluster::run(4, move |comm| {
            let ctx = DistContext::new(&comm, &a).expect("square grid and adjacency");
            let model = DistGnnModel::<f64> {
                layers: vec![(
                    DistLayer::Gin {
                        w1: w1.clone(),
                        w2: w2.clone(),
                        eps,
                    },
                    Activation::Identity,
                )],
                exec: AttentionExec::FusedOnePass,
            };
            let (c0, c1) = ctx.col_range();
            let x_j = x.slice_rows(c0, c1 - c0);
            let (out_j, caches) = model.forward_cached(&ctx, &x_j);
            let fwd_err = out_j.max_abs_diff(&seq.slice_rows(c0, c1 - c0));
            let grads = model.backward(&ctx, &caches, probe.slice_rows(c0, c1 - c0));
            let mut grad_err = 0.0f64;
            for (ss, ds) in seq_grads[0].slots.iter().zip(&grads[0]) {
                for (a, b) in ss.iter().zip(ds) {
                    grad_err = grad_err.max((a - b).abs());
                }
            }
            (fwd_err, grad_err)
        });
        for (f, g) in results {
            assert!(f < 1e-10, "forward {f}");
            assert!(g < 1e-9, "grads {g}");
        }
    }

    #[test]
    fn distributed_multihead_gat_equals_sequential() {
        use atgnn::layers::{HeadCombine, MultiHeadGatLayer};
        use atgnn::AGnnLayer;
        let n = 12;
        let a = GnnModel::<f64>::prepare_adjacency(ModelKind::Gat, &graph(n));
        let x = init::features(n, 3, 81);
        let seq_layer =
            MultiHeadGatLayer::<f64>::new(3, 2, 3, HeadCombine::Concat, Activation::Identity, 83);
        let seq_model = GnnModel::new(vec![Box::new(seq_layer.clone()) as Box<dyn AGnnLayer<f64>>]);
        let seq = seq_model.inference(&a, &x);
        let probe = init::features(n, 6, 85);
        let (_, ctxs) = seq_model.forward_cached(&a, &x);
        let (seq_grads, _) = seq_model.backward(&a, &ctxs, &probe);
        // Mirror the heads into the distributed layer (the sequential
        // layer exposes parameters as flat slices: 3 per head).
        let slices = seq_layer.param_slices();
        let heads: Vec<(Dense<f64>, Vec<f64>, Vec<f64>)> = (0..3)
            .map(|h| {
                (
                    Dense::from_vec(3, 2, slices[3 * h].to_vec()),
                    slices[3 * h + 1].to_vec(),
                    slices[3 * h + 2].to_vec(),
                )
            })
            .collect();
        let (results, _) = Cluster::run(4, move |comm| {
            let ctx = DistContext::new(&comm, &a).expect("square grid and adjacency");
            let model = DistGnnModel::<f64> {
                layers: vec![(
                    DistLayer::GatMultiHead {
                        heads: heads.clone(),
                        slope: atgnn::layers::GAT_SLOPE,
                    },
                    Activation::Identity,
                )],
                exec: AttentionExec::FusedOnePass,
            };
            let (c0, c1) = ctx.col_range();
            let x_j = x.slice_rows(c0, c1 - c0);
            let (out_j, caches) = model.forward_cached(&ctx, &x_j);
            let fwd_err = out_j.max_abs_diff(&seq.slice_rows(c0, c1 - c0));
            let grads = model.backward(&ctx, &caches, probe.slice_rows(c0, c1 - c0));
            let mut grad_err = 0.0f64;
            for (ss, ds) in seq_grads[0].slots.iter().zip(&grads[0]) {
                for (a, b) in ss.iter().zip(ds) {
                    grad_err = grad_err.max((a - b).abs());
                }
            }
            (fwd_err, grad_err)
        });
        for (f, g) in results {
            assert!(f < 1e-10, "forward {f}");
            assert!(g < 1e-9, "grads {g}");
        }
    }
}
