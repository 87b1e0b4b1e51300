//! Multi-head GAT — the original GAT's multi-head attention, built on the
//! single-head global formulation.
//!
//! The paper notes its formulations "are reusable to GNN models beyond
//! those considered in this work"; multi-head attention is the first such
//! extension: `H` independent heads, each a full single-head GAT layer
//! (`Ψ_h = sm(A ⊙ LeakyReLU(u_h 𝟙ᵀ + 𝟙 v_hᵀ))`, `Z_h = Ψ_h H W_h`),
//! combined by concatenation (hidden layers) or averaging (output layer),
//! exactly as Veličković et al. prescribe.
//!
//! The backward pass distributes the output gradient to the heads
//! (slice for concat, `G/H` for average) and runs each head's analytic
//! backward; the input gradients sum. Verified by finite differences.

use crate::layer::{AGnnLayer, BackwardResult, Gradients, LayerCache};
use crate::layers::GatLayer;
use atgnn_sparse::Csr;
use atgnn_tensor::{ops, Activation, Dense, Scalar};

/// How head outputs are combined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeadCombine {
    /// Concatenate along the feature axis (`k_out = heads · k_head`) —
    /// GAT's hidden layers.
    Concat,
    /// Average the heads (`k_out = k_head`) — GAT's output layer.
    Average,
}

/// A multi-head GAT layer.
#[derive(Clone, Debug)]
pub struct MultiHeadGatLayer<T: Scalar> {
    heads: Vec<GatLayer<T>>,
    combine: HeadCombine,
    activation: Activation,
}

impl<T: Scalar> MultiHeadGatLayer<T> {
    /// Creates `heads` independent Glorot-initialized heads mapping
    /// `k_in → k_head` each.
    pub fn new(
        k_in: usize,
        k_head: usize,
        heads: usize,
        combine: HeadCombine,
        activation: Activation,
        seed: u64,
    ) -> Self {
        assert!(heads >= 1, "need at least one head");
        let heads = (0..heads)
            .map(|h| {
                GatLayer::new(
                    k_in,
                    k_head,
                    Activation::Identity,
                    seed ^ (h as u64 * 0x9E37 + 1),
                )
            })
            .collect();
        Self {
            heads,
            combine,
            activation,
        }
    }

    /// Number of heads.
    pub fn head_count(&self) -> usize {
        self.heads.len()
    }

    /// Output width of one head.
    pub fn head_dim(&self) -> usize {
        self.heads[0].out_dim()
    }

    /// The combination mode.
    pub fn combine(&self) -> HeadCombine {
        self.combine
    }
}

impl<T: Scalar> AGnnLayer<T> for MultiHeadGatLayer<T> {
    fn in_dim(&self) -> usize {
        self.heads[0].in_dim()
    }

    fn out_dim(&self) -> usize {
        match self.combine {
            HeadCombine::Concat => self.heads.len() * self.head_dim(),
            HeadCombine::Average => self.head_dim(),
        }
    }

    fn forward(&self, a: &Csr<T>, h: &Dense<T>, cache: Option<&mut LayerCache<T>>) -> Dense<T> {
        let mut caches = cache;
        if let Some(c) = caches.as_deref_mut() {
            c.sub = Vec::with_capacity(self.heads.len());
        }
        // Heads honour the row-prefix block contract, so this does too.
        let n = a.rows();
        let mut out = Dense::zeros(n, self.out_dim());
        let kh = self.head_dim();
        let inv_h = T::from_f64(1.0 / self.heads.len() as f64);
        for (idx, head) in self.heads.iter().enumerate() {
            let z_h = if let Some(c) = caches.as_deref_mut() {
                let mut sub = LayerCache::new();
                let z = head.forward(a, h, Some(&mut sub));
                c.sub.push(sub);
                z
            } else {
                head.forward(a, h, None)
            };
            match self.combine {
                HeadCombine::Concat => {
                    for r in 0..n {
                        out.row_mut(r)[idx * kh..(idx + 1) * kh].copy_from_slice(z_h.row(r));
                    }
                }
                HeadCombine::Average => {
                    // Per logical row: `z_h` may carry the plan's padded
                    // stride while `out` is tight.
                    for r in 0..n {
                        for (o, &v) in out.row_mut(r).iter_mut().zip(z_h.row(r)) {
                            *o += inv_h * v;
                        }
                    }
                }
            }
        }
        out
    }

    fn backward(
        &self,
        a: &Csr<T>,
        h: &Dense<T>,
        cache: &LayerCache<T>,
        g: &Dense<T>,
    ) -> BackwardResult<T> {
        assert_eq!(
            cache.sub.len(),
            self.heads.len(),
            "multi-head backward needs one sub-cache per head"
        );
        let n = h.rows();
        let kh = self.head_dim();
        let inv_h = T::from_f64(1.0 / self.heads.len() as f64);
        let mut dh = Dense::zeros(n, self.in_dim());
        let mut slots = Vec::with_capacity(self.heads.len() * 3);
        for (idx, head) in self.heads.iter().enumerate() {
            // The head's share of the output gradient.
            let g_h = match self.combine {
                HeadCombine::Concat => Dense::from_fn(n, kh, |r, c| g[(r, idx * kh + c)]),
                HeadCombine::Average => ops::scale(g, inv_h),
            };
            let res = head.backward(a, h, &cache.sub[idx], &g_h);
            ops::add_assign(&mut dh, &res.dh_in);
            slots.extend(res.grads.slots);
        }
        BackwardResult {
            dh_in: dh,
            grads: Gradients::from_slots(slots),
        }
    }

    fn param_slices_mut(&mut self) -> Vec<&mut [T]> {
        self.heads
            .iter_mut()
            .flat_map(|h| h.param_slices_mut())
            .collect()
    }

    fn param_slices(&self) -> Vec<&[T]> {
        self.heads.iter().flat_map(|h| h.param_slices()).collect()
    }

    fn activation(&self) -> Activation {
        self.activation
    }

    fn name(&self) -> &'static str {
        "GAT-MH"
    }

    fn set_plan(&mut self, plan: crate::plan::ExecPlan) {
        for head in &mut self.heads {
            head.set_plan(plan);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgnn_sparse::{norm, Coo};
    use atgnn_tensor::init;

    fn setup(combine: HeadCombine) -> (Csr<f64>, Dense<f64>, MultiHeadGatLayer<f64>) {
        let mut coo = Coo::from_edges(6, 6, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        coo.symmetrize_binary();
        let a = norm::add_self_loops(&Csr::from_coo(&coo));
        let h = init::features(6, 3, 61);
        let layer = MultiHeadGatLayer::new(3, 2, 3, combine, Activation::Elu, 63);
        (a, h, layer)
    }

    #[test]
    fn concat_output_width_is_heads_times_head_dim() {
        let (a, h, layer) = setup(HeadCombine::Concat);
        assert_eq!(layer.out_dim(), 6);
        let z = layer.forward(&a, &h, None);
        assert_eq!(z.shape(), (6, 6));
    }

    #[test]
    fn average_output_width_is_head_dim() {
        let (a, h, layer) = setup(HeadCombine::Average);
        assert_eq!(layer.out_dim(), 2);
        assert_eq!(layer.forward(&a, &h, None).shape(), (6, 2));
    }

    #[test]
    fn single_head_concat_equals_plain_gat() {
        let (a, h, _) = setup(HeadCombine::Concat);
        let mh = MultiHeadGatLayer::<f64>::new(3, 2, 1, HeadCombine::Concat, Activation::Elu, 63);
        let single = GatLayer::<f64>::new(3, 2, Activation::Identity, 63 ^ 1);
        let zm = mh.forward(&a, &h, None);
        let zs = single.forward(&a, &h, None);
        assert!(zm.max_abs_diff(&zs) < 1e-14);
    }

    #[test]
    fn concat_gradients_match_finite_differences() {
        let (a, h, layer) = setup(HeadCombine::Concat);
        crate::gradcheck::check_layer(&layer, &a, &h, 1e-5, 1e-5);
    }

    #[test]
    fn average_gradients_match_finite_differences() {
        let (a, h, layer) = setup(HeadCombine::Average);
        crate::gradcheck::check_layer(&layer, &a, &h, 1e-5, 1e-5);
    }

    #[test]
    fn param_layout_has_three_slots_per_head() {
        let (_, _, mut layer) = setup(HeadCombine::Concat);
        assert_eq!(layer.param_slices_mut().len(), 9);
        // W (3×2) + a₁ (2) + a₂ (2) = 10 per head.
        assert_eq!(layer.param_count(), 30);
    }

    #[test]
    fn trains_in_a_model_stack() {
        use crate::loss::Mse;
        use crate::optimizer::Adam;
        let (a, h, _) = setup(HeadCombine::Concat);
        let l1: Box<dyn AGnnLayer<f64>> = Box::new(MultiHeadGatLayer::new(
            3,
            2,
            4,
            HeadCombine::Concat,
            Activation::Elu,
            1,
        ));
        let l2: Box<dyn AGnnLayer<f64>> = Box::new(MultiHeadGatLayer::new(
            8,
            2,
            2,
            HeadCombine::Average,
            Activation::Identity,
            2,
        ));
        let mut model = crate::GnnModel::new(vec![l1, l2]);
        let target = init::features(6, 2, 3);
        let loss = Mse::new(target);
        let mut opt = Adam::new(0.02);
        let first = model.train_step(&a, &h, &loss, &mut opt);
        let mut last = first;
        for _ in 0..30 {
            last = model.train_step(&a, &h, &loss, &mut opt);
        }
        assert!(last < first, "{first} -> {last}");
    }
}
