//! GCN — the convolutional (C-GNN) special case.
//!
//! The paper's Section 8.4 compares the global and local formulations on a
//! simple C-GNN: `Z = Â H W` where `Â = D^{-1/2} (A + I) D^{-1/2}` is the
//! preprocessed (fixed, non-learnable) convolution matrix — "a special
//! case of an A-GNN, with a single GNN inference layer consisting of one
//! SpMM and one MM".
//!
//! Backward: `∂L/∂H = Âᵀ G Wᵀ`, `Y = (Â H)ᵀ G`.

use crate::layer::{AGnnLayer, BackwardResult, Gradients, LayerCache};
use atgnn_sparse::{norm, spmm, Csr};
use atgnn_tensor::{gemm, init, Activation, Dense, Scalar};

/// A GCN layer. The normalized adjacency `Â` is preprocessed once with
/// [`GcnLayer::normalize`]; the layer itself only stores `W`.
#[derive(Clone, Debug)]
pub struct GcnLayer<T: Scalar> {
    w: Dense<T>,
    activation: Activation,
}

impl<T: Scalar> GcnLayer<T> {
    /// Creates a layer with Glorot-initialized weights.
    pub fn new(k_in: usize, k_out: usize, activation: Activation, seed: u64) -> Self {
        Self {
            w: init::glorot(k_in, k_out, seed),
            activation,
        }
    }

    /// Creates a layer with explicit weights.
    pub fn with_weights(w: Dense<T>, activation: Activation) -> Self {
        Self { w, activation }
    }

    /// The GCN preprocessing `Â = D^{-1/2} (A + I) D^{-1/2}`.
    pub fn normalize(a: &Csr<T>) -> Csr<T> {
        norm::sym_normalize(&norm::add_self_loops(a))
    }

    /// The weight matrix.
    pub fn weights(&self) -> &Dense<T> {
        &self.w
    }
}

impl<T: Scalar> AGnnLayer<T> for GcnLayer<T> {
    fn in_dim(&self) -> usize {
        self.w.rows()
    }

    fn out_dim(&self) -> usize {
        self.w.cols()
    }

    fn forward(&self, a: &Csr<T>, h: &Dense<T>, cache: Option<&mut LayerCache<T>>) -> Dense<T> {
        let h_agg = spmm::spmm(a, h);
        let z = gemm::matmul(&h_agg, &self.w);
        if let Some(c) = cache {
            c.h_agg = Some(h_agg);
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
        let m = gemm::matmul_nt(g, &self.w);
        BackwardResult {
            dh_in: spmm::spmm_t(a, &m),
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
        let h_agg = cache.h_agg.as_ref().expect("GCN backward needs cached ÂH");
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
        "GCN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgnn_sparse::Coo;

    fn setup() -> (Csr<f64>, Dense<f64>, GcnLayer<f64>) {
        let mut coo = Coo::from_edges(5, 5, vec![(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        coo.symmetrize_binary();
        let a = GcnLayer::normalize(&Csr::from_coo(&coo));
        let h = init::features(5, 3, 21);
        let layer = GcnLayer::new(3, 2, Activation::Relu, 9);
        (a, h, layer)
    }

    #[test]
    fn forward_matches_dense_reference() {
        let (a, h, layer) = setup();
        let want = gemm::matmul(&gemm::matmul(&a.to_dense(), &h), layer.weights());
        assert!(layer.forward(&a, &h, None).max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn normalization_gives_gcn_coefficients() {
        // For Â = D^{-1/2}(A+I)D^{-1/2} every entry is 1/sqrt(d_v d_u).
        let mut coo = Coo::<f64>::from_edges(3, 3, vec![(0, 1), (1, 2)]);
        coo.symmetrize_binary();
        let ahat = GcnLayer::normalize(&Csr::from_coo(&coo));
        // Degrees with self loops: d0 = 2, d1 = 3, d2 = 2.
        assert!((ahat.get(0, 1) - 1.0 / (2.0f64 * 3.0).sqrt()).abs() < 1e-12);
        assert!((ahat.get(1, 1) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let (a, h, layer) = setup();
        crate::gradcheck::check_layer(&layer, &a, &h, 1e-5, 1e-6);
    }

    #[test]
    fn gradients_on_directed_convolution() {
        let coo = Coo::from_edges(4, 4, vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let a = norm::row_normalize(&Csr::from_coo(&coo));
        let h = init::features(4, 2, 5);
        let layer = GcnLayer::<f64>::new(2, 3, Activation::Identity, 6);
        crate::gradcheck::check_layer(&layer, &a, &h, 1e-5, 1e-6);
    }
}
