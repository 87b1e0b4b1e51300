//! Feature dropout as a stackable layer.
//!
//! The original GAT trains with dropout on the input features of every
//! layer; [`DropoutLayer`] provides that as a parameterless
//! [`crate::layer::AGnnLayer`] that composes in a [`crate::GnnModel`]
//! stack. The mask is inverted-scaled (`h ⊙ m / (1−rate)`), so inference
//! needs no rescaling.
//!
//! Masks are derived deterministically from `(seed, step)` — call
//! [`DropoutLayer::reseed`] with the epoch/step counter so each training
//! step drops different units, while gradient checking (which requires a
//! fixed function) simply leaves the step unchanged.

use crate::layer::{AGnnLayer, BackwardResult, Gradients, LayerCache};
use atgnn_sparse::{attention, Csr};
use atgnn_tensor::{Activation, Dense, Scalar};
use std::sync::atomic::{AtomicU64, Ordering};

/// A dropout layer (identity at evaluation time).
#[derive(Debug)]
pub struct DropoutLayer<T> {
    dim: usize,
    rate: f64,
    seed: u64,
    step: AtomicU64,
    train: bool,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Scalar> Clone for DropoutLayer<T> {
    fn clone(&self) -> Self {
        Self {
            dim: self.dim,
            rate: self.rate,
            seed: self.seed,
            step: AtomicU64::new(self.step.load(Ordering::Relaxed)),
            train: self.train,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Scalar> DropoutLayer<T> {
    /// A training-mode dropout layer over `dim`-wide features.
    ///
    /// # Panics
    /// Panics unless `0 ≤ rate < 1`.
    pub fn new(dim: usize, rate: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0, 1)");
        Self {
            dim,
            rate,
            seed,
            step: AtomicU64::new(0),
            train: true,
            _marker: std::marker::PhantomData,
        }
    }

    /// Switches between training (masking) and evaluation (identity).
    pub fn set_train(&mut self, train: bool) {
        self.train = train;
    }

    /// Advances the mask (call once per training step).
    pub fn reseed(&self, step: u64) {
        self.step.store(step, Ordering::Relaxed);
    }

    fn keep(&self, r: usize, c: usize) -> bool {
        // SplitMix-style hash of (seed, step, r, c) → uniform in [0, 1).
        let mut z = self
            .seed
            .wrapping_add(
                self.step
                    .load(Ordering::Relaxed)
                    .wrapping_mul(0x9E3779B97F4A7C15),
            )
            .wrapping_add((r as u64).wrapping_mul(0xBF58476D1CE4E5B9))
            .wrapping_add((c as u64).wrapping_mul(0x94D049BB133111EB));
        z ^= z >> 30;
        z = z.wrapping_mul(0xBF58476D1CE4E5B9);
        z ^= z >> 27;
        z = z.wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        (z as f64 / u64::MAX as f64) >= self.rate
    }

    fn apply_mask(&self, h: &Dense<T>) -> Dense<T> {
        let scale = T::from_f64(1.0 / (1.0 - self.rate));
        Dense::from_fn(h.rows(), h.cols(), |r, c| {
            if self.keep(r, c) {
                h[(r, c)] * scale
            } else {
                T::zero()
            }
        })
    }
}

impl<T: Scalar> AGnnLayer<T> for DropoutLayer<T> {
    fn in_dim(&self) -> usize {
        self.dim
    }

    fn out_dim(&self) -> usize {
        self.dim
    }

    fn forward(&self, a: &Csr<T>, h: &Dense<T>, _cache: Option<&mut LayerCache<T>>) -> Dense<T> {
        // Element-wise, so a row-prefix block is its destination rows.
        let h = attention::dst_rows(a, h);
        if self.train && self.rate > 0.0 {
            self.apply_mask(&h)
        } else {
            h.into_owned()
        }
    }

    fn backward(
        &self,
        _a: &Csr<T>,
        h: &Dense<T>,
        _cache: &LayerCache<T>,
        g: &Dense<T>,
    ) -> BackwardResult<T> {
        let dh = if self.train && self.rate > 0.0 {
            self.apply_mask(g)
        } else {
            g.clone()
        };
        let _ = h;
        BackwardResult {
            dh_in: dh,
            grads: Gradients::none(),
        }
    }

    fn param_slices_mut(&mut self) -> Vec<&mut [T]> {
        Vec::new()
    }

    fn param_slices(&self) -> Vec<&[T]> {
        Vec::new()
    }

    fn activation(&self) -> Activation {
        Activation::Identity
    }

    fn name(&self) -> &'static str {
        "Dropout"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgnn_tensor::init;

    #[test]
    fn evaluation_mode_is_identity() {
        let mut d = DropoutLayer::<f64>::new(4, 0.5, 1);
        d.set_train(false);
        let a = Csr::identity(3);
        let h = init::features(3, 4, 2);
        assert!(d.forward(&a, &h, None).max_abs_diff(&h) < 1e-15);
    }

    #[test]
    fn mask_zeroes_roughly_rate_fraction_with_inverted_scaling() {
        let d = DropoutLayer::<f64>::new(32, 0.4, 7);
        let a = Csr::identity(256);
        let h = Dense::filled(256, 32, 1.0);
        let out = d.forward(&a, &h, None);
        let zeros = out.as_slice().iter().filter(|&&v| v == 0.0).count();
        let frac = zeros as f64 / out.len() as f64;
        assert!((frac - 0.4).abs() < 0.03, "dropped fraction {frac}");
        // Kept units are scaled by 1/(1−rate).
        for &v in out.as_slice() {
            assert!(v == 0.0 || (v - 1.0 / 0.6).abs() < 1e-12);
        }
    }

    #[test]
    fn reseed_changes_the_mask() {
        let d = DropoutLayer::<f64>::new(8, 0.5, 3);
        let a = Csr::identity(16);
        let h = Dense::filled(16, 8, 1.0);
        let m1 = d.forward(&a, &h, None);
        d.reseed(1);
        let m2 = d.forward(&a, &h, None);
        assert!(m1.max_abs_diff(&m2) > 0.0);
    }

    #[test]
    fn gradients_match_finite_differences() {
        // The mask is a fixed function of (seed, step), so dropout is a
        // deterministic linear map and gradcheck applies directly.
        let d = DropoutLayer::<f64>::new(3, 0.3, 11);
        let a = Csr::identity(5);
        let h = init::features(5, 3, 13);
        crate::gradcheck::check_layer(&d, &a, &h, 1e-6, 1e-8);
    }

    #[test]
    fn stacks_between_gnn_layers() {
        use crate::layers::GatLayer;
        use crate::GnnModel;
        let a = atgnn_sparse::norm::add_self_loops(&Csr::identity(6));
        let x = init::features(6, 4, 15);
        let l1: Box<dyn crate::AGnnLayer<f64>> = Box::new(GatLayer::new(4, 4, Activation::Elu, 17));
        let l2: Box<dyn crate::AGnnLayer<f64>> = Box::new(DropoutLayer::new(4, 0.25, 19));
        let l3: Box<dyn crate::AGnnLayer<f64>> =
            Box::new(GatLayer::new(4, 2, Activation::Identity, 21));
        let model = GnnModel::new(vec![l1, l2, l3]);
        let out = model.inference(&a, &x);
        assert_eq!(out.shape(), (6, 2));
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "rate must be in")]
    fn rejects_rate_one() {
        let _ = DropoutLayer::<f32>::new(4, 1.0, 0);
    }
}
