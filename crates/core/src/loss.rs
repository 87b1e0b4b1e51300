//! Loss functions for full-batch training.
//!
//! The backward recursion is bootstrapped at the last layer with
//! `G^L = ∇_{H^L} L ⊙ σ'(Z^L)` (paper Eq. 4); each loss here supplies the
//! `∇_{H} L` half. Both value and gradient are exposed so the training
//! loop can report convergence.

use atgnn_tensor::{blocks, ops, Dense, Scalar};

/// A differentiable loss over the model output features.
pub trait Loss<T: Scalar>: Send + Sync {
    /// The scalar loss value.
    fn value(&self, output: &Dense<T>) -> T;
    /// `∇_output L` (same shape as `output`).
    fn gradient(&self, output: &Dense<T>) -> Dense<T>;

    /// [`Loss::gradient`] written into `grad`, a matrix of `output`'s
    /// shape in any layout whose padding tails are left as they are —
    /// what a training step calls, on a buffer it keeps across steps. Same
    /// bits as `gradient`. The default computes `gradient` and copies it.
    fn gradient_into(&self, output: &Dense<T>, grad: &mut Dense<T>) {
        grad.copy_from(&self.gradient(output));
    }
}

/// Mean squared error against a target feature matrix:
/// `L = (1/(n·k)) Σ (H − T)²`.
#[derive(Clone, Debug)]
pub struct Mse<T: Scalar> {
    target: Dense<T>,
}

impl<T: Scalar> Mse<T> {
    /// Creates an MSE loss against `target`.
    pub fn new(target: Dense<T>) -> Self {
        Self { target }
    }
}

impl<T: Scalar> Loss<T> for Mse<T> {
    fn value(&self, output: &Dense<T>) -> T {
        assert_eq!(output.shape(), self.target.shape(), "MSE shape mismatch");
        let scale = T::from_f64(1.0 / output.len() as f64);
        ops::sum_sq_diff(output, &self.target) * scale
    }

    fn gradient(&self, output: &Dense<T>) -> Dense<T> {
        let mut grad = output.zeros_matching(output.rows(), output.cols());
        self.gradient_into(output, &mut grad);
        grad
    }

    /// `(H − T)·(2/(n·k))` in one pass over the three matrices.
    fn gradient_into(&self, output: &Dense<T>, grad: &mut Dense<T>) {
        let scale = T::from_f64(2.0 / output.len() as f64);
        ops::zip_into(grad, output, &self.target, |o, t| (o - t) * scale);
    }
}

/// Softmax cross-entropy for node classification: the model output rows
/// are class logits; labeled vertices contribute
/// `−log softmax(h_v)[y_v]`, averaged over the labeled set. Vertices with
/// no label (`None`) are masked out, matching semi-supervised GNN
/// training.
#[derive(Clone, Debug)]
pub struct SoftmaxCrossEntropy {
    labels: Vec<Option<usize>>,
}

impl SoftmaxCrossEntropy {
    /// Creates the loss from per-vertex optional labels.
    pub fn new(labels: Vec<Option<usize>>) -> Self {
        Self { labels }
    }

    /// Creates the loss where every vertex is labeled.
    pub fn dense(labels: Vec<usize>) -> Self {
        Self {
            labels: labels.into_iter().map(Some).collect(),
        }
    }

    fn labeled_count(&self) -> usize {
        self.labels.iter().filter(|l| l.is_some()).count()
    }

    /// Classification accuracy of `output` on the labeled vertices.
    pub fn accuracy<T: Scalar>(&self, output: &Dense<T>) -> f64 {
        let mut hit = 0usize;
        let mut total = 0usize;
        for (v, label) in self.labels.iter().enumerate() {
            if let Some(y) = label {
                total += 1;
                let row = output.row(v);
                let argmax = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(i, _)| i)
                    .unwrap();
                if argmax == *y {
                    hit += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            hit as f64 / total as f64
        }
    }
}

impl<T: Scalar> Loss<T> for SoftmaxCrossEntropy {
    fn value(&self, output: &Dense<T>) -> T {
        assert_eq!(output.rows(), self.labels.len(), "label count mismatch");
        let sm = blocks::softmax_rows(output);
        let mut total = T::zero();
        for (v, label) in self.labels.iter().enumerate() {
            if let Some(y) = label {
                // Clamp away from zero for numerical robustness in f32.
                let p = Scalar::max(sm[(v, *y)], T::from_f64(1e-30));
                total -= p.ln();
            }
        }
        total * T::from_f64(1.0 / self.labeled_count().max(1) as f64)
    }

    fn gradient(&self, output: &Dense<T>) -> Dense<T> {
        assert_eq!(output.rows(), self.labels.len(), "label count mismatch");
        let mut grad = blocks::softmax_rows(output);
        let scale = T::from_f64(1.0 / self.labeled_count().max(1) as f64);
        for (v, label) in self.labels.iter().enumerate() {
            match label {
                Some(y) => {
                    grad[(v, *y)] -= T::one();
                    for g in grad.row_mut(v) {
                        *g *= scale;
                    }
                }
                None => {
                    for g in grad.row_mut(v) {
                        *g = T::zero();
                    }
                }
            }
        }
        grad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd_check<L: Loss<f64>>(loss: &L, out: &Dense<f64>, tol: f64) {
        let grad = loss.gradient(out);
        let eps = 1e-6;
        for i in 0..out.rows() {
            for j in 0..out.cols() {
                let mut p = out.clone();
                p[(i, j)] += eps;
                let mut m = out.clone();
                m[(i, j)] -= eps;
                let fd = (loss.value(&p) - loss.value(&m)) / (2.0 * eps);
                assert!(
                    (fd - grad[(i, j)]).abs() < tol,
                    "[{i},{j}] fd={fd} analytic={}",
                    grad[(i, j)]
                );
            }
        }
    }

    #[test]
    fn mse_zero_at_target() {
        let t = Dense::from_fn(3, 2, |i, j| (i + j) as f64);
        let loss = Mse::new(t.clone());
        assert_eq!(loss.value(&t), 0.0);
        assert_eq!(loss.gradient(&t).max_abs(), 0.0);
    }

    #[test]
    fn mse_gradient_matches_fd() {
        let t = Dense::from_fn(3, 2, |i, j| (i * 2 + j) as f64 * 0.1);
        let out = Dense::from_fn(3, 2, |i, j| (j as f64 - i as f64) * 0.4);
        fd_check(&Mse::new(t), &out, 1e-8);
    }

    #[test]
    fn gradient_into_is_the_gradient_bitwise_in_any_layout() {
        let t = Dense::from_fn(5, 3, |i, j| (i * 3 + j) as f64 * 0.17);
        let out = Dense::from_fn(5, 3, |i, j| (j as f64 - i as f64) * 0.41);
        let ce = SoftmaxCrossEntropy::new(vec![Some(0), None, Some(2), Some(1), Some(0)]);
        let losses: [&dyn Loss<f64>; 2] = [&Mse::new(t), &ce];
        for loss in losses {
            let want = loss.gradient(&out);
            for mut grad in [Dense::filled(5, 3, f64::NAN), Dense::zeros_padded(5, 3)] {
                loss.gradient_into(&out, &mut grad);
                assert!(grad.padding_is_zero());
                for r in 0..5 {
                    for (x, y) in grad.row(r).iter().zip(want.row(r)) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn cross_entropy_gradient_matches_fd() {
        let out = Dense::from_fn(4, 3, |i, j| ((i * 3 + j) % 5) as f64 * 0.3 - 0.5);
        let loss = SoftmaxCrossEntropy::new(vec![Some(0), Some(2), None, Some(1)]);
        fd_check(&loss, &out, 1e-7);
    }

    #[test]
    fn cross_entropy_masks_unlabeled() {
        let out = Dense::from_fn(2, 2, |_, j| j as f64);
        let loss = SoftmaxCrossEntropy::new(vec![None, Some(1)]);
        let g = loss.gradient(&out);
        assert_eq!(g.row(0), &[0.0, 0.0]);
        assert!(g.row(1)[1] < 0.0);
    }

    #[test]
    fn perfect_prediction_has_low_loss() {
        // Strongly peaked logits at the correct class.
        let out = Dense::from_fn(3, 3, |i, j| if i == j { 20.0 } else { 0.0 });
        let loss = SoftmaxCrossEntropy::dense(vec![0, 1, 2]);
        assert!(loss.value(&out) < 1e-6);
        assert_eq!(loss.accuracy(&out), 1.0);
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let out = Dense::from_vec(2, 2, vec![0.9, 0.1, 0.2, 0.8]);
        let loss = SoftmaxCrossEntropy::dense(vec![0, 0]);
        assert_eq!(loss.accuracy(&out), 0.5);
    }
}
