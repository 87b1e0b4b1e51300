//! High-level training loop: epochs, convergence tracking, early
//! stopping.
//!
//! The paper motivates full-batch training with *convergence* ("full-batch
//! training has been shown to alleviate the convergence speed problems" of
//! sampled mini-batching); this module provides the loop that observes it:
//! per-epoch loss history, optional validation callback, and patience-based
//! early stopping.

use crate::loss::Loss;
use crate::model::GnnModel;
use crate::optimizer::Optimizer;
use atgnn_sparse::Csr;
use atgnn_tensor::{Dense, Scalar};

/// Configuration of a training run.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Stop after this many epochs without improvement (0 disables).
    pub patience: usize,
    /// Minimum relative improvement that counts (e.g. `1e-4`).
    pub min_rel_improvement: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 200,
            patience: 20,
            min_rel_improvement: 1e-4,
        }
    }
}

/// The result of a training run.
#[derive(Clone, Debug)]
pub struct TrainHistory {
    /// Loss after each epoch.
    pub losses: Vec<f64>,
    /// Whether early stopping triggered.
    pub early_stopped: bool,
    /// The best (lowest) loss observed.
    pub best_loss: f64,
    /// The epoch of the best loss.
    pub best_epoch: usize,
}

impl TrainHistory {
    /// Epochs actually run.
    pub fn epochs_run(&self) -> usize {
        self.losses.len()
    }
}

/// Trains `model` full-batch until convergence or the epoch budget, then
/// releases the buffers [`GnnModel::train_step`] keeps between steps.
pub fn fit<T: Scalar>(
    model: &mut GnnModel<T>,
    a: &Csr<T>,
    x: &Dense<T>,
    loss: &dyn Loss<T>,
    opt: &mut dyn Optimizer<T>,
    config: &TrainConfig,
) -> TrainHistory {
    let mut losses = Vec::with_capacity(config.epochs);
    let mut best = f64::INFINITY;
    let mut best_epoch = 0usize;
    let mut stale = 0usize;
    let mut early_stopped = false;
    for epoch in 0..config.epochs {
        let l = model.train_step(a, x, loss, opt).to_f64();
        losses.push(l);
        if l.is_nan() {
            // Diverged — report what happened instead of looping on NaN.
            early_stopped = true;
            break;
        }
        if l < best * (1.0 - config.min_rel_improvement) {
            best = l;
            best_epoch = epoch;
            stale = 0;
        } else {
            stale += 1;
            if config.patience > 0 && stale >= config.patience {
                early_stopped = true;
                break;
            }
        }
    }
    // The run is over: what follows (evaluation, inference) should not
    // sit on top of the step's working set.
    model.release_step_buffers();
    TrainHistory {
        losses,
        early_stopped,
        best_loss: best,
        best_epoch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Mse;
    use crate::optimizer::{Adam, Sgd};
    use crate::ModelKind;
    use atgnn_graphgen::kronecker;
    use atgnn_tensor::{init, Activation};

    fn setup() -> (Csr<f64>, Dense<f64>, Mse<f64>) {
        let a = kronecker::adjacency::<f64>(32, 128, 1);
        let a = GnnModel::<f64>::prepare_adjacency(ModelKind::Gat, &a);
        let x = init::features::<f64>(32, 4, 2);
        let target = init::features::<f64>(32, 2, 3);
        (a, x, Mse::new(target))
    }

    #[test]
    fn fit_improves_loss_and_tracks_best() {
        let (a, x, loss) = setup();
        let mut model = GnnModel::<f64>::uniform(ModelKind::Gat, &[4, 6, 2], Activation::Tanh, 5);
        let mut opt = Adam::new(0.01);
        let hist = fit(
            &mut model,
            &a,
            &x,
            &loss,
            &mut opt,
            &TrainConfig {
                epochs: 50,
                patience: 0,
                min_rel_improvement: 0.0,
            },
        );
        assert_eq!(hist.epochs_run(), 50);
        assert!(hist.best_loss < hist.losses[0]);
        assert_eq!(hist.best_loss, hist.losses[hist.best_epoch]);
    }

    #[test]
    fn early_stopping_triggers_on_plateau() {
        let (a, x, loss) = setup();
        let mut model = GnnModel::<f64>::uniform(ModelKind::Gat, &[4, 6, 2], Activation::Tanh, 5);
        // Zero learning rate → immediate plateau.
        let mut opt = Sgd::new(0.0);
        let hist = fit(
            &mut model,
            &a,
            &x,
            &loss,
            &mut opt,
            &TrainConfig {
                epochs: 100,
                patience: 5,
                min_rel_improvement: 1e-6,
            },
        );
        assert!(hist.early_stopped);
        assert!(hist.epochs_run() <= 7, "ran {} epochs", hist.epochs_run());
    }

    #[test]
    fn divergence_stops_instead_of_looping() {
        let (a, x, loss) = setup();
        let mut model = GnnModel::<f64>::uniform(ModelKind::Va, &[4, 6, 2], Activation::Relu, 5);
        // An absurd learning rate on the unnormalized VA diverges fast.
        let mut opt = Sgd::new(1e6);
        let hist = fit(&mut model, &a, &x, &loss, &mut opt, &TrainConfig::default());
        assert!(hist.early_stopped);
        assert!(hist.epochs_run() < 20);
    }
}
