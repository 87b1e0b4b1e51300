//! Checkpoint-based crash recovery for distributed training.
//!
//! [`train_mse_with_recovery`] drives a full-batch MSE training run under
//! supervision: every `ckpt_every` steps rank 0 writes a CRC-checked
//! checkpoint of the replicated parameters (atomic temp-file + rename,
//! fenced by a barrier), and when a rank fails — an injected crash or
//! hang, or any panic — the epoch is respawned from the last checkpoint
//! instead of aborting the job.
//!
//! Determinism argument: parameters are replicated bit-identically across
//! ranks, checkpoints store them as `f64` (the training scalar), and the
//! self-healing communicator never changes reduction order — so replaying
//! steps `s..n` from the step-`s` checkpoint produces *bit-identical*
//! losses and parameters to an undisturbed run. The fault-tolerance tests
//! assert exactly that.
//!
//! Rank faults are treated as transient (a respawned worker does not
//! re-crash at the same superstep): the retry strips the plan's
//! crash/hang entries with [`FaultPlan::without_rank_faults`] while
//! keeping the message-fault environment. Retries are bounded; a failure
//! past the bound surfaces as the underlying [`RankFailure`].

use crate::context::DistContext;
use crate::model::DistGnnModel;
use atgnn_net::{Cluster, CommStats, FaultPlan, RankFailure};
use atgnn_sparse::Csr;
use atgnn_tensor::{Dense, Scalar};
use std::path::PathBuf;

/// Knobs for a recovered training run.
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// Checkpoint cadence in training steps.
    pub ckpt_every: u64,
    /// Where the checkpoint lives (one file, overwritten in place).
    pub ckpt_path: PathBuf,
    /// Maximum cluster launches (1 = no retry budget).
    pub max_attempts: u32,
}

/// What a recovered training run did.
#[derive(Clone, Debug)]
pub struct RecoveryReport<T> {
    /// Per-step losses of the final (successful) attempt — steps
    /// `first_step..total_steps`.
    pub losses: Vec<T>,
    /// The step the final attempt resumed from (0 = from scratch).
    pub first_step: u64,
    /// Total cluster launches (1 = the run never failed).
    pub attempts: u32,
    /// Failures recovered from (`attempts - 1`).
    pub recoveries: u32,
    /// Communication statistics of the successful attempt.
    pub stats: CommStats,
}

impl<T: Copy> RecoveryReport<T> {
    /// The loss of the last training step.
    pub fn final_loss(&self) -> T {
        *self.losses.last().expect("at least one step")
    }
}

/// Runs `steps` full-batch MSE training steps of the model built by
/// `make_model` on `p` ranks under `plan`, checkpointing every
/// `cfg.ckpt_every` steps and recovering rank failures from the last
/// checkpoint. Any stale checkpoint at `cfg.ckpt_path` is removed first.
///
/// `make_model` must be deterministic (it rebuilds the replicated model
/// on every rank of every attempt); inputs are distributed internally
/// with [`DistContext::local_input`].
// The Err variant is the supervisor's RankFailure (with full CommStats);
// it only materializes on the cold retries-exhausted path.
#[allow(clippy::too_many_arguments, clippy::result_large_err)]
pub fn train_mse_with_recovery<T: Scalar>(
    p: usize,
    plan: &FaultPlan,
    cfg: &RecoveryConfig,
    a_full: &Csr<T>,
    x_full: &Dense<T>,
    target_full: &Dense<T>,
    make_model: impl Fn() -> DistGnnModel<T> + Send + Sync,
    steps: u64,
    lr: T,
    k_out: usize,
) -> Result<RecoveryReport<T>, RankFailure> {
    assert!(steps > 0, "a training run needs at least one step");
    assert!(cfg.ckpt_every > 0, "checkpoint cadence must be positive");
    assert!(cfg.max_attempts > 0, "at least one attempt is needed");
    // Verify the execution plan once, on the supervisor, before any rank
    // spends a step on it: a plan the abstract interpreter rejects would
    // fail identically on every attempt, so recovery cannot help.
    #[cfg(debug_assertions)]
    {
        let errs: Vec<_> = make_model()
            .verify_plan()
            .into_iter()
            .filter(|d| d.severity == atgnn::Severity::Error)
            .collect();
        assert!(
            errs.is_empty(),
            "plan verifier rejected the model: {errs:?}"
        );
    }
    std::fs::remove_file(&cfg.ckpt_path).ok();
    let mut active_plan = plan.clone();
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let run = Cluster::run_supervised(p, &active_plan, |comm| {
            let ctx = DistContext::new(&comm, a_full).expect("square grid and adjacency");
            let mut model = make_model();
            let x_j = ctx.local_input(x_full);
            let t_j = ctx.local_input(target_full);
            // Resume from the last checkpoint when one exists. Every
            // rank reads the same file; no rank writes before the next
            // post-checkpoint barrier, so the read is race-free. A
            // missing file (fresh start) or a damaged one falls back to
            // step 0: the loader already rejected anything unverifiable,
            // so training restarts from scratch rather than from garbage.
            let first_step = model.load_checkpoint(&cfg.ckpt_path).unwrap_or_default();
            let mut losses = Vec::with_capacity((steps - first_step) as usize);
            for step in first_step..steps {
                losses.push(model.train_step_mse(&ctx, &x_j, &t_j, lr, k_out));
                let done = step + 1;
                if done % cfg.ckpt_every == 0 && done < steps {
                    ctx.comm.set_phase("checkpoint");
                    if ctx.comm.rank() == 0 {
                        model
                            .save_checkpoint(done, &cfg.ckpt_path)
                            .expect("checkpoint write failed");
                    }
                    // Fence: no rank races past a checkpoint its peers
                    // might need to recover from (and no rank of a
                    // respawned attempt can observe a half-written
                    // file — the write is also atomic on its own).
                    ctx.comm.barrier();
                }
            }
            (first_step, losses)
        });
        match run {
            Ok((mut results, stats)) => {
                let (first_step, losses) = results.swap_remove(0);
                std::fs::remove_file(&cfg.ckpt_path).ok();
                return Ok(RecoveryReport {
                    losses,
                    first_step,
                    attempts,
                    recoveries: attempts - 1,
                    stats,
                });
            }
            Err(failure) => {
                if attempts >= cfg.max_attempts {
                    std::fs::remove_file(&cfg.ckpt_path).ok();
                    return Err(failure);
                }
                // Rank faults are transient: the respawned attempt keeps
                // the message-fault environment but does not re-inject
                // the crash/hang.
                active_plan = active_plan.without_rank_faults();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgnn::{GnnModel, ModelKind};
    use atgnn_sparse::Coo;
    use atgnn_tensor::{init, Activation};

    fn graph(n: usize) -> Csr<f64> {
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| [(i, (i + 1) % n as u32), (i, (i + 3) % n as u32)])
            .filter(|&(a, b)| a != b)
            .collect();
        let mut coo = Coo::from_edges(n, n, edges);
        coo.symmetrize_binary();
        Csr::from_coo(&coo)
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("atgnn_recovery");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn checkpoint_round_trip_restores_training_state() {
        let model = DistGnnModel::<f64>::uniform(ModelKind::Gat, &[3, 4, 2], Activation::Tanh, 7);
        let path = tmp("dist_gat.ckpt");
        model.save_checkpoint(12, &path).expect("save");
        let mut other =
            DistGnnModel::<f64>::uniform(ModelKind::Gat, &[3, 4, 2], Activation::Tanh, 99);
        let step = other.load_checkpoint(&path).expect("load");
        assert_eq!(step, 12);
        // Both models must now behave identically.
        let a = GnnModel::<f64>::prepare_adjacency(ModelKind::Gat, &graph(8));
        let x = init::features(8, 3, 5);
        let (out_a, out_b) = {
            let a2 = a.clone();
            let x2 = x.clone();
            let (mut res, _) = Cluster::run(1, move |comm| {
                let ctx = DistContext::new(&comm, &a2).expect("ctx");
                let m =
                    DistGnnModel::<f64>::uniform(ModelKind::Gat, &[3, 4, 2], Activation::Tanh, 7);
                m.inference(&ctx, &x2)
            });
            let first = res.swap_remove(0);
            let (mut res2, _) = Cluster::run(1, move |comm| {
                let ctx = DistContext::new(&comm, &a).expect("ctx");
                let mut m =
                    DistGnnModel::<f64>::uniform(ModelKind::Gat, &[3, 4, 2], Activation::Tanh, 99);
                m.load_checkpoint(&tmp("dist_gat.ckpt")).expect("load");
                m.inference(&ctx, &x)
            });
            (first, res2.swap_remove(0))
        };
        assert_eq!(out_a.max_abs_diff(&out_b), 0.0, "restored model must match");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn agnn_beta_survives_checkpoint() {
        // β is not in the SGD param slots; the checkpoint must carry it.
        let mut model = DistGnnModel::<f64>::uniform(ModelKind::Agnn, &[3, 2], Activation::Relu, 3);
        if let (crate::model::DistLayer::Agnn { beta, .. }, _) = &mut model_layers(&mut model)[0] {
            *beta = 7.25;
        }
        let path = tmp("dist_agnn.ckpt");
        model.save_checkpoint(1, &path).expect("save");
        let mut other =
            DistGnnModel::<f64>::uniform(ModelKind::Agnn, &[3, 2], Activation::Relu, 55);
        other.load_checkpoint(&path).expect("load");
        if let (crate::model::DistLayer::Agnn { beta, .. }, _) = &model_layers(&mut other)[0] {
            assert_eq!(*beta, 7.25);
        } else {
            panic!("expected AGNN layer");
        }
        std::fs::remove_file(path).ok();
    }

    // Test-only access to the private layer list via checkpoint slots.
    fn model_layers<T: Scalar>(
        model: &mut DistGnnModel<T>,
    ) -> &mut Vec<(crate::model::DistLayer<T>, Activation)> {
        model.layers_mut()
    }

    #[test]
    fn fault_free_run_takes_one_attempt() {
        let n = 8;
        let a = GnnModel::<f64>::prepare_adjacency(ModelKind::Gat, &graph(n));
        let x = init::features(n, 3, 19);
        let target = init::features(n, 2, 23);
        let cfg = RecoveryConfig {
            ckpt_every: 2,
            ckpt_path: tmp("clean.ckpt"),
            max_attempts: 2,
        };
        let report = train_mse_with_recovery(
            4,
            &FaultPlan::none(),
            &cfg,
            &a,
            &x,
            &target,
            || DistGnnModel::<f64>::uniform(ModelKind::Gat, &[3, 3, 2], Activation::Tanh, 29),
            6,
            0.05,
            2,
        )
        .expect("clean run");
        assert_eq!(report.attempts, 1);
        assert_eq!(report.recoveries, 0);
        assert_eq!(report.first_step, 0);
        assert_eq!(report.losses.len(), 6);
        assert_eq!(report.stats.total_fault_events(), 0);
        assert!(
            !cfg.ckpt_path.exists(),
            "checkpoint cleaned up after success"
        );
    }
}
