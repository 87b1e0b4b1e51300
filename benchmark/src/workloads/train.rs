//! `train_kron`: full-batch GAT training on the skewed graph.

use crate::cli::Args;
use crate::harness::{close_rel, gate, run_detail, tail_rows, timed_loop, timed_setups, Report};
use crate::inputs::{self, Seeds};
use crate::spec::{Workload, LR};
use crate::{host, stats};
use atgnn::loss::Mse;
use atgnn::optimizer::Sgd;
use atgnn::plan::ExecPlan;
use atgnn::GnnModel;
use atgnn_sparse::Csr;
use atgnn_tensor::Dense;
use std::time::Instant;

/// A model ready to train, one (cold) step in.
pub struct Train {
    pub a: Csr<f32>,
    pub x: Dense<f32>,
    pub loss: Mse<f32>,
    pub model: GnnModel<f32>,
    pub opt: Sgd<f32>,
    /// Loss of the warm-up step (step 1 of the run).
    pub warm_loss: f32,
    pub generate_s: f64,
}

impl Train {
    /// Builds the model (under `plan`, or the product's default) and runs
    /// the one warm-up step: cold plan resolution, the reorder decision
    /// and the pool spawn all happen in it.
    pub fn new(
        a: Csr<f32>,
        x: Dense<f32>,
        target: Dense<f32>,
        weights_seed: u64,
        plan: Option<ExecPlan>,
    ) -> Self {
        let loss = Mse::new(target);
        let mut model = inputs::gat(weights_seed);
        if let Some(plan) = plan {
            model = model.with_plan(plan);
        }
        let mut opt = Sgd::new(LR);
        let warm_loss = model.train_step(&a, &x, &loss, &mut opt);
        Self {
            a,
            x,
            loss,
            model,
            opt,
            warm_loss,
            generate_s: 0.0,
        }
    }

    pub fn step(&mut self) -> f32 {
        self.model
            .train_step(&self.a, &self.x, &self.loss, &mut self.opt)
    }
}

/// Graph generation, features, targets, model build, one warm-up step.
pub fn setup(n: usize, seed: u64, plan: Option<ExecPlan>) -> Train {
    let s = Seeds::of(seed);
    let t = Instant::now();
    let a = inputs::kron(n, s.graph);
    let generate_s = t.elapsed().as_secs_f64();
    let x = inputs::features(n, s.features);
    let target = inputs::features(n, s.target);
    Train {
        generate_s,
        ..Train::new(a, x, target, s.weights, plan)
    }
}

/// The first `steps` losses of the same training under the oracle plan.
/// Flips the process-global kernel switches: call after the last timed
/// iteration only.
pub fn oracle_losses(n: usize, seed: u64, steps: usize) -> Vec<f32> {
    let plan = inputs::oracle_plan();
    plan.apply_kernel_knobs();
    let mut t = setup(n, seed, Some(plan));
    let mut losses = vec![t.warm_loss];
    losses.extend((1..steps).map(|_| t.step()));
    losses
}

/// Losses must be finite and must not rise (beyond f32 rounding).
pub fn count_bad_losses(losses: &[f32]) -> u64 {
    let rising = losses.windows(2).filter(|w| w[1] > w[0] * (1.0 + 1e-6));
    (losses.iter().filter(|l| !l.is_finite()).count() + rising.count()) as u64
}

pub fn run(args: &Args) -> Report {
    let n = Workload::TrainKron.vertices(args.smoke);
    let (mut t, setup_times) = timed_setups(Workload::TrainKron.setups(args.smoke), || {
        setup(n, args.seed, None)
    });
    let mut losses = vec![t.warm_loss];
    let (step_s, elapsed) = timed_loop(args.window(), 1, || losses.push(t.step()));
    // Before verification: the oracle's staged intermediates would raise
    // the peak above anything the measured path allocates.
    let peak_rss_mb = host::peak_rss_mb();
    let plan = t.model.resolved_plan(&t.a);
    let (nnz, generate_s) = (t.a.nnz(), t.generate_s);
    drop(t);

    let tv = Instant::now();
    let oracle = oracle_losses(n, args.seed, 2);
    let verify_s = tv.elapsed().as_secs_f64();
    let bad = count_bad_losses(&losses);
    let agrees = oracle
        .iter()
        .zip(&losses)
        .all(|(o, l)| close_rel(*o as f64, *l as f64, 1e-3));

    let mut reported = vec![
        (
            "failed_share",
            bad as f64 / losses.len() as f64,
            "ratio",
            losses.len(),
        ),
        ("verify_s", verify_s, "s", 1),
        ("graphgen.generate_s", generate_s, "s", 1),
    ];
    reported.extend(tail_rows(&step_s));
    let mut detail = run_detail(Workload::TrainKron, args, n, nnz, &plan);
    detail.extend([
        ("window_s", elapsed.into()),
        ("samples", step_s.len().into()),
        ("setup_samples", setup_times.clone().into()),
    ]);
    Report {
        workload: Workload::TrainKron,
        attempted: losses.len() as u64,
        failed: bad,
        gates: vec![
            gate(
                "oracle_losses",
                agrees,
                format!(
                    "steps 1-2: measured {:?} vs oracle plan {oracle:?} (rel 1e-3)",
                    &losses[..2]
                ),
            ),
            gate(
                "losses_finite_non_increasing",
                bad == 0,
                format!(
                    "{} losses, {} -> {}, {bad} bad",
                    losses.len(),
                    losses[0],
                    losses[losses.len() - 1]
                ),
            ),
        ],
        metrics: vec![
            ("setup_s", stats::median(&setup_times)),
            ("step_s_p50", stats::median(&step_s)),
            ("steps_per_s", step_s.len() as f64 / elapsed),
            ("peak_rss_mb", peak_rss_mb),
        ],
        reported,
        detail,
    }
}
