//! `infer_er`: full-graph GAT inference on the uniform graph.

use crate::cli::Args;
use crate::harness::{gate, run_detail, tail_rows, timed_loop, timed_setups, Report};
use crate::inputs::{self, Seeds};
use crate::spec::Workload;
use crate::{host, stats};
use atgnn::plan::ExecPlan;
use atgnn::GnnModel;
use atgnn_sparse::Csr;
use atgnn_tensor::Dense;
use std::time::Instant;

/// Warm-up passes of one set-up (cold resolution, reorder decision, pool
/// spawn, allocator warm-up).
pub const WARMUP_PASSES: usize = 3;

/// Two stacked f32 layers of kernels each held to 1e-6 relative of the
/// oracle (DESIGN.md §6, "bit-exact vs tolerance-gated"): the model
/// output is gated at 1e-4 of its largest magnitude.
pub const OUTPUT_TOLERANCE: f64 = 1e-4;

pub struct Infer {
    pub a: Csr<f32>,
    pub x: Dense<f32>,
    pub model: GnnModel<f32>,
    pub generate_s: f64,
}

impl Infer {
    pub fn pass(&self) -> Dense<f32> {
        self.model.inference(&self.a, &self.x)
    }
}

/// Graph generation, features, model build, the warm-up passes.
pub fn setup(n: usize, seed: u64, plan: Option<ExecPlan>) -> Infer {
    let s = Seeds::of(seed);
    let t = Instant::now();
    let a = inputs::er(n, s.graph);
    let generate_s = t.elapsed().as_secs_f64();
    let x = inputs::features(n, s.features);
    let mut model = inputs::gat(s.weights);
    if let Some(plan) = plan {
        model = model.with_plan(plan);
    }
    let infer = Infer {
        a,
        x,
        model,
        generate_s,
    };
    for _ in 0..WARMUP_PASSES {
        std::hint::black_box(infer.pass());
    }
    infer
}

/// The same inference under the oracle plan. Flips the process-global
/// kernel switches: call after the last timed iteration only.
pub fn oracle_output(n: usize, seed: u64) -> Dense<f32> {
    let plan = inputs::oracle_plan();
    plan.apply_kernel_knobs();
    setup(n, seed, Some(plan)).pass()
}

/// Largest absolute difference as a share of the reference's largest
/// magnitude; infinite when `out` holds a non-finite value.
pub fn relative_error(out: &Dense<f32>, reference: &Dense<f32>) -> f64 {
    if out.as_slice().iter().any(|v| !v.is_finite()) {
        return f64::INFINITY;
    }
    out.max_abs_diff(reference) as f64 / (reference.max_abs() as f64).max(f64::MIN_POSITIVE)
}

/// A few output entries, strided across the matrix: inference is
/// deterministic, so every pass must reproduce them bit for bit — a
/// per-pass check cheap enough not to dilute the measured rate.
fn fingerprint(out: &Dense<f32>) -> [u32; 16] {
    let s = out.as_slice();
    std::array::from_fn(|i| s[i * (s.len() - 1) / 15].to_bits())
}

pub fn run(args: &Args) -> Report {
    let n = Workload::InferEr.vertices(args.smoke);
    let (t, setup_times) = timed_setups(Workload::InferEr.setups(args.smoke), || {
        setup(n, args.seed, None)
    });
    let first = fingerprint(&t.pass());
    let (mut last, mut drifted) = (None, 0u64);
    let (step_s, elapsed) = timed_loop(args.window(), 1, || {
        let out = t.pass();
        drifted += u64::from(fingerprint(&out) != first);
        last = Some(out);
    });
    let peak_rss_mb = host::peak_rss_mb();
    let plan = t.model.resolved_plan(&t.a);
    let (nnz, generate_s) = (t.a.nnz(), t.generate_s);
    drop(t);

    let tv = Instant::now();
    let err = relative_error(
        &last.expect("at least one pass"),
        &oracle_output(n, args.seed),
    );
    let verify_s = tv.elapsed().as_secs_f64();
    let failed = drifted + u64::from(err > OUTPUT_TOLERANCE);

    let mut reported = vec![
        (
            "failed_share",
            failed as f64 / step_s.len() as f64,
            "ratio",
            step_s.len(),
        ),
        ("verify_s", verify_s, "s", 1),
        ("graphgen.generate_s", generate_s, "s", 1),
    ];
    reported.extend(tail_rows(&step_s));
    let mut detail = run_detail(Workload::InferEr, args, n, nnz, &plan);
    detail.extend([
        ("window_s", elapsed.into()),
        ("samples", step_s.len().into()),
        ("setup_samples", setup_times.clone().into()),
    ]);
    Report {
        workload: Workload::InferEr,
        attempted: step_s.len() as u64,
        failed,
        gates: vec![
            gate(
                "oracle_output",
                err <= OUTPUT_TOLERANCE,
                format!(
                    "max |out - oracle| / max |oracle| = {err:.3e} (limit {OUTPUT_TOLERANCE:e})"
                ),
            ),
            gate(
                "passes_reproduce",
                drifted == 0,
                format!("{drifted} of {} passes differ from the first", step_s.len()),
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
