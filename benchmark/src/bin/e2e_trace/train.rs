//! `train_kron`, traced.

use crate::attribute::{self, coverage_gate, tail_metrics, value, Shape};
use crate::model_trace::Resolved;
use crate::roofline;
use atgnn_e2e_benchmark::cli::Args;
use atgnn_e2e_benchmark::harness::{gate, run_detail, Report};
use atgnn_e2e_benchmark::inputs::{self, Seeds};
use atgnn_e2e_benchmark::spans::Tracer;
use atgnn_e2e_benchmark::spec::{Workload, K};
use atgnn_e2e_benchmark::stats;
use atgnn_e2e_benchmark::workloads::train;

pub fn run(args: &Args, t: &mut Tracer) -> Report {
    let n = Workload::TrainKron.vertices(args.smoke);
    let host = roofline::measure();
    let mut reference = train::setup(n, args.seed, None);
    let mut twin = train::setup(n, args.seed, None);
    // Cold resolution needs a model that has not seen the graph.
    Resolved::of(t, &inputs::gat(Seeds::of(args.seed).weights), &reference.a);
    let trace = attribute::trace_training(t, &mut reference, &mut twin, args.window() * 0.8);

    let ref_step_s = stats::median(&trace.ref_step_s);
    let shape = Shape {
        n,
        nnz: reference.a.nnz(),
        k: K,
        layers: reference.model.depth(),
        training: true,
    };
    let mut metrics = attribute::model_metrics(
        t.spans(),
        &trace.ids,
        &host,
        &shape,
        "core.step",
        &trace.ref_step_s,
    );
    metrics.extend(attribute::host_metrics(&host));
    metrics.extend(attribute::resolution_metrics(t.spans()));
    metrics.extend([
        ("graphgen.generate_s", reference.generate_s),
        ("sparse.value_allocs_per_step", trace.value_allocs_per_step),
        ("e2e.step_s_p50", ref_step_s),
    ]);
    metrics.extend(tail_metrics(&trace.ref_step_s));
    let coverage = value(&metrics, "core.trace_coverage");
    let bad = train::count_bad_losses(&trace.losses);
    let plan = reference.model.resolved_plan(&reference.a);
    let mut detail = run_detail(Workload::TrainKron, args, n, shape.nnz, &plan);
    detail.extend([
        ("reference_steps", trace.ref_step_s.len().into()),
        ("kernel_depth_steps", trace.ids.kernels.len().into()),
    ]);
    Report {
        workload: Workload::TrainKron,
        attempted: 2 * trace.losses.len() as u64,
        failed: bad,
        gates: vec![
            gate(
                "shadow_bit_identical",
                trace.bit_identical,
                "losses and final parameters of the traced twin equal the untraced model's, bit for bit",
            ),
            coverage_gate(coverage, args.smoke),
            gate("losses_finite_non_increasing", bad == 0, format!("{bad} bad of {}", trace.losses.len())),
        ],
        metrics,
        reported: Vec::new(),
        detail,
    }
}
