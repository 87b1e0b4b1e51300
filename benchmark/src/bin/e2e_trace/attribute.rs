//! From spans to per-layer metrics: which traced steps ran at which
//! depth, the per-step time of every span name, and the rates of the
//! kernels held against the host's roofline.

use crate::model_trace::{self, Depth, Resolved};
use crate::roofline::{self, Host, Work};
use atgnn_e2e_benchmark::harness::{gate, timed_loop, Gate};
use atgnn_e2e_benchmark::spans::{totals_by_name, Span, Tracer};
use atgnn_e2e_benchmark::stats;
use atgnn_e2e_benchmark::workloads::train::Train;
use std::time::Instant;

/// Trace ids of the steps replayed at each depth.
#[derive(Default)]
pub struct DepthIds {
    pub phases: Vec<u64>,
    pub layers: Vec<u64>,
    pub kernels: Vec<u64>,
}

impl DepthIds {
    pub fn push(&mut self, depth: Depth, id: u64) {
        match depth {
            Depth::Phases => self.phases.push(id),
            Depth::Layers => self.layers.push(id),
            Depth::Kernels => self.kernels.push(id),
        }
    }
}

/// The problem one traced step works on.
pub struct Shape {
    pub n: usize,
    pub nnz: usize,
    pub k: usize,
    pub layers: usize,
    /// Training sweeps also write Ψ and the scores.
    pub training: bool,
}

/// Seconds per step of each span name, over the steps in `ids`.
fn per_step<'a>(spans: &'a [Span], ids: &'a [u64]) -> impl Fn(&str) -> f64 + 'a {
    let totals = totals_by_name(spans, |s| ids.contains(&s.trace));
    let steps = ids.len().max(1) as f64;
    move |name| totals.get(name).map_or(0.0, |t| t.total) / steps
}

/// The model-side metrics of one workload's traced steps. `root` is the
/// span that encloses a whole step; `ref_steps` are the untraced steps
/// the coverage and the overhead are taken against.
///
/// Coverage compares the *fastest* kernel-depth step (its leaf
/// self-times summed) with the *fastest* untraced step: a stall of the
/// host only ever adds time, so the minima are what the two paths cost
/// when nothing interferes, and the ratio says whether they do the same
/// work. The overhead compares medians.
pub fn model_metrics(
    spans: &[Span],
    ids: &DepthIds,
    host: &Host,
    shape: &Shape,
    root: &'static str,
    ref_steps: &[f64],
) -> Vec<(&'static str, f64)> {
    let phases = per_step(spans, &ids.phases);
    let layers = per_step(spans, &ids.layers);
    let kernels = per_step(spans, &ids.kernels);
    let ms = |s: f64| s * 1e3;
    // An untaken-apart inference is all forward.
    let forward = phases("core.forward") + phases("core.inference");
    let gemm_flops = (2 * shape.n * shape.k * shape.k * shape.layers) as f64;
    let per_layer = shape.layers as f64;
    let cached = if shape.training { 2 } else { 0 };
    let sweep = Work::aggregation(shape.n, shape.nnz, shape.k, cached).scaled(per_layer);
    let scatter = Work::aggregation(shape.n, shape.nnz, shape.k, 0).scaled(per_layer);
    let (sweep_gflops, sweep_gbs, sweep_roof) =
        roofline::rates(host, sweep, kernels("sparse.sweep_fwd"));
    let (_, spmm_t_gbs, spmm_t_roof) = roofline::rates(host, scatter, kernels("sparse.spmm_t"));
    let project = kernels("tensor.project_gemm");

    let leaf_own = |id: u64| -> f64 {
        totals_by_name(spans, |s| s.trace == id)
            .values()
            .map(|t| t.leaf_own)
            .sum()
    };
    let fastest = |v: &mut dyn Iterator<Item = f64>| v.fold(f64::INFINITY, f64::min);
    let ref_min = fastest(&mut ref_steps.iter().copied());
    let coverage = if ids.kernels.is_empty() || ref_steps.is_empty() {
        0.0
    } else {
        fastest(&mut ids.kernels.iter().map(|&id| leaf_own(id))) / ref_min
    };
    let traced_step = kernels(root);
    let ref_median = stats::median(ref_steps);
    vec![
        ("core.forward_ms", ms(forward)),
        ("core.loss_ms", ms(phases("core.loss"))),
        ("core.backward_ms", ms(phases("core.backward"))),
        ("core.optimizer_ms", ms(phases("core.optimizer"))),
        ("core.layer_fwd_ms.l0", ms(layers("core.layer_fwd.l0"))),
        ("core.layer_fwd_ms.l1", ms(layers("core.layer_fwd.l1"))),
        ("core.layer_bwd_ms.l0", ms(layers("core.layer_bwd.l0"))),
        ("core.layer_bwd_ms.l1", ms(layers("core.layer_bwd.l1"))),
        ("core.ingest_ms", ms(kernels("core.ingest"))),
        ("core.copy_ms", ms(kernels("core.copy"))),
        ("core.restore_ms", ms(kernels("core.restore"))),
        ("tensor.project_gemm_ms", ms(project)),
        (
            "tensor.project_gemm_gflops",
            if project > 0.0 {
                gemm_flops / project / 1e9
            } else {
                0.0
            },
        ),
        ("tensor.matvec_ms", ms(kernels("tensor.matvec"))),
        ("tensor.activation_ms", ms(kernels("tensor.activation"))),
        ("tensor.wgrad_gemm_ms", ms(kernels("tensor.wgrad_gemm"))),
        ("tensor.dgrad_gemm_ms", ms(kernels("tensor.dgrad_gemm"))),
        ("sparse.sweep_fwd_ms", ms(kernels("sparse.sweep_fwd"))),
        ("sparse.sweep_fwd_gflops", sweep_gflops),
        ("sparse.sweep_fwd_gbs", sweep_gbs),
        ("sparse.sweep_fwd_roofline", sweep_roof),
        ("sparse.sweep_bwd_ms", ms(kernels("sparse.sweep_bwd"))),
        ("sparse.col_sums_ms", ms(kernels("sparse.col_sums"))),
        ("sparse.spmm_t_ms", ms(kernels("sparse.spmm_t"))),
        ("sparse.spmm_t_gbs", spmm_t_gbs),
        ("sparse.spmm_t_roofline", spmm_t_roof),
        ("core.trace_coverage", coverage),
        (
            "core.trace_overhead",
            if traced_step > 0.0 && ref_median > 0.0 {
                traced_step / ref_median - 1.0
            } else {
                0.0
            },
        ),
    ]
}

pub fn host_metrics(host: &Host) -> Vec<(&'static str, f64)> {
    vec![
        ("host.peak_gflops", host.peak_gflops),
        ("host.triad_gbs", host.triad_gbs),
        ("host.triad_bytes", host.triad_bytes as f64),
        ("host.llc_bytes", host.llc_bytes as f64),
    ]
}

/// Set-up-side spans: cold and warm plan resolution and the reorder,
/// averaged over however many times they were recorded.
pub fn resolution_metrics(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let totals = totals_by_name(spans, |_| true);
    let mean = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total / t.count.max(1) as f64)
    };
    vec![
        ("core.resolve_cold_ms", mean("core.resolve_cold") * 1e3),
        ("core.resolve_warm_us", mean("core.resolve_warm") * 1e6),
        ("graphgen.reorder_ms", mean("graphgen.reorder") * 1e3),
    ]
}

pub fn value(metrics: &[(&'static str, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |m| m.1)
}

/// Leaf self-times must add up to the untraced step. The expectation is
/// [0.85, 1.15]: outside it the shadow replays something the real path
/// no longer does (or misses something it does). Single runs on a shared
/// host scatter about ±12 % around 1 even between fastest steps — a
/// kernel-depth step at full size is sampled twice — so a run is failed
/// only outside [0.7, 1.3], which a missing or doubled kernel still
/// leaves, and the verdict against the expectation is printed beside it.
/// Smoke sizes are too small for the ratio to mean anything.
pub fn coverage_gate(coverage: f64, smoke: bool) -> Gate {
    let expected = if (0.85..=1.15).contains(&coverage) {
        "inside"
    } else {
        "OUTSIDE"
    };
    gate(
        "trace_coverage",
        smoke || (0.7..=1.3).contains(&coverage),
        format!(
            "leaf self-times of the fastest kernel-depth step / fastest untraced step = {coverage:.3}: {expected} the expected [0.85, 1.15] (fails outside [0.7, 1.3])"
        ),
    )
}

/// The ungated tail of the reference steps, as per-layer metrics.
pub fn tail_metrics(step_s: &[f64]) -> Vec<(&'static str, f64)> {
    stats::tail(&stats::sorted(step_s.to_vec())).map_or(Vec::new(), |tail| {
        vec![
            ("e2e.step_s_tail", tail.value),
            ("e2e.step_s_tail_pct", tail.percentile),
            ("e2e.step_s_tail_beyond", tail.beyond as f64),
        ]
    })
}

/// A training run taken apart: untraced reference steps and as many
/// traced steps on a twin model.
pub struct TrainTrace {
    pub ref_step_s: Vec<f64>,
    pub ids: DepthIds,
    /// Losses and final parameters of the traced twin equal the
    /// reference's bit for bit — at every depth, the shadow included.
    pub bit_identical: bool,
    pub losses: Vec<f32>,
    /// `Csr` value arrays the reference allocates per step.
    pub value_allocs_per_step: f64,
}

/// Steps `reference` (untraced) and `twin` (traced, at rotating depths)
/// in turn until `window_s` has passed — four rounds at least, so every
/// depth gets a step and the kernel depth two. The two models start from
/// the same inputs, weights and step count; taking turns keeps slow
/// drift of the host out of the ratio between them.
pub fn trace_training(
    t: &mut Tracer,
    reference: &mut Train,
    twin: &mut Train,
    window_s: f64,
) -> TrainTrace {
    let resolved = Resolved::of(&mut Tracer::new(), &twin.model, &twin.a);
    let mut allocs = 0;
    let (mut ref_step_s, mut ref_losses) = (Vec::new(), Vec::new());
    let mut ids = DepthIds::default();
    let mut losses = Vec::new();
    timed_loop(window_s, 4, || {
        let before = atgnn_sparse::csr::value_allocs();
        let s = Instant::now();
        ref_losses.push(reference.step());
        ref_step_s.push(s.elapsed().as_secs_f64());
        allocs += atgnn_sparse::csr::value_allocs() - before;

        // Kernel depth first: it is the one a short run must not miss.
        let depth = Depth::of_step(losses.len() + 2);
        let id = losses.len() as u64;
        t.set_trace(id);
        ids.push(depth, id);
        losses.push(model_trace::train_step(t, twin, &resolved, depth));
    });
    let same_losses = losses
        .iter()
        .zip(&ref_losses)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    TrainTrace {
        bit_identical: same_losses
            && model_trace::param_bits(&twin.model) == model_trace::param_bits(&reference.model),
        value_allocs_per_step: allocs as f64 / ref_step_s.len() as f64,
        ref_step_s,
        ids,
        losses,
    }
}
