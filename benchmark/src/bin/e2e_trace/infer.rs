//! `infer_er`, traced.

use crate::attribute::{self, coverage_gate, tail_metrics, value, DepthIds, Shape};
use crate::model_trace::{self, Depth, Resolved};
use crate::roofline;
use atgnn::ModelKind;
use atgnn_e2e_benchmark::cli::Args;
use atgnn_e2e_benchmark::harness::{gate, run_detail, timed_loop, Report};
use atgnn_e2e_benchmark::inputs::{self, Seeds};
use atgnn_e2e_benchmark::spans::Tracer;
use atgnn_e2e_benchmark::spec::{Workload, K};
use atgnn_e2e_benchmark::stats;
use atgnn_e2e_benchmark::workloads::infer;
use atgnn_tensor::rt;
use std::time::Instant;

pub fn run(args: &Args, t: &mut Tracer) -> Report {
    let n = Workload::InferEr.vertices(args.smoke);
    let window = args.window();
    let host = roofline::measure();
    let s = infer::setup(n, args.seed, None);
    let resolved = Resolved::of(t, &inputs::gat(Seeds::of(args.seed).weights), &s.a);

    let want = s.pass();
    let (ref_step_s, _) = timed_loop(window * 0.3, 1, || {
        std::hint::black_box(s.pass());
    });

    // The same pass replayed at rotating depths (three passes at least,
    // one per depth); every output must equal the real call's, bit for
    // bit.
    let mut ids = DepthIds::default();
    let (mut id, mut differing) = (0u64, 0u64);
    timed_loop(window * 0.4, 3, || {
        let depth = Depth::of_step(id as usize + 2);
        t.set_trace(id);
        ids.push(depth, id);
        let got = model_trace::inference(t, &s.model, &resolved, &s.a, &s.x, depth);
        differing += u64::from(!model_trace::same_bits(&got, &want));
        id += 1;
    });

    // The plain single-thread baseline of the same pass.
    let threads = rt::num_threads();
    rt::set_threads(1);
    let (one_thread_s, _) = timed_loop(window * 0.1, 1, || {
        std::hint::black_box(s.pass());
    });
    rt::set_threads(threads);

    // The local (message-passing) formulation of the same model: the
    // paper's single-node comparison, for reference.
    let tl = Instant::now();
    std::hint::black_box(atgnn_baseline::local::inference_like(
        &s.model,
        ModelKind::Gat,
        &s.a,
        &s.x,
    ));
    let local_infer_s = tl.elapsed().as_secs_f64();

    let ref_s = stats::median(&ref_step_s);
    let shape = Shape {
        n,
        nnz: s.a.nnz(),
        k: K,
        layers: s.model.depth(),
        training: false,
    };
    let mut metrics = attribute::model_metrics(
        t.spans(),
        &ids,
        &host,
        &shape,
        "core.inference",
        &ref_step_s,
    );
    metrics.extend(attribute::host_metrics(&host));
    metrics.extend(attribute::resolution_metrics(t.spans()));
    metrics.extend([
        ("graphgen.generate_s", s.generate_s),
        ("tensor.rt_speedup", stats::median(&one_thread_s) / ref_s),
        ("baseline.local_infer_s", local_infer_s),
        ("e2e.step_s_p50", ref_s),
    ]);
    metrics.extend(tail_metrics(&ref_step_s));
    let coverage = value(&metrics, "core.trace_coverage");
    let mut detail = run_detail(Workload::InferEr, args, n, shape.nnz, &resolved.plan);
    detail.extend([
        ("reference_passes", ref_step_s.len().into()),
        ("traced_passes", id.into()),
        ("rt_threads", threads.into()),
    ]);
    Report {
        workload: Workload::InferEr,
        attempted: id,
        failed: differing,
        gates: vec![
            gate(
                "shadow_bit_identical",
                differing == 0,
                format!("{differing} of {id} replayed passes differ from GnnModel::inference"),
            ),
            coverage_gate(coverage, args.smoke),
        ],
        metrics,
        reported: Vec::new(),
        detail,
    }
}
