//! `dist_kron4`, traced: the exact communication counters, the α–β
//! terms, and the single-node step on the same graph taken apart (the
//! distributed layers are a different implementation; what a shadow of
//! `GatLayer` can attribute is the compute term).

use crate::attribute::{self, Shape};
use crate::roofline;
use atgnn_e2e_benchmark::cli::Args;
use atgnn_e2e_benchmark::harness::{gate, run_detail, Report};
use atgnn_e2e_benchmark::spans::Tracer;
use atgnn_e2e_benchmark::spec::{Workload, K, RANKS};
use atgnn_e2e_benchmark::stats;
use atgnn_e2e_benchmark::workloads::dist::{self, Until};
use atgnn_e2e_benchmark::workloads::train::Train;
use atgnn_net::MachineModel;
use std::time::Duration;

pub fn run(args: &Args, t: &mut Tracer) -> Report {
    let n = Workload::DistKron4.vertices(args.smoke);
    let window = args.window();
    let host = roofline::measure();
    let inp = dist::inputs(n, args.seed);
    let block = dist::run_block(&inp, Until::Elapsed(Duration::from_secs_f64(window * 0.35)));

    let single = || {
        let i = dist::inputs(n, args.seed);
        Train::new(i.a, i.x, i.target, i.weights_seed, None)
    };
    let (mut reference, mut twin) = (single(), single());
    let trace = attribute::trace_training(t, &mut reference, &mut twin, window * 0.5);

    let steps = block.steps() as f64;
    let single_step_s = stats::median(&trace.ref_step_s);
    let wall_step_s = stats::median(&block.step_s()[1..]);
    let modeled_step_s = dist::modeled_step_s(single_step_s, &block);
    let layers = reference.model.depth();
    let bound_words = (n * K) as f64 / (RANKS as f64).sqrt() + (K * K) as f64;
    let shape = Shape {
        n,
        nnz: inp.a.nnz(),
        k: K,
        layers,
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
    let comm_s = MachineModel::aries().comm_time(
        block.bytes_per_step().round() as u64,
        block.supersteps_per_step().round() as u64,
    );
    metrics.extend([
        ("graphgen.generate_s", inp.generate_s),
        ("sparse.value_allocs_per_step", trace.value_allocs_per_step),
        ("net.bytes_max_rank_per_step", block.bytes_per_step()),
        (
            "net.messages_per_step",
            block.stats.total_messages() as f64 / steps,
        ),
        ("net.supersteps_per_step", block.supersteps_per_step()),
        (
            "net.phase_bytes.forward",
            block.stats.phase_total("forward") as f64 / steps,
        ),
        (
            "net.phase_bytes.backward",
            block.stats.phase_total("backward") as f64 / steps,
        ),
        (
            "net.phase_bytes.grad-allreduce",
            block.stats.phase_total("grad-allreduce") as f64 / steps,
        ),
        (
            "dist.context_ms",
            block.ranks.iter().map(|r| r.context_s).fold(0.0, f64::max) * 1e3,
        ),
        ("dist.block_nnz_imbalance", block.imbalance()),
        (
            "dist.volume_vs_bound",
            block.bytes_per_step() / 4.0 / layers as f64 / bound_words,
        ),
        ("dist.modeled_comm_ms", comm_s * 1e3),
        ("dist.modeled_step_s", modeled_step_s),
        ("dist.single_step_s", single_step_s),
        ("dist.wall_step_s", wall_step_s),
        ("dist.sim_vs_single", wall_step_s / single_step_s),
        ("e2e.step_s_p50", modeled_step_s),
    ]);
    let volume_ok = block.ranks.iter().all(|r| r.volume_ok);
    let plan = reference.model.resolved_plan(&reference.a);
    let mut detail = run_detail(Workload::DistKron4, args, n, shape.nnz, &plan);
    detail.extend([
        ("ranks", RANKS.into()),
        ("distributed_steps", block.steps().into()),
        ("reference_steps", trace.ref_step_s.len().into()),
    ]);
    Report {
        workload: Workload::DistKron4,
        attempted: (block.steps() + 2 * trace.losses.len()) as u64,
        failed: 0,
        gates: vec![
            gate(
                "shadow_bit_identical",
                trace.bit_identical,
                "single-node step: traced twin equals the untraced model, bit for bit",
            ),
            gate(
                "comm_volume_within_bound",
                volume_ok,
                format!("check_comm_volume passes on every rank: {volume_ok}"),
            ),
        ],
        metrics,
        reported: Vec::new(),
        detail,
    }
}
