//! `serve_er`, traced: the three load phases, then fixed seeded batches
//! replayed outside the server (ego extraction → feature gather →
//! inference), once taken apart and once as the server runs them.

use crate::attribute::{self, DepthIds, Shape};
use crate::model_trace::{self, Depth, Resolved};
use crate::roofline;
use atgnn_e2e_benchmark::cli::Args;
use atgnn_e2e_benchmark::harness::{gate, run_detail, Report};
use atgnn_e2e_benchmark::inputs::{self, Seeds, SplitMix};
use atgnn_e2e_benchmark::spans::{totals_by_name, Tracer};
use atgnn_e2e_benchmark::spec::serve::{OUTSTANDING, RATE_A, RATE_B};
use atgnn_e2e_benchmark::spec::{Workload, K};
use atgnn_e2e_benchmark::stats;
use atgnn_e2e_benchmark::workloads::serve::{self, Phase};
use atgnn_serve::ServeStats;
use std::time::{Duration, Instant};

/// Replayed batches per batch size.
const REPLAYS: [(usize, usize); 2] = [(1, 32), (16, 16)];

/// Mean live batch size between two counter snapshots.
fn mean_batch(before: &ServeStats, after: &ServeStats) -> f64 {
    let batches = after.batches - before.batches;
    (after.batched_requests - before.batched_requests) as f64 / batches.max(1) as f64
}

/// Accepted requests still unanswered when the window closed, per second
/// of window: about zero while the server keeps up with the arrivals.
fn backlog_growth(p: &Phase) -> f64 {
    (p.sent - p.refused).saturating_sub(p.answered_in_window) as f64 / p.window_s
}

/// One batch size's replays: per-batch means, and the traced batches' ids.
struct Replay {
    ids: Vec<u64>,
    /// Untraced replay time of each batch.
    compute_s: Vec<f64>,
    nodes: f64,
    nnz: f64,
    differing: u64,
}

pub fn run(args: &Args, t: &mut Tracer) -> Report {
    let n = Workload::ServeEr.vertices(args.smoke);
    let window = args.window();
    let host = roofline::measure();
    let mut s = serve::setup(n, args.seed);
    let phase = |share: f64| Duration::from_secs_f64(window * share);

    let st0 = s.server.stats();
    let a = serve::open_loop(&mut s, RATE_A, phase(0.25));
    let (_, st1) = serve::drain(&s);
    let b = serve::open_loop(&mut s, RATE_B, phase(0.2));
    let (_, st2) = serve::drain(&s);
    let c = serve::closed_loop(&mut s, OUTSTANDING, phase(0.25));
    let (drained, st3) = serve::drain(&s);
    let wrong = serve::wrong_rows(&s, &[&a, &b, &c]);
    s.server.shutdown();

    // The replays run what the worker runs per batch, on a model of the
    // same weights. Every extracted subgraph is a fresh `Csr`, so the
    // model's one-entry resolution cache misses on each, as it does in
    // the server.
    let cfg = serve::config();
    let model = inputs::gat(s.weights_seed);
    let mut picks = SplitMix(Seeds::of(args.seed).requests ^ 0xB16);
    let mut next_id = 0u64;
    let replays: Vec<Replay> = REPLAYS
        .iter()
        .map(|&(size, count)| {
            let mut r = Replay {
                ids: Vec::new(),
                compute_s: Vec::new(),
                nodes: 0.0,
                nnz: 0.0,
                differing: 0,
            };
            for _ in 0..count {
                let seeds: Vec<usize> = (0..size).map(|_| picks.below(n)).collect();
                t.set_trace(next_id);
                r.ids.push(next_id);
                next_id += 1;
                let extract = || s.graph.ego_union(&seeds, cfg.hops, cfg.fanout, cfg.seed);
                let traced = t.span("serve.batch", |t| {
                    let ego = t.span("sparse.ego_extract", |_| extract());
                    let sub = t.span("tensor.gather_rows", |_| s.feats.gather_rows(&ego.nodes));
                    let resolved = Resolved::of(t, &model, &ego.csr);
                    model_trace::inference(t, &model, &resolved, &ego.csr, &sub, Depth::Kernels)
                });
                let t0 = Instant::now();
                let ego = extract();
                let out = model.inference(&ego.csr, &s.feats.gather_rows(&ego.nodes));
                r.compute_s.push(t0.elapsed().as_secs_f64());
                r.nodes += ego.nodes.len() as f64 / count as f64;
                r.nnz += ego.csr.nnz() as f64 / count as f64;
                r.differing += u64::from(!model_trace::same_bits(&traced, &out));
            }
            r
        })
        .collect();
    let (b1, b16) = (&replays[0], &replays[1]);
    let per_batch = |ids: &[u64], name: &str| {
        totals_by_name(t.spans(), |sp| ids.contains(&sp.trace))
            .get(name)
            .map_or(0.0, |x| x.total)
            / ids.len().max(1) as f64
    };

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let b1_ms = mean(&b1.compute_s) * 1e3;
    let (a50, a90, a99) = serve::lat_percentiles(&a);
    let (b50, b90, _) = serve::lat_percentiles(&b);
    let shape = Shape {
        n: b16.nodes.round() as usize,
        nnz: b16.nnz.round() as usize,
        k: K,
        layers: model.depth(),
        training: false,
    };
    let ids = DepthIds {
        kernels: b16.ids.clone(),
        ..DepthIds::default()
    };
    let mut metrics = attribute::model_metrics(
        t.spans(),
        &ids,
        &host,
        &shape,
        "serve.batch",
        &b16.compute_s,
    );
    metrics.extend(attribute::host_metrics(&host));
    metrics.extend(attribute::resolution_metrics(t.spans()));
    metrics.extend([
        ("graphgen.generate_s", s.generate_s),
        (
            "sparse.ego_extract_ms.b1",
            per_batch(&b1.ids, "sparse.ego_extract") * 1e3,
        ),
        (
            "sparse.ego_extract_ms.b16",
            per_batch(&b16.ids, "sparse.ego_extract") * 1e3,
        ),
        ("sparse.ego_nodes.b16", b16.nodes),
        ("sparse.ego_nnz.b16", b16.nnz),
        (
            "tensor.gather_rows_ms.b16",
            per_batch(&b16.ids, "tensor.gather_rows") * 1e3,
        ),
        ("serve.batch_compute_ms.b1", b1_ms),
        ("serve.batch_compute_ms.b16", mean(&b16.compute_s) * 1e3),
        (
            "serve.wait_share",
            if a50 > 0.0 { 1.0 - b1_ms / a50 } else { 0.0 },
        ),
        ("serve.mean_batch.a", mean_batch(&st0, &st1)),
        ("serve.mean_batch.c", mean_batch(&st2, &st3)),
        ("serve.batches", (st3.batches - st0.batches) as f64),
        ("serve.shed", (st3.shed - st0.shed) as f64),
        ("serve.expired", (st3.expired - st0.expired) as f64),
        ("serve.late", (st3.late - st0.late) as f64),
        ("serve.step_down", st3.step_down as f64),
        ("serve.rung_final", st3.current_rung as f64),
        ("serve.submit_us_p50", stats::median(&a.submit_us)),
        ("serve.gen_late_ms_max", a.gen_late_ms_max),
        ("serve.lat_ms_p50", a50),
        ("serve.lat_ms_p90", a90),
        ("serve.lat_ms_p99", a99),
        ("serve.lat_ms_p50.r800", b50),
        ("serve.lat_ms_p90.r800", b90),
        ("serve.backlog_growth.r800", backlog_growth(&b)),
        ("serve.sat_rps", c.rate()),
        ("e2e.step_s_p50", a50 / 1e3),
    ]);

    let sent = a.sent + b.sent + c.sent;
    let refused = a.refused + b.refused + c.refused;
    let errored = a.errored + b.errored + c.errored;
    let differing = b1.differing + b16.differing;
    let mut detail = run_detail(Workload::ServeEr, args, n, s.graph.nnz(), &model.plan());
    detail.extend([
        ("config", format!("{cfg:?}").into()),
        ("sent_a", a.sent.into()),
        ("sent_b", b.sent.into()),
        ("sent_c", c.sent.into()),
    ]);
    Report {
        workload: Workload::ServeEr,
        attempted: sent,
        failed: refused + errored + wrong,
        gates: vec![
            gate(
                "shadow_bit_identical",
                differing == 0,
                format!("{differing} replayed batches differ from GnnModel::inference on the same subgraph"),
            ),
            gate(
                "rows_match_full_graph",
                wrong == 0,
                format!("{wrong} answered rows off the full-graph row"),
            ),
            gate(
                "accounting_balances",
                drained && st3.accepted == st3.answered + st3.expired + st3.cancelled,
                format!("accepted {} answered {} expired {} cancelled {}", st3.accepted, st3.answered, st3.expired, st3.cancelled),
            ),
            // The loaded phase may shed or expire; that is what it is for.
            gate(
                "ladder_did_not_move",
                st3.step_down + st3.step_up == 0,
                format!("{} ladder moves invalidate the phase comparison", st3.step_down + st3.step_up),
            ),
        ],
        metrics,
        reported: vec![("sent", sent as f64, "count", sent as usize), ("refused_or_errored", (refused + errored) as f64, "count", sent as usize)],
        detail,
    }
}
