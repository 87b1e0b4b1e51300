//! Locality ablation: cache-aware graph reordering × register-blocked
//! microkernels on the fused attention hot path.
//!
//! Sweeps `ATGNN_REORDER` ∈ {off, degree, rcm, auto} against
//! `ATGNN_MICROKERNEL` ∈ {scalar, blocked} on Kronecker and Erdős–Rényi
//! graphs, timing the GAT layer hot path at `k = 64`: the feature
//! projection `H' = H W` (dense gemm, where the register-blocked
//! microkernel earns its keep) followed by the fused
//! SDDMM→softmax→aggregate sweep (where the reordering's cache locality
//! shows up). Every permuted run is checked against the unpermuted
//! same-microkernel baseline through the inverse permutation (1e-6
//! relative), so the sweep doubles as an end-to-end equivalence test.
//! Results — including the bandwidth / average-neighbor-distance locality
//! stats before and after reordering — land in
//! `results/BENCH_locality.json`.
//!
//! Timing uses the minimum over interleaved rounds (every configuration
//! measured once per round, rounds repeated): under a noisy shared host
//! the minimum of interleaved samples is far more stable than a median
//! of back-to-back ones, and kernel time is what the comparison is
//! about.
//!
//! `ATGNN_SMOKE=1` runs the smallest graph only and skips the speedup
//! assertion; CI uses it to exercise the harness.

use atgnn::plan::{ExecPlan, ReorderStrategy, Reordering};
use atgnn_bench::report::{Record, Reporter};
use atgnn_bench::scale;
use atgnn_graphgen::reorder::{self, Locality};
use atgnn_graphgen::{erdos_renyi, kronecker};
use atgnn_sparse::attention::{self, AttentionExec};
use atgnn_sparse::Csr;
use atgnn_tensor::micro::{self, MicroKernel};
use atgnn_tensor::{gemm, init, Dense};
use std::fmt::Write as _;
use std::time::Instant;

const K: usize = 64;
const SLOPE: f64 = 0.2;

struct Entry {
    graph: &'static str,
    n: usize,
    nnz: usize,
    strategy: &'static str,
    resolved: &'static str,
    micro: &'static str,
    time_s: f64,
    before: Locality,
    after: Option<Locality>,
    rel_err: f64,
}

struct Prepared {
    strategy: ReorderStrategy,
    resolved: &'static str,
    a: Csr<f32>,
    u: Vec<f32>,
    v: Vec<f32>,
    h: Dense<f32>,
    reordering: Option<Reordering<f32>>,
    after: Option<Locality>,
}

fn permuted_vec(src: &[f32], perm: &[u32]) -> Vec<f32> {
    perm.iter().map(|&o| src[o as usize]).collect()
}

fn micro_name(mode: MicroKernel) -> &'static str {
    match mode {
        MicroKernel::Scalar => "scalar",
        MicroKernel::Blocked => "blocked",
    }
}

fn main() {
    let smoke = std::env::var("ATGNN_SMOKE").is_ok();
    let mut rep = Reporter::new("locality");
    let mut entries: Vec<Entry> = Vec::new();
    let exps: &[usize] = if smoke { &[9] } else { &[14, 15] };
    let (warm, rounds) = if smoke { (1, 2) } else { (2, 9) };
    let strategies = [
        ReorderStrategy::Off,
        ReorderStrategy::Degree,
        ReorderStrategy::Rcm,
        ReorderStrategy::Auto,
    ];
    let modes = [MicroKernel::Scalar, MicroKernel::Blocked];
    for &exp in exps {
        let n = (1usize << exp) * scale();
        for graph in ["kronecker", "erdos_renyi"] {
            let a = match graph {
                "kronecker" => kronecker::adjacency::<f32>(n, n * 16, 5),
                _ => erdos_renyi::adjacency::<f32>(n, n * 8, 5),
            };
            let u = init::glorot_vec::<f32>(a.rows(), 1);
            let v = init::glorot_vec::<f32>(a.rows(), 2);
            let h = init::features::<f32>(a.rows(), K, 8);
            let w = init::features::<f32>(K, K, 11);
            let before = reorder::locality_of(&a);

            let run = |p: &Prepared| {
                let hp = gemm::matmul(&p.h, &w);
                attention::forward_gat(
                    AttentionExec::FusedOnePass,
                    &p.a,
                    &p.u,
                    &p.v,
                    &hp,
                    SLOPE,
                    false,
                )
                .out
            };

            let prepared: Vec<Prepared> = strategies
                .iter()
                .map(|&strategy| {
                    let plan = ExecPlan::fused().with_reorder(strategy);
                    let reordering = plan.reorder_graph(&a);
                    let resolved = reorder::resolve(&a, strategy).name();
                    match reordering {
                        Some(r) => Prepared {
                            strategy,
                            resolved,
                            a: r.a.clone(),
                            u: permuted_vec(&u, &r.perm),
                            v: permuted_vec(&v, &r.perm),
                            h: r.permute_rows(&h),
                            after: Some(reorder::locality_of(&r.a)),
                            reordering: Some(r),
                        },
                        None => Prepared {
                            strategy,
                            resolved,
                            a: a.clone(),
                            u: u.clone(),
                            v: v.clone(),
                            h: h.clone(),
                            reordering: None,
                            after: None,
                        },
                    }
                })
                .collect();

            // Unpermuted reference output per microkernel mode: the 1e-6
            // equivalence bound below is about *reordering*, so each run
            // is compared against the same-microkernel baseline (micro
            // modes legitimately differ by FP association).
            let mut rel_errs = vec![0.0f64; prepared.len() * modes.len()];
            for (mi, &mode) in modes.iter().enumerate() {
                micro::set_mode(mode);
                let baseline = run(&prepared[0]);
                let base_scale = baseline.max_abs().max(1.0);
                for (pi, p) in prepared.iter().enumerate() {
                    let out = run(p);
                    let restored: Dense<f32> = match &p.reordering {
                        Some(r) => r.restore_rows(&out),
                        None => out,
                    };
                    let rel_err = (restored.max_abs_diff(&baseline) / base_scale) as f64;
                    assert!(
                        rel_err < 1e-6,
                        "{graph} n={n} {}/{:?}: reordered output diverges (rel {rel_err:.2e})",
                        p.strategy.name(),
                        mode,
                    );
                    if p.strategy == ReorderStrategy::Off {
                        assert!(
                            rel_err == 0.0,
                            "off must be bit-identical to the same-mode baseline"
                        );
                    }
                    rel_errs[pi * modes.len() + mi] = rel_err;
                }
            }

            // Interleaved timing rounds, minimum per cell.
            let mut best = vec![f64::INFINITY; prepared.len() * modes.len()];
            for round in 0..warm + rounds {
                for (pi, p) in prepared.iter().enumerate() {
                    for (mi, &mode) in modes.iter().enumerate() {
                        micro::set_mode(mode);
                        let t = Instant::now();
                        std::hint::black_box(run(p));
                        let dt = t.elapsed().as_secs_f64();
                        if round >= warm {
                            let cell = &mut best[pi * modes.len() + mi];
                            *cell = cell.min(dt);
                        }
                    }
                }
            }

            for (pi, p) in prepared.iter().enumerate() {
                for (mi, &mode) in modes.iter().enumerate() {
                    let time_s = best[pi * modes.len() + mi];
                    println!(
                        "{graph:<12} n={n:<6} reorder={:<7} (->{:<7}) micro={:<7} t={time_s:.5}s bw {} -> {}",
                        p.strategy.name(),
                        p.resolved,
                        micro_name(mode),
                        before.bandwidth,
                        p.after.map_or(before.bandwidth, |l| l.bandwidth),
                    );
                    rep.push(Record {
                        experiment: format!("locality_n{n}"),
                        model: "GAT".into(),
                        system: format!("{}+{}", p.strategy.name(), micro_name(mode)),
                        task: graph.into(),
                        n,
                        m: a.nnz(),
                        k: K,
                        layers: 1,
                        p: 1,
                        compute_s: time_s,
                        comm_bytes: 0,
                        supersteps: 0,
                        modeled_s: time_s,
                    });
                    entries.push(Entry {
                        graph,
                        n,
                        nnz: a.nnz(),
                        strategy: p.strategy.name(),
                        resolved: p.resolved,
                        micro: micro_name(mode),
                        time_s,
                        before,
                        after: p.after,
                        rel_err: rel_errs[pi * modes.len() + mi],
                    });
                }
            }
        }
    }
    // Leave the process-global mode as the default for anything after us.
    micro::set_mode(MicroKernel::Blocked);

    let mut json = String::from("{\n  \"locality\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let base = entries
            .iter()
            .find(|b| {
                b.graph == e.graph && b.n == e.n && b.strategy == "off" && b.micro == "scalar"
            })
            .expect("off+scalar baseline entry");
        let (bw_after, dist_after) = match e.after {
            Some(l) => (l.bandwidth, l.avg_neighbor_distance),
            None => (e.before.bandwidth, e.before.avg_neighbor_distance),
        };
        let _ = writeln!(
            json,
            "    {{\"graph\": \"{}\", \"n\": {}, \"nnz\": {}, \"k\": {}, \"reorder\": \"{}\", \"resolved\": \"{}\", \"micro\": \"{}\", \"time_s\": {:.6}, \"speedup_vs_off_scalar\": {:.3}, \"bandwidth_before\": {}, \"bandwidth_after\": {}, \"avg_dist_before\": {:.1}, \"avg_dist_after\": {:.1}, \"rel_err\": {:.3e}}}{}",
            e.graph,
            e.n,
            e.nnz,
            K,
            e.strategy,
            e.resolved,
            e.micro,
            e.time_s,
            base.time_s / e.time_s,
            e.before.bandwidth,
            bw_after,
            e.before.avg_neighbor_distance,
            dist_after,
            e.rel_err,
            if i + 1 < entries.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    let path = atgnn_bench::result_path("BENCH_locality.json").expect("create results dir");
    std::fs::write(&path, &json).expect("write BENCH_locality.json");
    println!("wrote {}", path.display());

    // Acceptance anchor: the full locality layer (auto reorder + blocked
    // microkernels) must beat the untouched path by ≥ 1.15x for fused GAT
    // (k = 64) on the largest Kronecker graph. Smoke mode only exercises
    // the harness.
    if !smoke {
        let pick = |strategy: &str, micro: &str| {
            entries
                .iter()
                .filter(|e| e.graph == "kronecker" && e.strategy == strategy && e.micro == micro)
                .max_by_key(|e| e.n)
                .expect("kronecker entry")
        };
        let base = pick("off", "scalar");
        let tuned = pick("auto", "blocked");
        let speedup = base.time_s / tuned.time_s;
        println!(
            "acceptance: kronecker n={} auto+blocked {:.5}s vs off+scalar {:.5}s = {:.2}x",
            tuned.n, tuned.time_s, base.time_s, speedup
        );
        assert!(
            speedup >= 1.15,
            "locality layer speedup {speedup:.2}x < 1.15x on kronecker n={}",
            tuned.n
        );
    }
    rep.write_csv().expect("write results");
}
