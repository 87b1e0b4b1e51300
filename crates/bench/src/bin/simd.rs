//! SIMD-width ablation: the 8-wide lane kernels × dense memory layout on
//! the attention hot path, against the scalar oracle.
//!
//! Sweeps three configurations — the wide kernels over the padded and
//! the tight layout, and the `ATGNN_MICROKERNEL=scalar` oracle over the
//! tight layout — on a Kronecker graph at `n = 2¹⁵`, timing the two
//! kernels the wide layer targets:
//!
//! * `spmm` — the CSR gather aggregation (4-neighbor fused `axpy4` inner
//!   loop, whole padded vectors, no tail loop);
//! * the fused GAT sweep — SDDMM scores → masked softmax (lane-tree
//!   accumulation + polynomial `exp`) → aggregation in one pass.
//!
//! `k = 64` is the headline width, where the product's default plan
//! resolves `wide+tight` (a lane multiple gains nothing from padding,
//! `Layout::default_for`); `k = 60` rides along as the awkward
//! (non-lane-multiple) width, where the default is `wide+padded`.
//!
//! A second sweep times the kernels on the [`micro::Lanes`] bodies, at
//! `k = 64` over the tight layout: the explicit body `f32` runs
//! ([`micro::F32Lanes`], AVX2 where the build targets it), the generic
//! `[f32; 8]` body, and the scalar oracle, on
//!
//! * `edge_dots` — the GAT backward's SDDMM `D_ij = ⟨g_i, h'_j⟩` over
//!   every stored entry, four neighbors per [`micro::dot4_lanes`] (one
//!   thread);
//! * `matvec` — `u = H'a`, four rows per `dot4_lanes` (one thread);
//! * `matmul_into` — the projection `H W` with `W` `k × k`, through
//!   [`gemm::matmul_into_lanes`] on the worker pool;
//! * `matmul_tn` — the weight gradient `H'ᵀ G`, through
//!   [`gemm::matmul_tn_lanes`] on the worker pool.
//!
//! Every configuration is equivalence-gated **in the same run**, per the
//! kernels' documented contract (DESIGN.md §6):
//!
//! * the two wide configurations are bit-identical to each other for
//!   both kernels: aggregation is elementwise `mul_add` and scores read
//!   logical rows, so the layout never changes a bit;
//! * the explicit and generic lane bodies are bit-identical;
//! * every configuration is within 1e-6 relative of the oracle (the wide
//!   softmax re-associates, and the oracle rounds `a*b + c` without fma).
//!
//! Timing uses the minimum over interleaved rounds (see locality.rs for
//! the rationale). Results land in `results/BENCH_simd.json`, stamped
//! with the `git describe --always --dirty` of the tree that ran.
//! `ATGNN_SMOKE=1` runs a tiny graph and writes under `results/smoke/`;
//! CI uses it to exercise the harness. There is no speedup gate.

use atgnn_bench::scale;
use atgnn_graphgen::kronecker;
use atgnn_sparse::attention::{self, AttentionExec};
use atgnn_sparse::{spmm, Csr};
use atgnn_tensor::micro::{self, MicroKernel, LANE};
use atgnn_tensor::{gemm, init, Dense};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

const SLOPE: f64 = 0.2;

#[derive(Clone, Copy)]
struct Config {
    name: &'static str,
    micro: MicroKernel,
    padded: bool,
}

const CONFIGS: [Config; 3] = [
    // The wide kernels over lane-aligned rows: the product default at k = 60.
    Config {
        name: "wide+padded",
        micro: MicroKernel::Blocked,
        padded: true,
    },
    // The wide kernels over the seed layout: the product default at k = 64.
    Config {
        name: "wide+tight",
        micro: MicroKernel::Blocked,
        padded: false,
    },
    // The equivalence oracle (ATGNN_MICROKERNEL=scalar), and the baseline
    // the speedup column is measured against.
    Config {
        name: "oracle+tight",
        micro: MicroKernel::Scalar,
        padded: false,
    },
];

/// Index of the oracle in [`CONFIGS`].
const ORACLE: usize = 2;

/// What a lane-body row runs: the body `f32` kernels use, the generic
/// `[f32; LANE]` body, or the scalar oracle.
#[derive(Clone, Copy)]
enum Body {
    Explicit,
    Generic,
    Oracle,
}

const BODIES: [(&str, Body); 3] = [
    ("explicit", Body::Explicit),
    ("generic", Body::Generic),
    ("oracle", Body::Oracle),
];

/// The GAT backward's SDDMM: `d[e] = ⟨g_i, h'_j⟩` for every stored
/// `(i, j)`, four neighbors per `dot4` — `attention`'s edge loop.
fn edge_dots(
    a: &Csr<f32>,
    g: &Dense<f32>,
    hp: &Dense<f32>,
    d: &mut [f32],
    dot4: impl Fn(&[f32], [&[f32]; 4]) -> [f32; 4],
    dot: impl Fn(&[f32], &[f32]) -> f32,
) {
    let mut at = 0;
    for i in 0..a.rows() {
        let (cols, _) = a.row(i);
        let (quads, rest) = cols.as_chunks::<4>();
        for q in quads {
            d[at..at + 4].copy_from_slice(&dot4(g.row(i), q.map(|c| hp.row(c as usize))));
            at += 4;
        }
        for &c in rest {
            d[at] = dot(g.row(i), hp.row(c as usize));
            at += 1;
        }
    }
}

/// `y = A x`, four rows per `dot4` — `gemm::matvec`'s loop on one thread.
fn matvec(
    a: &Dense<f32>,
    x: &[f32],
    y: &mut [f32],
    dot4: impl Fn(&[f32], [&[f32]; 4]) -> [f32; 4],
    dot: impl Fn(&[f32], &[f32]) -> f32,
) {
    let (quads, rest) = y.as_chunks_mut::<4>();
    for (i, q) in quads.iter_mut().enumerate() {
        *q = dot4(x, [0, 1, 2, 3].map(|r| a.row(4 * i + r)));
    }
    let done = 4 * quads.len();
    for (r, o) in rest.iter_mut().enumerate() {
        *o = dot(x, a.row(done + r));
    }
}

/// The scalar oracle's `dot4`: four [`micro::dot_scalar`]s.
fn oracle_dot4(x: &[f32], y: [&[f32]; 4]) -> [f32; 4] {
    y.map(|q| micro::dot_scalar(x, q))
}

/// The minimum time of each of `runs` over interleaved rounds, after
/// `warm` untimed ones.
fn best_times(runs: &[&dyn Fn()], warm: usize, rounds: usize) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; runs.len()];
    for round in 0..warm + rounds {
        for (b, run) in best.iter_mut().zip(runs) {
            let t = Instant::now();
            run();
            if round >= warm {
                *b = b.min(t.elapsed().as_secs_f64());
            }
        }
    }
    best
}

/// The short revision of the checkout the bench runs in, `-dirty` when
/// the working tree differs from it.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Maximum relative difference over logical rows (layout-oblivious).
fn rel_err(a: &Dense<f32>, b: &Dense<f32>) -> f64 {
    let scale = a.max_abs().max(1.0) as f64;
    let mut worst = 0.0f64;
    for r in 0..a.rows() {
        for (&x, &y) in a.row(r).iter().zip(b.row(r)) {
            worst = worst.max((x - y).abs() as f64 / scale);
        }
    }
    worst
}

/// Bit-identity over logical rows (layout-oblivious).
fn bit_identical(a: &Dense<f32>, b: &Dense<f32>) -> bool {
    (0..a.rows()).all(|r| {
        a.row(r)
            .iter()
            .zip(b.row(r))
            .all(|(x, y)| x.to_bits() == y.to_bits())
    })
}

struct Entry {
    kernel: &'static str,
    k: usize,
    config: &'static str,
    time_s: f64,
    speedup: f64,
    rel_err: f64,
    gflops: f64,
}

impl Entry {
    fn print(&self) {
        println!(
            "{:<11} k={:<3} {:<13} t={:.5}s speedup={:.2}x {:>6.2} GFLOP/s rel_err={:.1e}",
            self.kernel, self.k, self.config, self.time_s, self.speedup, self.gflops, self.rel_err,
        );
    }
}

fn main() {
    let smoke = std::env::var("ATGNN_SMOKE").is_ok();
    let n = if smoke {
        1 << 9
    } else {
        (1usize << 15) * scale()
    };
    let (warm, rounds) = if smoke { (1, 2) } else { (2, 9) };
    let a: Csr<f32> = kronecker::adjacency(n, n * 16, 5);
    let n = a.rows();
    let u = init::glorot_vec::<f32>(n, 1);
    let v = init::glorot_vec::<f32>(n, 2);
    let mut entries: Vec<Entry> = Vec::new();

    for k in [64usize, 60] {
        let h_tight = init::features::<f32>(n, k, 8);
        let h_padded = h_tight.padded();
        let h_for = |cfg: &Config| if cfg.padded { &h_padded } else { &h_tight };
        let spmm_flops = 2.0 * a.nnz() as f64 * k as f64;
        // Sweep flops: score (1 add + leakyrelu) + softmax (~4) + 2·k agg
        // per stored entry — dominated by the aggregation term.
        let sweep_flops = a.nnz() as f64 * (2.0 * k as f64 + 5.0);

        type Kernel<'a> = (&'static str, f64, Box<dyn Fn(&Config) -> Dense<f32> + 'a>);
        let kernels: Vec<Kernel> = vec![
            (
                "spmm",
                spmm_flops,
                Box::new(|cfg: &Config| spmm::spmm(&a, h_for(cfg))),
            ),
            (
                "gat_sweep",
                sweep_flops,
                Box::new(|cfg: &Config| {
                    attention::forward_gat(
                        AttentionExec::FusedOnePass,
                        &a,
                        &u,
                        &v,
                        h_for(cfg),
                        SLOPE,
                        false,
                    )
                    .out
                }),
            ),
        ];

        for (kernel, flops, run) in &kernels {
            // Equivalence gates, in-run: the wide configurations agree
            // bit for bit, and everything is within 1e-6 of the oracle.
            let outs = CONFIGS.map(|cfg| {
                micro::set_mode(cfg.micro);
                run(&cfg)
            });
            assert!(
                bit_identical(&outs[0], &outs[1]),
                "{kernel} k={k}: wide+padded and wide+tight must be bit-identical"
            );
            let errs = outs.each_ref().map(|out| rel_err(out, &outs[ORACLE]));
            for (cfg, err) in CONFIGS.iter().zip(errs) {
                assert!(
                    err < 1e-6,
                    "{kernel} k={k} {}: rel err {err:.2e} vs the oracle exceeds 1e-6",
                    cfg.name
                );
            }

            // Interleaved timing rounds, minimum per cell.
            let timed = CONFIGS.map(|cfg| {
                move || {
                    micro::set_mode(cfg.micro);
                    std::hint::black_box(run(&cfg));
                }
            });
            let runs: Vec<&dyn Fn()> = timed.iter().map(|f| f as &dyn Fn()).collect();
            let best = best_times(&runs, warm, rounds);

            for (ci, cfg) in CONFIGS.iter().enumerate() {
                let time_s = best[ci];
                let e = Entry {
                    kernel,
                    k,
                    config: cfg.name,
                    time_s,
                    speedup: best[ORACLE] / time_s,
                    rel_err: errs[ci],
                    gflops: flops / time_s / 1e9,
                };
                e.print();
                entries.push(e);
            }
        }
    }

    // The lane-body sweep at the headline width.
    let k = 64;
    let g = init::features::<f32>(n, k, 11);
    let hp = init::features::<f32>(n, k, 12);
    let w = init::glorot::<f32>(k, k, 13);
    let x = init::glorot_vec::<f32>(k, 14);
    type Explicit = micro::F32Lanes;
    type Generic = [f32; LANE];
    type Row<'a> = (
        &'static str,
        f64,
        (usize, usize),
        Box<dyn Fn(Body, &mut Dense<f32>) + 'a>,
    );
    let rows: Vec<Row> = vec![
        (
            "edge_dots",
            2.0 * a.nnz() as f64 * k as f64,
            (a.nnz(), 1),
            Box::new(|body, out| {
                let d = out.as_mut_slice();
                match body {
                    Body::Explicit => edge_dots(
                        &a,
                        &g,
                        &hp,
                        d,
                        micro::dot4_lanes::<f32, Explicit>,
                        micro::dot_lanes::<f32, Explicit>,
                    ),
                    Body::Generic => edge_dots(
                        &a,
                        &g,
                        &hp,
                        d,
                        micro::dot4_lanes::<f32, Generic>,
                        micro::dot_lanes::<f32, Generic>,
                    ),
                    Body::Oracle => edge_dots(&a, &g, &hp, d, oracle_dot4, micro::dot_scalar),
                }
            }),
        ),
        (
            "matvec",
            2.0 * n as f64 * k as f64,
            (n, 1),
            Box::new(|body, out| {
                let y = out.as_mut_slice();
                match body {
                    Body::Explicit => matvec(
                        &hp,
                        &x,
                        y,
                        micro::dot4_lanes::<f32, Explicit>,
                        micro::dot_lanes::<f32, Explicit>,
                    ),
                    Body::Generic => matvec(
                        &hp,
                        &x,
                        y,
                        micro::dot4_lanes::<f32, Generic>,
                        micro::dot_lanes::<f32, Generic>,
                    ),
                    Body::Oracle => matvec(&hp, &x, y, oracle_dot4, micro::dot_scalar),
                }
            }),
        ),
        (
            "matmul_into",
            2.0 * n as f64 * (k * k) as f64,
            (n, k),
            Box::new(|body, out| match body {
                Body::Explicit => gemm::matmul_into_lanes::<f32, Explicit>(&hp, &w, out),
                Body::Generic => gemm::matmul_into_lanes::<f32, Generic>(&hp, &w, out),
                Body::Oracle => gemm::matmul_into(&hp, &w, out),
            }),
        ),
        (
            "matmul_tn",
            2.0 * n as f64 * (k * k) as f64,
            (k, k),
            Box::new(|body, out| {
                *out = match body {
                    Body::Explicit => gemm::matmul_tn_lanes::<f32, Explicit>(&hp, &g),
                    Body::Generic => gemm::matmul_tn_lanes::<f32, Generic>(&hp, &g),
                    Body::Oracle => gemm::matmul_tn(&hp, &g),
                }
            }),
        ),
    ];
    for (kernel, flops, (rows_out, cols_out), run) in &rows {
        // One output buffer per body, reused by every timed call; the
        // oracle runs under the scalar mode, the lane bodies under wide.
        let outs: Vec<RefCell<Dense<f32>>> = BODIES
            .iter()
            .map(|_| RefCell::new(Dense::zeros(*rows_out, *cols_out)))
            .collect();
        let calls: Vec<_> = BODIES
            .iter()
            .zip(&outs)
            .map(|(&(_, body), out)| {
                move || {
                    micro::set_mode(match body {
                        Body::Oracle => MicroKernel::Scalar,
                        _ => MicroKernel::Blocked,
                    });
                    run(body, &mut out.borrow_mut());
                }
            })
            .collect();
        for call in &calls {
            call();
        }
        let outs = outs.iter().map(|o| o.borrow()).collect::<Vec<_>>();
        assert!(
            bit_identical(&outs[0], &outs[1]),
            "{kernel} k={k}: the explicit and generic lane bodies must be bit-identical"
        );
        let errs: Vec<f64> = outs.iter().map(|o| rel_err(o, &outs[2])).collect();
        for ((name, _), err) in BODIES.iter().zip(&errs) {
            assert!(
                *err < 1e-6,
                "{kernel} k={k} {name}: rel err {err:.2e} vs the oracle exceeds 1e-6"
            );
        }
        drop(outs);
        let runs: Vec<&dyn Fn()> = calls.iter().map(|f| f as &dyn Fn()).collect();
        let best = best_times(&runs, warm, rounds);
        for (((name, _), time_s), rel_err) in BODIES.iter().zip(best.iter()).zip(errs) {
            let e = Entry {
                kernel,
                k,
                config: name,
                time_s: *time_s,
                speedup: best[2] / time_s,
                rel_err,
                gflops: flops / time_s / 1e9,
            };
            e.print();
            entries.push(e);
        }
    }
    // Leave the process-global mode at its default for anything after.
    // Leave the process-global mode at its default for anything after.
    micro::set_mode(MicroKernel::Blocked);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"git_rev\": \"{}\",", git_rev());
    let _ = writeln!(json, "  \"n\": {n},");
    let _ = writeln!(json, "  \"nnz\": {},", a.nnz());
    json.push_str("  \"simd\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"k\": {}, \"config\": \"{}\", \"time_s\": {:.6}, \"speedup_vs_oracle\": {:.3}, \"gflops\": {:.3}, \"rel_err\": {:.3e}}}{}",
            e.kernel,
            e.k,
            e.config,
            e.time_s,
            e.speedup,
            e.gflops,
            e.rel_err,
            if i + 1 < entries.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    let path = atgnn_bench::result_path("BENCH_simd.json").expect("create results dir");
    std::fs::write(&path, &json).expect("write BENCH_simd.json");
    println!("wrote {}", path.display());
}
