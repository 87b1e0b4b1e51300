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
//! Every configuration is equivalence-gated **in the same run**, per the
//! kernels' documented contract (DESIGN.md §6):
//!
//! * the two wide configurations are bit-identical to each other for
//!   both kernels: aggregation is elementwise `mul_add` and scores read
//!   logical rows, so the layout never changes a bit;
//! * every configuration is within 1e-6 relative of the oracle (the wide
//!   softmax re-associates, and the oracle rounds `a*b + c` without fma).
//!
//! Timing uses the minimum over interleaved rounds (see locality.rs for
//! the rationale). Results land in `results/BENCH_simd.json`.
//! `ATGNN_SMOKE=1` runs a tiny graph and writes under `results/smoke/`;
//! CI uses it to exercise the harness. There is no speedup gate.

use atgnn_bench::scale;
use atgnn_graphgen::kronecker;
use atgnn_sparse::{attention, spmm, Csr};
use atgnn_tensor::micro::{self, MicroKernel};
use atgnn_tensor::{init, Dense};
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
    rel_err: f64,
    gflops: f64,
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
                    attention::attention_forward_gat(&a, &u, &v, h_for(cfg), SLOPE, false).out
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
            let mut best = [f64::INFINITY; CONFIGS.len()];
            for round in 0..warm + rounds {
                for (ci, cfg) in CONFIGS.iter().enumerate() {
                    micro::set_mode(cfg.micro);
                    let t = Instant::now();
                    std::hint::black_box(run(cfg));
                    let dt = t.elapsed().as_secs_f64();
                    if round >= warm {
                        best[ci] = best[ci].min(dt);
                    }
                }
            }

            for (ci, cfg) in CONFIGS.iter().enumerate() {
                let time_s = best[ci];
                println!(
                    "{kernel:<9} k={k:<3} {:<13} t={time_s:.5}s speedup={:.2}x {:>6.2} GFLOP/s rel_err={:.1e}",
                    cfg.name,
                    best[ORACLE] / time_s,
                    flops / time_s / 1e9,
                    errs[ci],
                );
                entries.push(Entry {
                    kernel,
                    k,
                    config: cfg.name,
                    time_s,
                    rel_err: errs[ci],
                    gflops: flops / time_s / 1e9,
                });
            }
        }
    }
    // Leave the process-global mode at its default for anything after.
    micro::set_mode(MicroKernel::Blocked);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"n\": {n},");
    let _ = writeln!(json, "  \"nnz\": {},", a.nnz());
    json.push_str("  \"simd\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let base = entries
            .iter()
            .find(|b| b.kernel == e.kernel && b.k == e.k && b.config == CONFIGS[ORACLE].name)
            .expect("oracle baseline entry");
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"k\": {}, \"config\": \"{}\", \"time_s\": {:.6}, \"speedup_vs_oracle\": {:.3}, \"gflops\": {:.3}, \"rel_err\": {:.3e}}}{}",
            e.kernel,
            e.k,
            e.config,
            e.time_s,
            base.time_s / e.time_s,
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
