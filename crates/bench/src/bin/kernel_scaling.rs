//! Thread-scaling sweep for the runtime-backed sparse kernels.
//!
//! Measures `spmm` and `spmm_t` (the same nnz-balanced gather, over the
//! CSR and the pattern's CSC view) across thread counts on a uniform
//! (Erdős–Rényi) and a skewed (Kronecker power-law) graph, and emits
//! `results/BENCH_kernels.json` with ns/op, the speedup over one thread,
//! and two derived rates per sample:
//!
//! * **GFLOP/s** — both kernels do one `mul_add` per stored entry per
//!   feature column: `2 · nnz · k` flops.
//! * **effective GB/s** — a *streaming* byte model, i.e. the compulsory
//!   traffic assuming perfect caching of everything touched more than
//!   once: each stored entry reads its column index (4 B) and value
//!   (`B`), each gathered/scattered feature row moves `k · B` in and the
//!   accumulator row `k · B` back out, and the dense output is written
//!   once (`n · k · B`); `bytes = nnz · (4 + B + k·B) + n·k·B`. Real
//!   traffic is higher when gathers miss cache, so the number is a
//!   lower bound on achieved bandwidth — useful for comparing runs, not
//!   for absolutes.
//!
//! The pool size is fixed at process start: if `ATGNN_THREADS` is unset
//! the sweep requests 8 so the in-process [`rt::set_threads`] sweep has
//! headroom even when the host reports fewer cores (oversubscribed
//! threads cannot show real speedup — the JSON records
//! `hardware_threads` so readers can tell the two situations apart).
//!
//! A last row times the f32 `spmm` the product runs (padded features,
//! full pool) on the Kronecker graph under the same byte model with
//! `B = 4`.

use atgnn_bench::measure::time_median;
use atgnn_bench::scale;
use atgnn_graphgen::{erdos_renyi, kronecker};
use atgnn_sparse::{spmm, Csr};
use atgnn_tensor::{init, rt};
use std::fmt::Write as _;

struct Sample {
    threads: usize,
    ns_per_op: f64,
    speedup: f64,
    gflops: f64,
    gbps: f64,
}

/// `flops`/`bytes` per kernel invocation (see the module docs for the
/// streaming byte model).
fn sweep(f: impl Fn(), threads: &[usize], flops: f64, bytes: f64) -> Vec<Sample> {
    let mut out: Vec<Sample> = Vec::new();
    for &t in threads {
        rt::set_threads(t);
        let secs = time_median(&f);
        let base = out.first().map_or(secs, |s| s.ns_per_op / 1e9);
        out.push(Sample {
            threads: t,
            ns_per_op: secs * 1e9,
            speedup: base / secs,
            gflops: flops / secs / 1e9,
            gbps: bytes / secs / 1e9,
        });
    }
    out
}

fn main() {
    // The pool is sized once, lazily, from ATGNN_THREADS — claim 8 before
    // the first kernel call so set_threads(1..=8) has room to move.
    if std::env::var("ATGNN_THREADS").is_err() {
        std::env::set_var("ATGNN_THREADS", "8");
    }
    let hardware = std::thread::available_parallelism().map_or(1, |v| v.get());
    let threads: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&t| t <= rt::max_threads())
        .collect();
    let n = 8192 * scale();
    let k = 32;
    let graphs: Vec<(&str, Csr<f64>)> = vec![
        ("erdos_renyi", erdos_renyi::adjacency::<f64>(n, n * 16, 5)),
        ("kronecker", kronecker::adjacency::<f64>(n, n * 16, 7)),
    ];

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"hardware_threads\": {hardware},");
    let _ = writeln!(json, "  \"pool_max_threads\": {},", rt::max_threads());
    let _ = writeln!(json, "  \"k\": {k},");
    json.push_str("  \"graphs\": [\n");
    for (gi, (name, a)) in graphs.iter().enumerate() {
        let h = init::features::<f64>(a.rows(), k, 11);
        println!("== {name}: n={} nnz={} k={k} ==", a.rows(), a.nnz());
        // Streaming byte model (module docs): B = 8 for f64.
        let b = std::mem::size_of::<f64>() as f64;
        let flops = 2.0 * a.nnz() as f64 * k as f64;
        let bytes = a.nnz() as f64 * (4.0 + b + k as f64 * b) + a.rows() as f64 * k as f64 * b;
        let kernels: Vec<(&str, Vec<Sample>)> = vec![
            (
                "spmm",
                sweep(
                    || {
                        std::hint::black_box(spmm::spmm(a, &h));
                    },
                    &threads,
                    flops,
                    bytes,
                ),
            ),
            (
                "spmm_t",
                sweep(
                    || {
                        std::hint::black_box(spmm::spmm_t(a, &h));
                    },
                    &threads,
                    flops,
                    bytes,
                ),
            ),
        ];
        let _ = writeln!(
            json,
            "    {{\"graph\": \"{name}\", \"n\": {}, \"nnz\": {}, \"kernels\": [",
            a.rows(),
            a.nnz()
        );
        for (ki, (kernel, samples)) in kernels.iter().enumerate() {
            let _ = writeln!(json, "      {{\"kernel\": \"{kernel}\", \"samples\": [");
            for (si, s) in samples.iter().enumerate() {
                println!(
                    "{kernel:<7} threads={} {:>12.0} ns/op speedup={:.2}x {:>7.2} GFLOP/s {:>7.2} GB/s",
                    s.threads, s.ns_per_op, s.speedup, s.gflops, s.gbps
                );
                let _ = writeln!(
                    json,
                    "        {{\"threads\": {}, \"ns_per_op\": {:.0}, \"speedup\": {:.3}, \"gflops\": {:.3}, \"gbps\": {:.3}}}{}",
                    s.threads,
                    s.ns_per_op,
                    s.speedup,
                    s.gflops,
                    s.gbps,
                    if si + 1 < samples.len() { "," } else { "" }
                );
            }
            let _ = writeln!(
                json,
                "      ]}}{}",
                if ki + 1 < kernels.len() { "," } else { "" }
            );
        }
        let _ = writeln!(
            json,
            "    ]}}{}",
            if gi + 1 < graphs.len() { "," } else { "" }
        );
        // Sanity anchor used by the distributed benches: the sweep must
        // not change the result (determinism across thread counts).
        rt::set_threads(1);
        let seq = spmm::spmm_t(a, &h);
        rt::set_threads(rt::max_threads());
        let par = spmm::spmm_t(a, &h);
        assert_eq!(
            seq.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            par.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "{name}: spmm_t not bit-identical across thread counts"
        );
    }
    json.push_str("  ],\n");

    // The f32 row (module docs): the element type every model runs.
    rt::set_threads(rt::max_threads());
    let ap: Csr<f32> = kronecker::adjacency(n, n * 16, 7);
    let hp = init::features::<f32>(ap.rows(), k, 11).padded();
    println!(
        "== precision: kronecker n={} nnz={} k={k} ==",
        ap.rows(),
        ap.nnz()
    );
    let secs = time_median(&|| {
        std::hint::black_box(spmm::spmm(&ap, &hp));
    });
    let flops32 = 2.0 * ap.nnz() as f64 * k as f64;
    let bytes32 =
        ap.nnz() as f64 * (4.0 + 4.0 + (k * 4) as f64) + ap.rows() as f64 * k as f64 * 4.0;
    let (gflops, gbps) = (flops32 / secs / 1e9, bytes32 / secs / 1e9);
    println!(
        "spmm/f32   threads={} {:>12.0} ns/op {:>7.2} GFLOP/s {:>7.2} GB/s",
        rt::max_threads(),
        secs * 1e9,
        gflops,
        gbps
    );
    let _ = writeln!(
        json,
        "  \"precision\": [\n    {{\"precision\": \"f32\", \"stored_bytes\": 4, \"threads\": {}, \"ns_per_op\": {:.0}, \"gflops\": {:.3}, \"gbps\": {:.3}}}\n  ]\n}}",
        rt::max_threads(),
        secs * 1e9,
        gflops,
        gbps
    );

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("wrote results/BENCH_kernels.json");
}
