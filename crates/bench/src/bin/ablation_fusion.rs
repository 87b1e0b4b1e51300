//! Figure 5 ablation: fused virtual-tensor kernels vs materialized
//! intermediates, plus the full attention sandwich staged vs one-pass.
//!
//! The paper's Section 6.1–6.2: the dense `n×n` score matrix is virtual;
//! fusing the path from the virtual matrix to the first sparse sampler
//! into an SDDMM-like kernel avoids `O(n²)` memory and `O(n²k)` time.
//! This harness measures both paths (the unfused one materializes the
//! intermediates) and reports the speedup and memory ratio. It then
//! measures the whole SDDMM→softmax→SpMM sandwich two ways — staged
//! (three sweeps, two intermediate score Csrs) vs one-pass (a single CSR
//! traversal with streaming softmax, `atgnn_sparse::attention`) — and
//! writes the pipeline comparison to `results/BENCH_fusion.json`. Last,
//! GAT's training backward: the virtual-`Ψ` backward sweep + `Ψᵀ G` a
//! fused training step runs against the materialized `backward_gat` +
//! `spmm_t`, asserted bit-identical (`∂C`, `∂u`, `Ψᵀ G`) and timed.
//!
//! `ATGNN_SMOKE=1` runs the smallest graph only and skips the strict
//! speedup assertions — CI uses it to check the harness end to end
//! without waiting on stable timings.

use atgnn_bench::measure::time_median;
use atgnn_bench::report::{Record, Reporter};
use atgnn_bench::scale;
use atgnn_graphgen::kronecker;
use atgnn_sparse::attention::{self, AttentionExec};
use atgnn_sparse::{fused, spmm};
use atgnn_tensor::init;
use std::fmt::Write as _;

struct PipelineEntry {
    model: &'static str,
    n: usize,
    nnz: usize,
    k: usize,
    staged_s: f64,
    onepass_s: f64,
}

fn main() {
    let smoke = std::env::var("ATGNN_SMOKE").is_ok();
    let mut rep = Reporter::new("ablation_fusion");
    let k = 32;
    let k_agg = 64;
    let exps: &[usize] = if smoke { &[9] } else { &[9, 10, 11] };
    let mut pipeline: Vec<PipelineEntry> = Vec::new();
    for &exp in exps {
        let n = (1usize << exp) * scale();
        let a = kronecker::adjacency::<f32>(n, n * 16, 5);
        let h = init::features::<f32>(a.rows(), k, 7);
        let u = init::glorot_vec::<f32>(a.rows(), 1);
        let v = init::glorot_vec::<f32>(a.rows(), 2);
        let cases: Vec<(&str, f64, f64)> = vec![
            (
                "VA",
                time_median(|| {
                    std::hint::black_box(fused::va_scores(&a, &h));
                }),
                time_median(|| {
                    std::hint::black_box(fused::unfused_va_scores(&a, &h));
                }),
            ),
            (
                "GAT",
                time_median(|| {
                    std::hint::black_box(fused::gat_scores(&a, &u, &v, 0.2));
                }),
                time_median(|| {
                    std::hint::black_box(fused::unfused_gat_scores(&a, &u, &v, 0.2));
                }),
            ),
            (
                "AGNN",
                time_median(|| {
                    std::hint::black_box(fused::agnn_scores(&a, &h, 1.0f32));
                }),
                time_median(|| {
                    std::hint::black_box(fused::unfused_agnn_scores(&a, &h, 1.0f32));
                }),
            ),
        ];
        let mem_fused = a.nnz() * 4;
        let mem_unfused = a.rows() * a.rows() * 4;
        for (model, t_fused, t_unfused) in cases {
            println!(
                "n={n:<6} {model:<5} fused={t_fused:.5}s unfused={t_unfused:.5}s speedup={:.1}x memory {}B vs {}B ({:.0}x)",
                t_unfused / t_fused,
                mem_fused,
                mem_unfused,
                mem_unfused as f64 / mem_fused as f64
            );
            for (system, t, bytes) in [
                ("fused", t_fused, mem_fused),
                ("unfused", t_unfused, mem_unfused),
            ] {
                rep.push(Record {
                    experiment: format!("fusion_n{n}"),
                    model: model.into(),
                    system: system.into(),
                    task: "scores".into(),
                    n,
                    m: a.nnz(),
                    k,
                    layers: 1,
                    p: 1,
                    compute_s: t,
                    comm_bytes: bytes as u64,
                    supersteps: 0,
                    modeled_s: t,
                });
            }
            // The paper's claim: fusion must never lose on sparse graphs.
            // Smoke mode checks the harness, not the timings.
            assert!(
                smoke || t_fused < t_unfused,
                "{model} at n={n}: fusion slower than materialization?"
            );
        }

        // The full sandwich: staged keeps the score/softmax Csrs alive
        // between three sweeps; one-pass streams scores through scratch
        // and aggregates in the same traversal. `want_cache = false` is
        // the inference configuration both paths target.
        let hp = init::features::<f32>(a.rows(), k_agg, 8);
        let sandwiches: Vec<(&str, usize, f64, f64)> = vec![
            (
                "VA",
                k,
                time_median(|| {
                    std::hint::black_box(attention::staged_forward_va(&a, &h, false));
                }),
                time_median(|| {
                    std::hint::black_box(attention::attention_forward_va(&a, &h, false));
                }),
            ),
            (
                "AGNN",
                k_agg,
                time_median(|| {
                    std::hint::black_box(attention::staged_forward_agnn(
                        &a, &h, &hp, 1.0f32, false,
                    ));
                }),
                time_median(|| {
                    std::hint::black_box(attention::attention_forward_agnn(
                        &a, &h, &hp, 1.0f32, false,
                    ));
                }),
            ),
            (
                "GAT",
                k_agg,
                time_median(|| {
                    std::hint::black_box(attention::staged_forward_gat(
                        &a, &u, &v, &hp, 0.2, false,
                    ));
                }),
                time_median(|| {
                    std::hint::black_box(attention::attention_forward_gat(
                        &a, &u, &v, &hp, 0.2, false,
                    ));
                }),
            ),
        ];
        for (model, kk, staged_s, onepass_s) in sandwiches {
            println!(
                "n={n:<6} {model:<5} pipeline k={kk:<3} staged={staged_s:.5}s onepass={onepass_s:.5}s speedup={:.2}x",
                staged_s / onepass_s
            );
            for (system, t) in [("staged", staged_s), ("onepass", onepass_s)] {
                rep.push(Record {
                    experiment: format!("fusion_n{n}"),
                    model: model.into(),
                    system: system.into(),
                    task: "pipeline".into(),
                    n,
                    m: a.nnz(),
                    k: kk,
                    layers: 1,
                    p: 1,
                    compute_s: t,
                    comm_bytes: (a.nnz() * 4) as u64,
                    supersteps: 0,
                    modeled_s: t,
                });
            }
            pipeline.push(PipelineEntry {
                model,
                n,
                nnz: a.nnz(),
                k: kk,
                staged_s,
                onepass_s,
            });
        }

        // GAT's training backward two ways: the virtual `Ψ` a fused
        // training step runs (the backward sweep and `Ψᵀ G` recomputing
        // `Ψ` and `C` from the forward's row stats) against the `Ψ` and
        // `C` a caching forward materializes (`backward_gat` + `spmm_t`).
        // Both must give the same bits.
        let g = init::features::<f32>(a.rows(), k_agg, 9);
        let (_, stats) = attention::attention_forward_gat_stats(&a, &u, &v, &hp, 0.2);
        let cached = attention::attention_forward_gat(&a, &u, &v, &hp, 0.2, true);
        let psi = cached.psi.expect("a caching forward returns Ψ");
        let c_pre = cached.scores.expect("a caching forward returns C");
        let virtual_bwd = || {
            let (dc, du) =
                attention::attention_backward_gat_virtual(&a, &u, &v, &stats, &hp, &g, 0.2);
            let psi_t_g = attention::attention_psi_t_gat_virtual(&a, &u, &v, &stats, &g, 0.2);
            (dc, du, psi_t_g)
        };
        let materialized_bwd = || {
            let (dc, du) = attention::backward_gat(
                AttentionExec::FusedOnePass,
                &a,
                &psi,
                &c_pre,
                &hp,
                &g,
                0.2,
            );
            (dc, du, spmm::spmm_t(&psi, &g))
        };
        let (want, got) = (materialized_bwd(), virtual_bwd());
        assert_eq!(bits(want.0.values()), bits(got.0.values()), "n={n}: ∂C");
        assert_eq!(bits(&want.1), bits(&got.1), "n={n}: ∂u");
        assert_eq!(
            bits(want.2.as_slice()),
            bits(got.2.as_slice()),
            "n={n}: Ψᵀ G"
        );
        let materialized_s = time_median(|| {
            std::hint::black_box(materialized_bwd());
        });
        let virtual_s = time_median(|| {
            std::hint::black_box(virtual_bwd());
        });
        println!(
            "n={n:<6} GAT   backward k={k_agg:<3} materialized={materialized_s:.5}s virtual={virtual_s:.5}s ratio={:.2}x",
            materialized_s / virtual_s
        );
        for (system, t) in [("materialized", materialized_s), ("virtual", virtual_s)] {
            rep.push(Record {
                experiment: format!("fusion_n{n}"),
                model: "GAT".into(),
                system: system.into(),
                task: "backward".into(),
                n,
                m: a.nnz(),
                k: k_agg,
                layers: 1,
                p: 1,
                compute_s: t,
                comm_bytes: (a.nnz() * 4) as u64,
                supersteps: 0,
                modeled_s: t,
            });
        }
    }

    let mut json = String::from("{\n  \"pipeline\": [\n");
    for (i, e) in pipeline.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"model\": \"{}\", \"n\": {}, \"nnz\": {}, \"k\": {}, \"staged_s\": {:.6}, \"onepass_s\": {:.6}, \"speedup\": {:.3}}}{}",
            e.model,
            e.n,
            e.nnz,
            e.k,
            e.staged_s,
            e.onepass_s,
            e.staged_s / e.onepass_s,
            if i + 1 < pipeline.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_fusion.json", &json).expect("write BENCH_fusion.json");
    println!("wrote results/BENCH_fusion.json");

    // The acceptance anchor: one-pass must beat staged for GAT at k=64 on
    // the Kronecker graphs (the paper's headline fusion win). Checked on
    // the largest measured size; smoke mode only exercises the harness.
    if !smoke {
        let gat = pipeline
            .iter()
            .filter(|e| e.model == "GAT")
            .max_by_key(|e| e.n)
            .expect("GAT pipeline entry");
        assert!(
            gat.onepass_s < gat.staged_s,
            "GAT k=64 n={}: one-pass ({:.5}s) not faster than staged ({:.5}s)",
            gat.n,
            gat.onepass_s,
            gat.staged_s
        );
    }
    rep.write_csv().expect("write results");
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}
