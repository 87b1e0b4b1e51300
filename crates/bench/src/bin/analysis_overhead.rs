//! Overhead of the plan verifier, measured against a real training step.
//!
//! `ATGNN_ANALYZE=deny` runs the full abstract interpreter — shapes,
//! virtual safety, fusion legality, semirings, determinism proofs,
//! FP-stability intervals, alias legality — over every canned DAG at
//! model construction. This bench prices that check: it times one
//! *complete* analyzer sweep (all four models × forward +
//! backward DAGs × both execution plans, strictly more work than any
//! single model pays) against one full-batch GAT training step on an
//! Erdős–Rényi graph, and writes the ratio to
//! `results/BENCH_analysis.json`.
//!
//! The analyzer walks a few dozen DAG nodes; the training step walks
//! every edge of the graph `L` times. The bench asserts the sweep stays
//! under 1% of a step, making `ATGNN_ANALYZE=deny` safe to leave on in
//! production runs (it executes once per model construction, not per
//! step, so the real amortized cost is lower still).
//!
//! `ATGNN_SMOKE=1` shrinks the graph and skips the ratio assertion; CI
//! uses it to exercise the harness.

use atgnn::analyze;
use atgnn::loss::Mse;
use atgnn::optimizer::Sgd;
use atgnn::{ExecPlan, GnnModel, ModelKind};
use atgnn_bench::measure::time_median;
use atgnn_graphgen::erdos_renyi;
use atgnn_tensor::{init, Activation};
use std::fmt::Write as _;
use std::hint::black_box;

const KINDS: [ModelKind; 4] = [
    ModelKind::Va,
    ModelKind::Agnn,
    ModelKind::Gat,
    ModelKind::Gcn,
];

/// One full verifier sweep: every canned model DAG plus both execution
/// plans of every kind — the union of everything `env_validate` can run.
fn analyzer_sweep() -> usize {
    let mut diags = 0;
    for kind in KINDS {
        diags += analyze::validate_model(kind).len();
        for plan in [ExecPlan::fused(), ExecPlan::staged()] {
            diags += analyze::validate_plan(&plan, kind).len();
        }
    }
    diags
}

fn main() {
    let smoke = std::env::var("ATGNN_SMOKE").is_ok();
    let (n, layers) = if smoke { (512, 2) } else { (8192, 2) };
    let k = 64;
    let m = n * 8;

    let a = erdos_renyi::adjacency::<f32>(n, m, 5);
    let a = GnnModel::<f32>::prepare_adjacency(ModelKind::Gat, &a);
    let x = init::features::<f32>(n, k, 0xfeed);
    let target = init::features::<f32>(n, k, 0xbeef);
    let loss = Mse::new(target);
    let dims = vec![k; layers + 1];
    let mut model = GnnModel::<f32>::uniform(ModelKind::Gat, &dims, Activation::Relu, 7);
    let mut opt = Sgd::new(1e-4_f32);

    // The sweep must stay observable to the timer.
    let diag_count = analyzer_sweep();
    let analysis_s = time_median(|| {
        black_box(analyzer_sweep());
    });
    let step_s = time_median(|| {
        black_box(model.train_step(&a, &x, &loss, &mut opt));
    });
    let ratio = analysis_s / step_s;

    println!(
        "analysis: full sweep {analysis_s:.6}s, GAT train step (n={n}, m={}, k={k}, L={layers}) \
         {step_s:.6}s -> ratio {:.4}% ({diag_count} diagnostics, all staged-plan warnings)",
        a.nnz(),
        ratio * 100.0
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"analysis_overhead\",");
    let _ = writeln!(
        json,
        "  \"graph\": {{ \"kind\": \"erdos_renyi\", \"n\": {n}, \"nnz\": {} }},",
        a.nnz()
    );
    let _ = writeln!(
        json,
        "  \"model\": {{ \"kind\": \"GAT\", \"k\": {k}, \"layers\": {layers} }},"
    );
    let _ = writeln!(json, "  \"analyzer_sweep_s\": {analysis_s:.9},");
    let _ = writeln!(json, "  \"train_step_s\": {step_s:.9},");
    let _ = writeln!(json, "  \"overhead_ratio\": {ratio:.9},");
    let _ = writeln!(json, "  \"diagnostics\": {diag_count},");
    let _ = writeln!(json, "  \"smoke\": {smoke}");
    json.push_str("}\n");
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/BENCH_analysis.json", &json).expect("write BENCH_analysis.json");
    println!("wrote results/BENCH_analysis.json");

    if !smoke {
        assert!(
            ratio < 0.01,
            "the analyzer sweep ({analysis_s:.6}s) must cost under 1% of a training \
             step ({step_s:.6}s); measured {:.3}%",
            ratio * 100.0
        );
    }
}
