//! Adaptive-autotuner ablation: cost-model + calibration plan selection
//! vs the static process default.
//!
//! For ER and Kronecker graphs × k ∈ {32, 60, 64}, resolves an
//! [`ExecPlan`] through the measure tier (`atgnn::tune`) against a
//! cold bench-local database, then times the attention hot path — one
//! fused GAT sweep plus the backward `AᵀH` gather — under the tuned
//! plan and under the static default a non-tuned process would use.
//! Identical plans share one timing, so "no change" reports exactly
//! 1.000x instead of noise.
//!
//! Also reported per configuration:
//!
//! * the one-shot calibration overhead (`calibration_s`) the measure
//!   tier paid;
//! * the warm-database resolution cost (`warm_resolve_s`): a second
//!   resolution in `auto` mode must be a db-hit and cost < 1% of one
//!   GAT training step;
//! * a bit-identity gate: the tuned plan's outputs must match the same
//!   plan built manually through the env-knob builders bit for bit —
//!   the tuner picks plans, it never changes kernels.
//!
//! Acceptance (skipped under `ATGNN_SMOKE=1`): tuned ≥ 1.0x the static
//! default on every configuration; the best speedup is printed, not
//! gated (the 11–18.8x once asserted here as "≥ 1.15x somewhere" was the
//! `spmm_t` partial-buffer count collapsing to 1 — that kernel is a
//! gather now and the default path has the whole gain).
//! Results land in `results/BENCH_autotune.json`.

use atgnn::plan::ExecPlan;
use atgnn::tune::{self, Tier, TuneMode};
use atgnn::GnnModel;
use atgnn_bench::scale;
use atgnn_graphgen::{erdos_renyi, kronecker, reorder};
use atgnn_sparse::{attention, spmm, Csr};
use atgnn_tensor::micro;
use atgnn_tensor::{init, knobs, Activation, Dense};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

const SLOPE: f64 = 0.2;

fn plan_desc(p: &ExecPlan) -> String {
    format!(
        "{:?}/{:?}/{:?}/{:?}/{:?}/ct={}",
        p.exec(),
        p.reorder(),
        p.layout(),
        p.micro_kernel(),
        p.simd(),
        p.col_tile(),
    )
}

/// The workload the tuned knobs steer: one fused GAT attention sweep
/// plus the `AᵀH` gather, on inputs laid out per the plan.
struct Workload<T> {
    a: Csr<T>,
    h: Dense<T>,
    u: Vec<T>,
    v: Vec<T>,
}

fn workload(plan: &ExecPlan, a: &Csr<f32>, k: usize) -> Workload<f32> {
    let n = a.rows();
    let a_run = match plan.reorder_graph(a) {
        Some(r) => r.a,
        None => a.clone(),
    };
    let h = init::features::<f32>(n, k, 8);
    let h = match plan.layout() {
        atgnn::Layout::Padded => h.padded(),
        atgnn::Layout::Tight => h,
    };
    Workload {
        a: a_run,
        h,
        u: init::glorot_vec::<f32>(n, 1),
        v: init::glorot_vec::<f32>(n, 2),
    }
}

fn run(plan: &ExecPlan, w: &Workload<f32>) -> Dense<f32> {
    plan.apply_kernel_knobs();
    let f = attention::forward_gat(plan.exec(), &w.a, &w.u, &w.v, &w.h, SLOPE, false);
    let back = spmm::spmm_t(&w.a, &f.out);
    std::hint::black_box(back.max_abs());
    f.out
}

fn bit_identical(a: &Dense<f32>, b: &Dense<f32>) -> bool {
    (0..a.rows()).all(|r| {
        a.row(r)
            .iter()
            .zip(b.row(r))
            .all(|(x, y)| x.to_bits() == y.to_bits())
    })
}

struct Entry {
    graph: &'static str,
    k: usize,
    n: usize,
    nnz: usize,
    static_plan: String,
    tuned_plan: String,
    tier: &'static str,
    static_s: f64,
    tuned_s: f64,
    calibration_s: f64,
    warm_resolve_s: f64,
    train_step_s: f64,
}

fn main() {
    let smoke = std::env::var("ATGNN_SMOKE").is_ok();
    let n = if smoke {
        1 << 8
    } else {
        (1usize << 13) * scale()
    };
    let ks: &[usize] = if smoke { &[32] } else { &[32, 60, 64] };
    let (warm, rounds) = if smoke { (1, 2) } else { (1, 7) };

    // A bench-local database, cold at start so every resolution below
    // pays (and reports) the real calibration cost exactly once. Under
    // `ATGNN_TUNE_WARM=1` the database from a previous run is kept and
    // every resolution must instead be a cross-process db-hit — the
    // persistence check CI drives by running this bench twice.
    let warm_db = std::env::var("ATGNN_TUNE_WARM").is_ok();
    let db_path = PathBuf::from("results/tune_bench_db.json");
    let _ = std::fs::create_dir_all("results");
    if !warm_db {
        let _ = std::fs::remove_file(&db_path);
    }

    // The workload applies per-plan kernel knobs; restore the process
    // globals when done. The base plan is snapshotted ONCE, before any
    // tuned plan's knobs are applied — `ExecPlan::fused()` reads the
    // process globals, so a late snapshot would inherit tuned values
    // into the "static default".
    let entry_micro = micro::mode();
    let entry_simd = micro::simd_mode();
    let entry_col_tile = knobs::col_tile();
    let base = ExecPlan::fused();

    let graphs: Vec<(&'static str, Csr<f32>)> = vec![
        ("erdos-renyi", erdos_renyi::adjacency(n, n * 8, 5)),
        ("kronecker", kronecker::adjacency(n, n * 8, 5)),
    ];

    let mut entries: Vec<Entry> = Vec::new();
    for (graph, a) in &graphs {
        for &k in ks {
            let static_plan = base.defaulted_for_width(k);
            let mode = if warm_db {
                TuneMode::Auto
            } else {
                TuneMode::Measure
            };
            let res = tune::resolve_report(base, a, k, mode, Some(&db_path));
            if warm_db {
                assert_eq!(
                    res.tier,
                    Tier::DbHit,
                    "{graph} k={k}: warm process must hit the persisted db"
                );
            }
            let tuned_plan = res.plan;

            // The tuner picks plans, it never changes kernels: the same
            // plan forced through the env-knob builders must reproduce
            // the tuned outputs bit for bit.
            let manual = base
                .with_exec(tuned_plan.exec())
                .with_reorder(tuned_plan.reorder())
                .with_layout(tuned_plan.layout())
                .with_micro(tuned_plan.micro_kernel())
                .with_simd(tuned_plan.simd())
                .with_col_tile(tuned_plan.col_tile())
                .with_precision(tuned_plan.precision());
            assert_eq!(
                manual, tuned_plan,
                "builders must reconstruct the tuned plan"
            );
            let w_tuned = workload(&tuned_plan, a, k);
            assert!(
                bit_identical(&run(&tuned_plan, &w_tuned), &run(&manual, &w_tuned)),
                "{graph} k={k}: tuned plan output differs from the manual plan"
            );

            // Interleaved-min timing; an unchanged plan reuses the
            // static timing so "no change" is exactly 1.000x. The static
            // plan's `auto` reordering resolves per graph when it runs,
            // so compare the plans as they execute.
            let w_static = workload(&static_plan, a, k);
            let mut static_s = f64::INFINITY;
            let mut tuned_s = f64::INFINITY;
            let static_as_run =
                static_plan.with_reorder(reorder::resolve(a, static_plan.reorder()));
            let differs = tuned_plan != static_as_run.pin_all();
            for round in 0..warm + rounds {
                let t = Instant::now();
                std::hint::black_box(run(&static_plan, &w_static));
                let dt = t.elapsed().as_secs_f64();
                if round >= warm {
                    static_s = static_s.min(dt);
                }
                if differs {
                    let t = Instant::now();
                    std::hint::black_box(run(&tuned_plan, &w_tuned));
                    let dt = t.elapsed().as_secs_f64();
                    if round >= warm {
                        tuned_s = tuned_s.min(dt);
                    }
                }
            }
            if !differs {
                tuned_s = static_s;
            }

            // Warm-database resolution: must hit and must be cheap
            // relative to one GAT training step.
            let t = Instant::now();
            let warm_res = tune::resolve_report(base, a, k, TuneMode::Auto, Some(&db_path));
            let warm_resolve_s = t.elapsed().as_secs_f64();
            assert_eq!(
                warm_res.tier,
                Tier::DbHit,
                "{graph} k={k}: warm run must hit the db"
            );
            assert_eq!(
                warm_res.plan, tuned_plan,
                "{graph} k={k}: db round-trip must preserve the plan"
            );

            let mut model = GnnModel::new(vec![Box::new(atgnn::layers::GatLayer::<f32>::new(
                k,
                k,
                Activation::Elu,
                7,
            )) as Box<dyn atgnn::AGnnLayer<f32>>]);
            let h0 = init::features::<f32>(a.rows(), k, 3);
            let loss = atgnn::loss::Mse::new(init::features::<f32>(a.rows(), k, 4));
            let mut opt = atgnn::optimizer::Adam::new(0.01);
            let mut train_step_s = f64::INFINITY;
            for _ in 0..3 {
                let t = Instant::now();
                std::hint::black_box(model.train_step(a, &h0, &loss, &mut opt));
                train_step_s = train_step_s.min(t.elapsed().as_secs_f64());
            }

            println!(
                "{graph:<12} k={k:<3} {} -> {} [{}] static={static_s:.5}s tuned={tuned_s:.5}s \
                 speedup={:.3}x cal={:.4}s warm_resolve={:.6}s train_step={train_step_s:.4}s",
                plan_desc(&static_plan),
                plan_desc(&tuned_plan),
                res.tier.name(),
                static_s / tuned_s,
                res.calibration_s,
                warm_resolve_s,
            );
            entries.push(Entry {
                graph,
                k,
                n: a.rows(),
                nnz: a.nnz(),
                static_plan: plan_desc(&static_plan),
                tuned_plan: plan_desc(&tuned_plan),
                tier: res.tier.name(),
                static_s,
                tuned_s,
                calibration_s: res.calibration_s,
                warm_resolve_s,
                train_step_s,
            });
        }
    }

    micro::set_mode(entry_micro);
    micro::set_simd_mode(entry_simd);
    knobs::set_col_tile(entry_col_tile);

    let mut json = String::new();
    json.push_str("{\n  \"autotune\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"graph\": \"{}\", \"k\": {}, \"n\": {}, \"nnz\": {}, \
             \"static_plan\": \"{}\", \"tuned_plan\": \"{}\", \"tier\": \"{}\", \
             \"static_s\": {:.6}, \"tuned_s\": {:.6}, \"speedup\": {:.3}, \
             \"calibration_s\": {:.6}, \"warm_resolve_s\": {:.6}, \"train_step_s\": {:.6}}}{}",
            e.graph,
            e.k,
            e.n,
            e.nnz,
            e.static_plan,
            e.tuned_plan,
            e.tier,
            e.static_s,
            e.tuned_s,
            e.static_s / e.tuned_s,
            e.calibration_s,
            e.warm_resolve_s,
            e.train_step_s,
            if i + 1 < entries.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write("results/BENCH_autotune.json", &json).expect("write BENCH_autotune.json");
    println!("wrote results/BENCH_autotune.json");

    if !smoke {
        let mut best = 0.0f64;
        for e in &entries {
            let speedup = e.static_s / e.tuned_s;
            best = best.max(speedup);
            assert!(
                speedup >= 1.0,
                "{} k={}: tuned plan {speedup:.3}x slower than the static default",
                e.graph,
                e.k
            );
            assert!(
                e.warm_resolve_s < 0.01 * e.train_step_s,
                "{} k={}: warm resolution {:.6}s >= 1% of a train step {:.4}s",
                e.graph,
                e.k,
                e.warm_resolve_s,
                e.train_step_s
            );
        }
        println!("acceptance: best tuned speedup {best:.3}x");
    }
}
