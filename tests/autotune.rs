//! The adaptive autotuner end to end: persistent-database round trips,
//! corruption fallback, structural invalidation, and the bit-identity
//! contract ("the tuner picks plans, it never changes kernels").
//!
//! Calibration and plan application touch the process-global kernel
//! knobs, and two tests flip the global tune mode, so every test here
//! runs under one shared [`Mutex`] — this file is its own integration
//! binary precisely so those flips cannot race the rest of the suite —
//! and restores the entry state afterwards. Database files live under
//! `CARGO_TARGET_TMPDIR` with per-test names.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use atgnn::plan::ExecPlan;
use atgnn::tune::{self, db, Tier, TuneMode};
use atgnn::ReorderStrategy;
use atgnn_graphgen::kronecker;
use atgnn_sparse::{attention, spmm, Csr};
use atgnn_tensor::micro::{self, MicroKernel, SimdMode};
use atgnn_tensor::{init, knobs, Dense};

/// Serializes every test (they share process-global knobs and mode).
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

/// RAII guard: takes the lock, restores knobs and tune mode on drop.
struct Globals {
    _lock: MutexGuard<'static, ()>,
    micro: MicroKernel,
    simd: SimdMode,
    col_tile: usize,
    mode: TuneMode,
}

impl Globals {
    fn lock() -> Self {
        Self {
            _lock: GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner()),
            micro: micro::mode(),
            simd: micro::simd_mode(),
            col_tile: knobs::col_tile(),
            mode: tune::mode(),
        }
    }
}

impl Drop for Globals {
    fn drop(&mut self) {
        micro::set_mode(self.micro);
        micro::set_simd_mode(self.simd);
        knobs::set_col_tile(self.col_tile);
        tune::set_mode(self.mode);
    }
}

fn db_file(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join(format!("autotune_{name}.json"));
    let _ = std::fs::remove_file(&path);
    path
}

/// Large enough that the measure tier actually calibrates.
fn graph(n: usize) -> Csr<f64> {
    kronecker::adjacency(n, n * 8, 11)
}

#[test]
fn measured_resolution_round_trips_through_the_database() {
    let _g = Globals::lock();
    let path = db_file("round_trip");
    let a = graph(256);
    let k = 16;

    let cold = tune::resolve_report(ExecPlan::fused(), &a, k, TuneMode::Measure, Some(&path));
    assert_eq!(cold.tier, Tier::Measure);
    assert!(cold.plan.is_pinned(ExecPlan::PIN_ALL));

    // The stored entry survives a load with the full key intact.
    let store = db::TuneDb::load(&path).expect("readable db");
    let key = db::DbKey {
        fingerprint: a.structure_fingerprint(),
        k,
        threads: atgnn_tensor::rt::num_threads(),
        kernel_version: tune::KERNEL_VERSION,
    };
    let entry = store.get(&key).expect("entry for the resolved key");
    assert_eq!(entry.plan.to_plan(), Some(cold.plan));

    // A warm `auto` resolution is a db-hit returning the identical plan,
    // with zero calibration cost.
    let warm = tune::resolve_report(ExecPlan::fused(), &a, k, TuneMode::Auto, Some(&path));
    assert_eq!(warm.tier, Tier::DbHit);
    assert_eq!(warm.plan, cold.plan);
    assert_eq!(warm.calibration_s, 0.0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_databases_fall_back_without_panicking() {
    let _g = Globals::lock();
    let a = graph(64);
    let k = 8;
    let cases: [(&str, &str); 4] = [
        ("garbage", "not json at all"),
        ("truncated", "{\"version\": 1, \"entries\": [{\"fing"),
        ("version", "{\"version\": 999, \"entries\": []}"),
        ("wrong_shape", "[1, 2, 3]"),
    ];
    for (name, contents) in cases {
        let path = db_file(name);
        std::fs::write(&path, contents).expect("write corrupt db");
        // `auto` cannot hit a broken db; it falls back to the model tier
        // (the graph is tiny, so no calibration) instead of panicking.
        let r = tune::resolve_report(ExecPlan::fused(), &a, k, TuneMode::Auto, Some(&path));
        assert_eq!(r.tier, Tier::Model, "case {name}");
        assert!(r.plan.is_pinned(ExecPlan::PIN_ALL), "case {name}");
        // The store-back replaced the broken file with a readable one.
        let reloaded = db::TuneDb::load(&path);
        assert!(reloaded.is_ok(), "case {name}: {reloaded:?}");
        let warm = tune::resolve_report(ExecPlan::fused(), &a, k, TuneMode::Auto, Some(&path));
        assert_eq!(warm.tier, Tier::DbHit, "case {name}");
        assert_eq!(warm.plan, r.plan, "case {name}");
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn permuting_the_graph_invalidates_the_cached_tuning() {
    let _g = Globals::lock();
    let path = db_file("invalidation");
    let a = graph(64);
    let k = 8;
    let r = tune::resolve_report(ExecPlan::fused(), &a, k, TuneMode::Auto, Some(&path));
    assert_ne!(r.tier, Tier::DbHit);
    let warm = tune::resolve_report(ExecPlan::fused(), &a, k, TuneMode::Auto, Some(&path));
    assert_eq!(warm.tier, Tier::DbHit);

    // A permuted graph has the same shape and nnz but a different
    // structure fingerprint: the cached tuning must NOT apply.
    let n = a.rows();
    let perm: Vec<u32> = (0..n as u32).map(|i| (i + 1) % n as u32).collect();
    let permuted = a.permute(&perm);
    assert_ne!(
        permuted.structure_fingerprint(),
        a.structure_fingerprint(),
        "permutation must change the fingerprint"
    );
    let miss = tune::resolve_report(ExecPlan::fused(), &permuted, k, TuneMode::Auto, Some(&path));
    assert_ne!(miss.tier, Tier::DbHit);

    // So must a different feature width or kernel generation (the other
    // key components); both resolve fresh rather than hitting.
    let other_k = tune::resolve_report(ExecPlan::fused(), &a, k + 8, TuneMode::Auto, Some(&path));
    assert_ne!(other_k.tier, Tier::DbHit);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn pinned_env_fields_survive_a_database_hit() {
    let _g = Globals::lock();
    let path = db_file("pins");
    let a = graph(64);
    let k = 8;
    let r = tune::resolve_report(ExecPlan::fused(), &a, k, TuneMode::Auto, Some(&path));
    assert_ne!(r.plan.col_tile(), 7, "test needs a distinct pin value");
    // A base with an explicitly pinned field (what ATGNN_COL_TILE=7
    // would build) overrides the loaded plan on that axis only.
    let pinned = ExecPlan::fused().with_col_tile(7);
    let warm = tune::resolve_report(pinned, &a, k, TuneMode::Auto, Some(&path));
    assert_eq!(warm.tier, Tier::DbHit);
    assert_eq!(warm.plan.col_tile(), 7);
    assert_eq!(warm.plan.layout(), r.plan.layout());
    assert_eq!(warm.plan.reorder(), r.plan.reorder());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn tuned_plans_are_bit_identical_to_the_same_plan_chosen_manually() {
    let g = Globals::lock();
    let path = db_file("bit_identity");
    let a = graph(256);
    let k = 12;
    let tuned = tune::resolve_report(ExecPlan::fused(), &a, k, TuneMode::Measure, Some(&path)).plan;
    // Rebuild the identical plan the way the env knobs would.
    let manual = ExecPlan::fused()
        .with_exec(tuned.exec())
        .with_reorder(tuned.reorder())
        .with_layout(tuned.layout())
        .with_micro(tuned.micro_kernel())
        .with_simd(tuned.simd())
        .with_col_tile(tuned.col_tile())
        .with_precision(tuned.precision());
    assert_eq!(manual, tuned);

    let run = |plan: &ExecPlan| -> (Dense<f64>, Dense<f64>) {
        plan.apply_kernel_knobs();
        let a_run = match plan.reorder_graph(&a) {
            Some(r) => r.a,
            None => a.clone(),
        };
        let h = init::features::<f64>(a_run.rows(), k, 5);
        let h = match plan.layout() {
            atgnn::Layout::Padded => h.padded(),
            atgnn::Layout::Tight => h,
        };
        let u = init::glorot_vec::<f64>(a_run.rows(), 1);
        let v = init::glorot_vec::<f64>(a_run.cols(), 2);
        let f = attention::forward_gat(plan.exec(), &a_run, &u, &v, &h, 0.2, false);
        let back = spmm::spmm_t(&a_run, &f.out);
        (f.out, back)
    };
    let (out_t, back_t) = run(&tuned);
    let (out_m, back_m) = run(&manual);
    for r in 0..out_t.rows() {
        for (x, y) in out_t.row(r).iter().zip(out_m.row(r)) {
            assert_eq!(x.to_bits(), y.to_bits(), "forward differs at row {r}");
        }
        for (x, y) in back_t.row(r).iter().zip(back_m.row(r)) {
            assert_eq!(x.to_bits(), y.to_bits(), "scatter differs at row {r}");
        }
    }
    let _ = std::fs::remove_file(&path);
    drop(g);
}

#[test]
fn model_resolution_cache_feeds_layers_one_plan() {
    let _g = Globals::lock();
    use atgnn::layers::GatLayer;
    use atgnn::{AGnnLayer, GnnModel};
    use atgnn_tensor::Activation;

    tune::set_mode(TuneMode::Model);
    let a = graph(64);
    let layer: Box<dyn AGnnLayer<f64>> = Box::new(GatLayer::new(6, 4, Activation::Elu, 3));
    let model = GnnModel::new(vec![layer]);
    let plan = model.resolved_plan(&a);
    assert!(plan.is_pinned(ExecPlan::PIN_ALL));
    // Tiny local graph: the model tier resolves auto reordering off —
    // unless the environment pinned the axis (ci.sh's forced-RCM pass),
    // in which case the pin must win through every tier.
    let env = ExecPlan::from_env();
    if env.is_pinned(ExecPlan::PIN_REORDER) {
        assert_eq!(plan.reorder(), env.reorder());
    } else {
        assert_eq!(plan.reorder(), ReorderStrategy::Off);
    }
    // The cached resolution is stable across calls on the same graph.
    assert_eq!(model.resolved_plan(&a), plan);
    // Inference under the resolved plan still computes.
    let h = init::features::<f64>(a.rows(), 6, 9);
    let out = model.inference(&a, &h);
    assert_eq!(out.rows(), a.rows());
    assert!(out.max_abs().is_finite());
}
