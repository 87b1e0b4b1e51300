//! §7/§8.4 verification: measured vs predicted communication volume.
//!
//! The theory (paper Section 7): per layer, the global formulation moves
//! `O(nk/√p + k²)` words per rank; the local formulation up to
//! `Ω(nkd/p + k²)`, i.e. `O(n²kq/p)` on Erdős–Rényi graphs; the global
//! formulation wins when `d ∈ ω(√p)` (ER crossover at `q ≈ √p/n`).
//! This harness measures the actual per-rank volumes of both engines on
//! the simulated cluster. The global engine's bytes and supersteps must
//! equal the exact communication model (`atgnn_dist::comm_model`); the
//! ratio to the closed-form bound shows the engine's constant, and the
//! *scaling* must match the law.

use atgnn::ModelKind;
use atgnn_bench::measure::{comm_global, comm_global_supervised, comm_local, Task};
use atgnn_bench::report::{Record, Reporter};
use atgnn_bench::scale;
use atgnn_dist::{comm_model, Grid};
use atgnn_graphgen::{erdos_renyi, stats::DegreeStats};

/// Local formulation on Erdős–Rényi graphs: `O(n²kq/p)` words w.h.p.
fn local_volume_er_words(n: usize, k: usize, q: f64, p: usize) -> f64 {
    (n as f64) * (n as f64) * k as f64 * q / p as f64
}

/// The density above which the global formulation is predicted to win
/// on ER graphs: `q > √p / n` (Section 7.3).
fn er_crossover_density(n: usize, p: usize) -> f64 {
    (p as f64).sqrt() / n as f64
}

fn main() {
    let layers = 1; // per-layer volumes, directly comparable to §7
    let k = 16;
    let mut rep = Reporter::new("comm_volume");
    let n = (1usize << 12) * scale();
    println!("-- global volume vs nk/sqrt(p) (ER, rho = 0.2%) --");
    let m = (n * n) / 500;
    let a = erdos_renyi::adjacency::<f32>(n, m, 9);
    let stats = DegreeStats::of(&a);
    println!("graph: {stats}");
    let mut prev_ratio = None;
    let dims = vec![k; layers + 1];
    let schedule = comm_model::schedule(ModelKind::Va, comm_model::Task::Inference, &dims);
    for p in [4usize, 16, 64, 256] {
        let g = comm_global(ModelKind::Va, &a, k, layers, p, Task::Inference);
        let grid = Grid::from_ranks(p).expect("square rank count");
        let exact = comm_model::max_rank_volume(&schedule, grid, n, 4); // f32
        let bound = comm_model::bound_words(n, k, k, grid.q) * 4.0; // f32 words → bytes
        let ratio = g.max_rank_bytes() as f64 / bound;
        println!(
            "p={p:<4} measured={:<10} exact={:<10} measured/exact={:.3} \
             bound={bound:<12.0} measured/bound={ratio:.2}",
            g.max_rank_bytes(),
            exact.bytes,
            g.max_rank_bytes() as f64 / exact.bytes as f64,
        );
        assert_eq!(
            (g.max_rank_bytes(), g.max_supersteps()),
            (exact.bytes, exact.supersteps),
            "the global engine must move exactly the modeled bytes in the modeled supersteps"
        );
        rep.push(Record {
            experiment: "vol_global".into(),
            model: "VA".into(),
            system: "global".into(),
            task: "inference".into(),
            n,
            m: a.nnz(),
            k,
            layers,
            p,
            compute_s: 0.0,
            comm_bytes: g.max_rank_bytes(),
            supersteps: g.max_supersteps(),
            modeled_s: bound / 1e9,
        });
        if let Some(pr) = prev_ratio {
            let drift: f64 = ratio / pr;
            assert!(
                (0.3..3.0).contains(&drift),
                "global volume does not track nk/sqrt(p)"
            );
        }
        prev_ratio = Some(ratio);
    }

    println!("-- local volume vs n^2 k q / p (ER) --");
    for (tag, q) in [("0.2pct", 0.002), ("0.05pct", 0.0005)] {
        let m = ((n as f64) * (n as f64) * q) as usize;
        let a = erdos_renyi::adjacency::<f32>(n, m.max(n), 11);
        for p in [4usize, 16, 64] {
            let l = comm_local(ModelKind::Va, &a, k, layers, p, Task::Inference);
            // The prediction counts per-edge words; halo deduplication can
            // only lower it, so measured/predicted must be ≤ O(1).
            let predicted = local_volume_er_words(n, k, 2.0 * q, p) * 4.0;
            println!(
                "q={tag} p={p:<4} measured={:<10} predicted(no-dedup)={:<12.0} ratio={:.2}",
                l.max_rank_bytes(),
                predicted,
                l.max_rank_bytes() as f64 / predicted
            );
            rep.push(Record {
                experiment: format!("vol_local_{tag}"),
                model: "VA".into(),
                system: "local".into(),
                task: "inference".into(),
                n,
                m: a.nnz(),
                k,
                layers,
                p,
                compute_s: 0.0,
                comm_bytes: l.max_rank_bytes(),
                supersteps: l.max_supersteps(),
                modeled_s: predicted / 1e9,
            });
            assert!(
                (l.max_rank_bytes() as f64) < 3.0 * predicted,
                "local volume exceeds the Ω bound band"
            );
        }
    }

    println!("-- fault machinery overhead: zero when no plan is active --");
    {
        let m = (n * n) / 1000;
        let a = erdos_renyi::adjacency::<f32>(n, m.max(n), 17);
        for (task, label) in [(Task::Inference, "inference"), (Task::Training, "training")] {
            let base = comm_global(ModelKind::Gat, &a, k, layers, 4, task);
            let plan = atgnn_net::FaultPlan::none();
            let sup = comm_global_supervised(ModelKind::Gat, &a, k, layers, 4, task, &plan);
            println!(
                "{label:<10} bytes={} supersteps={} fault_events={}",
                sup.total_bytes(),
                sup.max_supersteps(),
                sup.total_fault_events()
            );
            assert_eq!(
                sup.total_bytes(),
                base.total_bytes(),
                "an inactive fault plan must add zero bytes"
            );
            assert_eq!(
                sup.max_supersteps(),
                base.max_supersteps(),
                "an inactive fault plan must add zero supersteps"
            );
            assert_eq!(
                sup.total_fault_events(),
                0,
                "an inactive fault plan must record zero fault events"
            );
        }
    }

    println!("-- ER crossover: global wins iff q > sqrt(p)/n --");
    let p = 64;
    let qc = er_crossover_density(n, p);
    println!("n={n} p={p}: predicted crossover density = {qc:.6}");
    for mult in [16.0, 0.5] {
        let q = qc * mult;
        let m = ((n as f64) * (n as f64) * q) as usize;
        let a = erdos_renyi::adjacency::<f32>(n, m.max(n), 13);
        let g = comm_global(ModelKind::Va, &a, k, layers, p, Task::Inference);
        let l = comm_local(ModelKind::Va, &a, k, layers, p, Task::Inference);
        let win = l.max_rank_bytes() > g.max_rank_bytes();
        println!(
            "q = {mult}×crossover: global={} local={} → {}",
            g.max_rank_bytes(),
            l.max_rank_bytes(),
            if win { "global wins" } else { "local wins" }
        );
        if mult > 4.0 {
            assert!(win, "global must win well above the crossover density");
        }
    }
    rep.write_csv().expect("write results");
}
