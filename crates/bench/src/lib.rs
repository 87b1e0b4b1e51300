//! The benchmark harness regenerating every table and figure of the
//! paper (see DESIGN.md §5 for the experiment index and EXPERIMENTS.md
//! for the recorded results).
//!
//! # Methodology (the substitution, in short)
//!
//! The paper ran on up to 1024 Cray XC50 nodes; this box has one core.
//! The harness therefore separates the two ingredients of distributed
//! runtime and measures each where it can be measured honestly:
//!
//! 1. **Compute** is *measured* (median of repeated runs, after warmup —
//!    the artifact's 2-warmup/10-repeat protocol, scaled down via
//!    environment variables) on the real kernels over the full graph,
//!    then divided across ranks with the measured per-block load
//!    imbalance factor of the actual 2D partition.
//! 2. **Communication** is *measured exactly* (bytes per rank, BSP
//!    supersteps) by executing the real distributed algorithms on the
//!    simulated cluster, and converted to seconds through the α–β
//!    machine model ([`atgnn_net::MachineModel::aries`]).
//!
//! Every harness binary prints paper-style series and writes
//! `results/<name>.csv` ([`result_path`]: `results/smoke/` in smoke runs).

pub mod cli;
pub mod measure;
pub mod plot;
pub mod report;

use atgnn_sparse::Csr;
use atgnn_tensor::Scalar;

/// Repetition counts, overridable via `ATGNN_REPEATS` / `ATGNN_WARMUP`
/// (the artifact used 10 and 2).
pub fn repeats() -> (usize, usize) {
    let reps = std::env::var("ATGNN_REPEATS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let warm = std::env::var("ATGNN_WARMUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    (reps, warm)
}

/// Global size multiplier for the experiment scale, via `ATGNN_SCALE`
/// (1 = the fast default documented in EXPERIMENTS.md; larger values
/// approach the paper's sizes at the cost of runtime).
pub fn scale() -> usize {
    std::env::var("ATGNN_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Where a harness writes its output file `name`: `results/<name>`, or
/// `results/smoke/<name>` under `ATGNN_SMOKE`, so smoke runs (CI) never
/// overwrite the recorded full-size results. Creates the directory.
pub fn result_path(name: &str) -> std::io::Result<std::path::PathBuf> {
    let mut dir = std::path::PathBuf::from("results");
    if std::env::var("ATGNN_SMOKE").is_ok() {
        dir.push("smoke");
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir.join(name))
}

/// The per-rank load-imbalance factor of the 2D partition: the dominant
/// per-rank work is proportional to the owned block's nnz, so the
/// parallel compute time is `T₁/p · (max block nnz)/(mean block nnz)`.
pub fn imbalance_2d<T: Scalar>(a: &Csr<T>, p: usize) -> f64 {
    let grid = atgnn_dist::Grid::from_ranks(p).expect("square rank count");
    let n = a.rows();
    let mut max_nnz = 0usize;
    for i in 0..grid.q {
        for j in 0..grid.q {
            let (r0, r1) = grid.block_bounds(n, i);
            let (c0, c1) = grid.block_bounds(n, j);
            let nnz = a.block(r0, r1, c0, c1).nnz();
            max_nnz = max_nnz.max(nnz);
        }
    }
    if a.nnz() == 0 {
        1.0
    } else {
        (max_nnz as f64) / (a.nnz() as f64 / p as f64)
    }
}

/// The per-rank load-imbalance factor of the 1D partition (local
/// formulation baseline).
pub fn imbalance_1d<T: Scalar>(a: &Csr<T>, p: usize) -> f64 {
    let n = a.rows();
    let part = |r: usize| (r * n / p, (r + 1) * n / p);
    let mut max_nnz = 0usize;
    for r in 0..p {
        let (lo, hi) = part(r);
        let nnz: usize = (lo..hi).map(|i| a.row_nnz(i)).sum();
        max_nnz = max_nnz.max(nnz);
    }
    if a.nnz() == 0 {
        1.0
    } else {
        (max_nnz as f64) / (a.nnz() as f64 / p as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgnn_sparse::Coo;

    #[test]
    fn uniform_graph_has_low_imbalance() {
        // Erdős–Rényi edges spread uniformly over the 2D blocks.
        let a = atgnn_graphgen::erdos_renyi::adjacency::<f64>(256, 4096, 3);
        let imb = imbalance_2d(&a, 4);
        assert!(imb < 1.3, "imbalance {imb}");
        assert!(imbalance_1d(&a, 4) < 1.3);
    }

    #[test]
    fn star_graph_has_high_imbalance() {
        let n = 64;
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (0, i)).collect();
        let a: Csr<f64> = Csr::from_coo(&Coo::from_edges(n, n, edges));
        assert!(imbalance_1d(&a, 4) > 3.0);
    }

    #[test]
    fn repeats_have_sane_defaults() {
        let (r, w) = repeats();
        assert!(r >= 1);
        let _ = w;
        assert!(scale() >= 1);
    }
}
