//! Locality-improving vertex reorderings for the attention hot path.
//!
//! The fused SDDMM→softmax→SpMM sweep is bandwidth-bound: per stored edge
//! `(i, j)` it gathers the feature row `H[j]`, so the cache behavior is
//! governed by how far apart consecutive column indices land in memory.
//! The synthetic generators deliberately shuffle vertex ids (Kronecker
//! especially), making those gathers near-random. This module computes a
//! permutation `perm` (`perm[new] = old`) that packs neighbors close
//! together, for the plan layer (`atgnn::plan`) to apply via
//! `Csr::permute` — kernels themselves stay permutation-agnostic.
//!
//! Two orderings are provided, selected by [`Strategy::Auto`] from the
//! locality metrics of [`locality_of`] (shared with `graphgen::stats` and
//! the `locality` bench):
//!
//! * **Degree sort** — vertices by descending degree. On heavy-tailed
//!   (power-law) graphs this packs the hub rows, which dominate the nnz,
//!   into one hot region of `H`.
//! * **Reverse Cuthill–McKee** — BFS from a low-degree seed, neighbors
//!   visited in ascending-degree order, final order reversed. The classic
//!   bandwidth-minimizing ordering; best on near-uniform-degree graphs
//!   (Erdős–Rényi, meshes) where no hub set exists.

use atgnn_sparse::Csr;
use atgnn_tensor::Scalar;
use std::collections::VecDeque;

/// The `Auto` size floor: above it every strategy is in play; between an
/// eighth of it and the floor only the degree sort is (and only for
/// skewed, dense-rowed graphs — see [`resolve`]); below an eighth `Auto`
/// always declines — graphs that tiny fit in cache whole, and reordering
/// would only perturb floating-point order.
const AUTO_MIN_N: usize = 1024;

/// Which vertex reordering the plan applies before kernel execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Pick per graph from locality metrics (the default): skip tiny or
    /// already-local graphs, degree-sort heavy-tailed ones, RCM the rest.
    #[default]
    Auto,
    /// Descending-degree sort.
    Degree,
    /// Reverse Cuthill–McKee.
    Rcm,
    /// No reordering.
    Off,
}

impl Strategy {
    /// Parses an `ATGNN_REORDER` value; unknown strings yield `None`.
    pub fn parse(s: &str) -> Option<Strategy> {
        match s {
            "auto" => Some(Strategy::Auto),
            "degree" => Some(Strategy::Degree),
            "rcm" => Some(Strategy::Rcm),
            "off" => Some(Strategy::Off),
            _ => None,
        }
    }

    /// The knob spelling of this strategy.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Auto => "auto",
            Strategy::Degree => "degree",
            Strategy::Rcm => "rcm",
            Strategy::Off => "off",
        }
    }
}

/// Locality metrics of a CSR pattern: how far the stored columns of each
/// row sit from the diagonal.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Locality {
    /// Max over stored entries of `|i - j|` (the matrix bandwidth).
    pub bandwidth: usize,
    /// Mean over stored entries of `|i - j|` — the expected gather
    /// distance into the feature matrix, in rows.
    pub avg_neighbor_distance: f64,
}

/// Measures [`Locality`] of a pattern. One implementation shared by the
/// `Auto` heuristic, `graphgen::stats`, and the `locality` bench.
pub fn locality_of<T: Scalar>(a: &Csr<T>) -> Locality {
    let mut bandwidth = 0usize;
    let mut sum = 0.0f64;
    for r in 0..a.rows() {
        for &c in a.row(r).0 {
            let d = r.abs_diff(c as usize);
            bandwidth = bandwidth.max(d);
            sum += d as f64;
        }
    }
    let nnz = a.nnz();
    Locality {
        bandwidth,
        avg_neighbor_distance: if nnz == 0 { 0.0 } else { sum / nnz as f64 },
    }
}

/// Coefficient of variation of the out-degree distribution (σ/μ); ≥ 1
/// signals a heavy tail.
fn degree_cv<T: Scalar>(a: &Csr<T>) -> f64 {
    let n = a.rows();
    if n == 0 {
        return 0.0;
    }
    let mean = a.nnz() as f64 / n as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = (0..n)
        .map(|r| {
            let d = a.row_nnz(r) as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / n as f64;
    var.sqrt() / mean
}

/// Resolves `Auto` against the graph's measured locality; forced
/// strategies pass through unchanged.
///
/// `Auto` declines to reorder (`Off`) when the graph is tiny or the
/// average gather distance is already a small fraction of `n`
/// (banded/pre-ordered inputs — a permutation would churn FP order for no
/// cache win). Otherwise a heavy-tailed degree distribution (CV ≥ 1,
/// e.g. Kronecker) picks [`Strategy::Degree`] and near-uniform graphs
/// pick [`Strategy::Rcm`].
///
/// The size gate is not the bare [`AUTO_MIN_N`] floor: below the
/// floor but above an eighth of it, graphs with both heavy degree skew
/// (CV ≥ 1) and dense rows (mean degree ≥ 8) still resolve to `Degree` —
/// on a small skewed Kronecker graph the hub rows dominate the nnz and
/// packing them is measurably faster (`results/BENCH_locality.json`:
/// 1.27x vs off at n=512), while the RCM escape stays gated at the full
/// floor (its payoff needs real bandwidth to recover).
pub fn resolve<T: Scalar>(a: &Csr<T>, strategy: Strategy) -> Strategy {
    match strategy {
        Strategy::Auto => {
            let n = a.rows();
            let nnz = a.nnz();
            if nnz == 0 || n < AUTO_MIN_N.div_ceil(8) {
                return Strategy::Off;
            }
            let loc = locality_of(a);
            if loc.avg_neighbor_distance < n as f64 / 16.0 {
                return Strategy::Off;
            }
            let skewed = degree_cv(a) >= 1.0;
            if n < AUTO_MIN_N {
                let mean = nnz as f64 / n as f64;
                return if skewed && mean >= 8.0 {
                    Strategy::Degree
                } else {
                    Strategy::Off
                };
            }
            if skewed {
                Strategy::Degree
            } else {
                Strategy::Rcm
            }
        }
        forced => forced,
    }
}

/// Computes the vertex permutation (`perm[new] = old`) for a strategy, or
/// `None` when the resolved strategy is `Off`.
pub fn permutation<T: Scalar>(a: &Csr<T>, strategy: Strategy) -> Option<Vec<u32>> {
    match resolve(a, strategy) {
        Strategy::Off | Strategy::Auto => None,
        Strategy::Degree => Some(degree_perm(a)),
        Strategy::Rcm => Some(rcm_perm(a)),
    }
}

/// Descending-degree order; ties break by vertex id for determinism.
pub fn degree_perm<T: Scalar>(a: &Csr<T>) -> Vec<u32> {
    let mut order: Vec<u32> = (0..a.rows() as u32).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(a.row_nnz(v as usize)), v));
    order
}

/// Reverse Cuthill–McKee over the out-neighbor structure (the adjacencies
/// produced by `graphgen::prepare_adjacency` are symmetric, which is where
/// RCM's bandwidth guarantee applies; on asymmetric patterns this is still
/// a deterministic locality heuristic). Each connected component is
/// explored by BFS from its minimum-degree vertex, neighbors enqueued in
/// ascending-degree order, and the concatenated order reversed.
pub fn rcm_perm<T: Scalar>(a: &Csr<T>) -> Vec<u32> {
    let n = a.rows();
    let mut seeds: Vec<u32> = (0..n as u32).collect();
    seeds.sort_by_key(|&v| (a.row_nnz(v as usize), v));
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    let mut nbrs: Vec<u32> = Vec::new();
    for &s in &seeds {
        if visited[s as usize] {
            continue;
        }
        visited[s as usize] = true;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            nbrs.clear();
            nbrs.extend(
                a.row(v as usize)
                    .0
                    .iter()
                    .copied()
                    .filter(|&c| !visited[c as usize]),
            );
            nbrs.sort_by_key(|&c| (a.row_nnz(c as usize), c));
            for &c in &nbrs {
                visited[c as usize] = true;
                queue.push_back(c);
            }
        }
    }
    order.reverse();
    order
}

/// Inverts a permutation: `inv[old] = new` for `perm[new] = old`.
///
/// # Panics
/// Panics if `perm` is not a permutation of `0..perm.len()`.
pub fn inverse(perm: &[u32]) -> Vec<u32> {
    let n = perm.len();
    let mut inv = vec![u32::MAX; n];
    for (new, &old) in perm.iter().enumerate() {
        let old = old as usize;
        assert!(old < n, "inverse: index {old} out of range");
        assert_eq!(inv[old], u32::MAX, "inverse: duplicate index {old}");
        inv[old] = new as u32;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgnn_sparse::Coo;

    /// A path graph 0–1–2–…–(n−1) with vertices scattered by a fixed
    /// stride permutation, so RCM has real bandwidth to recover.
    fn scattered_path(n: usize) -> Csr<f64> {
        let label = |v: usize| ((v * 17) % n) as u32;
        let mut edges = Vec::new();
        for v in 0..n - 1 {
            edges.push((label(v), label(v + 1)));
            edges.push((label(v + 1), label(v)));
        }
        Csr::from_coo(&Coo::from_edges(n, n, edges))
    }

    fn star(n: usize) -> Csr<f64> {
        let mut edges = Vec::new();
        for v in 1..n as u32 {
            edges.push((0, v));
            edges.push((v, 0));
        }
        Csr::from_coo(&Coo::from_edges(n, n, edges))
    }

    #[test]
    fn locality_of_banded_matrix_is_tight() {
        let n = 10;
        let mut edges = Vec::new();
        for v in 0..n as u32 - 1 {
            edges.push((v, v + 1));
            edges.push((v + 1, v));
        }
        let a: Csr<f64> = Csr::from_coo(&Coo::from_edges(n, n, edges));
        let loc = locality_of(&a);
        assert_eq!(loc.bandwidth, 1);
        assert!((loc.avg_neighbor_distance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rcm_recovers_path_bandwidth() {
        let n = 101;
        let a = scattered_path(n);
        let before = locality_of(&a);
        let perm = rcm_perm(&a);
        let after = locality_of(&a.permute(&perm));
        // The scattered labeling has bandwidth O(n); RCM restores the
        // path's natural bandwidth of 1.
        assert!(before.bandwidth > 10);
        assert_eq!(after.bandwidth, 1);
    }

    #[test]
    fn degree_perm_puts_hubs_first() {
        let a = star(9);
        let perm = degree_perm(&a);
        assert_eq!(perm[0], 0);
        // Remaining ties break by id.
        assert_eq!(&perm[1..4], &[1, 2, 3]);
    }

    #[test]
    fn inverse_roundtrips() {
        let perm = [3u32, 0, 2, 1];
        let inv = inverse(&perm);
        for (new, &old) in perm.iter().enumerate() {
            assert_eq!(inv[old as usize], new as u32);
        }
    }

    #[test]
    fn auto_skips_tiny_graphs() {
        let a = star(9);
        assert_eq!(resolve(&a, Strategy::Auto), Strategy::Off);
        assert!(permutation(&a, Strategy::Auto).is_none());
        // Forced strategies are honored regardless of size.
        assert_eq!(resolve(&a, Strategy::Rcm), Strategy::Rcm);
        assert!(permutation(&a, Strategy::Degree).is_some());
    }

    /// A small hub-dominated graph with scattered vertex labels: 8 hubs
    /// adjacent to every vertex (heavy tail, dense rows) plus a scattered
    /// ring, so `avg_neighbor_distance` is a large fraction of `n`.
    fn scattered_hubs(n: usize) -> Csr<f64> {
        let label = |v: usize| ((v * 131) % n) as u32;
        let mut edges = Vec::new();
        for h in 0..8 {
            let hub = label(h);
            for v in 0..n {
                let v = label(v);
                if v != hub {
                    edges.push((hub, v));
                    edges.push((v, hub));
                }
            }
        }
        for v in 0..n {
            edges.push((label(v), label((v + 1) % n)));
        }
        Csr::from_coo(&Coo::from_edges(n, n, edges))
    }

    #[test]
    fn auto_degree_sorts_small_skewed_graphs() {
        // Between min_n/8 and min_n: heavy skew + dense rows resolve to
        // the degree sort instead of falling through the old size floor.
        let a = scattered_hubs(256);
        assert!(a.rows() < 1024);
        let mean = a.nnz() as f64 / a.rows() as f64;
        assert!(mean >= 8.0, "fixture must have dense rows (mean {mean})");
        assert_eq!(resolve(&a, Strategy::Auto), Strategy::Degree);
        assert!(permutation(&a, Strategy::Auto).is_some());
        // A same-sized near-uniform graph (mean degree 2) still declines:
        // the small-graph escape is for hub packing only.
        let p = scattered_path(257);
        assert_eq!(resolve(&p, Strategy::Auto), Strategy::Off);
    }

    #[test]
    fn strategy_parse_roundtrips() {
        for s in [
            Strategy::Auto,
            Strategy::Degree,
            Strategy::Rcm,
            Strategy::Off,
        ] {
            assert_eq!(Strategy::parse(s.name()), Some(s));
        }
        assert_eq!(Strategy::parse("sideways"), None);
    }
}
