//! The plan-time analytical cost model feeding `atgnn::tune`.
//!
//! Tier 1 of the autotuner: given a graph's structural statistics
//! (`graphgen::stats`) and the feature width, estimate the relative cost
//! of the knob settings that matter and prune the plan space
//! to a handful of candidates worth calibrating. The model is
//! deliberately coarse — its job is *ranking and pruning*, not absolute
//! prediction; the calibration microbench (tier 2) settles whatever the
//! model leaves ambiguous.
//!
//! Units are streamed words scaled by a cache-miss factor: the fused
//! attention sweep and both SpMM directions are bandwidth-bound (see the
//! locality-layer notes in DESIGN.md §6), so word traffic dominated by
//! gather locality is the right first-order model. Distributed grid
//! shape goes through the very same planner as local kernel choice: the
//! one grid cost function is [`super::comm::best_grid`], re-exported
//! here as [`grid_for_ranks`] so `tune::resolve_dist` and
//! `Grid::from_ranks` provably consult a single source.

use crate::plan::{Layout, ReorderStrategy};
use atgnn_graphgen::stats::DegreeStats;
use atgnn_sparse::Csr;
use atgnn_tensor::{micro, rt, Scalar};

/// Extra stream cost factor charged to a gather expected to miss cache.
const MISS_PENALTY: f64 = 3.0;

/// The cache window (bytes) the miss model assumes feature rows stay
/// resident in — an L2-ish figure; only the *relative* ranking matters.
const RESIDENT_BYTES: f64 = 256.0 * 1024.0;

/// Structural profile of one tuning problem: everything the cost model
/// (and the tuning-database key) reads about a graph × feature width.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Vertices.
    pub n: usize,
    /// Stored entries.
    pub nnz: usize,
    /// Feature width the plan will run at.
    pub k: usize,
    /// Mean out-degree (nnz/row).
    pub mean_degree: f64,
    /// Degree coefficient of variation (σ/μ) — heavy-tail signal.
    pub cv: f64,
    /// Mean gather distance in rows (`stats.avg_neighbor_distance`).
    pub avg_gather_rows: f64,
    /// Matrix bandwidth.
    pub bandwidth: usize,
    /// Active worker threads ([`rt::num_threads`]) — part of the DB key:
    /// a plan tuned at one thread count is not evidence at another.
    pub threads: usize,
    /// Element width in bytes (f32 vs f64 changes the resident window).
    pub elem_bytes: usize,
}

impl Profile {
    /// Measures the profile of `a` at feature width `k`.
    pub fn of<T: Scalar>(a: &Csr<T>, k: usize) -> Self {
        let s = DegreeStats::of(a);
        Self {
            n: s.n,
            nnz: s.m,
            k,
            mean_degree: s.mean,
            cv: s.cv,
            avg_gather_rows: s.avg_neighbor_distance,
            bandwidth: s.bandwidth,
            threads: rt::num_threads(),
            elem_bytes: T::BYTES,
        }
    }

    /// Fraction of feature-row gathers expected to miss the resident
    /// window, from the mean gather distance: a gather `d` rows away
    /// touches a working set of `d` rows of `k` elements.
    pub fn gather_miss(&self) -> f64 {
        let row_bytes = (self.k.max(1) * self.elem_bytes) as f64;
        let window_rows = (RESIDENT_BYTES / row_bytes).max(1.0);
        (self.avg_gather_rows / window_rows).clamp(0.0, 1.0)
    }
}

/// Relative cost of one fused attention sweep (score + softmax +
/// aggregate) at the given row stride: `nnz` gathers of `stride`-word
/// rows, miss-weighted, split over the worker threads.
pub fn sweep_cost(p: &Profile, stride: usize) -> f64 {
    let words = (p.nnz * stride.max(1)) as f64;
    words * (1.0 + MISS_PENALTY * p.gather_miss()) / p.threads.max(1) as f64
}

/// Per-axis candidate sets after model-tier pruning — what the
/// calibration microbench (tier 2) actually measures. Each list leads
/// with the model's pick; a singleton list means the axis is settled
/// analytically and costs zero measurements.
#[derive(Clone, Debug)]
pub struct AxisCandidates {
    /// Dense layouts worth measuring.
    pub layouts: Vec<Layout>,
    /// Reorder strategies worth measuring (already `resolve`d — never
    /// `Auto`).
    pub reorders: Vec<ReorderStrategy>,
}

/// Prunes the knob space for one profile. `resolved_reorder` is the
/// graph's `Auto` resolution (`reorder::resolve`), which is itself the
/// model tier of that axis.
///
/// * **Layout** — at whole-lane `k` the padded stride equals the tight
///   one, so only `Tight` survives (padding would add a copy for an
///   identical layout); under scalar kernels padding has no vector
///   payoff either. Only wide kernels at a ragged `k` leave a genuine
///   trade (tail-free vectors vs extra streamed words): both survive to
///   calibration, model pick first.
/// * **Reorder** — when `Auto` declines, measuring permutations is not
///   worth a calibration slot (the heuristic's floor exists because the
///   payoff is sub-noise there); otherwise the resolved strategy is
///   measured against `Off` so a mispredicted permutation can still be
///   rejected by evidence.
pub fn prune(p: &Profile, resolved_reorder: ReorderStrategy) -> AxisCandidates {
    let lane = micro::LANE;
    let ragged = !p.k.is_multiple_of(lane);
    let layouts = if micro::wide() && ragged {
        match Layout::default_for(p.k) {
            Layout::Padded => vec![Layout::Padded, Layout::Tight],
            Layout::Tight => vec![Layout::Tight, Layout::Padded],
        }
    } else {
        vec![Layout::Tight]
    };
    let reorders = match resolved_reorder {
        ReorderStrategy::Off | ReorderStrategy::Auto => vec![ReorderStrategy::Off],
        r => vec![r, ReorderStrategy::Off],
    };
    AxisCandidates { layouts, reorders }
}

/// The grid shape for `p` ranks — a re-export of the one grid cost
/// function ([`super::comm::best_grid`]) so the local planner and the
/// distributed planner provably share it.
pub fn grid_for_ranks(p: usize) -> super::comm::GridSpec {
    super::comm::best_grid(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(threads: usize) -> Profile {
        Profile {
            n: 8192,
            nnz: 128 * 1024,
            k: 64,
            mean_degree: 16.0,
            cv: 1.4,
            avg_gather_rows: 2500.0,
            bandwidth: 8000,
            threads,
            elem_bytes: 4,
        }
    }

    #[test]
    fn whole_lane_k_prunes_layout_to_tight() {
        let p = profile(1); // k = 64 — a lane multiple
        let c = prune(&p, ReorderStrategy::Off);
        assert_eq!(c.layouts, vec![Layout::Tight]);
        // Ragged k leaves the trade to calibration (when wide kernels
        // are active; under a scalar-pinned CI pass the axis collapses).
        let mut p60 = profile(1);
        p60.k = 60;
        let c60 = prune(&p60, ReorderStrategy::Off);
        if micro::wide() {
            assert_eq!(c60.layouts.len(), 2);
        } else {
            assert_eq!(c60.layouts, vec![Layout::Tight]);
        }
    }

    #[test]
    fn reorder_axis_measures_resolved_vs_off() {
        let p = profile(1);
        let c = prune(&p, ReorderStrategy::Degree);
        assert_eq!(
            c.reorders,
            vec![ReorderStrategy::Degree, ReorderStrategy::Off]
        );
        assert_eq!(
            prune(&p, ReorderStrategy::Off).reorders,
            vec![ReorderStrategy::Off]
        );
    }

    #[test]
    fn sweep_cost_scales_with_stride_and_misses() {
        let p = profile(1);
        assert!(sweep_cost(&p, 64) < sweep_cost(&p, 72));
        let mut local = profile(1);
        local.avg_gather_rows = 1.0;
        assert!(sweep_cost(&local, 64) < sweep_cost(&p, 64));
    }

    #[test]
    fn grid_for_ranks_is_the_comm_planner() {
        for p in [1usize, 4, 6, 9, 12, 16] {
            assert_eq!(grid_for_ranks(p), crate::analyze::comm::best_grid(p));
        }
    }
}
