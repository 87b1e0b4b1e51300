//! The exact communication model of the distributed engine.
//!
//! The paper's toolchain (§7, Figure 4) derives a parametric
//! communication model of a formulation before building it. This module
//! is that model for [`crate::layers`], and it is exact: every
//! [`DistContext`](crate::DistContext) collective is a [`Collective`],
//! whose `rank_volume` gives the payload bytes one rank sends
//! and the supersteps it is charged, as a pure function of the grid side
//! `q`, the ragged block bounds ([`Grid::block_bounds`]), the row width
//! and the scalar width. It mirrors `atgnn_net`'s vector collectives,
//! which split a vector of `len` elements over a team of `g` members into
//! the chunks of [`Comm::chunk_bounds`]:
//!
//! * `bcast_vec_group`: the root scatters the chunks, then a direct
//!   allgather; member `m` sends `(g−1)·|chunk m|`, the root also
//!   `len − |chunk root|`; 3 supersteps;
//! * `reduce_vec_group`: a reduce-scatter (`len − |chunk m|`), then every
//!   non-root member sends its reduced chunk to the root; 2 supersteps;
//! * `allreduce_vec_group`: a reduce-scatter, then an allgather
//!   (`len − |chunk m| + (g−1)·|chunk m|`); 2 supersteps.
//!
//! `layer` and [`schedule`] list the collectives one model runs, and
//! [`max_rank_volume`] sums them **per rank** before it takes the max: the
//! diagonal rank `(b, b)` is the root of every broadcast and reduce, but
//! the reduce's worst role is a non-root one, so a sum of per-collective
//! maxima would count roles no single rank plays. The prediction equals
//! a fault-free run's [`CommStats::max_rank_bytes`] and
//! [`CommStats::max_supersteps`] exactly.
//!
//! The paper's closed form `nk/√p + k·k'` ([`bound_words`]) is the
//! model's leading term: `leading_coefficient` reads its constant off
//! the collective list, and [`DistContext::check_comm_volume`] lints a
//! layer whose exact bytes exceed that multiple of the bound.
//!
//! [`Comm::chunk_bounds`]: atgnn_net::Comm::chunk_bounds
//! [`CommStats::max_rank_bytes`]: atgnn_net::CommStats::max_rank_bytes
//! [`CommStats::max_supersteps`]: atgnn_net::CommStats::max_supersteps
//! [`DistContext::check_comm_volume`]: crate::DistContext::check_comm_volume

use crate::grid::Grid;
use atgnn::analyze::{Diagnostic, Rule};
use atgnn::ModelKind;
use atgnn_net::Comm;

/// Supersteps `bcast_vec_group` charges: two for the scatter, one for
/// the allgather.
const BCAST_STEPS: u64 = 3;
/// Supersteps `reduce_vec_group` charges: the reduce-scatter and the
/// gather to the root.
const REDUCE_STEPS: u64 = 2;
/// Supersteps `allreduce_vec_group` charges: the reduce-scatter and the
/// allgather.
const ALLREDUCE_STEPS: u64 = 2;

const KINDS: [ModelKind; 4] = [
    ModelKind::Va,
    ModelKind::Agnn,
    ModelKind::Gat,
    ModelKind::Gcn,
];

/// What runs: forward passes only, or a full training step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Task {
    /// Forward passes only.
    Inference,
    /// Forward, loss, backward and the parameter all-reduces.
    Training,
}

/// One [`DistContext`](crate::DistContext) collective. The width is the
/// row width of the block it moves (`1` for a per-vertex vector).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Collective {
    /// `bcast_row_side` / `bcast_row_side_vec`: the row-side block,
    /// broadcast along the grid row from the diagonal.
    BcastRow(usize),
    /// `bcast_col_side_vec`: the column-side block, broadcast along the
    /// grid column from the diagonal.
    BcastCol(usize),
    /// `reduce_rows_redistribute`: the row-side partial block, reduced
    /// along the grid row to the diagonal, then broadcast down the grid
    /// column.
    ReduceRedistribute(usize),
    /// `allreduce_row_vec`: the row-side block, all-reduced along the
    /// grid row.
    AllreduceRow(usize),
    /// `allreduce_col` / `allreduce_col_vec`: the column-side block,
    /// all-reduced along the grid column.
    AllreduceCol(usize),
    /// `allreduce_params`: this many scalars, all-reduced over every
    /// rank.
    Params(usize),
}

/// Payload bytes one rank sends and the supersteps it is charged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Volume {
    /// Payload bytes sent.
    pub bytes: u64,
    /// BSP supersteps charged.
    pub supersteps: u64,
}

impl std::ops::AddAssign for Volume {
    fn add_assign(&mut self, rhs: Self) {
        self.bytes += rhs.bytes;
        self.supersteps += rhs.supersteps;
    }
}

fn chunk(len: usize, g: usize, m: usize) -> usize {
    let (lo, hi) = Comm::chunk_bounds(len, g, m);
    hi - lo
}

/// Elements member `me` of a `g`-member team sends in `bcast_vec_group`.
fn bcast(len: usize, g: usize, root: usize, me: usize) -> usize {
    let scatter = if me == root {
        len - chunk(len, g, root)
    } else {
        0
    };
    scatter + (g - 1) * chunk(len, g, me)
}

/// Elements member `me` sends in `reduce_vec_group`.
fn reduce(len: usize, g: usize, root: usize, me: usize) -> usize {
    let gather = if me == root { 0 } else { chunk(len, g, me) };
    len - chunk(len, g, me) + gather
}

/// Elements member `me` sends in `allreduce_vec_group`.
fn allreduce(len: usize, g: usize, me: usize) -> usize {
    len - chunk(len, g, me) + (g - 1) * chunk(len, g, me)
}

impl Collective {
    /// What rank `(i, j)` of `grid` sends and is charged in this
    /// collective, on an `n`-vertex graph with `scalar_bytes`-wide
    /// scalars. A row team is ordered by column and a column team by
    /// row, so rank `(i, j)` is member `j` of its row team (root `i`) and
    /// member `i` of its column team (root `j`).
    fn rank_volume(
        self,
        grid: Grid,
        n: usize,
        (i, j): (usize, usize),
        scalar_bytes: usize,
    ) -> Volume {
        let q = grid.q;
        if q == 1 {
            return Volume::default();
        }
        let row_side = |w: usize| grid.block_len(n, i) * w;
        let col_side = |w: usize| grid.block_len(n, j) * w;
        let (elems, supersteps) = match self {
            Collective::BcastRow(w) => (bcast(row_side(w), q, i, j), BCAST_STEPS),
            Collective::BcastCol(w) => (bcast(col_side(w), q, j, i), BCAST_STEPS),
            Collective::ReduceRedistribute(w) => (
                reduce(row_side(w), q, i, j) + bcast(col_side(w), q, j, i),
                REDUCE_STEPS + BCAST_STEPS,
            ),
            Collective::AllreduceRow(w) => (allreduce(row_side(w), q, j), ALLREDUCE_STEPS),
            Collective::AllreduceCol(w) => (allreduce(col_side(w), q, i), ALLREDUCE_STEPS),
            Collective::Params(words) => (allreduce(words, q * q, i * q + j), ALLREDUCE_STEPS),
        };
        Volume {
            bytes: (elems * scalar_bytes) as u64,
            supersteps,
        }
    }
}

/// The collectives one `k_in → k_out` layer of `kind` runs, forward
/// and, for training, backward with its parameter all-reduces.
fn layer(kind: ModelKind, task: Task, k_in: usize, k_out: usize) -> Vec<Collective> {
    use Collective::*;
    let mut colls = match kind {
        // H_i; (Ψ H) reduced, then W.
        ModelKind::Va => vec![BcastRow(k_in), ReduceRedistribute(k_in)],
        // H W first, so the aggregation runs at the output width.
        ModelKind::Gcn => vec![ReduceRedistribute(k_out)],
        // H_i; softmax row maxima and sums; Ψ H'.
        ModelKind::Agnn => vec![
            BcastRow(k_in),
            AllreduceRow(1),
            AllreduceRow(1),
            ReduceRedistribute(k_out),
        ],
        // u_i; softmax row maxima and sums; Ψ H'.
        ModelKind::Gat => vec![
            BcastRow(1),
            AllreduceRow(1),
            AllreduceRow(1),
            ReduceRedistribute(k_out),
        ],
    };
    if task == Task::Inference {
        return colls;
    }
    colls.extend(match kind {
        // M_i = (G Wᵀ)_i; N H; Nᵀ H + Ψᵀ M; ∂W.
        ModelKind::Va => vec![
            BcastRow(k_in),
            ReduceRedistribute(k_in),
            AllreduceCol(k_in),
            Params(k_in * k_out),
        ],
        // G_i; Âᵀ G; ∂W.
        ModelKind::Gcn => vec![BcastRow(k_out), AllreduceCol(k_out), Params(k_in * k_out)],
        // G_i; softmax row dots; P H; Pᵀ H; the cosine corrections; Ψᵀ G;
        // ∂W, ∂β.
        ModelKind::Agnn => vec![
            BcastRow(k_out),
            AllreduceRow(1),
            ReduceRedistribute(k_in),
            AllreduceCol(k_in),
            AllreduceRow(1),
            BcastCol(1),
            AllreduceCol(1),
            AllreduceCol(k_out),
            Params(k_in * k_out),
            Params(1),
        ],
        // G_i; softmax row dots; ∂u, ∂v; ∂u down the column; Ψᵀ G;
        // ∂W, ∂a₁, ∂a₂.
        ModelKind::Gat => vec![
            BcastRow(k_out),
            AllreduceRow(1),
            AllreduceRow(1),
            AllreduceCol(1),
            BcastCol(1),
            AllreduceCol(k_out),
            Params(k_in * k_out),
            Params(k_out),
            Params(k_out),
        ],
    });
    colls
}

/// The collectives of one [`DistGnnModel`](crate::DistGnnModel) pass
/// over layer widths `dims`: every layer's forward and, for a training
/// step, the loss all-reduce and every layer's backward.
pub fn schedule(kind: ModelKind, task: Task, dims: &[usize]) -> Vec<Collective> {
    let mut colls: Vec<Collective> = dims
        .windows(2)
        .flat_map(|w| layer(kind, task, w[0], w[1]))
        .collect();
    if task == Task::Training {
        colls.push(Collective::Params(1));
    }
    colls
}

/// The busiest rank's bytes and supersteps for `schedule` on `grid`:
/// each rank's volume summed over the schedule, then the max over
/// ranks.
pub fn max_rank_volume(
    schedule: &[Collective],
    grid: Grid,
    n: usize,
    scalar_bytes: usize,
) -> Volume {
    let mut bytes = 0;
    let mut supersteps = 0;
    for rank in 0..grid.ranks() {
        let mut v = Volume::default();
        for c in schedule {
            v += c.rank_volume(grid, n, grid.coords(rank), scalar_bytes);
        }
        bytes = bytes.max(v.bytes);
        supersteps = supersteps.max(v.supersteps);
    }
    Volume { bytes, supersteps }
}

/// The paper's per-layer global bound `nk/√p + k·k'` in words, on a
/// grid of side `q = √p`.
pub fn bound_words(n: usize, k_in: usize, k_out: usize, q: usize) -> f64 {
    (n * k_in) as f64 / q as f64 + (k_in * k_out) as f64
}

/// The constant in front of [`bound_words`] for a layer `schedule`: the
/// larger of its `nk/√p` coefficient (as `q` grows, the diagonal rank
/// sends twice a block per broadcast and all-reduce, and three times
/// per reduce-and-redistribute) and its `k·k'` coefficient (twice the
/// parameter words).
fn leading_coefficient(schedule: &[Collective], k_in: usize, k_out: usize) -> f64 {
    let (mut blocks, mut params) = (0, 0);
    for c in schedule {
        match *c {
            Collective::BcastRow(w)
            | Collective::BcastCol(w)
            | Collective::AllreduceRow(w)
            | Collective::AllreduceCol(w) => blocks += 2 * w,
            Collective::ReduceRedistribute(w) => blocks += 3 * w,
            Collective::Params(words) => params += 2 * words,
        }
    }
    (blocks as f64 / k_in as f64).max(params as f64 / (k_in * k_out) as f64)
}

/// Lints a `k_in → k_out` layer on `grid`: for every model and task,
/// the layer's exact bytes must stay within its leading coefficient
/// times the paper's bound. Returns the first violation.
pub(crate) fn check_layer(
    grid: Grid,
    n: usize,
    k_in: usize,
    k_out: usize,
    scalar_bytes: usize,
) -> Option<Diagnostic> {
    for kind in KINDS {
        for task in [Task::Inference, Task::Training] {
            let colls = layer(kind, task, k_in, k_out);
            let exact = max_rank_volume(&colls, grid, n, scalar_bytes).bytes as f64;
            let c = leading_coefficient(&colls, k_in, k_out);
            let bound = bound_words(n, k_in, k_out, grid.q) * scalar_bytes as f64;
            if exact > c * bound {
                let q = grid.q;
                return Some(Diagnostic::warning(
                    Rule::CommVolume,
                    None,
                    format!(
                        "{} {task:?} on a {q}×{q} grid over n={n}, k={k_in}→{k_out} sends \
                         {exact:.0} B on its busiest rank per layer, above {c:.3}× the \
                         O(nk/√p + k·k') global bound ({bound:.0} B)",
                        kind.name()
                    ),
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DistContext, DistGnnModel};
    use atgnn_net::{Cluster, FaultPlan};
    use atgnn_sparse::{Coo, Csr};
    use atgnn_tensor::{init, Activation, Scalar};

    const PS: [usize; 5] = [1, 4, 9, 16, 64];

    /// A ring plus chords.
    fn graph<T: Scalar>(n: usize) -> Csr<T> {
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| (1..6u32).map(move |d| (i, (i + d * 7) % n as u32)))
            .filter(|&(a, b)| a != b)
            .collect();
        let mut coo = Coo::from_edges(n, n, edges);
        coo.symmetrize_binary();
        Csr::from_coo(&coo)
    }

    /// The busiest rank's bytes and supersteps of one fault-free run.
    fn measure<T: Scalar>(
        kind: ModelKind,
        task: Task,
        a: &Csr<T>,
        dims: &[usize],
        p: usize,
    ) -> Volume {
        let n = a.rows();
        let a = atgnn::GnnModel::<T>::prepare_adjacency(kind, a);
        let (k_in, k_out) = (dims[0], dims[dims.len() - 1]);
        let x = init::features::<T>(n, k_in, 3);
        let target = init::features::<T>(n, k_out, 5);
        let (_, stats) = Cluster::run_supervised(p, &FaultPlan::none(), |comm| {
            let ctx = DistContext::new(&comm, &a).expect("square grid and adjacency");
            let mut model = DistGnnModel::<T>::uniform(kind, dims, Activation::Relu, 7);
            let x_j = ctx.local_input(&x);
            match task {
                Task::Inference => {
                    model.inference(&ctx, &x_j);
                }
                Task::Training => {
                    let t_j = ctx.local_input(&target);
                    model.train_step_mse(&ctx, &x_j, &t_j, T::from_f64(0.001), k_out);
                }
            }
        })
        .expect("fault-free run");
        Volume {
            bytes: stats.max_rank_bytes(),
            supersteps: stats.max_supersteps(),
        }
    }

    fn prediction_equals_measurement<T: Scalar>() {
        for (n, k) in [(1000usize, 13usize), (4096, 16)] {
            let a = graph::<T>(n);
            let dims = [k, k, k];
            for p in PS {
                let grid = Grid::from_ranks(p).expect("square rank count");
                for kind in KINDS {
                    for task in [Task::Inference, Task::Training] {
                        let predicted =
                            max_rank_volume(&schedule(kind, task, &dims), grid, n, T::BYTES);
                        let measured = measure(kind, task, &a, &dims, p);
                        assert_eq!(
                            predicted,
                            measured,
                            "{kind:?}/{task:?} n={n} k={k} p={p} ({} B scalars)",
                            T::BYTES
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prediction_equals_measurement_f32() {
        prediction_equals_measurement::<f32>();
    }

    #[test]
    fn prediction_equals_measurement_f64() {
        prediction_equals_measurement::<f64>();
    }

    #[test]
    fn prediction_follows_unequal_layer_widths() {
        // k_in ≠ k_out puts every width in the schedule at a distinct
        // value, so a collective listed at the wrong width shows.
        let n = 300;
        let a = graph::<f64>(n);
        let dims = [7, 3, 5];
        let grid = Grid::from_ranks(9).expect("square rank count");
        for kind in KINDS {
            for task in [Task::Inference, Task::Training] {
                let predicted = max_rank_volume(&schedule(kind, task, &dims), grid, n, 8);
                assert_eq!(
                    predicted,
                    measure(kind, task, &a, &dims, 9),
                    "{kind:?}/{task:?}"
                );
            }
        }
    }

    #[test]
    fn the_bound_is_the_leading_term() {
        let (n, k) = (1usize << 20, 16usize);
        for kind in KINDS {
            for task in [Task::Inference, Task::Training] {
                let colls = layer(kind, task, k, k);
                let c = leading_coefficient(&colls, k, k);
                let mut prev = 0.0;
                for q in 1..=32 {
                    let grid = Grid { q };
                    let exact = max_rank_volume(&colls, grid, n, 4).bytes as f64;
                    let ratio = exact / (c * bound_words(n, k, k, q) * 4.0);
                    assert!(ratio <= 1.0, "{kind:?}/{task:?} q={q}: {ratio}");
                    assert!(ratio >= prev, "{kind:?}/{task:?} q={q}: {ratio} < {prev}");
                    prev = ratio;
                }
                // (q−1)/q of the leading term at q = 32.
                assert!(prev > 0.96, "{kind:?}/{task:?}: {prev} at p = 1024");
            }
            // §7.2: training costs the same order as inference.
            let c = |task| leading_coefficient(&layer(kind, task, k, k), k, k);
            let ratio = c(Task::Training) / c(Task::Inference);
            assert!(
                (1.0..5.0).contains(&ratio),
                "{kind:?}: training/inference = {ratio}"
            );
        }
    }

    #[test]
    fn the_check_passes_every_measured_grid() {
        for (n, k) in [(1000usize, 13usize), (4096, 16)] {
            for p in PS {
                let grid = Grid::from_ranks(p).expect("square rank count");
                for b in [4, 8] {
                    assert!(check_layer(grid, n, k, k, b).is_none(), "n={n} k={k} p={p}");
                }
            }
        }
    }

    #[test]
    fn the_check_fires_above_the_coefficient() {
        // Four vertices on sixteen ranks: one-row blocks, and a one-word
        // parameter all-reduce whose owner sends it to fifteen peers.
        let d = check_layer(Grid { q: 4 }, 4, 1, 1, 4).expect("a tiny graph leaves the bound");
        assert_eq!(d.rule, Rule::CommVolume);
        assert!(d.explanation.contains("global bound"), "{d}");
    }
}
