//! Per-rank distributed execution context.
//!
//! [`DistContext`] owns a rank's block of the adjacency matrix and wraps
//! the grid collectives the layer algorithms compose:
//!
//! * [`DistContext::bcast_row_side`] — broadcast a feature block along a
//!   grid row from the diagonal rank (`O(nk/√p)` per rank);
//! * [`DistContext::reduce_rows_redistribute`] — reduce per-block partial
//!   sums along grid rows to the diagonal, then redistribute (broadcast
//!   along grid columns) into the next layer's input layout — the
//!   paper's inter-layer "reduce the partial sums and then redistribute"
//!   step;
//! * [`DistContext::allreduce_col`] — all-reduce partial transpose
//!   products along grid columns (backward-pass `Ψᵀ G` patterns);
//! * [`DistContext::dist_row_softmax`] — the graph softmax across a full
//!   matrix row, with row maxima and row sums all-reduced along the grid
//!   row;
//! * [`DistContext::allreduce_params`] — global gradient all-reduce for
//!   the replicated parameters.

use crate::grid::{Grid, GridError};
use atgnn::plan::ExecPlan;
use atgnn_net::Comm;
use atgnn_sparse::{masked, Csr};
use atgnn_tensor::{Dense, Scalar};
use std::cell::Cell;

/// Why a distributed context cannot be built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistError {
    /// The rank count cannot form a square process grid.
    Grid(GridError),
    /// The adjacency matrix is not square.
    NonSquareAdjacency {
        /// Adjacency row count.
        rows: usize,
        /// Adjacency column count.
        cols: usize,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Grid(e) => write!(f, "{e}"),
            DistError::NonSquareAdjacency { rows, cols } => {
                write!(f, "adjacency must be square, got {rows}×{cols}")
            }
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Grid(e) => Some(e),
            DistError::NonSquareAdjacency { .. } => None,
        }
    }
}

impl From<GridError> for DistError {
    fn from(e: GridError) -> Self {
        DistError::Grid(e)
    }
}

/// The vertex permutation a reordering context applied globally before
/// 2D partitioning (see [`DistContext::new_with_plan`]).
pub struct DistReorder {
    /// `perm[new] = old` — original vertex feeding each plan-order slot.
    pub perm: Vec<u32>,
    /// `inv[old] = new` — plan-order slot of each original vertex.
    pub inv: Vec<u32>,
}

/// Per-rank state for distributed layer execution.
pub struct DistContext<'a, T> {
    /// The communicator of this rank.
    pub comm: &'a Comm,
    /// The process grid.
    pub grid: Grid,
    /// This rank's grid row.
    pub i: usize,
    /// This rank's grid column.
    pub j: usize,
    /// Global vertex count.
    pub n: usize,
    /// The owned adjacency block `A[i][j]` (stationary).
    pub a_block: Csr<T>,
    reorder: Option<DistReorder>,
    tag: Cell<u32>,
}

impl<'a, T: Scalar> DistContext<'a, T> {
    /// Builds the context: derives grid coordinates from the rank and
    /// slices this rank's stationary block out of the (shared, read-only)
    /// full adjacency matrix. Slicing is local preprocessing — the
    /// artifact generates graphs "in a distributed way in main memory at
    /// the beginning of the experiment" — and costs no communication.
    ///
    /// Returns a typed [`DistError`] when the rank count is not a
    /// perfect square or the adjacency is not square.
    pub fn new(comm: &'a Comm, a_full: &Csr<T>) -> Result<Self, DistError> {
        if a_full.rows() != a_full.cols() {
            return Err(DistError::NonSquareAdjacency {
                rows: a_full.rows(),
                cols: a_full.cols(),
            });
        }
        let grid = Grid::from_ranks(comm.size())?;
        let (i, j) = grid.coords(comm.rank());
        let n = a_full.rows();
        let (r0, r1) = grid.block_bounds(n, i);
        let (c0, c1) = grid.block_bounds(n, j);
        let a_block = a_full.block(r0, r1, c0, c1);
        Ok(Self {
            comm,
            grid,
            i,
            j,
            n,
            a_block,
            reorder: None,
            tag: Cell::new(1000),
        })
    }

    /// Builds the context with the plan's locality reordering applied
    /// before 2D partitioning: every rank deterministically resolves the
    /// same permutation from the replicated full adjacency (pure local
    /// preprocessing, no communication), permutes it, and slices its
    /// stationary block from the *permuted* matrix — so each per-block
    /// local CSR is reordered consistently with the row/column ranges the
    /// collectives assume. When the plan declines to reorder (e.g. `auto`
    /// on a small graph), this is exactly [`DistContext::new`].
    ///
    /// Callers feed column blocks of the permuted features (use
    /// [`DistContext::local_input`]) and receive outputs in permuted
    /// vertex order; [`DistContext::reorder`] exposes both directions of
    /// the permutation for mapping back.
    pub fn new_with_plan(
        comm: &'a Comm,
        a_full: &Csr<T>,
        plan: &ExecPlan,
    ) -> Result<Self, DistError> {
        match plan.reorder_graph(a_full) {
            None => Self::new(comm, a_full),
            Some(r) => {
                let mut ctx = Self::new(comm, &r.a)?;
                ctx.reorder = Some(DistReorder {
                    perm: r.perm,
                    inv: r.inv,
                });
                Ok(ctx)
            }
        }
    }

    /// The global vertex permutation this context applied, if any.
    pub fn reorder(&self) -> Option<&DistReorder> {
        self.reorder.as_ref()
    }

    /// This rank's column-side input block, gathered from the full
    /// feature/label matrix *in the caller's original vertex order* —
    /// rows `col_range()` of the (possibly) permuted matrix.
    pub fn local_input(&self, x_full: &Dense<T>) -> Dense<T> {
        let (c0, c1) = self.col_range();
        match &self.reorder {
            None => x_full.slice_rows(c0, c1 - c0),
            Some(m) => x_full.gather_rows(&m.perm[c0..c1]),
        }
    }

    /// Plan-time estimate of the words per rank one `k_in → k_out` layer
    /// moves on this context's grid (the static analyzer's
    /// communication model, paper §7).
    pub fn estimated_layer_volume_words(&self, k_in: usize, k_out: usize) -> f64 {
        let spec = atgnn::analyze::comm::GridSpec::new(self.grid.q, self.grid.q);
        atgnn::analyze::comm::layer_volume_words(self.n, k_in, k_out, spec)
    }

    /// Lints this context's plan against the paper's `O(nk/√p + k·k')`
    /// global communication bound; `None` means the plan is within the
    /// bound. The `√p×√p` grid always passes — the check guards against
    /// future plan shapes degenerating toward 1D partitions.
    pub fn check_comm_volume(
        &self,
        k_in: usize,
        k_out: usize,
    ) -> Option<atgnn::analyze::Diagnostic> {
        let spec = atgnn::analyze::comm::GridSpec::new(self.grid.q, self.grid.q);
        atgnn::analyze::comm::check_grid(self.n, k_in, k_out, spec)
    }

    /// A fresh collective tag; SPMD determinism keeps the per-rank
    /// counters in lock-step.
    fn next_tag(&self) -> u32 {
        let t = self.tag.get();
        self.tag.set(t + 4);
        t
    }

    /// Rows owned on the row side (`[lo, hi)` of block `i`).
    pub fn row_range(&self) -> (usize, usize) {
        self.grid.block_bounds(self.n, self.i)
    }

    /// Rows owned on the column side (`[lo, hi)` of block `j`).
    pub fn col_range(&self) -> (usize, usize) {
        self.grid.block_bounds(self.n, self.j)
    }

    /// This rank's row team (ranks sharing grid row `i`).
    pub fn row_team(&self) -> Vec<usize> {
        self.grid.row_team(self.i)
    }

    /// This rank's column team (ranks sharing grid column `j`).
    pub fn col_team(&self) -> Vec<usize> {
        self.grid.col_team(self.j)
    }

    /// Broadcasts the row-side feature block `X_i` along grid row `i`
    /// from the diagonal rank `(i, i)`. `own` is this rank's replicated
    /// column-side block `X_j` (the diagonal supplies it as the payload).
    /// Scatter+allgather broadcast: `O(nk/√p)` per rank.
    pub fn bcast_row_side(&self, own: &Dense<T>) -> Dense<T> {
        if self.grid.q == 1 {
            return own.clone();
        }
        let tag = self.next_tag();
        let members = self.row_team();
        let cols = own.cols();
        let rows = self.grid.block_len(self.n, self.i);
        let data = (self.j == self.i).then(|| own.as_slice().to_vec());
        let flat = self
            .comm
            .bcast_vec_group(&members, self.i, data, rows * cols, tag);
        Dense::from_vec(rows, cols, flat)
    }

    /// Broadcasts a row-side *vector* (per-vertex scalars like GAT's `u`)
    /// along grid row `i` from the diagonal.
    pub fn bcast_row_side_vec(&self, own: &[T]) -> Vec<T> {
        if self.grid.q == 1 {
            return own.to_vec();
        }
        let tag = self.next_tag();
        let members = self.row_team();
        let len = self.grid.block_len(self.n, self.i);
        let data = (self.j == self.i).then(|| own.to_vec());
        self.comm.bcast_vec_group(&members, self.i, data, len, tag)
    }

    /// Broadcasts a column-side vector from the diagonal rank `(j, j)`
    /// along grid column `j` (backward passes need row-side reductions
    /// re-expressed in the column blocking).
    pub fn bcast_col_side_vec(&self, own: Option<Vec<T>>) -> Vec<T> {
        if self.grid.q == 1 {
            return own.expect("single-rank broadcast needs data");
        }
        let tag = self.next_tag();
        let members = self.col_team();
        let len = self.grid.block_len(self.n, self.j);
        let data = if self.i == self.j { own } else { None };
        self.comm.bcast_vec_group(&members, self.j, data, len, tag)
    }

    /// The inter-layer output step: reduces per-block partial sums along
    /// grid row `i` to the diagonal rank, then broadcasts the reduced
    /// block along grid column `j` — every rank ends up holding the new
    /// replicated column-side block `X_j`.
    pub fn reduce_rows_redistribute(&self, partial: Dense<T>) -> Dense<T> {
        if self.grid.q == 1 {
            return partial;
        }
        let tag = self.next_tag();
        let cols = partial.cols();
        let reduced = self.comm.reduce_vec_group(
            &self.row_team(),
            self.i,
            partial.into_vec(),
            tag,
            |a, b| a + b,
        );
        let members = self.col_team();
        let rows = self.grid.block_len(self.n, self.j);
        let flat = self
            .comm
            .bcast_vec_group(&members, self.j, reduced, rows * cols, tag + 3);
        Dense::from_vec(rows, cols, flat)
    }

    /// All-reduces partial column-side blocks along grid column `j`
    /// (the transpose-product pattern `Σ_i S[i][j]ᵀ X_i`).
    pub fn allreduce_col(&self, partial: Dense<T>) -> Dense<T> {
        if self.grid.q == 1 {
            return partial;
        }
        let tag = self.next_tag();
        let (rows, cols) = partial.shape();
        let flat =
            self.comm
                .allreduce_vec_group(&self.col_team(), partial.into_vec(), tag, |a, b| a + b);
        Dense::from_vec(rows, cols, flat)
    }

    /// All-reduces a per-row vector along grid row `i` with `combine`.
    pub fn allreduce_row_vec(&self, v: Vec<T>, combine: impl Fn(T, T) -> T + Copy) -> Vec<T> {
        if self.grid.q == 1 {
            return v;
        }
        let tag = self.next_tag();
        self.comm
            .allreduce_vec_group(&self.row_team(), v, tag, combine)
    }

    /// All-reduces a per-column vector along grid column `j` with `combine`.
    pub fn allreduce_col_vec(&self, v: Vec<T>, combine: impl Fn(T, T) -> T + Copy) -> Vec<T> {
        if self.grid.q == 1 {
            return v;
        }
        let tag = self.next_tag();
        self.comm
            .allreduce_vec_group(&self.col_team(), v, tag, combine)
    }

    /// Global all-reduce of a flat parameter-gradient vector — the
    /// replicated-parameter update path (`O(k²)` volume).
    pub fn allreduce_params(&self, v: Vec<T>) -> Vec<T> {
        if self.comm.size() == 1 {
            return v;
        }
        let tag = self.next_tag();
        let members: Vec<usize> = (0..self.comm.size()).collect();
        self.comm
            .allreduce_vec_group(&members, v, tag, |a, b| a + b)
    }

    /// The distributed graph softmax (Section 4.2) over full matrix rows:
    /// local block rows hold only part of each vertex's neighborhood, so
    /// the stabilizing row maxima and the normalizing row sums are
    /// all-reduced along the grid row before the local exp/divide.
    pub fn dist_row_softmax(&self, e: &Csr<T>) -> Csr<T> {
        if self.grid.q == 1 {
            return masked::row_softmax(e);
        }
        let rows = e.rows();
        let indptr = e.indptr().to_vec();
        // Global row maxima.
        let mut local_max = vec![T::neg_infinity(); rows];
        for (r, m) in local_max.iter_mut().enumerate() {
            for &v in e.row(r).1 {
                *m = Scalar::max(*m, v);
            }
        }
        let gmax = self.allreduce_row_vec(local_max, Scalar::max);
        // Exponentiate with the shift; empty global rows keep -inf maxima
        // but have no entries to touch.
        let mut values = e.values().to_vec();
        let mut local_sum = vec![T::zero(); rows];
        for r in 0..rows {
            for v in &mut values[indptr[r]..indptr[r + 1]] {
                *v = (*v - gmax[r]).exp();
                local_sum[r] += *v;
            }
        }
        let gsum = self.allreduce_row_vec(local_sum, |a, b| a + b);
        for r in 0..rows {
            let s = gsum[r];
            if s == T::zero() {
                continue;
            }
            for v in &mut values[indptr[r]..indptr[r + 1]] {
                *v /= s;
            }
        }
        e.with_values(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgnn_net::Cluster;
    use atgnn_sparse::Coo;

    fn full_graph(n: usize) -> Csr<f64> {
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| [(i, (i + 1) % n as u32), (i, (i + 3) % n as u32)])
            .collect();
        let mut coo = Coo::from_edges(n, n, edges);
        coo.symmetrize_binary();
        Csr::from_coo(&coo)
    }

    #[test]
    fn blocks_tile_the_adjacency() {
        let a = full_graph(10);
        let (nnzs, _) = Cluster::run(4, |comm| {
            let ctx = DistContext::new(&comm, &a).expect("square grid and adjacency");
            ctx.a_block.nnz()
        });
        assert_eq!(nnzs.iter().sum::<usize>(), a.nnz());
    }

    #[test]
    fn bcast_row_side_delivers_diagonal_block() {
        let a = full_graph(8);
        let h = Dense::from_fn(8, 2, |r, c| (r * 2 + c) as f64);
        let (results, stats) = Cluster::run(4, |comm| {
            let ctx = DistContext::new(&comm, &a).expect("square grid and adjacency");
            let (c0, c1) = ctx.col_range();
            let own = h.slice_rows(c0, c1 - c0);
            let row_side = ctx.bcast_row_side(&own);
            let (r0, r1) = ctx.row_range();
            row_side.max_abs_diff(&h.slice_rows(r0, r1 - r0))
        });
        for d in results {
            assert_eq!(d, 0.0);
        }
        assert!(stats.total_bytes() > 0);
    }

    #[test]
    fn reduce_rows_redistribute_produces_global_sum_blocks() {
        // Each rank contributes a partial equal to a constant; the
        // redistributed block must be q × that constant, shaped like the
        // rank's column block.
        let a = full_graph(9);
        let (results, _) = Cluster::run(9, |comm| {
            let ctx = DistContext::new(&comm, &a).expect("square grid and adjacency");
            let (r0, r1) = ctx.row_range();
            let partial = Dense::filled(r1 - r0, 2, 1.0f64);
            let out = ctx.reduce_rows_redistribute(partial);
            let (c0, c1) = ctx.col_range();
            (
                out.rows() == c1 - c0,
                out.as_slice().iter().all(|&v| v == 3.0),
            )
        });
        for (shape_ok, vals_ok) in results {
            assert!(shape_ok && vals_ok);
        }
    }

    #[test]
    fn distributed_softmax_matches_sequential() {
        let n = 12;
        let a = full_graph(n);
        let scores = atgnn_sparse::fused::va_scores(
            &a,
            &Dense::from_fn(n, 3, |r, c| ((r * 3 + c) % 7) as f64 * 0.3),
        );
        let want = masked::row_softmax(&scores).to_dense();
        for p in [1usize, 4, 9] {
            let want = want.clone();
            let scores = scores.clone();
            let a = a.clone();
            let (oks, _) = Cluster::run(p, move |comm| {
                let ctx = DistContext::new(&comm, &a).expect("square grid and adjacency");
                let (r0, r1) = ctx.row_range();
                let (c0, c1) = ctx.col_range();
                let block = scores.block(r0, r1, c0, c1);
                let sm = ctx.dist_row_softmax(&block).to_dense();
                let mut ok = true;
                for r in 0..sm.rows() {
                    for c in 0..sm.cols() {
                        if (sm[(r, c)] - want[(r0 + r, c0 + c)]).abs() > 1e-12 {
                            ok = false;
                        }
                    }
                }
                ok
            });
            assert!(oks.into_iter().all(|x| x), "p={p}");
        }
    }

    #[test]
    fn allreduce_params_sums_everywhere() {
        let a = full_graph(6);
        let (results, _) = Cluster::run(4, |comm| {
            let ctx = DistContext::new(&comm, &a).expect("square grid and adjacency");
            ctx.allreduce_params(vec![comm.rank() as f64])
        });
        for r in results {
            assert_eq!(r, vec![6.0]);
        }
    }

    #[test]
    fn allreduce_col_sums_column_team_partials() {
        let a = full_graph(8);
        let (results, _) = Cluster::run(4, |comm| {
            let ctx = DistContext::new(&comm, &a).expect("square grid and adjacency");
            let (c0, c1) = ctx.col_range();
            let partial = Dense::filled(c1 - c0, 1, (ctx.i + 1) as f64);
            ctx.allreduce_col(partial).as_slice()[0]
        });
        // Column team of 2 ranks with contributions 1 and 2.
        for r in results {
            assert_eq!(r, 3.0);
        }
    }
}
