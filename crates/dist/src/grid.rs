//! The `√p × √p` process grid and block boundaries.
//!
//! The paper's theory (Section 7.1) slices `A` into `p` blocks of size
//! `n/√p × n/√p`; the strong/weak-scaling experiments use node counts
//! that are perfect squares (1, 4, 16, 64, 256, 1024), and the runtime
//! builds only square grids. Row and column blockings share one set of
//! boundaries, so the diagonal rank `(b, b)` always owns the feature
//! block matching row range `b` — the root of the row-side broadcasts.
//! [`Grid::block_bounds`] is also what the exact communication model
//! ([`crate::comm_model`]) sizes every collective from.

/// Why a rank count cannot form a square grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GridError {
    /// Zero ranks cannot host a grid.
    ZeroRanks,
    /// The rank count is not a perfect square (the paper's experiments
    /// use 1, 4, 16, 64, 256, … nodes).
    NotSquare(usize),
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::ZeroRanks => write!(f, "a process grid needs at least one rank"),
            GridError::NotSquare(p) => {
                write!(f, "rank count {p} is not a perfect square")
            }
        }
    }
}

impl std::error::Error for GridError {}

/// A square process grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grid {
    /// Side length `q = √p`.
    pub q: usize,
}

impl Grid {
    /// Builds the grid for `p` ranks, or a typed [`GridError`] when `p`
    /// is zero or not a perfect square (the runtime's broadcast and
    /// reduce teams assume a square grid). Constant time for any `p`.
    pub fn from_ranks(p: usize) -> Result<Self, GridError> {
        if p == 0 {
            return Err(GridError::ZeroRanks);
        }
        let q = p.isqrt();
        if q * q != p {
            return Err(GridError::NotSquare(p));
        }
        Ok(Self { q })
    }

    /// Total rank count `p = q²`.
    pub fn ranks(&self) -> usize {
        self.q * self.q
    }

    /// Grid coordinates `(i, j)` of a rank (row-major).
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        debug_assert!(rank < self.ranks());
        (rank / self.q, rank % self.q)
    }

    /// The rank at coordinates `(i, j)`.
    pub fn rank_of(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.q && j < self.q);
        i * self.q + j
    }

    /// The ranks of grid row `i`, ordered by column.
    pub fn row_team(&self, i: usize) -> Vec<usize> {
        (0..self.q).map(|j| self.rank_of(i, j)).collect()
    }

    /// The ranks of grid column `j`, ordered by row.
    pub fn col_team(&self, j: usize) -> Vec<usize> {
        (0..self.q).map(|i| self.rank_of(i, j)).collect()
    }

    /// Balanced block boundaries: the `b`-th of `q` blocks of `[0, n)` is
    /// `[bounds.0, bounds.1)`.
    pub fn block_bounds(&self, n: usize, b: usize) -> (usize, usize) {
        debug_assert!(b < self.q);
        (b * n / self.q, (b + 1) * n / self.q)
    }

    /// Length of block `b`.
    pub fn block_len(&self, n: usize, b: usize) -> usize {
        let (lo, hi) = self.block_bounds(n, b);
        hi - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_round_trip() {
        let g = Grid::from_ranks(16).unwrap();
        assert_eq!(g.q, 4);
        for r in 0..16 {
            let (i, j) = g.coords(r);
            assert_eq!(g.rank_of(i, j), r);
        }
    }

    #[test]
    fn teams_are_rows_and_columns() {
        let g = Grid::from_ranks(9).unwrap();
        assert_eq!(g.row_team(1), vec![3, 4, 5]);
        assert_eq!(g.col_team(2), vec![2, 5, 8]);
    }

    #[test]
    fn blocks_cover_and_balance() {
        let g = Grid::from_ranks(9).unwrap();
        let n = 10; // deliberately not divisible by 3
        let mut covered = 0;
        for b in 0..3 {
            let (lo, hi) = g.block_bounds(n, b);
            assert_eq!(lo, covered);
            covered = hi;
            assert!(g.block_len(n, b) >= n / 3);
            assert!(g.block_len(n, b) <= n / 3 + 1);
        }
        assert_eq!(covered, n);
    }

    #[test]
    fn rejects_non_square_rank_counts() {
        assert_eq!(Grid::from_ranks(6), Err(GridError::NotSquare(6)));
        assert_eq!(Grid::from_ranks(0), Err(GridError::ZeroRanks));
        let msg = GridError::NotSquare(6).to_string();
        assert!(msg.contains("not a perfect square"), "{msg}");
    }

    #[test]
    fn any_rank_count_resolves_at_once() {
        assert_eq!(
            Grid::from_ranks(usize::MAX),
            Err(GridError::NotSquare(usize::MAX))
        );
        assert_eq!(Grid::from_ranks(1 << 62), Ok(Grid { q: 1 << 31 }));
        assert_eq!(Grid::from_ranks(0), Err(GridError::ZeroRanks));
        assert_eq!(Grid::from_ranks(1), Ok(Grid { q: 1 }));
        assert_eq!(Grid::from_ranks(2), Err(GridError::NotSquare(2)));
        assert_eq!(Grid::from_ranks(4), Ok(Grid { q: 2 }));
        assert_eq!(Grid::from_ranks(8), Err(GridError::NotSquare(8)));
    }

    #[test]
    fn single_rank_grid() {
        let g = Grid::from_ranks(1).unwrap();
        assert_eq!(g.block_bounds(100, 0), (0, 100));
        assert_eq!(g.row_team(0), vec![0]);
    }
}
