//! Compressed sparse row matrices with shared structure.
//!
//! In the global formulations almost every sparse intermediate — the
//! attention scores `Ψ(A, H)`, the SDDMM gradients `D`, the softmax
//! outputs, the VA backward terms `N` — has *exactly* the sparsity pattern
//! of the adjacency matrix (paper Section 6.2: "the output almost always
//! has the same sparsity pattern as the adjacency matrix"). [`Csr`] keeps
//! the pattern (`indptr`, `indices`) behind one `Arc` so these
//! intermediates share it at zero cost; only the value array is
//! per-matrix. The pattern also owns the lazily built CSC view of itself
//! ([`TransposeIndex`]) that `spmm_t` gathers over, so that view is built
//! once per graph and shared — and dropped — exactly as the pattern is.

use crate::coo::Coo;
use atgnn_tensor::{Dense, Scalar};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

thread_local! {
    /// Per-thread count of CSR value-array creations (see [`value_allocs`]).
    static VALUE_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Number of `Csr` value arrays created *on this thread* so far.
///
/// A test hook: the one-pass fused attention kernels promise to allocate
/// no intermediate score matrices, and the equivalence tests assert that
/// by diffing this counter around a forward call. Every constructor that
/// brings a new value array into existence (including `Clone`) bumps it;
/// kernels only construct `Csr`s on the calling thread (pool workers fill
/// values through disjoint slices), so a thread-local counter isolates
/// concurrently running tests from each other.
pub fn value_allocs() -> usize {
    VALUE_ALLOCS.with(|c| c.get())
}

/// Source of [`Csr::stamp`]s. Only uniqueness matters and a stamp
/// publishes no other data, hence `Relaxed`.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(0);

#[inline]
fn next_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// Counts a new value array and returns the stamp it is born with.
#[inline]
fn note_value_alloc() -> u64 {
    VALUE_ALLOCS.with(|c| c.set(c.get() + 1));
    next_stamp()
}

/// The CSC view of a CSR pattern: transposed entry `e` (column-major,
/// ascending source row within a column) came from row `src[e]` and sits
/// at position `perm[e]` of the original value array.
#[derive(Debug)]
pub(crate) struct TransposeIndex {
    /// Column pointer (length `cols + 1`).
    pub(crate) indptr: Vec<usize>,
    /// Source row of each transposed entry.
    pub(crate) src: Vec<u32>,
    /// Position of each transposed entry in the CSR value array.
    pub(crate) perm: Vec<u32>,
}

impl TransposeIndex {
    /// The one transposition in the crate: a counting sort of the stored
    /// entries by column. Rows are visited in ascending order, so entries
    /// within a column come out in ascending source row.
    fn build(rows: usize, cols: usize, indptr: &[usize], indices: &[u32]) -> Self {
        let nnz = indices.len();
        assert!(
            nnz <= u32::MAX as usize && rows <= u32::MAX as usize,
            "transpose index: {rows} rows / {nnz} stored entries exceed the u32 id range"
        );
        #[cfg(test)]
        TRANSPOSE_BUILDS.with(|c| c.set(c.get() + 1));
        let mut counts = vec![0usize; cols + 1];
        for &c in indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..cols {
            counts[i + 1] += counts[i];
        }
        let mut cursor = counts.clone();
        let mut src = vec![0u32; nnz];
        let mut perm = vec![0u32; nnz];
        for r in 0..rows {
            for e in indptr[r]..indptr[r + 1] {
                let pos = &mut cursor[indices[e] as usize];
                src[*pos] = r as u32;
                perm[*pos] = e as u32;
                *pos += 1;
            }
        }
        Self {
            indptr: counts,
            src,
            perm,
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Per-thread count of [`TransposeIndex::build`] runs.
    static TRANSPOSE_BUILDS: Cell<usize> = const { Cell::new(0) };
}

/// A sparsity pattern and the lazily built CSC view of it.
#[derive(Debug)]
struct Pattern {
    indptr: Vec<usize>,
    indices: Vec<u32>,
    transposed: OnceLock<TransposeIndex>,
}

impl Pattern {
    fn new(indptr: Vec<usize>, indices: Vec<u32>) -> Arc<Self> {
        Arc::new(Self {
            indptr,
            indices,
            transposed: OnceLock::new(),
        })
    }
}

/// A sparse matrix in CSR format with reference-counted structure.
#[derive(Debug)]
pub struct Csr<T> {
    rows: usize,
    cols: usize,
    pattern: Arc<Pattern>,
    values: Vec<T>,
    /// See [`Csr::stamp`].
    stamp: u64,
}

impl<T: Clone> Clone for Csr<T> {
    fn clone(&self) -> Self {
        Self {
            stamp: note_value_alloc(),
            rows: self.rows,
            cols: self.cols,
            pattern: Arc::clone(&self.pattern),
            values: self.values.clone(),
        }
    }
}

impl<T: Scalar> Csr<T> {
    /// Builds a CSR matrix from COO (entries may be unsorted; duplicates
    /// are summed).
    pub fn from_coo(coo: &Coo<T>) -> Self {
        let rows = coo.rows();
        let cols = coo.cols();
        // Counting sort by row. `counts` doubles as the scatter cursor:
        // each slot starts at its row's first position and advances past
        // every entry scattered into that row, so after the loop
        // `counts[r]` is the *end* of row `r` (what the prefix sum held in
        // slot `r + 1`) — the raw row extents survive without cloning the
        // array into a separate `indptr_raw`/`cursor` pair.
        let mut counts = vec![0usize; rows + 1];
        for &(r, _) in &coo.entries {
            counts[r as usize + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let mut indices = vec![0u32; coo.nnz()];
        let mut values = vec![T::zero(); coo.nnz()];
        for (&(r, c), &v) in coo.entries.iter().zip(&coo.values) {
            let pos = counts[r as usize];
            indices[pos] = c;
            values[pos] = v;
            counts[r as usize] += 1;
        }
        // Sort each row by column and merge duplicates. Row `r` now spans
        // `[counts[r - 1], counts[r])` (with row 0 starting at 0).
        let mut out_indptr = vec![0usize; rows + 1];
        let mut out_indices = Vec::with_capacity(indices.len());
        let mut out_values = Vec::with_capacity(values.len());
        let mut rowbuf: Vec<(u32, T)> = Vec::new();
        let mut start = 0usize;
        for r in 0..rows {
            let end = counts[r];
            rowbuf.clear();
            for i in start..end {
                rowbuf.push((indices[i], values[i]));
            }
            start = end;
            rowbuf.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in rowbuf.iter() {
                // Duplicate within this row: fold into the entry just pushed.
                match out_values.last_mut() {
                    Some(last)
                        if out_indices.len() > out_indptr[r] && out_indices.last() == Some(&c) =>
                    {
                        *last += v;
                    }
                    _ => {
                        out_indices.push(c);
                        out_values.push(v);
                    }
                }
            }
            out_indptr[r + 1] = out_indices.len();
        }
        Self {
            stamp: note_value_alloc(),
            rows,
            cols,
            pattern: Pattern::new(out_indptr, out_indices),
            values: out_values,
        }
    }

    /// Builds directly from raw CSR arrays (rows must be sorted by column,
    /// no duplicates).
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<T>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr length must be rows+1");
        assert_eq!(indices.len(), values.len(), "indices/values mismatch");
        assert_eq!(
            *indptr.last().unwrap_or(&0),
            indices.len(),
            "indptr end mismatch"
        );
        for w in indptr.windows(2) {
            assert!(w[0] <= w[1], "indptr must be non-decreasing");
        }
        for r in 0..rows {
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                assert!(w[0] < w[1], "row {r} columns must be strictly increasing");
            }
            if let Some(&last) = row.last() {
                assert!((last as usize) < cols, "column index out of range");
            }
        }
        Self {
            stamp: note_value_alloc(),
            rows,
            cols,
            pattern: Pattern::new(indptr, indices),
            values,
        }
    }

    /// An empty (all-zero) matrix.
    pub fn empty(rows: usize, cols: usize) -> Self {
        Self {
            stamp: note_value_alloc(),
            rows,
            cols,
            pattern: Pattern::new(vec![0; rows + 1], Vec::new()),
            values: Vec::new(),
        }
    }

    /// The `n×n` identity pattern with unit values.
    pub fn identity(n: usize) -> Self {
        Self {
            stamp: note_value_alloc(),
            rows: n,
            cols: n,
            pattern: Pattern::new((0..=n).collect(), (0..n as u32).collect()),
            values: vec![T::one(); n],
        }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    #[inline(always)]
    pub fn nnz(&self) -> usize {
        self.pattern.indices.len()
    }

    /// The row-pointer array (length `rows + 1`).
    #[inline(always)]
    pub fn indptr(&self) -> &[usize] {
        &self.pattern.indptr
    }

    /// The column-index array (length `nnz`).
    #[inline(always)]
    pub fn indices(&self) -> &[u32] {
        &self.pattern.indices
    }

    /// The value array (length `nnz`).
    #[inline(always)]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// The value array, mutable. Takes a new [`Csr::stamp`]: whatever
    /// remembered this matrix by its stamp must not recognise it after
    /// the caller has written through the returned slice.
    #[inline(always)]
    pub fn values_mut(&mut self) -> &mut [T] {
        self.stamp = next_stamp();
        &mut self.values
    }

    /// A process-unique identity of this matrix *as it is now*, for
    /// caches of per-matrix derived data (the model layer's reordered
    /// adjacency). Every constructor — `Clone` included — draws a fresh
    /// stamp and [`Csr::values_mut`] draws another, and nothing else can
    /// change a `Csr`, so two reads that return the same stamp saw the
    /// same pattern and the same values. It is an identity, not a content
    /// hash: equal matrices built separately stamp differently.
    #[inline(always)]
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Column indices and values of row `i`.
    #[inline(always)]
    pub fn row(&self, i: usize) -> (&[u32], &[T]) {
        let (lo, hi) = (self.pattern.indptr[i], self.pattern.indptr[i + 1]);
        (&self.pattern.indices[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored entries in row `i`.
    #[inline(always)]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.pattern.indptr[i + 1] - self.pattern.indptr[i]
    }

    /// A new matrix sharing this one's pattern with fresh values.
    ///
    /// This is the zero-copy path for every "same pattern as `A`"
    /// intermediate of the formulations.
    ///
    /// # Panics
    /// Panics if `values.len() != self.nnz()`.
    pub fn with_values(&self, values: Vec<T>) -> Self {
        assert_eq!(values.len(), self.nnz(), "value array length mismatch");
        Self {
            stamp: note_value_alloc(),
            rows: self.rows,
            cols: self.cols,
            pattern: Arc::clone(&self.pattern),
            values,
        }
    }

    /// Same pattern, all values mapped through `f`.
    pub fn map_values(&self, f: impl Fn(T) -> T) -> Self {
        self.with_values(self.values.iter().map(|&v| f(v)).collect())
    }

    /// Whether `other` shares this matrix's pattern (cheap pointer check
    /// first, falling back to a structural comparison).
    pub fn same_pattern(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && (Arc::ptr_eq(&self.pattern, &other.pattern)
                || (self.indptr() == other.indptr() && self.indices() == other.indices()))
    }

    /// The CSC view of this matrix's pattern, built on first use and
    /// shared with every matrix that shares the pattern.
    pub(crate) fn transposed(&self) -> &TransposeIndex {
        self.pattern.transposed.get_or_init(|| {
            TransposeIndex::build(self.rows, self.cols, self.indptr(), self.indices())
        })
    }

    /// Materialized transpose (`O(nnz)`). Builds its own index rather
    /// than caching one on `self`: the arrays move into the result.
    pub fn transpose(&self) -> Self {
        let t = TransposeIndex::build(self.rows, self.cols, self.indptr(), self.indices());
        let values = t.perm.iter().map(|&e| self.values[e as usize]).collect();
        Self {
            stamp: note_value_alloc(),
            rows: self.cols,
            cols: self.rows,
            pattern: Pattern::new(t.indptr, t.src),
            values,
        }
    }

    /// The out-degree (stored entries per row).
    pub fn out_degrees(&self) -> Vec<usize> {
        (0..self.rows).map(|i| self.row_nnz(i)).collect()
    }

    /// Maximum number of stored entries in any row — the `d` of the
    /// communication bounds.
    pub fn max_degree(&self) -> usize {
        (0..self.rows).map(|i| self.row_nnz(i)).max().unwrap_or(0)
    }

    /// Value at `(i, j)` or zero — `O(log row_nnz)`.
    pub fn get(&self, i: usize, j: usize) -> T {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(pos) => vals[pos],
            Err(_) => T::zero(),
        }
    }

    /// Converts to a dense matrix (test helper; never used on large inputs).
    pub fn to_dense(&self) -> Dense<T> {
        let mut d = Dense::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                d[(r, c as usize)] = v;
            }
        }
        d
    }

    /// Converts back to COO triplets.
    pub fn to_coo(&self) -> Coo<T> {
        let mut coo = Coo::new(self.rows, self.cols);
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                coo.push(r as u32, c, v);
            }
        }
        coo
    }

    /// Extracts the sub-block `[r0, r1) × [c0, c1)` rebased to the block
    /// origin — used by the 2D grid partition of `A`.
    pub fn block(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Self {
        assert!(r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols);
        let mut indptr = Vec::with_capacity(r1 - r0 + 1);
        indptr.push(0usize);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for r in r0..r1 {
            let (cols, vals) = self.row(r);
            let lo = cols.partition_point(|&c| (c as usize) < c0);
            let hi = cols.partition_point(|&c| (c as usize) < c1);
            for (&c, &v) in cols[lo..hi].iter().zip(&vals[lo..hi]) {
                indices.push(c - c0 as u32);
                values.push(v);
            }
            indptr.push(indices.len());
        }
        Self {
            stamp: note_value_alloc(),
            rows: r1 - r0,
            cols: c1 - c0,
            pattern: Pattern::new(indptr, indices),
            values,
        }
    }

    /// The leading `rows × cols` block, for a matrix whose first `rows`
    /// rows store no column at or beyond `cols` — the per-layer block of
    /// an ego graph in discovery order (`atgnn::GnnModel::inference_prefix`),
    /// where the nodes a layer still needs are a prefix of the nodes it
    /// reads. Costs the prefix's stored entries, not the matrix's.
    ///
    /// # Panics
    /// Panics if the block exceeds the matrix or one of its rows stores a
    /// column `>= cols`.
    pub fn row_prefix(&self, rows: usize, cols: usize) -> Self {
        assert!(
            rows <= self.rows && cols <= self.cols,
            "row_prefix: {rows}x{cols} block of a {}x{} matrix",
            self.rows,
            self.cols
        );
        let indptr = &self.indptr()[..=rows];
        let nnz = indptr[rows];
        // Columns ascend within a row, so the last one bounds the row.
        for r in 0..rows {
            if let Some(&last) = self.row(r).0.last() {
                assert!(
                    (last as usize) < cols,
                    "row_prefix: row {r} stores column {last}, outside the first {cols}"
                );
            }
        }
        Self {
            stamp: note_value_alloc(),
            rows,
            cols,
            pattern: Pattern::new(indptr.to_vec(), self.indices()[..nnz].to_vec()),
            values: self.values[..nnz].to_vec(),
        }
    }

    /// Symmetric vertex permutation: row and column `new` of the result are
    /// row and column `perm[new]` of `self` (`B[i][j] = A[perm[i]][perm[j]]`).
    ///
    /// This is the locality-reordering primitive of the plan layer
    /// (`atgnn::plan`); kernels never call it directly — a ci.sh lint pins
    /// that, because reordering is an execution-plan decision and the
    /// kernels must stay permutation-agnostic. Column indices of every row
    /// are re-sorted, so the result upholds the same strictly-increasing
    /// invariant as [`Csr::from_raw`].
    ///
    /// # Panics
    /// Panics if the matrix is not square or `perm` is not a permutation of
    /// `0..rows`.
    pub fn permute(&self, perm: &[u32]) -> Self {
        assert_eq!(self.rows, self.cols, "permute: matrix must be square");
        assert_eq!(
            perm.len(),
            self.rows,
            "permute: permutation length mismatch"
        );
        let n = self.rows;
        let mut inv = vec![u32::MAX; n];
        for (new, &old) in perm.iter().enumerate() {
            let old = old as usize;
            assert!(old < n, "permute: index {old} out of range for n={n}");
            assert_eq!(inv[old], u32::MAX, "permute: duplicate index {old}");
            inv[old] = new as u32;
        }
        let mut indptr = Vec::with_capacity(n + 1);
        indptr.push(0usize);
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![T::zero(); self.nnz()];
        let mut rowbuf: Vec<(u32, T)> = Vec::new();
        let mut at = 0usize;
        for &old in perm {
            let (cols, vals) = self.row(old as usize);
            rowbuf.clear();
            rowbuf.extend(cols.iter().zip(vals).map(|(&c, &v)| (inv[c as usize], v)));
            rowbuf.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &rowbuf {
                indices[at] = c;
                values[at] = v;
                at += 1;
            }
            indptr.push(at);
        }
        Self {
            stamp: note_value_alloc(),
            rows: n,
            cols: n,
            pattern: Pattern::new(indptr, indices),
            values,
        }
    }

    /// Whether the matrix equals its transpose (pattern and values).
    pub fn is_symmetric(&self) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let t = self.transpose();
        if !self.same_pattern(&t) {
            return false;
        }
        self.values
            .iter()
            .zip(t.values.iter())
            .all(|(&a, &b)| a == b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr<f64> {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        let coo = Coo::from_triplets(
            3,
            3,
            vec![(0, 0), (0, 2), (2, 0), (2, 1)],
            vec![1.0, 2.0, 3.0, 4.0],
        );
        Csr::from_coo(&coo)
    }

    #[test]
    fn from_coo_sorted_rows() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.indptr(), &[0, 2, 2, 4]);
        assert_eq!(m.row(0).0, &[0, 2]);
        assert_eq!(m.row(2).1, &[3.0, 4.0]);
    }

    #[test]
    fn permute_reverse_matches_dense_reference() {
        let m = sample();
        // perm[new] = old: reverse order.
        let p = m.permute(&[2, 1, 0]);
        let d = m.to_dense();
        let pd = p.to_dense();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(pd[(i, j)], d[(2 - i, 2 - j)]);
            }
        }
        // Columns must stay strictly increasing per row.
        for i in 0..3 {
            let cols = p.row(i).0;
            assert!(cols.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn permute_roundtrips_through_inverse() {
        let m = sample();
        let perm = [1u32, 2, 0];
        let mut inv = [0u32; 3];
        for (new, &old) in perm.iter().enumerate() {
            inv[old as usize] = new as u32;
        }
        let back = m.permute(&perm).permute(&inv);
        assert_eq!(back.indptr(), m.indptr());
        assert_eq!(back.row(0).0, m.row(0).0);
        assert!(back.to_dense().max_abs_diff(&m.to_dense()) == 0.0);
    }

    #[test]
    #[should_panic(expected = "duplicate index")]
    fn permute_rejects_non_permutation() {
        let _ = sample().permute(&[0, 0, 2]);
    }

    #[test]
    fn every_way_to_change_values_changes_the_stamp() {
        let mut m = sample();
        let s0 = m.stamp();
        assert_eq!(m.stamp(), s0, "reading does not restamp");
        let others = [
            m.clone().stamp(),
            m.map_values(|v| v * 2.0).stamp(),
            m.with_values(m.values().to_vec()).stamp(),
        ];
        m.values_mut()[0] = 7.0;
        let mut seen = vec![s0, m.stamp()];
        seen.extend(others);
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 5, "stamps must be pairwise distinct");
    }

    #[test]
    fn from_coo_sums_duplicates() {
        let coo = Coo::from_triplets(1, 2, vec![(0, 1), (0, 1)], vec![1.0, 2.5]);
        let m = Csr::from_coo(&coo);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.values(), &[3.5]);
    }

    #[test]
    fn from_coo_matches_sorted_insert_reference_on_duplicate_heavy_input() {
        // 200 entries over a 7×5 pattern: every cell is hit ~5-6 times, so
        // the sort/dedup phase folds long duplicate runs in every row.
        // Values are small integers, so duplicate summation is exact and
        // independent of the (unstable) within-row sort order.
        let (rows, cols) = (7usize, 5usize);
        let mut state = 0x2545F491u64;
        let mut lcg = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut coo = Coo::new(rows, cols);
        let mut reference: std::collections::BTreeMap<(u32, u32), f64> =
            std::collections::BTreeMap::new();
        for i in 0..200usize {
            let r = (lcg() % rows) as u32;
            let c = (lcg() % cols) as u32;
            let v = (i % 13) as f64 - 6.0;
            coo.push(r, c, v);
            *reference.entry((r, c)).or_insert(0.0) += v;
        }
        let m = Csr::from_coo(&coo);
        assert_eq!(m.nnz(), reference.len());
        let mut it = reference.iter();
        for r in 0..rows {
            let (rcols, rvals) = m.row(r);
            for (&c, &v) in rcols.iter().zip(rvals) {
                let (&(rr, rc), &rv) = it.next().expect("reference exhausted early");
                assert_eq!((r as u32, c), (rr, rc), "entry order diverges");
                assert_eq!(v, rv, "summed value diverges at ({r}, {c})");
            }
        }
        assert!(it.next().is_none(), "reference has extra entries");
    }

    #[test]
    fn value_alloc_counter_tracks_constructions() {
        let before = value_allocs();
        let m = sample(); // from_coo: one value array
        let _w = m.with_values(vec![1.0; m.nnz()]); // one more
        let _c = m.clone(); // and a clone
        assert_eq!(value_allocs() - before, 3);
    }

    #[test]
    fn from_coo_handles_unsorted_input() {
        let coo = Coo::from_triplets(2, 3, vec![(1, 2), (0, 1), (1, 0)], vec![1.0, 2.0, 3.0]);
        let m = Csr::from_coo(&coo);
        assert_eq!(m.row(1).0, &[0, 2]);
        assert_eq!(m.row(1).1, &[3.0, 1.0]);
    }

    #[test]
    fn get_returns_zero_for_missing() {
        let m = sample();
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn transpose_is_involution() {
        let m = sample();
        let tt = m.transpose().transpose();
        assert!(m.same_pattern(&tt));
        assert_eq!(m.values(), tt.values());
        assert_eq!(m.transpose().get(0, 2), 3.0);
    }

    /// Checks a built index against the pattern it was built from.
    fn assert_index_is_the_csc_view(m: &Csr<f64>) {
        let t = TransposeIndex::build(m.rows(), m.cols(), m.indptr(), m.indices());
        assert_eq!(t.indptr.len(), m.cols() + 1);
        assert_eq!((t.indptr[0], t.indptr[m.cols()]), (0, m.nnz()));
        assert_eq!((t.src.len(), t.perm.len()), (m.nnz(), m.nnz()));
        let mut seen = vec![false; m.nnz()];
        for j in 0..m.cols() {
            let col = t.indptr[j]..t.indptr[j + 1];
            // Ascending source row: the order a row scatter visits them in.
            assert!(t.src[col.clone()].windows(2).all(|w| w[0] < w[1]));
            for e in col {
                let (r, at) = (t.src[e] as usize, t.perm[e] as usize);
                assert!((m.indptr()[r]..m.indptr()[r + 1]).contains(&at));
                assert_eq!(m.indices()[at] as usize, j);
                assert!(!std::mem::replace(&mut seen[at], true), "entry {at} twice");
            }
        }
    }

    #[test]
    fn transpose_index_on_degenerate_shapes() {
        assert_index_is_the_csc_view(&sample()); // row 1 and no column empty
        assert_index_is_the_csc_view(&Csr::empty(0, 4));
        assert_index_is_the_csc_view(&Csr::empty(4, 0));
        assert_index_is_the_csc_view(&Csr::empty(3, 3)); // all rows empty
        assert_index_is_the_csc_view(&Csr::empty(1, 1));
        assert_index_is_the_csc_view(&Csr::identity(1)); // n = 1, self loop
        assert_index_is_the_csc_view(&Csr::identity(5)); // self loops only

        // Columns 0, 2 and 4 empty: zero-length gather ranges.
        let gaps = Csr::from_coo(&Coo::from_triplets(
            3,
            5,
            vec![(0, 1), (2, 1), (1, 3), (2, 3)],
            vec![1.0, 2.0, 3.0, 4.0],
        ));
        assert_index_is_the_csc_view(&gaps);
        assert_eq!(gaps.transposed().indptr, [0, 0, 2, 2, 4, 4]);
        assert_eq!(gaps.transposed().src, [0, 2, 1, 2]);
        assert_eq!(gaps.transposed().perm, [0, 2, 1, 3]);
    }

    #[test]
    fn transpose_index_lives_and_dies_with_the_pattern() {
        let builds = || TRANSPOSE_BUILDS.with(|c| c.get());
        let m = sample();
        let shares = [
            m.with_values(vec![9.0; 4]),
            m.clone(),
            m.map_values(|v| v * 2.0),
        ];
        assert!(m.pattern.transposed.get().is_none(), "built lazily");
        let before = builds();
        let built: *const TransposeIndex = shares[0].transposed();
        assert!(std::ptr::eq(m.transposed(), built));
        assert!(shares.iter().all(|s| std::ptr::eq(s.transposed(), built)));
        assert_eq!(builds() - before, 1, "one build per pattern");
        // New patterns start with an empty cell.
        for fresh in [m.permute(&[2, 1, 0]), m.block(0, 2, 0, 3), m.transpose()] {
            assert!(fresh.pattern.transposed.get().is_none());
        }
        // Two threads racing the first use still build once. Raw threads:
        // the pool cannot promise that two chunks land on two workers.
        let raced = sample();
        let start = std::sync::Barrier::new(2);
        // atgnn-lint: allow(raw-threads)
        let per_thread: Vec<usize> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mine = raced.clone();
                        start.wait();
                        mine.transposed();
                        builds()
                    })
                })
                .collect();
            racers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(per_thread.iter().sum::<usize>(), 1);
    }

    #[test]
    fn with_values_shares_structure() {
        let m = sample();
        let w = m.with_values(vec![9.0; 4]);
        assert!(m.same_pattern(&w));
        assert_eq!(w.get(2, 1), 9.0);
    }

    #[test]
    fn identity_and_empty() {
        let id = Csr::<f32>::identity(3);
        assert_eq!(id.get(1, 1), 1.0);
        assert_eq!(id.get(1, 2), 0.0);
        let e = Csr::<f32>::empty(2, 5);
        assert_eq!(e.nnz(), 0);
        assert_eq!(e.rows(), 2);
    }

    #[test]
    fn block_extraction() {
        let m = sample();
        let b = m.block(1, 3, 0, 2);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.cols(), 2);
        assert_eq!(b.get(1, 0), 3.0);
        assert_eq!(b.get(1, 1), 4.0);
        assert_eq!(b.nnz(), 2);
    }

    #[test]
    fn row_prefix_is_the_leading_block() {
        let m = sample();
        let p = m.row_prefix(2, 3);
        assert_eq!((p.rows(), p.cols()), (2, 3));
        assert_eq!(p.indptr(), &[0, 2, 2]);
        assert_eq!((p.indices(), p.values()), (&[0, 2][..], &[1.0, 2.0][..]));
        assert_eq!(m.row_prefix(0, 0).nnz(), 0);
        assert!(m.row_prefix(3, 3).same_pattern(&m));
    }

    #[test]
    #[should_panic(expected = "stores column 2")]
    fn row_prefix_rejects_a_column_outside_the_block() {
        let _ = sample().row_prefix(1, 2);
    }

    #[test]
    fn to_dense_round_trip() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d[(2, 1)], 4.0);
        let back = Csr::from_coo(&m.to_coo());
        assert!(m.same_pattern(&back));
        assert_eq!(m.values(), back.values());
    }

    #[test]
    fn symmetry_check() {
        let mut coo = Coo::<f64>::from_edges(2, 2, vec![(0, 1)]);
        assert!(!Csr::from_coo(&coo).is_symmetric());
        coo.symmetrize_binary();
        assert!(Csr::from_coo(&coo).is_symmetric());
    }

    #[test]
    fn degrees() {
        let m = sample();
        assert_eq!(m.out_degrees(), vec![2, 0, 2]);
        assert_eq!(m.max_degree(), 2);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_raw_rejects_duplicates() {
        let _ = Csr::<f64>::from_raw(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]);
    }
}
