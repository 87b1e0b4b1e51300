//! Row-major dense matrices, tight or lane-padded.
//!
//! [`Dense`] stores feature matrices `H ∈ R^{n×k}` (tall), parameter
//! matrices `W ∈ R^{k×k}` (small, square) and gradient matrices. Rows are
//! contiguous, matching the paper's convention that a vertex's feature
//! vector is one row of `H`, which keeps per-vertex operations (the dominant
//! access pattern in SpMM/SDDMM) cache-friendly and vectorizable.
//!
//! # The padded-stride invariant
//!
//! A matrix is either *tight* (`stride == cols`, the historical layout) or
//! *padded* (`stride == cols` rounded up to [`LANE`]), selected per plan via
//! `ATGNN_LAYOUT` and converted once at the model boundary. Three invariants
//! hold for every `Dense` at all times:
//!
//! 1. `stride >= cols` and `data.len() == rows * stride`;
//! 2. a padded stride is a multiple of [`LANE`], so every row starts at a
//!    32-byte-aligned *offset* within the buffer (f32) and full-stride rows
//!    are a whole number of vectors with no scalar tail;
//! 3. the padding tail of every row is **exactly `+0.0`**. Kernels may read
//!    and aggregate full-stride rows (`fma(alpha, 0.0, +0.0) = +0.0`
//!    bit-exactly, so zero tails absorb axpys without drifting), but must
//!    only *write* through the logical accessors, never into the tail.
//!
//! All logical accessors ([`Dense::row`], indexing, equality, reductions)
//! see only the `cols` logical columns; [`Dense::row_padded`] exposes the
//! full stride for the aggregation kernels. Heap *allocation* alignment is
//! whatever `Vec` provides — the layout guarantees aligned offsets, not an
//! aligned base pointer, which is sufficient for the unaligned-load vector
//! code the autovectorizer emits (`movups`/`vmovups` run at full speed on
//! every AVX2 core when the address is 32-byte aligned in practice).

use crate::micro::LANE;
use crate::scalar::Scalar;

/// Rounds a column count up to the padded stride (a whole number of
/// [`LANE`]-wide vectors).
#[inline]
pub fn padded_stride(cols: usize) -> usize {
    cols.div_ceil(LANE) * LANE
}

/// A row-major dense matrix with an explicit row stride.
#[derive(Clone)]
pub struct Dense<T> {
    rows: usize,
    cols: usize,
    /// Distance in elements between consecutive row starts; `== cols` for
    /// tight matrices, a [`LANE`] multiple `> cols` for padded ones.
    stride: usize,
    data: Vec<T>,
}

impl<T: Scalar> Dense<T> {
    /// Creates a tight `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            stride: cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// Creates a *padded* `rows × cols` zero matrix whose stride is `cols`
    /// rounded up to [`LANE`].
    pub fn zeros_padded(rows: usize, cols: usize) -> Self {
        let stride = padded_stride(cols);
        Self {
            rows,
            cols,
            stride,
            data: vec![T::zero(); rows * stride],
        }
    }

    /// A zero matrix that inherits `self`'s layout policy: padded when
    /// `self` is padded, tight otherwise. Kernels use this so outputs stay
    /// in the plan-selected layout without consulting any global state.
    pub fn zeros_matching(&self, rows: usize, cols: usize) -> Self {
        if self.is_padded() {
            Self::zeros_padded(rows, cols)
        } else {
            Self::zeros(rows, cols)
        }
    }

    /// Creates a tight `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: T) -> Self {
        Self {
            rows,
            cols,
            stride: cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix of all ones — the paper's blue `1` objects used to
    /// express replication and summation as tensor kernels.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, T::one())
    }

    /// The `rows × rows` identity matrix.
    pub fn identity(rows: usize) -> Self {
        let mut m = Self::zeros(rows, rows);
        for i in 0..rows {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Wraps an existing row-major buffer (tight layout).
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self {
            rows,
            cols,
            stride: cols,
            data,
        }
    }

    /// Builds a tight matrix from a closure evaluated at every `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self {
            rows,
            cols,
            stride: cols,
            data,
        }
    }

    /// A padded copy of `self` (stride rounded up to [`LANE`], tails zero).
    /// Already-padded matrices are cloned as-is.
    pub fn padded(&self) -> Self {
        if self.is_padded() {
            return self.clone();
        }
        let mut out = Self::zeros_padded(self.rows, self.cols);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(self.row(i));
        }
        out
    }

    /// Repacks into the tight layout, dropping the padding. A no-op (no
    /// copy) when already tight.
    pub fn into_tight(self) -> Self {
        if !self.is_padded() {
            return self;
        }
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for i in 0..self.rows {
            data.extend_from_slice(self.row(i));
        }
        Self {
            rows: self.rows,
            cols: self.cols,
            stride: self.cols,
            data,
        }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (logical — excludes padding).
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Elements between consecutive row starts (`== cols()` when tight).
    #[inline(always)]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Whether the matrix carries lane padding (`stride() != cols()`).
    #[inline(always)]
    pub fn is_padded(&self) -> bool {
        self.stride != self.cols
    }

    /// `(rows, cols)`.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of logical elements (`rows · cols`, excluding padding).
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the matrix has zero logical elements.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The raw row-major buffer — *includes* the zero padding tails when
    /// the matrix is padded. Kernels must address it stride-aware.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The raw row-major buffer, mutable. See [`Self::as_slice`].
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the matrix, returning its logical row-major buffer
    /// (padding is dropped — always `rows · cols` elements).
    pub fn into_vec(self) -> Vec<T> {
        self.into_tight().data
    }

    /// Row `i` as a contiguous slice of its `cols` logical elements.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[T] {
        debug_assert!(i < self.rows);
        &self.data[i * self.stride..i * self.stride + self.cols]
    }

    /// Row `i` as a mutable slice of its logical elements.
    #[inline(always)]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        debug_assert!(i < self.rows);
        let start = i * self.stride;
        &mut self.data[start..start + self.cols]
    }

    /// Row `i` at full stride — logical elements followed by the zero
    /// padding tail. Equal to [`Self::row`] when tight. Aggregation
    /// kernels use this to run whole-vector loops with no scalar tail.
    #[inline(always)]
    pub fn row_padded(&self, i: usize) -> &[T] {
        debug_assert!(i < self.rows);
        &self.data[i * self.stride..(i + 1) * self.stride]
    }

    /// Mutable full-stride row. Writes into the tail must keep it zero —
    /// only the elementwise-fma kernels (which preserve `+0.0` tails
    /// exactly) may write through this.
    #[inline(always)]
    pub fn row_padded_mut(&mut self, i: usize) -> &mut [T] {
        debug_assert!(i < self.rows);
        let start = i * self.stride;
        &mut self.data[start..start + self.stride]
    }

    /// Sets every element, padding tails included, to zero — how a writing
    /// kernel whose body accumulates readies a reused output before its
    /// loop.
    pub fn zero_fill(&mut self) {
        self.data.fill(T::zero());
    }

    /// Copies the logical elements of a same-shape matrix of any layout
    /// into `self`; the padding tails are left as they are.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn copy_from(&mut self, src: &Self) {
        assert_eq!(self.shape(), src.shape(), "copy_from: shape mismatch");
        for i in 0..self.rows {
            self.row_mut(i).copy_from_slice(src.row(i));
        }
    }

    /// Whether every padding tail is exactly zero — the layout invariant
    /// the property tests pin through training steps.
    pub fn padding_is_zero(&self) -> bool {
        (0..self.rows).all(|i| {
            self.row_padded(i)[self.cols..]
                .iter()
                .all(|v| v.to_f64() == 0.0)
        })
    }

    /// Two disjoint mutable rows at once (used by in-place row updates).
    ///
    /// # Panics
    /// Panics if `i == j`.
    pub fn rows_mut_pair(&mut self, i: usize, j: usize) -> (&mut [T], &mut [T]) {
        assert_ne!(i, j, "rows must be distinct");
        let (s, k) = (self.stride, self.cols);
        if i < j {
            let (a, b) = self.data.split_at_mut(j * s);
            (&mut a[i * s..i * s + k], &mut b[..k])
        } else {
            let (a, b) = self.data.split_at_mut(i * s);
            (&mut b[..k], &mut a[j * s..j * s + k])
        }
    }

    /// Copies rows `[start, start+count)` into a new (tight) matrix —
    /// block-row extraction, used by the distributed block distributions.
    pub fn slice_rows(&self, start: usize, count: usize) -> Self {
        assert!(start + count <= self.rows, "row slice out of bounds");
        let mut data = Vec::with_capacity(count * self.cols);
        for i in start..start + count {
            data.extend_from_slice(self.row(i));
        }
        Self {
            rows: count,
            cols: self.cols,
            stride: self.cols,
            data,
        }
    }

    /// Gathers rows in the order given by `idx`: row `i` of the result is
    /// row `idx[i]` of `self`. With a permutation this both applies a
    /// reordering (`gather_rows(perm)` for `perm[new] = old`) and undoes
    /// one (`gather_rows(inv)`), which is how the plan layer permutes
    /// feature matrices and inverse-permutes model outputs. The result is
    /// always tight.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn gather_rows(&self, idx: &[u32]) -> Self {
        // Built by extension rather than over `gather_rows_into`: a fresh
        // result is written exactly once, with no zero-fill first (the
        // server gathers every batch's ego features through here).
        let k = self.cols;
        let mut data = Vec::with_capacity(idx.len() * k);
        for &src in idx {
            data.extend_from_slice(self.row(src as usize));
        }
        Self {
            rows: idx.len(),
            cols: k,
            stride: k,
            data,
        }
    }

    /// [`Dense::gather_rows`] into `out`, whose layout is kept: logical
    /// row `i` of `out` becomes row `idx[i]` of `self`, the padding tails
    /// are left as they are.
    ///
    /// # Panics
    /// Panics if `out` is not `idx.len() × self.cols()` or an index is out
    /// of range.
    pub fn gather_rows_into(&self, idx: &[u32], out: &mut Self) {
        assert_eq!(
            out.shape(),
            (idx.len(), self.cols),
            "gather_rows_into: output shape mismatch"
        );
        for (i, &src) in idx.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(src as usize));
        }
    }

    /// Writes `block` into rows `[start, start+block.rows())`.
    pub fn set_rows(&mut self, start: usize, block: &Self) {
        assert_eq!(block.cols, self.cols, "column count mismatch");
        assert!(start + block.rows <= self.rows, "row slice out of bounds");
        for r in 0..block.rows {
            self.row_mut(start + r).copy_from_slice(block.row(r));
        }
    }

    /// Vertically stacks row blocks into one (tight) matrix.
    ///
    /// # Panics
    /// Panics if the blocks disagree on the column count, or if no blocks
    /// are given.
    pub fn vstack(blocks: &[Self]) -> Self {
        assert!(!blocks.is_empty(), "vstack of zero blocks");
        let cols = blocks[0].cols;
        let rows = blocks.iter().map(|b| b.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for b in blocks {
            assert_eq!(b.cols, cols, "column count mismatch in vstack");
            for i in 0..b.rows {
                data.extend_from_slice(b.row(i));
            }
        }
        Self {
            rows,
            cols,
            stride: cols,
            data,
        }
    }

    /// Out-of-place transpose (tight result).
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        // Simple blocked transpose; matrices here are tall-skinny (n×k with
        // small k) so a 64-row strip keeps both sides in cache.
        const STRIP: usize = 64;
        for ib in (0..self.rows).step_by(STRIP) {
            let iend = (ib + STRIP).min(self.rows);
            for j in 0..self.cols {
                for i in ib..iend {
                    out.data[j * self.rows + i] = self.data[i * self.stride + j];
                }
            }
        }
        out
    }

    /// Frobenius norm (over the logical elements, in row-major order).
    pub fn frobenius_norm(&self) -> T {
        let mut acc = T::zero();
        for i in 0..self.rows {
            for &v in self.row(i) {
                acc += v * v;
            }
        }
        acc.sqrt()
    }

    /// Maximum absolute element (`‖·‖_max`), handy for error reporting.
    pub fn max_abs(&self) -> T {
        let mut acc = T::zero();
        for i in 0..self.rows {
            for &v in self.row(i) {
                acc = Scalar::max(acc, v.abs());
            }
        }
        acc
    }

    /// Largest absolute difference to `other` (logical elements only —
    /// layout-agnostic, so padded and tight operands compare directly).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Self) -> T {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        let mut acc = T::zero();
        for i in 0..self.rows {
            for (&a, &b) in self.row(i).iter().zip(other.row(i)) {
                acc = Scalar::max(acc, (a - b).abs());
            }
        }
        acc
    }

    /// Converts every element to another scalar type through `f64`
    /// (tight result).
    pub fn cast<U: Scalar>(&self) -> Dense<U> {
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for i in 0..self.rows {
            data.extend(self.row(i).iter().map(|v| U::from_f64(v.to_f64())));
        }
        Dense {
            rows: self.rows,
            cols: self.cols,
            stride: self.cols,
            data,
        }
    }
}

/// Layout-agnostic logical equality: shape plus the logical elements of
/// every row. A padded matrix equals its tight repack.
impl<T: Scalar> PartialEq for Dense<T> {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && (0..self.rows).all(|i| self.row(i) == other.row(i))
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for Dense<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.stride + j]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for Dense<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.stride + j]
    }
}

impl<T: Scalar> std::fmt::Debug for Dense<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Dense {}x{} [", self.rows, self.cols)?;
        let max_rows = 8.min(self.rows);
        for i in 0..max_rows {
            write!(f, "  ")?;
            let max_cols = 8.min(self.cols);
            for j in 0..max_cols {
                write!(f, "{:>10.4} ", self[(i, j)].to_f64())?;
            }
            if self.cols > max_cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut m = Dense::<f64>::zeros(3, 2);
        assert_eq!(m.shape(), (3, 2));
        m[(2, 1)] = 5.0;
        assert_eq!(m[(2, 1)], 5.0);
        assert_eq!(m.row(2), &[0.0, 5.0]);
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let id = Dense::<f32>::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(id[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = Dense::<f64>::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn padded_round_trip_preserves_logical_content() {
        for (r, c) in [(0, 3), (1, 1), (3, 7), (4, 8), (5, 9), (2, 33)] {
            let m = Dense::<f64>::from_fn(r, c, |i, j| (i * 100 + j) as f64 + 0.25);
            let p = m.padded();
            assert_eq!(p.shape(), m.shape());
            assert_eq!(p.stride() % LANE, 0);
            assert!(p.stride() >= c);
            assert_eq!(p.is_padded(), c % LANE != 0);
            assert!(p.padding_is_zero());
            assert_eq!(p, m, "logical equality across layouts");
            let t = p.clone().into_tight();
            assert!(!t.is_padded());
            assert_eq!(t.as_slice(), m.as_slice());
            for i in 0..r {
                assert_eq!(p.row(i), m.row(i));
                assert_eq!(&p.row_padded(i)[..c], m.row(i));
            }
        }
    }

    #[test]
    fn padded_accessors_and_indexing_agree() {
        let m = Dense::<f32>::from_fn(3, 5, |i, j| (i * 10 + j) as f32).padded();
        assert_eq!(m.stride(), 8);
        assert_eq!(m[(2, 4)], 24.0);
        assert_eq!(m.row(2)[4], 24.0);
        assert_eq!(m.row_padded(2).len(), 8);
        assert_eq!(m.row_padded(2)[5..], [0.0; 3]);
        assert_eq!(m.len(), 15, "len is logical");
    }

    #[test]
    fn zeros_matching_inherits_layout() {
        let tight = Dense::<f64>::zeros(2, 5);
        assert!(!tight.zeros_matching(4, 5).is_padded());
        let padded = Dense::<f64>::zeros_padded(2, 5);
        let out = padded.zeros_matching(4, 5);
        assert!(out.is_padded());
        assert_eq!(out.stride(), 8);
        // Lane-multiple columns need no padding: "padded" collapses to tight.
        assert!(!padded.zeros_matching(4, 8).is_padded());
    }

    #[test]
    fn mutating_ops_are_stride_aware() {
        let mut m = Dense::<f64>::from_fn(6, 3, |i, j| (i * 3 + j) as f64).padded();
        let (a, b) = m.rows_mut_pair(4, 1);
        a[0] = -1.0;
        b[2] = -2.0;
        assert_eq!(m[(4, 0)], -1.0);
        assert_eq!(m[(1, 2)], -2.0);
        let block = m.slice_rows(2, 3);
        assert!(!block.is_padded());
        assert_eq!(block[(0, 1)], 7.0);
        m.set_rows(0, &block);
        assert_eq!(m[(0, 1)], 7.0);
        assert!(m.padding_is_zero());
        let t = m.transpose();
        assert_eq!(t[(1, 0)], 7.0);
        assert_eq!(m.gather_rows(&[5, 0]).row(0), m.row(5));
        assert_eq!(m.clone().into_vec().len(), 18);
    }

    #[test]
    fn writing_forms_fill_logical_rows_and_keep_the_layout() {
        let m = Dense::<f64>::from_fn(4, 5, |i, j| (i * 10 + j) as f64 - 7.5);
        for mut out in [Dense::filled(3, 5, 9.0), Dense::filled(3, 5, 9.0).padded()] {
            let padded = out.is_padded();
            m.gather_rows_into(&[3, 0, 3], &mut out);
            assert_eq!(out, m.gather_rows(&[3, 0, 3]));
            assert_eq!(out.is_padded(), padded);
            assert!(out.padding_is_zero());
            out.zero_fill();
            assert!(out.as_slice().iter().all(|v| v.to_bits() == 0));
            out.copy_from(&m.slice_rows(1, 3).padded());
            assert_eq!(out, m.slice_rows(1, 3));
        }
    }

    #[test]
    fn transpose_round_trip() {
        let m = Dense::<f64>::from_fn(5, 3, |i, j| (i * 3 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 5));
        assert_eq!(t[(2, 4)], m[(4, 2)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn slice_and_set_rows() {
        let m = Dense::<f64>::from_fn(6, 2, |i, _| i as f64);
        let block = m.slice_rows(2, 3);
        assert_eq!(block.rows(), 3);
        assert_eq!(block[(0, 0)], 2.0);
        let mut n = Dense::<f64>::zeros(6, 2);
        n.set_rows(2, &block);
        assert_eq!(n[(4, 1)], 4.0);
        assert_eq!(n[(1, 0)], 0.0);
    }

    #[test]
    fn vstack_concatenates() {
        let a = Dense::<f32>::filled(2, 3, 1.0);
        let b = Dense::<f32>::filled(1, 3, 2.0);
        let s = Dense::vstack(&[a, b]);
        assert_eq!(s.shape(), (3, 3));
        assert_eq!(s[(2, 0)], 2.0);
    }

    #[test]
    fn rows_mut_pair_disjoint() {
        let mut m = Dense::<f64>::zeros(4, 2);
        let (a, b) = m.rows_mut_pair(3, 1);
        a[0] = 1.0;
        b[1] = 2.0;
        assert_eq!(m[(3, 0)], 1.0);
        assert_eq!(m[(1, 1)], 2.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_checks_length() {
        let _ = Dense::<f64>::from_vec(2, 2, vec![0.0; 3]);
    }

    #[test]
    fn norms() {
        let m = Dense::<f64>::from_vec(1, 2, vec![3.0, -4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.max_abs(), 4.0);
        // Layout must not change diagnostics.
        let p = m.padded();
        assert_eq!(p.frobenius_norm().to_bits(), m.frobenius_norm().to_bits());
        assert_eq!(p.max_abs(), 4.0);
        assert_eq!(p.max_abs_diff(&m), 0.0);
    }

    #[test]
    fn cast_between_precisions() {
        let m = Dense::<f64>::from_fn(2, 2, |i, j| (i + j) as f64 + 0.5);
        let f: Dense<f32> = m.cast();
        assert_eq!(f[(1, 1)], 2.5f32);
    }
}
