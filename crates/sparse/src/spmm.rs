//! Sparse×dense products: `SpMM`, `AᵀH`, and the composed `SpMMM`/`MSpMM`
//! patterns of the paper's Table 2.
//!
//! The CUDA grid-stride loop of the paper's implementation maps to the
//! runtime's self-scheduled row chunks (`atgnn_tensor::rt`): rows are
//! partitioned by *stored entries* via the CSR row pointer, so the heavy
//! hub rows of power-law graphs no longer serialize the kernel, and each
//! chunk writes a disjoint block of the output — allocation-free per row.
//!
//! `spmm_t` (the `Aᵀ·G` aggregation in every backward pass) is the same
//! row loop over the CSC view the pattern owns (`Csr::transposed`): one
//! writer per output row, entries of a column in ascending source row —
//! the rounding sequence of a sequential row scatter, for every
//! `ATGNN_THREADS` setting.

use crate::csr::Csr;
use crate::semiring::Semiring;
use atgnn_tensor::rt::{self, Cost, DisjointSlice};
use atgnn_tensor::{gemm, micro, Dense, Scalar};

/// Result elements below which the row loop stays sequential.
const PAR_THRESHOLD: usize = 8 * 1024;

/// Schedule fact for the gather-style kernels (`spmm`, `spmm_t`, `spmmm`,
/// `mspmm`): each output row is produced by exactly one chunk and its
/// reduction runs over stored entries in ascending order (CSR entry
/// order; ascending source row of the CSC view for `spmm_t`), so the
/// rounding sequence of every element is a function of the data alone.
/// Consumed by the plan-time determinism analysis
/// (`atgnn::analyze::determinism`).
pub const GATHER_ORDER: rt::ReductionOrder = rt::ReductionOrder::RowSequential;

/// Generalized SpMM: `out = A ⊕ H` over the given semiring
/// (paper Section 4.3). `out[i][f] = finish(⊕_{j ∈ row i} a_ij ⊗ h_jf)`.
///
/// Rows with no stored entries produce `finish(zero)` — e.g. `0` for the
/// real semiring, `+∞` mapped through `finish` for min-plus. The per-row
/// accumulator lives in the worker's scratch arena, so the hot loop does
/// not allocate.
///
/// # Panics
/// Panics if `A.cols() != H.rows()`.
pub fn spmm_semiring<T: Scalar, S: Semiring<T>>(s: &S, a: &Csr<T>, h: &Dense<T>) -> Dense<T> {
    assert_eq!(
        a.cols(),
        h.rows(),
        "spmm: inner dimensions differ ({}x{} * {}x{})",
        a.rows(),
        a.cols(),
        h.rows(),
        h.cols()
    );
    let k = h.cols();
    // Semiring outputs stay tight: `finish(zero)` need not be `0` (min-plus
    // maps `+∞`), which would break the zero-padding-tail invariant.
    let mut out = Dense::zeros(a.rows(), k);
    let out_stride = out.stride();
    let parallel = a.rows() * k >= PAR_THRESHOLD;
    let slots = DisjointSlice::new(out.as_mut_slice());
    rt::parallel_for(a.rows(), Cost::Prefix(a.indptr()), parallel, |lo, hi| {
        // SAFETY: row ranges are disjoint across chunk bodies.
        let rows_out = unsafe { slots.range_mut(lo * out_stride, hi * out_stride) };
        rt::with_scratch::<S::Acc, _>(|acc| {
            for (i, out_row) in (lo..hi).zip(rows_out.chunks_mut(out_stride.max(1))) {
                acc.clear();
                acc.resize(k, s.zero());
                let (cols, vals) = a.row(i);
                for (&j, &av) in cols.iter().zip(vals) {
                    let hrow = h.row(j as usize);
                    for (a_f, &hv) in acc.iter_mut().zip(hrow) {
                        s.combine(a_f, av, hv);
                    }
                }
                for (o, a_f) in out_row.iter_mut().zip(acc.drain(..)) {
                    *o = s.finish(a_f);
                }
            }
        });
    });
    out
}

/// Accumulates `Σ vals[e] · h[cols[e]]` into one output row — the shared
/// gather body of [`spmm`] and the attention sweep's plain-SpMM fallback.
///
/// `out_row` may be a full-stride padded row; sources are sliced to the
/// same width via [`Dense::row_padded`] (equal strides are guaranteed by
/// `zeros_matching`), so padded aggregation runs whole 8-lane vectors with
/// no tail loop. Tails stay `+0.0`: `fma(a, 0, ±0)` is `+0.0` for finite
/// `a`. In wide mode neighbors are processed four per pass ([`micro::axpy4`]
/// — one load/store of `out_row` per quad); per element that is the exact
/// rounding sequence of the sequential [`micro::axpy`] loop, so the wide
/// gather is bit-identical to one axpy per neighbor, in either layout.
#[inline]
fn aggregate_rows_into<T: Scalar>(out_row: &mut [T], h: &Dense<T>, cols: &[u32], vals: &[T]) {
    let w = out_row.len();
    if micro::wide() {
        let mut cq = cols.chunks_exact(4);
        let mut vq = vals.chunks_exact(4);
        for (c4, v4) in (&mut cq).zip(&mut vq) {
            micro::axpy4(
                out_row,
                [v4[0], v4[1], v4[2], v4[3]],
                [
                    &h.row_padded(c4[0] as usize)[..w],
                    &h.row_padded(c4[1] as usize)[..w],
                    &h.row_padded(c4[2] as usize)[..w],
                    &h.row_padded(c4[3] as usize)[..w],
                ],
            );
        }
        for (&j, &av) in cq.remainder().iter().zip(vq.remainder()) {
            micro::axpy_wide(out_row, av, &h.row_padded(j as usize)[..w]);
        }
    } else {
        for (&j, &av) in cols.iter().zip(vals) {
            micro::axpy(out_row, av, &h.row_padded(j as usize)[..w]);
        }
    }
}

/// Standard SpMM over the real semiring: `out = A · H`.
///
/// A dedicated path (no accumulator vector indirection) so the common case
/// optimizes to straight axpy loops.
pub fn spmm<T: Scalar>(a: &Csr<T>, h: &Dense<T>) -> Dense<T> {
    assert_eq!(a.cols(), h.rows(), "spmm: inner dimensions differ");
    let k = h.cols();
    let mut out = h.zeros_matching(a.rows(), k);
    let out_stride = out.stride();
    let parallel = a.rows() * k >= PAR_THRESHOLD;
    let slots = DisjointSlice::new(out.as_mut_slice());
    rt::parallel_for(a.rows(), Cost::Prefix(a.indptr()), parallel, |lo, hi| {
        // SAFETY: row ranges are disjoint across chunk bodies.
        let rows_out = unsafe { slots.range_mut(lo * out_stride, hi * out_stride) };
        for (i, out_row) in (lo..hi).zip(rows_out.chunks_mut(out_stride.max(1))) {
            let (cols, vals) = a.row(i);
            aggregate_rows_into(out_row, h, cols, vals);
        }
    });
    out
}

/// `out = Aᵀ · H` without materializing `Aᵀ`: [`spmm`]'s row loop over the
/// CSC view of `A`'s pattern, `out[j] = Σ_e A.vals[perm[e]] · H[src[e]]`.
///
/// The backward pass runs on the reversed graph (paper Section 5.2); for
/// the undirected graphs dominating GNN workloads `Aᵀ = A`, but the kernel
/// supports the general case.
///
/// The view is built by the first call on a pattern and reused by every
/// matrix sharing it (Ψ's values change each step, its pattern is `A`'s).
/// Each output row has one writer and a column's entries are in ascending
/// source row, so every element sees the rounding sequence of a
/// sequential row scatter whatever the thread count — which the
/// distributed tests and the training-determinism guarantee rely on.
pub fn spmm_t<T: Scalar>(a: &Csr<T>, h: &Dense<T>) -> Dense<T> {
    let a_vals = a.values();
    let mut out = h.zeros_matching(a.cols(), h.cols());
    gather_t(a, h, &mut out, |_, perm, _, vals, _| {
        for (x, &e) in vals.iter_mut().zip(perm) {
            *x = a_vals[e as usize];
        }
    });
    out
}

/// [`spmm_t`] with `A`'s values computed rather than read:
/// `fill(j, perm, src, vals, spare)` writes column `j`'s values into
/// `vals`, one per entry of the column in ascending source row — entry
/// `e` sits at CSR position `perm[e]` and comes from row `src[e]`.
/// `spare` is scratch of the same length the fill may use (the virtual
/// `Ψᵀ G` gathers its rows' normalisers there, which measured faster
/// than gathering them inside the `exp` loop). The gather
/// and its rounding sequence are [`spmm_t`]'s; only where a weight comes
/// from differs (the attention backward recomputes `Ψ` here instead of
/// storing it).
///
/// `out` is `A.cols() × H.cols()` with `H`'s stride, and **zero on
/// entry**: the gather accumulates into it. A writing caller zero-fills
/// a reused buffer first ([`Dense::zero_fill`]); an allocating one passes
/// a fresh `zeros_matching`.
pub(crate) fn gather_t<T, F>(a: &Csr<T>, h: &Dense<T>, out: &mut Dense<T>, fill: F)
where
    T: Scalar,
    F: Fn(usize, &[u32], &[u32], &mut [T], &mut [T]) + Sync,
{
    assert_eq!(a.rows(), h.rows(), "spmm_t: dimension mismatch");
    assert_eq!(
        (out.shape(), out.stride()),
        ((a.cols(), h.cols()), h.stride()),
        "spmm_t: output must be A.cols() x H.cols() in H's layout"
    );
    let t = a.transposed();
    let out_stride = out.stride();
    let parallel = a.cols() * h.cols() >= PAR_THRESHOLD;
    let slots = DisjointSlice::new(out.as_mut_slice());
    rt::parallel_for(a.cols(), Cost::Prefix(&t.indptr), parallel, |lo, hi| {
        // SAFETY: row ranges are disjoint across chunk bodies.
        let rows_out = unsafe { slots.range_mut(lo * out_stride, hi * out_stride) };
        rt::with_scratch::<T, _>(|buf| {
            for (j, out_row) in (lo..hi).zip(rows_out.chunks_mut(out_stride.max(1))) {
                let col = t.indptr[j]..t.indptr[j + 1];
                let (perm, src) = (&t.perm[col.clone()], &t.src[col]);
                let deg = perm.len();
                // Grow-only: the fill writes every slot of `vals`.
                if buf.len() < 2 * deg {
                    buf.resize(2 * deg, T::zero());
                }
                let (vals, spare) = buf[..2 * deg].split_at_mut(deg);
                fill(j, perm, src, vals, spare);
                aggregate_rows_into(out_row, h, src, vals);
            }
        });
    });
}

/// The execution order of a three-factor product.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProductOrder {
    /// `(A · H) · W` — aggregate first.
    AggregateFirst,
    /// `A · (H · W)` — project first.
    ProjectFirst,
}

/// Picks the cheaper order for `A (rows×cols, nnz) · H (cols×k_in) ·
/// W (k_in×k_out)` by flop count: aggregate-first projects only the
/// `rows` aggregated rows (`nnz·k_in + rows·k_in·k_out`), project-first
/// projects every source row (`cols·k_in·k_out + nnz·k_out`). Both
/// attention execution paths have the same shape, so the rule does not
/// read one. A tie goes to project-first — the order training runs
/// (backward reads the cached `H W`) — so a square graph at
/// `k_in = k_out` computes the same bits in inference and in training.
pub fn product_order(
    rows: usize,
    cols: usize,
    nnz: usize,
    k_in: usize,
    k_out: usize,
) -> ProductOrder {
    if nnz * k_in + rows * k_in * k_out < cols * k_in * k_out + nnz * k_out {
        ProductOrder::AggregateFirst
    } else {
        ProductOrder::ProjectFirst
    }
}

/// `SpMMM`: the sparse–dense–dense product `A · H · W` (paper Table 2, a
/// new kernel identified for forward passes). The order is chosen by
/// [`product_order`] unless forced.
pub fn spmmm<T: Scalar>(
    a: &Csr<T>,
    h: &Dense<T>,
    w: &Dense<T>,
    order: Option<ProductOrder>,
) -> Dense<T> {
    let order =
        order.unwrap_or_else(|| product_order(a.rows(), a.cols(), a.nnz(), h.cols(), w.cols()));
    match order {
        ProductOrder::AggregateFirst => gemm::matmul(&spmm(a, h), w),
        ProductOrder::ProjectFirst => spmm(a, &gemm::matmul(h, w)),
    }
}

/// `MSpMM`: the dense–sparse–dense product `M · A · H` (paper Table 2, the
/// backward-pass compute pattern). Evaluated as `M · (A · H)` when `M` is
/// small×n, or `(M · A) · H` is never cheaper for tall results, so the
/// kernel always aggregates first.
pub fn mspmm<T: Scalar>(m: &Dense<T>, a: &Csr<T>, h: &Dense<T>) -> Dense<T> {
    gemm::matmul(m, &spmm(a, h))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::semiring::{Average, MaxPlus, MinPlus, Real};

    fn graph() -> Csr<f64> {
        // 0 -> 1, 0 -> 2, 1 -> 2, 2 -> 0 with weights 1..4
        let coo = Coo::from_triplets(
            3,
            3,
            vec![(0, 1), (0, 2), (1, 2), (2, 0)],
            vec![1.0, 2.0, 3.0, 4.0],
        );
        Csr::from_coo(&coo)
    }

    fn feats() -> Dense<f64> {
        Dense::from_fn(3, 2, |i, j| (i * 2 + j) as f64 + 1.0)
    }

    #[test]
    fn spmm_matches_dense_product() {
        let a = graph();
        let h = feats();
        let want = gemm::matmul(&a.to_dense(), &h);
        assert!(spmm(&a, &h).max_abs_diff(&want) < 1e-12);
        assert!(spmm_semiring(&Real, &a, &h).max_abs_diff(&want) < 1e-12);
    }

    /// Sequential row scatter of `Aᵀ·H` — the rounding-order reference
    /// [`spmm_t`] must reproduce bit for bit.
    fn spmm_t_scatter<T: Scalar>(a: &Csr<T>, h: &Dense<T>) -> Dense<T> {
        let mut out = h.zeros_matching(a.cols(), h.cols());
        for i in 0..a.rows() {
            let (cols, vals) = a.row(i);
            // Full-stride rows on both sides (equal strides via
            // zeros_matching); `fma(a, 0, +0)` keeps the zero tails intact.
            let hrow = h.row_padded(i);
            for (&j, &av) in cols.iter().zip(vals) {
                micro::axpy(out.row_padded_mut(j as usize), av, hrow);
            }
        }
        out
    }

    /// Whole-storage bit equality (padded tails included).
    fn same_bits(a: &Dense<f64>, b: &Dense<f64>) -> bool {
        a.shape() == b.shape()
            && a.stride() == b.stride()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Seeded `rows × cols` graphs with `entries` COO triplets (duplicates
    /// summed by `from_coo`) and values whose sums round. `levels > 0`
    /// draws Kronecker-style (R-MAT quadrant descent: a few hub rows and
    /// hub columns); `levels == 0` draws uniformly.
    fn seeded(rows: usize, cols: usize, entries: usize, levels: u32, seed: u64) -> Csr<f64> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut coo = Coo::new(rows, cols);
        for _ in 0..entries {
            let (r, c) = if levels == 0 {
                (next(), next())
            } else {
                (0..levels).fold((0, 0), |(r, c), _| {
                    let (dr, dc) = [(0, 0), (0, 0), (0, 0), (0, 1), (1, 0), (1, 1)][next() % 6];
                    (2 * r + dr, 2 * c + dc)
                })
            };
            let v = (next() % 2000) as f64 / 337.0 - 2.9;
            coo.push((r % rows) as u32, (c % cols) as u32, v);
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn spmm_t_matches_transpose() {
        let a = graph();
        let h = feats();
        let want = gemm::matmul(&a.transpose().to_dense(), &h);
        assert!(spmm_t(&a, &h).max_abs_diff(&want) < 1e-12);

        // The contract across the space: for every graph family, width,
        // layout and thread count, the gather is the sequential scatter
        // and the public SpMM of the materialized transpose, bit for bit.
        // (The microkernel modes are swept by tests/simd_equivalence.rs
        // and ci.sh's scalar pass — flipping them here would race the
        // other unit tests.)
        let graphs = [
            ("erdos-renyi", seeded(1200, 1200, 9600, 0, 1)),
            // 8192 output rows: the parallel path runs even at k = 1.
            ("kronecker", seeded(8192, 8192, 40_000, 13, 2)),
            ("duplicate-heavy", seeded(200, 150, 20_000, 0, 3)),
            ("wide block", seeded(500, 900, 6000, 0, 4)),
            ("tall block", seeded(900, 500, 6000, 10, 5)),
        ];
        let max = rt::max_threads();
        for (name, a) in &graphs {
            let at = a.transpose();
            for k in [1usize, 3, 17, 64] {
                let tight = Dense::from_fn(a.rows(), k, |i, j| {
                    ((i * 31 + j * 17) % 23) as f64 / 11.0 - 1.0
                });
                for h in [tight.padded(), tight] {
                    let want = spmm_t_scatter(a, &h);
                    assert!(want.padding_is_zero());
                    for threads in [1usize, 2, 8] {
                        rt::set_threads(threads);
                        let case = format!("{name} k={k} padded={} t={threads}", h.is_padded());
                        assert!(same_bits(&spmm_t(a, &h), &want), "{case}: scatter");
                        assert!(same_bits(&spmm(&at, &h), &want), "{case}: spmm(Aᵀ)");
                    }
                }
            }
        }
        rt::set_threads(max);
    }

    #[test]
    fn spmm_t_on_degenerate_shapes_and_edited_values() {
        let gaps = Csr::from_coo(&Coo::from_triplets(
            3,
            5,
            vec![(0, 1), (2, 1), (1, 3), (2, 3)],
            vec![1.5, -2.0, 3.25, 4.0],
        ));
        let shapes: [Csr<f64>; 7] = [
            Csr::empty(0, 4),
            Csr::empty(4, 0),
            Csr::empty(3, 3),
            Csr::identity(1),
            Csr::identity(5),
            gaps.clone(),
            gaps.transpose(),
        ];
        for a in &shapes {
            let tight = Dense::from_fn(a.rows(), 3, |i, j| (i * 3 + j) as f64 * 0.37 - 1.0);
            for h in [tight.padded(), tight] {
                let got = spmm_t(a, &h);
                assert_eq!(got.shape(), (a.cols(), 3));
                assert!(same_bits(&got, &spmm_t_scatter(a, &h)));
                assert!(got.padding_is_zero());
            }
        }
        // Empty columns are zero-length gather ranges: `+0.0`, tails included.
        let out = spmm_t(&gaps, &Dense::ones(3, 3).padded());
        for j in [0, 2, 4] {
            assert!(out.row_padded(j).iter().all(|x| x.to_bits() == 0));
        }
        // The index caches the pattern, never the values.
        let mut edited = gaps.clone();
        let h = Dense::from_fn(3, 2, |i, j| (i + 2 * j) as f64 - 1.5);
        let before = spmm_t(&edited, &h);
        edited.values_mut()[2] = -7.0;
        let after = spmm_t(&edited, &h);
        assert!(same_bits(&after, &spmm_t_scatter(&edited, &h)));
        assert!(!same_bits(&after, &before));
    }

    #[test]
    fn spmm_parallel_path() {
        let n = 500;
        let coo = Coo::from_edges(
            n,
            n,
            (0..n as u32)
                .flat_map(|i| [(i, (i + 1) % n as u32), (i, (i * 7 + 3) % n as u32)])
                .collect(),
        );
        let a: Csr<f64> = Csr::from_coo(&coo);
        let h = Dense::from_fn(n, 32, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
        let want = gemm::matmul(&a.to_dense(), &h);
        assert!(spmm(&a, &h).max_abs_diff(&want) < 1e-9);
    }

    #[test]
    fn padded_inputs_give_bit_identical_padded_outputs() {
        let a = graph();
        let h = feats();
        let tight = spmm(&a, &h);
        let padded = spmm(&a, &h.padded());
        assert!(padded.is_padded() && padded.padding_is_zero());
        for r in 0..tight.rows() {
            for (x, y) in padded.row(r).iter().zip(tight.row(r)) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        let t_t = spmm_t(&a, &h);
        let t_p = spmm_t(&a, &h.padded());
        assert!(t_p.is_padded() && t_p.padding_is_zero());
        for r in 0..t_t.rows() {
            for (x, y) in t_p.row(r).iter().zip(t_t.row(r)) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn min_aggregation() {
        // With zero weights the min-plus SpMM takes the min over neighbors.
        let a = graph().map_values(|_| 0.0);
        let h = feats();
        let out = spmm_semiring(&MinPlus, &a, &h);
        // Vertex 0's neighbors are 1 and 2: min of rows 1,2 per feature.
        assert_eq!(out[(0, 0)], 3.0);
        assert_eq!(out[(0, 1)], 4.0);
        // Vertex 1's only neighbor is 2.
        assert_eq!(out[(1, 0)], 5.0);
    }

    #[test]
    fn max_aggregation() {
        let a = graph().map_values(|_| 0.0);
        let h = feats();
        let out = spmm_semiring(&MaxPlus, &a, &h);
        assert_eq!(out[(0, 0)], 5.0);
        assert_eq!(out[(0, 1)], 6.0);
    }

    #[test]
    fn average_aggregation_matches_direct() {
        let a = graph();
        let h = feats();
        let out = spmm_semiring(&Average, &a, &h);
        // Vertex 0: weights 1 (to v1) and 2 (to v2):
        // (1*3 + 2*5) / 3 = 13/3 for feature 0.
        assert!((out[(0, 0)] - 13.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_rows_yield_semiring_finish_of_zero() {
        let coo = Coo::from_triplets(2, 2, vec![(0, 1)], vec![1.0]);
        let a: Csr<f64> = Csr::from_coo(&coo);
        let h = Dense::ones(2, 1);
        assert_eq!(spmm(&a, &h)[(1, 0)], 0.0);
        assert_eq!(spmm_semiring(&Average, &a, &h)[(1, 0)], 0.0);
    }

    #[test]
    fn spmmm_orders_agree() {
        let a = graph();
        let h = feats();
        let w = Dense::from_fn(2, 3, |i, j| (i + j) as f64 * 0.5 - 0.3);
        let ag = spmmm(&a, &h, &w, Some(ProductOrder::AggregateFirst));
        let pj = spmmm(&a, &h, &w, Some(ProductOrder::ProjectFirst));
        assert!(ag.max_abs_diff(&pj) < 1e-12);
        let auto = spmmm(&a, &h, &w, None);
        assert!(auto.max_abs_diff(&ag) < 1e-12);
    }

    #[test]
    fn product_order_table() {
        use ProductOrder::{AggregateFirst as Agg, ProjectFirst as Proj};
        // (rows, cols, nnz, k_in, k_out) → order.
        let table = [
            // Square at k_in = k_out: both orders cost the same; the tie
            // goes to the order training runs.
            ((100, 100, 700, 64, 64), Proj),
            ((1, 1, 1, 1, 1), Proj),
            // Square: the SpMM runs at the narrower width.
            ((100, 100, 700, 16, 128), Agg),
            ((100, 100, 700, 128, 16), Proj),
            // A row-prefix block projects `rows`, not `cols`, rows…
            ((10, 100, 70, 64, 64), Agg),
            ((99, 100, 700, 64, 64), Agg),
            // …until the wider SpMM costs more than the projection saves.
            ((10, 100, 70, 128, 16), Agg),
            ((10, 100, 7000, 128, 16), Proj),
            // Degenerate shapes: no rows to project, nothing to aggregate,
            // nothing to compute (a tie).
            ((0, 100, 0, 64, 64), Agg),
            ((100, 100, 0, 16, 128), Proj),
            ((10, 100, 0, 128, 16), Agg),
            ((10, 100, 70, 0, 64), Agg),
            ((10, 100, 70, 64, 0), Proj),
            ((10, 100, 70, 0, 0), Proj),
            // The served layer-0 block of `serve_er` (batch of 16).
            ((532, 13_300, 30_270, 64, 64), Agg),
        ];
        for ((rows, cols, nnz, k_in, k_out), want) in table {
            assert_eq!(
                product_order(rows, cols, nnz, k_in, k_out),
                want,
                "rows={rows} cols={cols} nnz={nnz} k_in={k_in} k_out={k_out}"
            );
        }
    }

    #[test]
    fn mspmm_matches_composition() {
        let a = graph();
        let h = feats();
        let m = Dense::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        let want = gemm::matmul(&m, &gemm::matmul(&a.to_dense(), &h));
        assert!(mspmm(&m, &a, &h).max_abs_diff(&want) < 1e-12);
    }
}
