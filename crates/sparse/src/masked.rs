//! Operations on values aligned to a sparse pattern.
//!
//! These cover the element-wise pieces of the global formulations that act
//! on `A`-patterned intermediates: the Hadamard product `⊙` and division
//! `⊘`, the graph softmax `sm(·)` of Section 4.2 (and its backward pass),
//! row/column sums (the `sum`/`sumᵀ` building blocks restricted to sparse
//! operands), diagonal scalings, and the `X + Xᵀ` pattern-union addition
//! of Table 2.

use crate::coo::Coo;
use crate::csr::Csr;
use atgnn_tensor::rt::{self, Cost, DisjointSlice, ReductionOrder};
use atgnn_tensor::{micro, Scalar};

/// Stored entries below which the masked row loops stay sequential.
const PAR_THRESHOLD: usize = 16 * 1024;

/// Element-wise combination of two same-pattern matrices:
/// `out_e = f(a_e, b_e)` over the aligned value arrays. The shared body
/// of [`hadamard`]/[`hadamard_div`]/[`add_same_pattern`], and the hook
/// for custom fused epilogues (e.g. an activation gradient on edge
/// scores).
///
/// # Panics
/// Panics if the patterns differ.
pub fn zip_values<T: Scalar>(a: &Csr<T>, b: &Csr<T>, f: impl Fn(T, T) -> T + Sync) -> Csr<T> {
    assert!(a.same_pattern(b), "zip_values: pattern mismatch");
    let mut values = vec![T::zero(); a.nnz()];
    let av = a.values();
    let bv = b.values();
    let parallel = a.nnz() >= PAR_THRESHOLD;
    let slots = DisjointSlice::new(&mut values);
    rt::parallel_for(a.nnz(), Cost::Uniform, parallel, |lo, hi| {
        // SAFETY: entry ranges are disjoint across chunk bodies.
        let out = unsafe { slots.range_mut(lo, hi) };
        for ((o, &x), &y) in out.iter_mut().zip(&av[lo..hi]).zip(&bv[lo..hi]) {
            *o = f(x, y);
        }
    });
    a.with_values(values)
}

/// `a ⊙ b` for two matrices sharing one pattern.
///
/// # Panics
/// Panics if the patterns differ.
pub fn hadamard<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Csr<T> {
    zip_values(a, b, |x, y| x * y)
}

/// `a ⊘ b` for two matrices sharing one pattern.
pub fn hadamard_div<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Csr<T> {
    zip_values(a, b, |x, y| x / y)
}

/// `a + b` for two matrices sharing one pattern.
pub fn add_same_pattern<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Csr<T> {
    zip_values(a, b, |x, y| x + y)
}

/// General sparse addition `a + b` (pattern union) — the `X₊ = X + Xᵀ`
/// building block uses this with `b = a.transpose()`.
pub fn add_general<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Csr<T> {
    assert_eq!(a.rows(), b.rows(), "add: row mismatch");
    assert_eq!(a.cols(), b.cols(), "add: col mismatch");
    let mut coo = Coo::new(a.rows(), a.cols());
    for m in [a, b] {
        for r in 0..m.rows() {
            let (cols, vals) = m.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                coo.push(r as u32, c, v);
            }
        }
    }
    Csr::from_coo(&coo)
}

/// `X₊ = X + Xᵀ` (Table 2).
pub fn add_transpose<T: Scalar>(x: &Csr<T>) -> Csr<T> {
    add_general(x, &x.transpose())
}

/// `sum(X) = X 1`: the sum of stored values in each row.
pub fn row_sums<T: Scalar>(x: &Csr<T>) -> Vec<T> {
    let mut out = vec![T::zero(); x.rows()];
    let parallel = x.nnz() >= PAR_THRESHOLD;
    let slots = DisjointSlice::new(&mut out);
    rt::parallel_for(x.rows(), Cost::Prefix(x.indptr()), parallel, |lo, hi| {
        // SAFETY: row ranges are disjoint across chunk bodies.
        let part = unsafe { slots.range_mut(lo, hi) };
        for (r, o) in (lo..hi).zip(part.iter_mut()) {
            *o = x.row(r).1.iter().copied().fold(T::zero(), |s, v| s + v);
        }
    });
    out
}

/// `sumᵀ(X) = Xᵀ 1`: the sum of stored values in each column.
pub fn col_sums<T: Scalar>(x: &Csr<T>) -> Vec<T> {
    col_sums_on(x, x.values())
}

/// [`col_sums`] of `values` laid on `pattern`'s stored entries (in its
/// storage order) — for a value array kept outside a `Csr`, such as a
/// training step's reused `∂C`. Entries are summed in storage order, row
/// by row, as `col_sums` does.
///
/// # Panics
/// Panics if `values.len() != pattern.nnz()`.
pub fn col_sums_on<T: Scalar>(pattern: &Csr<T>, values: &[T]) -> Vec<T> {
    assert_eq!(
        values.len(),
        pattern.nnz(),
        "col_sums: value count mismatch"
    );
    let mut out = vec![T::zero(); pattern.cols()];
    for (&c, &v) in pattern.indices().iter().zip(values) {
        out[c as usize] += v;
    }
    out
}

/// Per-row dot product of two same-pattern matrices:
/// `r_i = Σ_j a_ij b_ij` — the reduction inside the softmax backward pass.
pub fn row_dots<T: Scalar>(a: &Csr<T>, b: &Csr<T>) -> Vec<T> {
    assert!(a.same_pattern(b), "row_dots: pattern mismatch");
    let av = a.values();
    let bv = b.values();
    let indptr = a.indptr();
    let mut out = vec![T::zero(); a.rows()];
    let parallel = a.nnz() >= PAR_THRESHOLD;
    let slots = DisjointSlice::new(&mut out);
    rt::parallel_for(a.rows(), Cost::Prefix(indptr), parallel, |lo, hi| {
        // SAFETY: row ranges are disjoint across chunk bodies.
        let part = unsafe { slots.range_mut(lo, hi) };
        for (r, o) in (lo..hi).zip(part.iter_mut()) {
            let (rlo, rhi) = (indptr[r], indptr[r + 1]);
            *o = av[rlo..rhi]
                .iter()
                .zip(&bv[rlo..rhi])
                .map(|(&x, &y)| x * y)
                .fold(T::zero(), |s, v| s + v);
        }
    });
    out
}

/// Scales row `i` by `s[i]` (`diag(s) · X`).
pub fn scale_rows<T: Scalar>(x: &Csr<T>, s: &[T]) -> Csr<T> {
    assert_eq!(x.rows(), s.len(), "scale_rows: length mismatch");
    let indptr = x.indptr().to_vec();
    let mut out = x.clone();
    let parallel = out.nnz() >= PAR_THRESHOLD;
    let slots = DisjointSlice::new(out.values_mut());
    rt::parallel_for(
        indptr.len() - 1,
        Cost::Prefix(&indptr),
        parallel,
        |lo, hi| {
            // SAFETY: row ranges map to disjoint value ranges via indptr.
            let part = unsafe { slots.range_mut(indptr[lo], indptr[hi]) };
            let base = indptr[lo];
            for (r, &si) in (lo..hi).zip(&s[lo..hi]) {
                for v in &mut part[indptr[r] - base..indptr[r + 1] - base] {
                    *v *= si;
                }
            }
        },
    );
    out
}

/// Scales column `j` by `s[j]` (`X · diag(s)`).
pub fn scale_cols<T: Scalar>(x: &Csr<T>, s: &[T]) -> Csr<T> {
    assert_eq!(x.cols(), s.len(), "scale_cols: length mismatch");
    let indices = x.indices().to_vec();
    let mut out = x.clone();
    for (v, &c) in out.values_mut().iter_mut().zip(&indices) {
        *v *= s[c as usize];
    }
    out
}

/// Kernel fact for the FP-stability analysis: every softmax in this crate
/// ([`row_softmax`], the fused sweep's streaming softmax) shifts by the
/// row maximum before exponentiating, so `exp` arguments are `≤ 0` and the
/// kernel cannot overflow regardless of the score magnitude. A DAG node
/// labeled `row_softmax` therefore gets the safe transfer function; raw
/// `exp` chains without a preceding max-subtraction do not.
pub const ROW_SOFTMAX_MAX_SHIFTED: bool = true;

/// The accumulation-order fact of the active softmax kernel, for the
/// plan-time determinism analysis. The wide kernel sums the exponentials
/// with the eight-lane tree of [`micro::sum_wide`] (a function of the row
/// slice alone); every other mode runs the original ascending sum. Both
/// are invariant of thread count — rows are independent work items.
pub fn softmax_accumulation_order() -> ReductionOrder {
    if micro::wide() {
        ReductionOrder::LaneTree
    } else {
        ReductionOrder::RowSequential
    }
}

/// Numerically-stable softmax over one contiguous slice of scores — the
/// shared row body of [`row_softmax_inplace`] *and* the fused sweep's
/// streaming softmax ([`crate::attention`]), so the staged and fused
/// pipelines normalize with bit-identical arithmetic in every mode.
///
/// Wide mode ([`micro::wide`]): lane-structured max, [`Scalar::exp_fast`]
/// (branch-free, autovectorizable), the [`micro::sum_wide`] lane-tree
/// accumulation, then one reciprocal multiply — the re-associated kernel
/// family, ≤1e-6 relative vs the oracle. Otherwise: the original
/// sequential max / `exp` / divide, preserving the oracle's bits.
pub fn softmax_slice<T: Scalar>(row: &mut [T]) {
    if row.is_empty() {
        return;
    }
    let m = if micro::wide() {
        micro::max_wide(row)
    } else {
        row.iter()
            .copied()
            .fold(T::neg_infinity(), |a, b| Scalar::max(a, b))
    };
    softmax_slice_with_max(row, m);
}

/// [`softmax_slice`] with the row maximum supplied by the caller. The
/// fused sweep tracks the maximum inside its score loop (the value is
/// already in a register when the score is stored); IEEE `max` is exact
/// in any association, so a sequentially tracked maximum is bit-identical
/// to the [`micro::max_wide`] / sequential-fold pass it replaces.
///
/// Returns the normaliser the row was finished with — `1/Σ` in wide mode,
/// `Σ` otherwise (zero for an empty row): every entry `s` became what
/// `softmax_finish` makes of `s − m` and `norm` on this path.
pub fn softmax_slice_with_max<T: Scalar>(row: &mut [T], m: T) -> T {
    if row.is_empty() {
        return T::zero();
    }
    if micro::wide() {
        let inv = T::one() / exp_sum_wide(row, m);
        for v in row.iter_mut() {
            *v *= inv;
        }
        inv
    } else {
        let mut total = T::zero();
        for v in row.iter_mut() {
            *v = (*v - m).exp();
            total += *v;
        }
        for v in row.iter_mut() {
            *v /= total;
        }
        total
    }
}

/// Softmax entries from their max-shifted scores `s − m` and their rows'
/// normalisers, in place: `exp_fast(s − m)·(1/Σ)` on the wide path,
/// `exp(s − m)/Σ` otherwise — per element the op sequence of
/// [`softmax_slice_with_max`] and of the fused sweep's blocked-flat
/// schedule. A backward pass that kept the row max and the normaliser
/// recomputes `Ψ` with it, bit for bit, instead of storing it.
///
/// `norms` pairs with `shifted` (a repeated row normaliser, or one
/// gathered per entry). `wide` is tested once, outside a plain loop the
/// exponential vectorizes in — the forward's flat `exp` pass argument.
#[inline(always)]
pub(crate) fn softmax_finish<T: Scalar>(
    wide: bool,
    shifted: &mut [T],
    norms: impl IntoIterator<Item = T>,
) {
    let entries = shifted.iter_mut().zip(norms);
    if wide {
        for (x, n) in entries {
            *x = x.exp_fast() * n;
        }
    } else {
        for (x, n) in entries {
            *x = x.exp() / n;
        }
    }
}

/// Wide-path middle passes: `row[i] = exp_fast(row[i] - m)` in place,
/// returning the [`micro::sum_wide`] lane-tree sum. Two simple sweeps —
/// the plain exponentiation loop autovectorizes where an interleaved
/// store-and-accumulate body does not, and each element's exponential is
/// rounded before any accumulation either way, so the split changes no
/// bits relative to a fused traversal.
fn exp_sum_wide<T: Scalar>(row: &mut [T], m: T) -> T {
    for v in row.iter_mut() {
        *v = (*v - m).exp_fast();
    }
    micro::sum_wide(row)
}

/// The graph softmax `sm(X) = exp(X) ⊘ rs_n(exp(X))` of Section 4.2,
/// applied over each vertex neighborhood (each stored row), with the usual
/// row-max shift for numerical stability. Rows without stored entries are
/// left empty. The `n×n` replication `rs_n` is *virtual*: only the row-sum
/// vector exists.
pub fn row_softmax<T: Scalar>(x: &Csr<T>) -> Csr<T> {
    let mut out = x.clone();
    row_softmax_inplace(&mut out);
    out
}

/// In-place variant of [`row_softmax`].
pub fn row_softmax_inplace<T: Scalar>(x: &mut Csr<T>) {
    let indptr = x.indptr().to_vec();
    let nnz = x.nnz();
    let values = x.values_mut();
    let parallel = nnz >= PAR_THRESHOLD;
    let slots = DisjointSlice::new(values);
    rt::parallel_for(
        indptr.len() - 1,
        Cost::Prefix(&indptr),
        parallel,
        |lo, hi| {
            // SAFETY: row ranges map to disjoint value ranges via indptr.
            let part = unsafe { slots.range_mut(indptr[lo], indptr[hi]) };
            let base = indptr[lo];
            for r in lo..hi {
                softmax_slice(&mut part[indptr[r] - base..indptr[r + 1] - base]);
            }
        },
    );
}

/// Backward pass of the graph softmax: given `Ψ = sm(E)` and the upstream
/// gradient `D = ∂L/∂Ψ` (same pattern), returns
/// `∂L/∂E = Ψ ⊙ (D − rep(rowsum(Ψ ⊙ D)))` — the replicated row-dot vector
/// is virtual, applied per entry.
pub fn row_softmax_backward<T: Scalar>(psi: &Csr<T>, d: &Csr<T>) -> Csr<T> {
    assert!(psi.same_pattern(d), "softmax backward: pattern mismatch");
    let r = row_dots(psi, d);
    row_softmax_backward_with_dots(psi, d, &r)
}

/// [`row_softmax_backward`] with the row-dot vector supplied by the
/// caller: `∂L/∂E = Ψ ⊙ (D − rep(r))`. The distributed layers use this
/// with row dots assembled from per-rank partial reductions (the local
/// `rowsum(Ψ ⊙ D)` alone would be wrong on a 2D-partitioned block).
pub fn row_softmax_backward_with_dots<T: Scalar>(psi: &Csr<T>, d: &Csr<T>, r: &[T]) -> Csr<T> {
    assert!(psi.same_pattern(d), "softmax backward: pattern mismatch");
    assert_eq!(psi.rows(), r.len(), "softmax backward: row-dot length");
    let indptr = psi.indptr().to_vec();
    let dv = d.values();
    let mut out = psi.clone();
    let parallel = out.nnz() >= PAR_THRESHOLD;
    let slots = DisjointSlice::new(out.values_mut());
    rt::parallel_for(
        indptr.len() - 1,
        Cost::Prefix(&indptr),
        parallel,
        |lo, hi| {
            // SAFETY: row ranges map to disjoint value ranges via indptr.
            let part = unsafe { slots.range_mut(indptr[lo], indptr[hi]) };
            let base = indptr[lo];
            for row in lo..hi {
                let ri = r[row];
                for idx in indptr[row]..indptr[row + 1] {
                    part[idx - base] *= dv[idx] - ri;
                }
            }
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgnn_tensor::{blocks, Dense};

    fn pat() -> Csr<f64> {
        let coo = Coo::from_triplets(
            3,
            3,
            vec![(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        );
        Csr::from_coo(&coo)
    }

    #[test]
    fn hadamard_and_division_roundtrip() {
        let a = pat();
        let b = a.map_values(|v| v + 1.0);
        let h = hadamard(&a, &b);
        assert_eq!(h.get(0, 2), 6.0);
        let d = hadamard_div(&h, &b);
        assert!(d.to_dense().max_abs_diff(&a.to_dense()) < 1e-12);
    }

    #[test]
    fn add_same_pattern_adds() {
        let a = pat();
        let s = add_same_pattern(&a, &a);
        assert_eq!(s.get(2, 2), 10.0);
    }

    #[test]
    fn add_general_unions_patterns() {
        let a = Csr::from_coo(&Coo::from_triplets(2, 2, vec![(0, 1)], vec![1.0]));
        let b = Csr::from_coo(&Coo::from_triplets(
            2,
            2,
            vec![(1, 0), (0, 1)],
            vec![2.0, 3.0],
        ));
        let s = add_general(&a, &b);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.get(0, 1), 4.0);
        assert_eq!(s.get(1, 0), 2.0);
    }

    #[test]
    fn add_transpose_matches_dense() {
        let a = pat();
        let want = atgnn_tensor::ops::add(&a.to_dense(), &a.to_dense().transpose());
        assert!(add_transpose(&a).to_dense().max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn sums_and_dots() {
        let a = pat();
        assert_eq!(row_sums(&a), vec![3.0, 3.0, 9.0]);
        assert_eq!(col_sums(&a), vec![5.0, 3.0, 7.0]);
        let d = row_dots(&a, &a);
        assert_eq!(d, vec![5.0, 9.0, 41.0]);
    }

    #[test]
    fn diagonal_scalings() {
        let a = pat();
        let r = scale_rows(&a, &[1.0, 0.0, 2.0]);
        assert_eq!(r.get(1, 1), 0.0);
        assert_eq!(r.get(2, 0), 8.0);
        let c = scale_cols(&a, &[0.5, 1.0, 0.0]);
        assert_eq!(c.get(0, 0), 0.5);
        assert_eq!(c.get(0, 2), 0.0);
    }

    #[test]
    fn softmax_rows_sum_to_one_on_pattern() {
        let a = pat();
        let s = row_softmax(&a);
        let sums = row_sums(&s);
        for total in sums {
            assert!((total - 1.0).abs() < 1e-12);
        }
        // Entries stay on the pattern.
        assert!(s.same_pattern(&a));
    }

    #[test]
    fn sparse_softmax_matches_dense_softmax_on_full_rows() {
        // On a fully dense pattern the sparse graph softmax must equal the
        // dense row softmax.
        let n = 4;
        let dense_vals = Dense::from_fn(n, n, |i, j| ((i * n + j) % 5) as f64 - 2.0);
        let coo = Coo::from_triplets(
            n,
            n,
            (0..n as u32)
                .flat_map(|i| (0..n as u32).map(move |j| (i, j)))
                .collect(),
            dense_vals.as_slice().to_vec(),
        );
        let sp = Csr::from_coo(&coo);
        let want = blocks::softmax_rows(&dense_vals);
        assert!(row_softmax(&sp).to_dense().max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn softmax_stability_with_huge_scores() {
        let coo = Coo::from_triplets(1, 2, vec![(0, 0), (0, 1)], vec![1000.0f32, 998.0]);
        let s = row_softmax(&Csr::from_coo(&coo));
        assert!(s.values().iter().all(|v| v.is_finite()));
        assert!((row_sums(&s)[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        // d/dE of L = Σ c_ij sm(E)_ij checked against finite differences.
        let e0 = pat();
        let c = e0.map_values(|v| (v * 0.7).tanh());
        let loss = |e: &Csr<f64>| -> f64 { row_dots(&row_softmax(e), &c).iter().sum::<f64>() };
        let psi = row_softmax(&e0);
        let analytic = row_softmax_backward(&psi, &c);
        let eps = 1e-6;
        for idx in 0..e0.nnz() {
            let mut plus = e0.clone();
            plus.values_mut()[idx] += eps;
            let mut minus = e0.clone();
            minus.values_mut()[idx] -= eps;
            let fd = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert!(
                (fd - analytic.values()[idx]).abs() < 1e-6,
                "entry {idx}: fd={fd} analytic={}",
                analytic.values()[idx]
            );
        }
    }

    #[test]
    fn softmax_order_fact_tracks_kernel_mode() {
        // Read-only check (the mode switches are process-global): the
        // exported fact must mirror whichever kernel family is active.
        let want = if micro::wide() {
            ReductionOrder::LaneTree
        } else {
            ReductionOrder::RowSequential
        };
        assert_eq!(softmax_accumulation_order(), want);
    }

    #[test]
    fn softmax_slice_normalizes_awkward_lengths() {
        for n in [1usize, 3, 7, 8, 9, 31, 33] {
            let mut row: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.63 - 1.0).sin() * 3.0)
                .collect();
            softmax_slice(&mut row);
            let total: f64 = row.iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "n={n}: sum={total}");
            assert!(row.iter().all(|v| *v > 0.0 && v.is_finite()));
        }
        softmax_slice::<f64>(&mut []); // empty row is a no-op
    }

    #[test]
    fn empty_rows_survive_softmax() {
        let coo = Coo::from_triplets(3, 3, vec![(0, 0)], vec![2.0]);
        let s = row_softmax(&Csr::<f64>::from_coo(&coo));
        assert_eq!(s.nnz(), 1);
        assert_eq!(s.get(0, 0), 1.0);
    }
}
