//! Dense matrix products — the `MM` kernel of the paper's Table 2.
//!
//! GNN workloads multiply tall-skinny feature matrices (`n×k`, `k ≪ n`) by
//! small parameter matrices (`k×k`), so the kernels here parallelize over
//! row ranges on the [`crate::rt`] pool and keep the inner loops over `k`
//! contiguous. Four variants cover every transposition the forward and
//! backward passes need without ever materializing a transpose of a tall
//! matrix:
//!
//! * [`matmul`]        — `C = A · B`
//! * [`matmul_tn`]     — `C = Aᵀ · B` (e.g. `Y = Hᵀ (...) G` weight gradients)
//! * [`matmul_nt`]     — `C = A · Bᵀ` (e.g. `M = G Wᵀ`)
//! * [`matvec`] / [`matvec_t`] — matrix-vector products for the GAT
//!   attention vectors `u = H'a₁`.
//!
//! [`matmul`] and [`matmul_nt`] share one family of register-tile kernels
//! over a packed right-hand operand ([`Packed`]); [`matmul_tn`] needs no
//! packing and runs its own outer-product tile. The two tall-output
//! products have writing forms, [`matmul_into`] and [`matmul_nt_into`],
//! which a training step points at buffers it keeps across steps; the
//! allocating functions are those over a fresh zero matrix.

use crate::dense::Dense;
use crate::micro;
use crate::rt::{self, Cost, DisjointSlice, ReductionOrder};
use crate::scalar::Scalar;

/// Minimum number of result elements before a product is parallelized.
/// Below this, dispatch overhead outweighs the work.
const PAR_THRESHOLD: usize = 16 * 1024;

/// The accumulation-order fact of [`matmul`] and [`matmul_nt`], for the
/// plan-time determinism analysis: every output element is one
/// `kk`-ascending fold owned by one chunk, in every microkernel mode.
pub const FOLD_ORDER: ReductionOrder = ReductionOrder::RowSequential;

/// The accumulation-order fact of [`matmul_tn`]: `r`-ascending folds
/// inside the size-derived row blocks of [`tn_blocks`], partials merged
/// in ascending block order.
pub const TN_ORDER: ReductionOrder = ReductionOrder::FixedBlocks;

/// The column-panel width the tile kernels run at for an `n`-column
/// result of a `k`-long reduction, `None` for the plain loops. A function
/// of the environment and the problem size only, never the thread count.
/// The two widths share the kk-ascending per-element `mul_add` sequence,
/// so they are bit-identical; only the scalar oracle rounds differently.
fn panel_lane(n: usize, k: usize) -> Option<usize> {
    if k > 0 && micro::wide() && n >= micro::LANE {
        Some(micro::LANE)
    } else if k > 0 && micro::blocked() && n >= 4 {
        Some(4)
    } else {
        None
    }
}

/// A right-hand operand packed for the tile kernels: its full `lane`-wide
/// column panels k-major — `panels[jt][kk·lane + c]` is column
/// `lane·jt + c` at reduction step `kk` — then the `n % lane` leftover
/// columns, k-major too, in `tail`.
struct Packed<T> {
    panels: Vec<T>,
    tail: Vec<T>,
    k: usize,
    n: usize,
    lane: usize,
}

impl<T: Scalar> Packed<T> {
    /// Packs `n` columns of `k` steps; `fill(panel, j0, w)` writes
    /// columns `j0..j0 + w` k-major into `panel`.
    fn new(k: usize, n: usize, lane: usize, fill: impl Fn(&mut [T], usize, usize)) -> Self {
        let rem = n % lane;
        let mut panels = vec![T::zero(); k * (n - rem)];
        for (jt, panel) in panels.chunks_exact_mut(lane * k).enumerate() {
            fill(panel, lane * jt, lane);
        }
        let mut tail = vec![T::zero(); k * rem];
        if rem > 0 {
            fill(&mut tail, n - rem, rem);
        }
        Self {
            panels,
            tail,
            k,
            n,
            lane,
        }
    }

    /// The columns of `B` ([`matmul`]).
    fn of(b: &Dense<T>, lane: usize) -> Self {
        Self::new(b.rows(), b.cols(), lane, |panel, j0, w| {
            for (kk, seg) in panel.chunks_exact_mut(w).enumerate() {
                seg.copy_from_slice(&b.row(kk)[j0..j0 + w]);
            }
        })
    }

    /// The columns of `Bᵀ` — the rows of `B`, read straight from `B`
    /// with no intermediate transpose ([`matmul_nt`]).
    fn of_transposed(b: &Dense<T>, lane: usize) -> Self {
        Self::new(b.cols(), b.rows(), lane, |panel, j0, w| {
            for c in 0..w {
                for (dst, &v) in panel.iter_mut().skip(c).step_by(w).zip(b.row(j0 + c)) {
                    *dst = v;
                }
            }
        })
    }
}

/// `C = A · B`, in `A`'s layout.
///
/// # Panics
/// Panics if `A.cols() != B.rows()`.
pub fn matmul<T: Scalar>(a: &Dense<T>, b: &Dense<T>) -> Dense<T> {
    let mut out = a.zeros_matching(a.rows(), b.cols());
    matmul_into(a, b, &mut out);
    out
}

/// [`matmul`] into `out`, an `A.rows() × B.cols()` matrix of any layout
/// whose padding tails are left as they are. The tile kernels store every
/// logical element; the plain loop accumulates, so it runs over a
/// zero-filled `out`.
///
/// # Panics
/// Panics if `A.cols() != B.rows()` or `out` has the wrong shape.
pub fn matmul_into<T: Scalar>(a: &Dense<T>, b: &Dense<T>, out: &mut Dense<T>) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dimensions differ ({}x{} * {}x{})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (k, n) = b.shape();
    assert_eq!(out.shape(), (a.rows(), n), "matmul: output shape mismatch");
    if let Some(lane) = panel_lane(n, k) {
        return matmul_tiled(a, &Packed::of(b, lane), out);
    }
    out.zero_fill();
    plain_rows(out, |i, row_out| {
        // i-k-j loop order: the inner j loop streams over a contiguous
        // row of B and of the output, which LLVM auto-vectorizes.
        for (kk, &aik) in a.row(i).iter().enumerate() {
            for (o, &bv) in row_out.iter_mut().zip(b.row(kk)) {
                *o += aik * bv;
            }
        }
    })
}

/// Runs a plain loop over the rows of `out`: `body(i, row)` fills
/// logical row `i`.
fn plain_rows<T: Scalar>(out: &mut Dense<T>, body: impl Fn(usize, &mut [T]) + Sync) {
    let (m, n) = out.shape();
    let out_stride = out.stride();
    let slots = DisjointSlice::new(out.as_mut_slice());
    let parallel = m * n >= PAR_THRESHOLD;
    rt::parallel_for(m, Cost::Uniform, parallel, |lo, hi| {
        // SAFETY: row ranges are disjoint across chunk bodies.
        let rows_out = unsafe { slots.range_mut(lo * out_stride, hi * out_stride) };
        for (i, row_full) in (lo..hi).zip(rows_out.chunks_mut(out_stride.max(1))) {
            body(i, &mut row_full[..n]);
        }
    });
}

/// `A` times a packed operand, four rows at a time. At [`micro::LANE`]
/// width a 4×8 register tile accumulates with one [`micro::fma_splat`]
/// vector op per `(row, kk)` pair; at width 4 a 4×4 tile does the same in
/// scalars.
///
/// The FP sequence of each output element is a function of its row and
/// column alone — the quad/single and panel/tail kernels of both widths
/// all use the same kk-ascending `mul_add` order — so the chunk
/// boundaries handed out by [`rt::parallel_for`] (which depend on the
/// thread count) never change results.
fn matmul_tiled<T: Scalar>(a: &Dense<T>, p: &Packed<T>, out: &mut Dense<T>) {
    let (m, n) = (a.rows(), p.n);
    let wide = p.lane == micro::LANE;
    let out_stride = out.stride();
    let slots = DisjointSlice::new(out.as_mut_slice());
    let parallel = m * n >= PAR_THRESHOLD;
    rt::parallel_for(m, Cost::Uniform, parallel, |lo, hi| {
        // SAFETY: row ranges are disjoint across chunk bodies.
        let rows_out = unsafe { slots.range_mut(lo * out_stride, hi * out_stride) };
        let mut quads = rows_out.chunks_exact_mut(4 * out_stride);
        let mut i = lo;
        for quad in &mut quads {
            let (r0, rest) = quad.split_at_mut(out_stride);
            let (r1, rest) = rest.split_at_mut(out_stride);
            let (r2, r3) = rest.split_at_mut(out_stride);
            let ar = [a.row(i), a.row(i + 1), a.row(i + 2), a.row(i + 3)];
            let or = [&mut r0[..n], &mut r1[..n], &mut r2[..n], &mut r3[..n]];
            if wide {
                row_quad_wide(ar, or, p);
            } else {
                row_quad(ar, or, p);
            }
            i += 4;
        }
        for row_full in quads.into_remainder().chunks_mut(out_stride) {
            if wide {
                row_single_wide(a.row(i), &mut row_full[..n], p);
            } else {
                row_single(a.row(i), &mut row_full[..n], p);
            }
            i += 1;
        }
    });
}

/// 4×[`micro::LANE`] register tile: four lane-array accumulators, one
/// broadcast-fma per `(row, kk)`, kk-ascending.
fn row_quad_wide<T: Scalar>(ar: [&[T]; 4], out: [&mut [T]; 4], p: &Packed<T>) {
    const LANE: usize = micro::LANE;
    let [o0, o1, o2, o3] = out;
    for (jt, panel) in p.panels.chunks_exact(LANE * p.k).enumerate() {
        let j = LANE * jt;
        let mut acc = [[T::zero(); LANE]; 4];
        for ((((q, &a0), &a1), &a2), &a3) in panel
            .chunks_exact(LANE)
            .zip(ar[0])
            .zip(ar[1])
            .zip(ar[2])
            .zip(ar[3])
        {
            acc[0] = micro::fma_splat(acc[0], a0, q);
            acc[1] = micro::fma_splat(acc[1], a1, q);
            acc[2] = micro::fma_splat(acc[2], a2, q);
            acc[3] = micro::fma_splat(acc[3], a3, q);
        }
        o0[j..j + LANE].copy_from_slice(&acc[0]);
        o1[j..j + LANE].copy_from_slice(&acc[1]);
        o2[j..j + LANE].copy_from_slice(&acc[2]);
        o3[j..j + LANE].copy_from_slice(&acc[3]);
    }
    quad_tail(ar, [o0, o1, o2, o3], p);
}

/// 4×4 register tile: 16 accumulators, kk-ascending `mul_add`.
fn row_quad<T: Scalar>(ar: [&[T]; 4], out: [&mut [T]; 4], p: &Packed<T>) {
    let [o0, o1, o2, o3] = out;
    for (jt, panel) in p.panels.chunks_exact(4 * p.k).enumerate() {
        let j = 4 * jt;
        let mut acc = [T::zero(); 16];
        for ((((q, &a0), &a1), &a2), &a3) in panel
            .chunks_exact(4)
            .zip(ar[0])
            .zip(ar[1])
            .zip(ar[2])
            .zip(ar[3])
        {
            for (c, &bv) in q.iter().enumerate() {
                acc[c] = a0.mul_add(bv, acc[c]);
                acc[4 + c] = a1.mul_add(bv, acc[4 + c]);
                acc[8 + c] = a2.mul_add(bv, acc[8 + c]);
                acc[12 + c] = a3.mul_add(bv, acc[12 + c]);
            }
        }
        o0[j..j + 4].copy_from_slice(&acc[0..4]);
        o1[j..j + 4].copy_from_slice(&acc[4..8]);
        o2[j..j + 4].copy_from_slice(&acc[8..12]);
        o3[j..j + 4].copy_from_slice(&acc[12..16]);
    }
    quad_tail(ar, [o0, o1, o2, o3], p);
}

/// The leftover columns of a row quad: down the packed tail, still
/// kk-ascending per element.
fn quad_tail<T: Scalar>(ar: [&[T]; 4], out: [&mut [T]; 4], p: &Packed<T>) {
    let rem = p.n % p.lane;
    let [o0, o1, o2, o3] = out;
    for (c, j) in (p.n - rem..p.n).enumerate() {
        let mut acc = [T::zero(); 4];
        for ((((&bv, &a0), &a1), &a2), &a3) in p.tail[c..]
            .iter()
            .step_by(rem)
            .zip(ar[0])
            .zip(ar[1])
            .zip(ar[2])
            .zip(ar[3])
        {
            acc[0] = a0.mul_add(bv, acc[0]);
            acc[1] = a1.mul_add(bv, acc[1]);
            acc[2] = a2.mul_add(bv, acc[2]);
            acc[3] = a3.mul_add(bv, acc[3]);
        }
        o0[j] = acc[0];
        o1[j] = acc[1];
        o2[j] = acc[2];
        o3[j] = acc[3];
    }
}

/// 1×[`micro::LANE`] tile for leftover rows — same kk-ascending FP order.
fn row_single_wide<T: Scalar>(arow: &[T], out: &mut [T], p: &Packed<T>) {
    const LANE: usize = micro::LANE;
    for (jt, panel) in p.panels.chunks_exact(LANE * p.k).enumerate() {
        let mut acc = [T::zero(); LANE];
        for (q, &av) in panel.chunks_exact(LANE).zip(arow) {
            acc = micro::fma_splat(acc, av, q);
        }
        out[LANE * jt..LANE * jt + LANE].copy_from_slice(&acc);
    }
    single_tail(arow, out, p);
}

/// 1×4 tile for leftover rows — same kk-ascending FP order as [`row_quad`].
fn row_single<T: Scalar>(arow: &[T], out: &mut [T], p: &Packed<T>) {
    for (jt, panel) in p.panels.chunks_exact(4 * p.k).enumerate() {
        let mut acc = [T::zero(); 4];
        for (q, &av) in panel.chunks_exact(4).zip(arow) {
            for (c, &bv) in q.iter().enumerate() {
                acc[c] = av.mul_add(bv, acc[c]);
            }
        }
        out[4 * jt..4 * jt + 4].copy_from_slice(&acc);
    }
    single_tail(arow, out, p);
}

/// The leftover columns of a leftover row.
fn single_tail<T: Scalar>(arow: &[T], out: &mut [T], p: &Packed<T>) {
    let rem = p.n % p.lane;
    for (c, o) in out[p.n - rem..].iter_mut().enumerate() {
        let mut acc = T::zero();
        for (&bv, &av) in p.tail[c..].iter().step_by(rem).zip(arow) {
            acc = av.mul_add(bv, acc);
        }
        *o = acc;
    }
}

/// Rows per cache block of the [`matmul_tn`] tile loop: a block of `A`
/// and of `B` at `k = 64` is 256 KB each, so the 64 tile passes over it
/// stream from L2.
const TN_BLOCK_ROWS: usize = 1024;

/// Upper bound on [`matmul_tn`]'s partial products (`k × j` each).
const TN_MAX_BLOCKS: usize = 64;

/// The row grid of [`matmul_tn`] — boundaries of the blocks whose partial
/// products are merged in ascending order. Derived from `n` alone, so the
/// result is independent of the thread count.
pub fn tn_blocks(n: usize) -> Vec<usize> {
    rt::fixed_chunks(n, TN_BLOCK_ROWS, TN_MAX_BLOCKS)
}

/// `C = Aᵀ · B` without materializing `Aᵀ`.
///
/// This is the weight-gradient pattern `Y = Hᵀ(...)`: `A` is tall (`n×k`),
/// `B` is tall (`n×j`), and the result is small (`k×j`). For a fixed row
/// `r`, `A[r][kt..]` and `B[r][jt..]` are already contiguous, so the
/// outer-product form needs no packing. Each block of [`tn_blocks`]
/// accumulates its own `k × j` partial `r`-ascending, one `mul_add` per
/// step; the partials are merged in ascending block order.
///
/// # Panics
/// Panics if `A.rows() != B.rows()`.
pub fn matmul_tn<T: Scalar>(a: &Dense<T>, b: &Dense<T>) -> Dense<T> {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_tn: row counts differ ({} vs {})",
        a.rows(),
        b.rows()
    );
    let (n, k) = a.shape();
    let j = b.cols();
    if k == 0 || j == 0 {
        return Dense::zeros(k, j);
    }
    let bounds = tn_blocks(n);
    let blocks = bounds.len() - 1;
    // Block `c` owns rows `c·k..(c+1)·k` of the partials matrix.
    let mut partials = Dense::zeros(blocks * k, j);
    let stride = partials.stride();
    let slots = DisjointSlice::new(partials.as_mut_slice());
    let parallel = n * k * j >= PAR_THRESHOLD * 8;
    rt::parallel_for(blocks, Cost::Uniform, parallel, |lo, hi| {
        for c in lo..hi {
            // SAFETY: block row ranges are disjoint across chunk bodies.
            let part = unsafe { slots.range_mut(c * k * stride, (c + 1) * k * stride) };
            for r0 in (bounds[c]..bounds[c + 1]).step_by(TN_BLOCK_ROWS) {
                tn_accumulate(a, b, r0, bounds[c + 1].min(r0 + TN_BLOCK_ROWS), part);
            }
        }
    });
    let mut data = partials.into_vec();
    let (first, rest) = data.split_at_mut(k * j);
    for part in rest.chunks_exact(k * j) {
        for (o, &v) in first.iter_mut().zip(part) {
            *o += v;
        }
    }
    data.truncate(k * j);
    Dense::from_vec(k, j, data)
}

/// `out += A[lo..hi]ᵀ · B[lo..hi]` on a tight `k × j` slice. Under the
/// blocked microkernels the 4-row × 16-column tiles run on eight
/// [`micro::LANE`]-wide register accumulators (two loads and four
/// broadcasts per eight [`micro::fma_splat`]s) and [`micro::axpy`] covers
/// the ragged `k % 4` / `j % 16` edges; the scalar oracle runs every
/// element through its plain `axpy`. Both orders are `r`-ascending per
/// element.
fn tn_accumulate<T: Scalar>(a: &Dense<T>, b: &Dense<T>, lo: usize, hi: usize, out: &mut [T]) {
    const LANE: usize = micro::LANE;
    let (k, j) = (a.cols(), b.cols());
    let (k4, j16) = if micro::blocked() {
        (k - k % 4, j - j % (2 * LANE))
    } else {
        (0, 0)
    };
    for (kt, quad) in out[..k4 * j].chunks_exact_mut(4 * j).enumerate() {
        let (q0, rest) = quad.split_at_mut(j);
        let (q1, rest) = rest.split_at_mut(j);
        let (q2, q3) = rest.split_at_mut(j);
        let mut rows = [q0, q1, q2, q3];
        for jt in (0..j16).step_by(2 * LANE) {
            let (mid, end) = (jt + LANE, jt + 2 * LANE);
            let mut acc = [[[T::zero(); LANE]; 2]; 4];
            for (t, row) in acc.iter_mut().zip(&rows) {
                t[0].copy_from_slice(&row[jt..mid]);
                t[1].copy_from_slice(&row[mid..end]);
            }
            for r in lo..hi {
                let av = &a.row(r)[4 * kt..4 * kt + 4];
                let (b0, b1) = b.row(r)[jt..end].split_at(LANE);
                for (t, &x) in acc.iter_mut().zip(av) {
                    t[0] = micro::fma_splat(t[0], x, b0);
                    t[1] = micro::fma_splat(t[1], x, b1);
                }
            }
            for (row, t) in rows.iter_mut().zip(&acc) {
                row[jt..mid].copy_from_slice(&t[0]);
                row[mid..end].copy_from_slice(&t[1]);
            }
        }
    }
    if k4 == k && j16 == j {
        return;
    }
    for r in lo..hi {
        let (arow, brow) = (a.row(r), b.row(r));
        for (kk, (orow, &av)) in out.chunks_exact_mut(j).zip(arow).enumerate() {
            let from = if kk < k4 { j16 } else { 0 };
            micro::axpy(&mut orow[from..], av, &brow[from..]);
        }
    }
}

/// `C = A · Bᵀ` without materializing `Bᵀ`.
///
/// This is the pattern `M = G Wᵀ` (tall × smallᵀ) and also the dot-product
/// score pattern `H Hᵀ` restricted to dense output. The tile kernels of
/// [`matmul`] run over `Bᵀ`'s column panels packed straight from `B`'s
/// rows, so the result is bit-identical to `matmul(A, Bᵀ)`: every element
/// accumulates kk-ascending.
///
/// # Panics
/// Panics if `A.cols() != B.cols()`.
pub fn matmul_nt<T: Scalar>(a: &Dense<T>, b: &Dense<T>) -> Dense<T> {
    let mut out = a.zeros_matching(a.rows(), b.rows());
    matmul_nt_into(a, b, &mut out);
    out
}

/// [`matmul_nt`] into `out`, an `A.rows() × B.rows()` matrix of any
/// layout whose padding tails are left as they are. Both kernels store
/// every logical element, so `out` needs no zero-fill.
///
/// # Panics
/// Panics if `A.cols() != B.cols()` or `out` has the wrong shape.
pub fn matmul_nt_into<T: Scalar>(a: &Dense<T>, b: &Dense<T>, out: &mut Dense<T>) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_nt: column counts differ ({} vs {})",
        a.cols(),
        b.cols()
    );
    let (n, k) = b.shape();
    assert_eq!(
        out.shape(),
        (a.rows(), n),
        "matmul_nt: output shape mismatch"
    );
    if let Some(lane) = panel_lane(n, k) {
        return matmul_tiled(a, &Packed::of_transposed(b, lane), out);
    }
    plain_rows(out, |i, row_out| {
        // One ascending multiply-then-add fold per element: the
        // sequence of `matmul`'s plain loop.
        for (jj, o) in row_out.iter_mut().enumerate() {
            *o = micro::dot_scalar(a.row(i), b.row(jj));
        }
    })
}

/// `y = A · x` (matrix-vector product).
///
/// # Panics
/// Panics if `A.cols() != x.len()`.
pub fn matvec<T: Scalar>(a: &Dense<T>, x: &[T]) -> Vec<T> {
    assert_eq!(a.cols(), x.len(), "matvec: dimension mismatch");
    (0..a.rows()).map(|i| dot(a.row(i), x)).collect()
}

/// `y = Aᵀ · x` without materializing `Aᵀ`.
///
/// # Panics
/// Panics if `A.rows() != x.len()`.
pub fn matvec_t<T: Scalar>(a: &Dense<T>, x: &[T]) -> Vec<T> {
    assert_eq!(a.rows(), x.len(), "matvec_t: dimension mismatch");
    let mut y = vec![T::zero(); a.cols()];
    for (i, &xv) in x.iter().enumerate() {
        micro::axpy(&mut y, xv, a.row(i));
    }
    y
}

/// Dot product of two equal-length slices, dispatching on the active
/// microkernel mode (see [`crate::micro`]).
#[inline]
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    micro::dot(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive<T: Scalar>(a: &Dense<T>, b: &Dense<T>) -> Dense<T> {
        let mut c = Dense::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                for k in 0..a.cols() {
                    let v = a[(i, k)] * b[(k, j)];
                    c[(i, j)] += v;
                }
            }
        }
        c
    }

    fn arb(rows: usize, cols: usize, seed: u64) -> Dense<f64> {
        // Small deterministic pseudo-random fill without pulling rand in.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Dense::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 500.0 - 1.0
        })
    }

    #[test]
    fn matmul_matches_naive() {
        let a = arb(7, 5, 1);
        let b = arb(5, 9, 2);
        assert!(matmul(&a, &b).max_abs_diff(&naive(&a, &b)) < 1e-12);
    }

    #[test]
    fn matmul_large_parallel_path() {
        let a = arb(300, 80, 3);
        let b = arb(80, 120, 4);
        assert!(matmul(&a, &b).max_abs_diff(&naive(&a, &b)) < 1e-10);
    }

    #[test]
    fn matmul_tn_matches_transpose() {
        let a = arb(11, 4, 5);
        let b = arb(11, 6, 6);
        let expect = naive(&a.transpose(), &b);
        assert!(matmul_tn(&a, &b).max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn matmul_tn_parallel_path() {
        let a = arb(5000, 16, 7);
        let b = arb(5000, 16, 8);
        let expect = naive(&a.transpose(), &b);
        assert!(matmul_tn(&a, &b).max_abs_diff(&expect) < 1e-9);
    }

    #[test]
    fn matmul_nt_matches_transpose() {
        let a = arb(8, 5, 9);
        let b = arb(10, 5, 10);
        let expect = naive(&a, &b.transpose());
        assert!(matmul_nt(&a, &b).max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn matvec_agrees_with_matmul() {
        let a = arb(6, 4, 11);
        let x: Vec<f64> = (0..4).map(|i| i as f64 + 0.5).collect();
        let xm = Dense::from_vec(4, 1, x.clone());
        let want = matmul(&a, &xm);
        let got = matvec(&a, &x);
        for i in 0..6 {
            assert!((got[i] - want[(i, 0)]).abs() < 1e-12);
        }
    }

    #[test]
    fn matvec_t_agrees_with_transpose() {
        let a = arb(6, 4, 12);
        let x: Vec<f64> = (0..6).map(|i| i as f64 - 2.0).collect();
        let got = matvec_t(&a, &x);
        let want = matvec(&a.transpose(), &x);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn wide_and_blocked_matmul_are_bit_identical() {
        // Direct kernel calls — no global mode flip needed. Both kernels
        // accumulate every element kk-ascending with one mul_add per step.
        for (m, k, n) in [(7, 5, 9), (13, 8, 16), (4, 3, 12), (1, 9, 24)] {
            let a = arb(m, k, 21);
            let b = arb(k, n, 22);
            let mut w = Dense::zeros(m, n);
            matmul_tiled(&a, &Packed::of(&b, micro::LANE), &mut w);
            let mut bl = Dense::zeros(m, n);
            matmul_tiled(&a, &Packed::of(&b, 4), &mut bl);
            assert_eq!(w.max_abs_diff(&bl), 0.0, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn padded_operands_give_padded_bit_identical_results() {
        let a = arb(9, 6, 23);
        let b = arb(6, 10, 24);
        let tight = matmul(&a, &b);
        let pad = matmul(&a.padded(), &b);
        assert!(pad.is_padded() && pad.padding_is_zero());
        assert_eq!(pad.max_abs_diff(&tight), 0.0);
        let nt = matmul_nt(&a.padded(), &b.transpose().padded());
        assert_eq!(nt.max_abs_diff(&matmul_nt(&a, &b.transpose())), 0.0);
    }

    #[test]
    fn writing_forms_overwrite_stale_outputs_bitwise() {
        // Both panel widths, the plain loops (n < 4), tight and padded
        // outputs holding garbage.
        for (m, k, n) in [(9, 6, 10), (13, 8, 16), (5, 7, 3), (1, 9, 24)] {
            let a = arb(m, k, 31);
            let b = arb(k, n, 32);
            let bt = b.transpose();
            for stale in [Dense::filled(m, n, 7.5), Dense::filled(m, n, -3.0).padded()] {
                let mut out = stale.clone();
                matmul_into(&a, &b, &mut out);
                assert_eq!(out.max_abs_diff(&matmul(&a, &b)), 0.0, "{m}x{k}x{n}");
                let mut out = stale;
                matmul_nt_into(&a, &bt, &mut out);
                assert_eq!(out.max_abs_diff(&matmul_nt(&a, &bt)), 0.0, "nt {m}x{k}x{n}");
                assert!(out.padding_is_zero());
            }
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = arb(5, 5, 13);
        let id = Dense::<f64>::identity(5);
        assert!(matmul(&a, &id).max_abs_diff(&a) < 1e-15);
        assert!(matmul(&id, &a).max_abs_diff(&a) < 1e-15);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_rejects_mismatch() {
        let a = Dense::<f64>::zeros(2, 3);
        let b = Dense::<f64>::zeros(2, 3);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn empty_matrices() {
        let a = Dense::<f64>::zeros(0, 3);
        let b = Dense::<f64>::zeros(3, 4);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (0, 4));
    }
}
