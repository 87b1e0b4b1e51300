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
//!   attention vectors `u = H'a₁`, and [`matvec_pair`] for `u` and `v`
//!   in one pass.
//!
//! [`matmul`] and [`matmul_nt`] share one family of register-tile kernels
//! over a packed right-hand operand ([`Packed`]); [`matmul_tn`] needs no
//! packing and runs its own outer-product tile. The two tall-output
//! products have writing forms, [`matmul_into`] and [`matmul_nt_into`],
//! which a training step points at buffers it keeps across steps; the
//! allocating functions are those over a fresh zero matrix.
//!
//! The wide tiles run the generic `[T; LANE]` lane body, not
//! [`Scalar::Lanes`] as the dots do. Their accumulators are independent
//! full vectors, which the autovectorizer lifts well on its own: on
//! AVX-512 hosts (`target-cpu=native` with `-prefer-256-bit`) it fuses a
//! 16-column panel pair into one 512-bit FMA per row, which the 8-lane
//! explicit body cannot beat. In the `simd` bench (`n = 2¹⁵`, `k = 64`,
//! 1 and 2 threads) the explicit body ran at 0.85–1.1× the generic one
//! on `matmul_into` and `matmul_tn`, so the products keep the generic
//! body; `*_lanes` entries run either.

use crate::dense::Dense;
use crate::micro::{self, Lanes, LANE};
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
    if k > 0 && micro::wide() && n >= LANE {
        Some(LANE)
    } else if k > 0 && micro::wide() && n >= 4 {
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
    matmul_into_lanes::<T, [T; LANE]>(a, b, out);
}

/// [`matmul_into`] with the wide tiles on the lane body `L` — the same
/// bits for every `L` ([`micro::Lanes`]). The products run the generic
/// `[T; LANE]` body (see the module docs); tests and the `simd` bench
/// run the explicit one here.
pub fn matmul_into_lanes<T: Scalar, L: Lanes<T>>(a: &Dense<T>, b: &Dense<T>, out: &mut Dense<T>) {
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
        return matmul_tiled::<T, L>(a, &Packed::of(b, lane), out);
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

/// `A` times a packed operand, four rows at a time. At [`LANE`] width
/// the register tiles of [`rows_wide`] accumulate on the lane body `L`;
/// at width 4 a 4×4 tile runs in scalars.
///
/// The FP sequence of each output element is a function of its row and
/// column alone — every tile and the leftover columns use the same
/// kk-ascending `mul_add` order from zero — so the chunk boundaries
/// handed out by [`rt::parallel_for`] (which depend on the thread count)
/// never change results.
fn matmul_tiled<T: Scalar, L: Lanes<T>>(a: &Dense<T>, p: &Packed<T>, out: &mut Dense<T>) {
    let (m, n) = (a.rows(), p.n);
    let wide = p.lane == LANE;
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
            let mut or = [&mut r0[..n], &mut r1[..n], &mut r2[..n], &mut r3[..n]];
            if wide {
                rows_wide::<T, L, 4>(ar, &mut or, p);
            } else {
                row_quad(ar, &mut or, p);
            }
            tile_tail(ar, &mut or, p);
            i += 4;
        }
        for row_full in quads.into_remainder().chunks_mut(out_stride) {
            let ar = [a.row(i)];
            let mut or = [&mut row_full[..n]];
            if wide {
                rows_wide::<T, L, 1>(ar, &mut or, p);
            } else {
                row_single(a.row(i), or[0], p);
            }
            tile_tail(ar, &mut or, p);
            i += 1;
        }
    });
}

/// The full [`LANE`]-wide panels of `R` rows: `R` × 2·[`LANE`] tiles
/// over pairs of adjacent panels (at `R = 4`, eight lane accumulators,
/// which keep both FMA ports busy), then an `R` × [`LANE`] tile over an
/// odd last panel.
fn rows_wide<T: Scalar, L: Lanes<T>, const R: usize>(
    ar: [&[T]; R],
    out: &mut [&mut [T]; R],
    p: &Packed<T>,
) {
    let w = LANE * p.k;
    let mut pairs = p.panels.chunks_exact(2 * w);
    for (jt, pair) in (&mut pairs).enumerate() {
        let (p0, p1) = pair.split_at(w);
        tile::<T, L, R, 2>(ar, out, [p0, p1], 2 * LANE * jt);
    }
    let last = pairs.remainder();
    if !last.is_empty() {
        tile::<T, L, R, 1>(ar, out, [last], p.panels.len() / p.k - LANE);
    }
}

/// One `R` × `W`·[`LANE`] register tile over `W` adjacent packed panels,
/// storing columns `j..j + W·LANE`: `R·W` lane accumulators, one
/// broadcast per `(row, kk)` feeding `W` fmas, kk-ascending from zero.
#[inline(always)]
fn tile<T: Scalar, L: Lanes<T>, const R: usize, const W: usize>(
    ar: [&[T]; R],
    out: &mut [&mut [T]; R],
    panels: [&[T]; W],
    j: usize,
) {
    let k = panels[0].len() / LANE;
    let ar = ar.map(|r| &r[..k]);
    let q = panels.map(|pn| &pn.as_chunks::<LANE>().0[..k]);
    let mut acc = [[L::zero(); W]; R];
    for kk in 0..k {
        for (t, r) in acc.iter_mut().zip(ar) {
            for (l, qw) in t.iter_mut().zip(q) {
                *l = l.fma_splat(r[kk], &qw[kk]);
            }
        }
    }
    for (o, t) in out.iter_mut().zip(acc) {
        let (cols, _) = o[j..j + W * LANE].as_chunks_mut::<LANE>();
        for (c, l) in cols.iter_mut().zip(t) {
            l.store(c);
        }
    }
}

/// 4×4 register tile: 16 accumulators, kk-ascending `mul_add`.
fn row_quad<T: Scalar>(ar: [&[T]; 4], out: &mut [&mut [T]; 4], p: &Packed<T>) {
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
        for (o, t) in out.iter_mut().zip(acc.chunks_exact(4)) {
            o[j..j + 4].copy_from_slice(t);
        }
    }
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
}

/// The `n % lane` leftover columns of `R` rows: down the packed tail,
/// still kk-ascending per element.
fn tile_tail<T: Scalar, const R: usize>(ar: [&[T]; R], out: &mut [&mut [T]; R], p: &Packed<T>) {
    let rem = p.n % p.lane;
    for (c, j) in (p.n - rem..p.n).enumerate() {
        let mut acc = [T::zero(); R];
        for (&bv, kk) in p.tail[c..].iter().step_by(rem).zip(0..p.k) {
            for (s, r) in acc.iter_mut().zip(ar) {
                *s = r[kk].mul_add(bv, *s);
            }
        }
        for (o, s) in out.iter_mut().zip(acc) {
            o[j] = s;
        }
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
    matmul_tn_lanes::<T, [T; LANE]>(a, b)
}

/// [`matmul_tn`] with the wide tiles on the lane body `L` — the same bits
/// for every `L` ([`micro::Lanes`]); see [`matmul_into_lanes`].
pub fn matmul_tn_lanes<T: Scalar, L: Lanes<T>>(a: &Dense<T>, b: &Dense<T>) -> Dense<T> {
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
                tn_accumulate::<T, L>(a, b, r0, bounds[c + 1].min(r0 + TN_BLOCK_ROWS), part);
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
/// wide microkernels the 4-row × 16-column tiles run on eight lane
/// accumulators of `L` (two loads and four broadcasts per eight
/// [`Lanes::fma_splat`]s) and [`micro::axpy`] covers the ragged
/// `k % 4` / `j % 16` edges; the scalar oracle runs every element through
/// its plain `axpy`. Both orders are `r`-ascending per element.
fn tn_accumulate<T: Scalar, L: Lanes<T>>(
    a: &Dense<T>,
    b: &Dense<T>,
    lo: usize,
    hi: usize,
    out: &mut [T],
) {
    let (k, j) = (a.cols(), b.cols());
    let (k4, j16) = if micro::wide() {
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
            let cols = jt..jt + 2 * LANE;
            let mut acc = [[L::zero(); 2]; 4];
            for (t, row) in acc.iter_mut().zip(&rows) {
                let (c, _) = row[cols.clone()].as_chunks::<LANE>();
                *t = [L::load(&c[0]), L::load(&c[1])];
            }
            for r in lo..hi {
                let av = &a.row(r)[4 * kt..4 * kt + 4];
                let (bc, _) = b.row(r)[cols.clone()].as_chunks::<LANE>();
                for (t, &x) in acc.iter_mut().zip(av) {
                    t[0] = t[0].fma_splat(x, &bc[0]);
                    t[1] = t[1].fma_splat(x, &bc[1]);
                }
            }
            for (row, t) in rows.iter_mut().zip(acc) {
                let (c, _) = row[cols.clone()].as_chunks_mut::<LANE>();
                t[0].store(&mut c[0]);
                t[1].store(&mut c[1]);
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
        return matmul_tiled::<T, [T; LANE]>(a, &Packed::of_transposed(b, lane), out);
    }
    plain_rows(out, |i, row_out| {
        // One ascending multiply-then-add fold per element: the
        // sequence of `matmul`'s plain loop.
        for (jj, o) in row_out.iter_mut().enumerate() {
            *o = micro::dot_scalar(a.row(i), b.row(jj));
        }
    })
}

/// `y = A · x` (matrix-vector product), parallel over row ranges. Each
/// `y[i]` is one [`dot`] of row `i` with `x`, whatever the chunking.
///
/// # Panics
/// Panics if `A.cols() != x.len()`.
pub fn matvec<T: Scalar>(a: &Dense<T>, x: &[T]) -> Vec<T> {
    assert_eq!(a.cols(), x.len(), "matvec: dimension mismatch");
    matvec_pair(a, 0, x, x).1
}

/// Rows per block of [`matvec_pair`]: 16 KB of `f32` rows at `k = 64`,
/// so the second dot of a row reads it from L1.
const MATVEC_BLOCK_ROWS: usize = 64;

/// `(A[..m] · x0, A · x1)` in one pass over `A`: row blocks small enough
/// for L1 take both dots of a row before the next block is read — the
/// GAT scores `u = H'a₁` of a row-prefix block's own rows and `v = H'a₂`
/// of all its sources. Each element is one [`dot`], four rows per
/// [`micro::dot4`] pass (`⟨x, r⟩` and `⟨r, x⟩` round alike), so the
/// results are those of two [`matvec`]s bit for bit.
///
/// # Panics
/// Panics if `m > A.rows()` or `x0`, `x1` are not `A.cols()` long.
pub fn matvec_pair<T: Scalar>(a: &Dense<T>, m: usize, x0: &[T], x1: &[T]) -> (Vec<T>, Vec<T>) {
    assert!(
        m <= a.rows() && x0.len() == a.cols() && x1.len() == a.cols(),
        "matvec_pair: dimension mismatch"
    );
    let mut y0 = vec![T::zero(); m];
    let mut y1 = vec![T::zero(); a.rows()];
    let (s0, s1) = (DisjointSlice::new(&mut y0), DisjointSlice::new(&mut y1));
    // Each dot is one result element, as each output element of the
    // GEMMs is: below the threshold the pool's dispatch costs more than
    // the dots (the served ego subgraphs).
    let parallel = m + a.rows() >= PAR_THRESHOLD;
    rt::parallel_for(a.rows(), Cost::Uniform, parallel, |lo, hi| {
        for b in (lo..hi).step_by(MATVEC_BLOCK_ROWS) {
            let e = hi.min(b + MATVEC_BLOCK_ROWS);
            // SAFETY: `[b, e)` lies in this chunk's row range, and the
            // chunks' row ranges are disjoint.
            row_dots(a, b, x1, unsafe { s1.range_mut(b, e) });
            if b < m {
                // SAFETY: as above, clipped to `y0`'s `m` rows.
                row_dots(a, b, x0, unsafe { s0.range_mut(b, e.min(m)) });
            }
        }
    });
    (y0, y1)
}

/// `y[r] = ⟨x, A[lo + r]⟩`, four rows per [`micro::dot4`].
fn row_dots<T: Scalar>(a: &Dense<T>, lo: usize, x: &[T], y: &mut [T]) {
    let mut quads = y.chunks_exact_mut(4);
    let mut i = lo;
    for q in &mut quads {
        q.copy_from_slice(&micro::dot4(
            x,
            [a.row(i), a.row(i + 1), a.row(i + 2), a.row(i + 3)],
        ));
        i += 4;
    }
    for (o, r) in quads.into_remainder().iter_mut().zip(i..) {
        *o = dot(x, a.row(r));
    }
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
            matmul_tiled::<f64, [f64; LANE]>(&a, &Packed::of(&b, LANE), &mut w);
            let mut bl = Dense::zeros(m, n);
            matmul_tiled::<f64, [f64; LANE]>(&a, &Packed::of(&b, 4), &mut bl);
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
