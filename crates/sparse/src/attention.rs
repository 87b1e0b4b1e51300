//! One-pass fused attention pipelines: SDDMM → softmax → SpMM in a single
//! CSR sweep (paper Section 6.2, pushed through the *whole* sandwich).
//!
//! The staged execution of an attentional layer runs three separate
//! traversals of the adjacency structure and allocates two intermediate
//! score matrices per layer:
//!
//! ```text
//!   staged:   E = A ⊙ s(H)      (SDDMM sweep, allocates E)
//!             Ψ = sm(E)         (softmax sweep, allocates Ψ)
//!             Z = Ψ H'          (SpMM sweep)
//! ```
//!
//! The fused kernels here collapse the sandwich into one sweep per
//! nnz-balanced row chunk of the `rt` pool — the FusedMM pattern:
//!
//! ```text
//!   row i:   indices[rlo..rhi] ──┬─► e_j = score(i, j)
//!            (one pass over the  │   (dot / cosine / u+v)
//!             stored entries)    │
//!                                ├─► p_j = exp(e_j − m) / Σ   (L1-resident row)
//!                                │
//!                                └─► z[i, t0..t1] += p_j · h'[j, t0..t1]
//!                                    (L1-sized feature tiles, auto_col_tile)
//! ```
//!
//! No intermediate score `Csr` is allocated on the hot path: the row of
//! scores lives in per-thread scratch (`rt::with_scratch`). GAT training
//! keeps `Ψ` virtual too: its forward records two floats per row
//! ([`RowStats`]: the row max and the softmax normaliser), and the
//! backward sweep and the transposed gather `Ψᵀ G` recompute
//! `Ψ_ij = finish(LeakyReLU(u_i + v_j) − m_i, norm_i)` bit for bit. Only
//! the callers that need `Ψ` as a matrix — the staged oracle, the
//! distributed blocks, and AGNN / VA training, whose scores cost a
//! `k`-wide dot per edge to recompute — have it written into a returned
//! cache buffer. The softmax *streams with the sweep*: because the graph softmax of
//! Section 4.2 reduces over a single CSR row, the whole normalization
//! finalizes on the L1-resident row buffer as soon as the row is scored
//! (max fold, exp + sum, divide) — one exp per stored entry, in the same
//! floating-point order as the staged [`masked::row_softmax`], and never
//! a second traversal of the adjacency structure. The aggregation
//! processes feature columns in tiles ([`auto_col_tile`] wide: whole lanes,
//! sized from the probed L1d) so a hot row of `H'` stays in cache across a
//! neighborhood, while the per-output-element accumulation order over
//! neighbors stays identical to [`crate::spmm::spmm`] — tile sizes change
//! only the outer loop, never the neighbor order, so results are
//! bit-identical across `ATGNN_THREADS` *and* tile widths.
//!
//! The staged kernels remain available behind [`AttentionExec::Staged`] as
//! the test oracle; layer code selects a path through an `ExecPlan` (in
//! `atgnn::plan`) rather than calling score kernels directly.

use crate::csr::Csr;
use crate::{fused, masked, sddmm, spmm};
use atgnn_tensor::rt::{self, Cost, DisjointSlice};
use atgnn_tensor::{blocks, gemm, micro, Activation, Dense, Scalar};
use std::borrow::Cow;
use std::ops::Range;

/// Stored entries below which the fused attention sweeps stay sequential.
const PAR_THRESHOLD: usize = 4 * 1024;

/// Stored entries per row block of the wide fused sweeps' blocked-flat
/// softmax schedule: the whole block's scores see one exponentiation
/// pass (so the vector loop's prologue/remainder cost amortizes over
/// hundreds of short neighborhood rows instead of recurring per row)
/// while the ~16 KiB run stays cache-resident across the score, exp,
/// and aggregation passes. Block boundaries never change results — the
/// per-element sequence is fixed per row.
const FLAT_BLOCK_EDGES: usize = 4 * 1024;

/// Derives the aggregation tile width — feature columns per tile — for
/// `k` feature columns of `bytes`-sized elements: whole [`micro::LANE`]
/// vectors, wide enough to cover `k` outright when it fits, capped so one
/// source-row slice (plus the output slice and score row it shares L1
/// with) uses at most a quarter of the measured L1d
/// ([`rt::l1d_cache_bytes`]), and never below one lane. Tile width never
/// changes results — the aggregation is elementwise per output element
/// (see [`aggregate_row`]).
pub fn auto_col_tile(k: usize, bytes: usize) -> usize {
    let budget = rt::l1d_cache_bytes() / 4 / bytes.max(1);
    let want = k.max(1).div_ceil(micro::LANE) * micro::LANE;
    let cap = (budget / micro::LANE * micro::LANE).max(micro::LANE);
    want.min(cap)
}

/// How an attentional layer executes its score→softmax→aggregate sandwich.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AttentionExec {
    /// One CSR sweep: scores, streaming softmax and aggregation fused
    /// (no intermediate score matrices on the hot path).
    #[default]
    FusedOnePass,
    /// Three sweeps with materialized intermediates — the reference
    /// pipeline, kept as the oracle for equivalence tests.
    Staged,
}

impl AttentionExec {
    /// Human-readable name used in diagnostics and reports.
    pub fn name(self) -> &'static str {
        match self {
            AttentionExec::FusedOnePass => "fused",
            AttentionExec::Staged => "staged",
        }
    }
}

/// Schedule fact for the fused sweep's aggregation: neighbors accumulate
/// in ascending CSR storage order per output element, identical to
/// [`crate::spmm::spmm`], and tile size only reorders the *outer* column
/// loop ([`aggregate_row`]'s axpy is elementwise). Consumed by the
/// plan-time determinism analysis.
pub const SWEEP_ORDER: rt::ReductionOrder = rt::ReductionOrder::RowSequential;

/// The result of one fused attention forward sweep.
pub struct FusedAttention<T: Scalar> {
    /// The aggregation `softmax(C) @ H'` (raw scores for VA, which has no
    /// softmax).
    pub out: Dense<T>,
    /// The attention matrix `Ψ`, materialized only when the caller asked
    /// for training caches.
    pub psi: Option<Csr<T>>,
    /// The model-specific secondary cache (AGNN cosines, GAT
    /// pre-activation scores), only with training caches.
    pub scores: Option<Csr<T>>,
}

/// Two floats per softmax row of a GAT forward — the row max `m_i` and
/// the normaliser the row was finished with — recorded by
/// [`attention_forward_gat_stats`] so that backward recomputes `Ψ` with
/// `masked::softmax_finish` instead of storing it.
#[derive(Clone, Debug)]
pub struct RowStats<T> {
    /// `[m_i, norm_i]` per row: `norm_i` is `1/Σ_i` on the wide path and
    /// `Σ_i` otherwise (empty rows hold no meaningful values).
    rows: Vec<[T; 2]>,
    /// Whether the rows were finished on the wide path.
    wide: bool,
}

/// Aggregates one output row: `out_row[t] += p_j · src[j, t]` for every
/// stored neighbor `j`, processing feature columns in `tile`-wide slices
/// so `src` rows are reused from cache across the neighborhood.
///
/// `out_row` may be a full-stride padded row; sources are sliced through
/// [`Dense::row_padded`] at the same offsets, so the padded pipeline
/// aggregates whole 8-lane vectors with no tail loop (tails stay `+0.0`:
/// `fma(p, 0, +0)` is `+0.0`). In wide mode neighbors go four per pass
/// through [`micro::axpy4`] — per element the exact rounding sequence of
/// sequential [`micro::axpy`] calls, and the neighbor order (CSR storage
/// order per output element) matches [`crate::spmm::spmm`] exactly, so
/// the floating-point result depends on neither the tile size nor the
/// layout.
#[inline]
fn aggregate_row<T: Scalar>(out_row: &mut [T], cols: &[u32], p: &[T], src: &Dense<T>, tile: usize) {
    let w = out_row.len();
    let mut t0 = 0;
    while t0 < w {
        let t1 = (t0 + tile).min(w);
        let out_t = &mut out_row[t0..t1];
        if micro::wide() {
            let mut cq = cols.chunks_exact(4);
            let mut pq = p.chunks_exact(4);
            for (c4, p4) in (&mut cq).zip(&mut pq) {
                micro::axpy4(
                    out_t,
                    [p4[0], p4[1], p4[2], p4[3]],
                    [
                        &src.row_padded(c4[0] as usize)[t0..t1],
                        &src.row_padded(c4[1] as usize)[t0..t1],
                        &src.row_padded(c4[2] as usize)[t0..t1],
                        &src.row_padded(c4[3] as usize)[t0..t1],
                    ],
                );
            }
            for (&c, &pv) in cq.remainder().iter().zip(pq.remainder()) {
                micro::axpy_wide(out_t, pv, &src.row_padded(c as usize)[t0..t1]);
            }
        } else {
            for (&c, &pv) in cols.iter().zip(p) {
                micro::axpy(out_t, pv, &src.row_padded(c as usize)[t0..t1]);
            }
        }
        t0 = t1;
    }
}

/// [`aggregate_row`] with every weight pre-scaled by `inv` at load:
/// `out += Σ_j (inv·p_j)·src_j`. `round(p·inv)` is exactly the value the
/// softmax scale pass would have stored in the score row, so this is
/// bit-identical to normalizing first and calling [`aggregate_row`] — it
/// just never re-traverses the score buffer.
fn aggregate_row_scaled<T: Scalar>(
    out_row: &mut [T],
    cols: &[u32],
    p: &[T],
    inv: T,
    src: &Dense<T>,
    tile: usize,
) {
    let w = out_row.len();
    let mut t0 = 0;
    while t0 < w {
        let t1 = (t0 + tile).min(w);
        let out_t = &mut out_row[t0..t1];
        if micro::wide() {
            let mut cq = cols.chunks_exact(4);
            let mut pq = p.chunks_exact(4);
            for (c4, p4) in (&mut cq).zip(&mut pq) {
                micro::axpy4(
                    out_t,
                    [p4[0] * inv, p4[1] * inv, p4[2] * inv, p4[3] * inv],
                    [
                        &src.row_padded(c4[0] as usize)[t0..t1],
                        &src.row_padded(c4[1] as usize)[t0..t1],
                        &src.row_padded(c4[2] as usize)[t0..t1],
                        &src.row_padded(c4[3] as usize)[t0..t1],
                    ],
                );
            }
            for (&c, &pv) in cq.remainder().iter().zip(pq.remainder()) {
                micro::axpy_wide(out_t, pv * inv, &src.row_padded(c as usize)[t0..t1]);
            }
        } else {
            for (&c, &pv) in cols.iter().zip(p) {
                micro::axpy(out_t, pv * inv, &src.row_padded(c as usize)[t0..t1]);
            }
        }
        t0 = t1;
    }
}

/// The shared one-pass driver: per nnz-balanced row chunk, let the model
/// score one row at a time (`score_row(r, cols, scores, secondary)` with
/// its own hoisted inner loop, exactly like the staged kernels, returning
/// the running row maximum its loop tracked), apply the row softmax on
/// the still-resident score buffer (when the model has one), and
/// aggregate `src` rows under the resulting weights — one traversal of
/// `indptr`/`indices` total.
///
/// With `want_cache` the (softmaxed) scores land in the future `Ψ` value
/// array and the secondary values in their own array; without it the row
/// of scores lives in per-thread scratch and **no** `Csr` value array is
/// ever created (asserted by tests via [`crate::csr::value_allocs`]).
/// With `STATS` each softmax row's max and normaliser land in the
/// returned [`RowStats`]. It is a compile-time switch so that every other
/// sweep — inference above all — compiles to a body without it.
///
/// The aggregation goes to `out`, `a.rows() × src.cols()` in `src`'s
/// layout and **zero on entry** (the sweep accumulates into it): the
/// allocating entry points pass a fresh `zeros_matching`, the writing
/// ones zero-fill the caller's buffer first.
fn fused_sweep<T: Scalar, const STATS: bool>(
    a: &Csr<T>,
    src: &Dense<T>,
    out: &mut Dense<T>,
    softmax: bool,
    want_cache: bool,
    want_secondary: bool,
    score_row: impl Fn(usize, &[u32], &mut [T], Option<&mut [T]>) -> T + Sync,
) -> SweepCaches<T> {
    assert_eq!(a.cols(), src.rows(), "attention: A cols must match H rows");
    assert_eq!(
        (out.shape(), out.stride()),
        ((a.rows(), src.cols()), src.stride()),
        "attention: output must be A.rows() x H.cols() in H's layout"
    );
    debug_assert!(softmax || !STATS, "row stats of no softmax");
    let k = src.cols();
    let nnz = a.nnz();
    let indptr = a.indptr();
    let indices = a.indices();
    let tile = auto_col_tile(k, T::BYTES);
    let parallel = nnz >= PAR_THRESHOLD;
    let wide = micro::wide();
    let out_stride = out.stride();
    let mut psi_values: Vec<T> = if want_cache {
        vec![T::zero(); nnz]
    } else {
        Vec::new()
    };
    let mut sec_values: Vec<T> = if want_cache && want_secondary {
        vec![T::zero(); nnz]
    } else {
        Vec::new()
    };
    let mut stats: Vec<[T; 2]> = if STATS {
        vec![[T::zero(); 2]; a.rows()]
    } else {
        Vec::new()
    };
    {
        let out_slots = DisjointSlice::new(out.as_mut_slice());
        let psi_slots = DisjointSlice::new(&mut psi_values);
        let sec_slots = DisjointSlice::new(&mut sec_values);
        let stat_slots = DisjointSlice::new(&mut stats);
        rt::parallel_for(a.rows(), Cost::Prefix(indptr), parallel, |lo, hi| {
            // SAFETY: row ranges are disjoint across chunk bodies, and
            // indptr is monotone, so the value ranges are disjoint too.
            let out_part = unsafe { out_slots.range_mut(lo * out_stride, hi * out_stride) };
            let (s0, s1) = (indptr[lo], indptr[hi]);
            // SAFETY: as above — each chunk owns `indptr[lo]..indptr[hi]`.
            let mut psi_part = want_cache.then(|| unsafe { psi_slots.range_mut(s0, s1) });
            // SAFETY: as above.
            let mut sec_part =
                (want_cache && want_secondary).then(|| unsafe { sec_slots.range_mut(s0, s1) });
            let stat_part: &mut [[T; 2]] = if STATS {
                // SAFETY: as above — each chunk owns rows `lo..hi`.
                unsafe { stat_slots.range_mut(lo, hi) }
            } else {
                &mut []
            };
            rt::with_scratch::<T, _>(|ebuf| {
                // Wide-mode uncached softmax takes a blocked-flat
                // schedule: score a block of rows into one flat scratch
                // run (row max already subtracted), exponentiate the whole
                // run in a single pass, then fold each row's `1/rowsum`
                // into its aggregation weights. Per element this is
                // exactly the per-row sequence — `exp_fast(s − m)` then
                // `round(e·inv)` at weight load — so the bits match the
                // per-row schedule and the staged kernels; the flat exp
                // pass exists because neighborhood rows average a few
                // lanes, and a vector loop's prologue/remainder overhead
                // per *row* otherwise dwarfs the polynomial itself
                // (measured ~3x on the fused GAT sweep's softmax phase at
                // mean degree 16).
                if softmax && wide && !want_cache {
                    let mut b0 = lo;
                    while b0 < hi {
                        // Row blocks of ~`FLAT_BLOCK_EDGES` stored entries:
                        // enough rows to amortize the vector loops'
                        // prologue/remainder overhead, small enough that
                        // the block's score run stays cache-resident
                        // across the exp, sum, and aggregation passes.
                        let mut b1 = b0 + 1;
                        while b1 < hi && indptr[b1] - indptr[b0] < FLAT_BLOCK_EDGES {
                            b1 += 1;
                        }
                        let (f0, f1) = (indptr[b0], indptr[b1]);
                        // Grow-only: every slot up to `f1 - f0` is
                        // overwritten by the score pass, so stale tails
                        // never get read.
                        if ebuf.len() < f1 - f0 {
                            ebuf.resize(f1 - f0, T::zero());
                        }
                        let flat = &mut ebuf[..f1 - f0];
                        for r in b0..b1 {
                            let (rlo, rhi) = (indptr[r], indptr[r + 1]);
                            let e = &mut flat[rlo - f0..rhi - f0];
                            let m = score_row(r, &indices[rlo..rhi], e, None);
                            for s in e.iter_mut() {
                                *s -= m;
                            }
                            if STATS {
                                stat_part[r - lo][0] = m;
                            }
                        }
                        for s in flat.iter_mut() {
                            *s = s.exp_fast();
                        }
                        let rows = out_part[(b0 - lo) * out_stride..].chunks_mut(out_stride.max(1));
                        for (r, out_row) in (b0..b1).zip(rows) {
                            let (rlo, rhi) = (indptr[r], indptr[r + 1]);
                            let e = &flat[rlo - f0..rhi - f0];
                            if e.is_empty() {
                                continue;
                            }
                            let inv = T::one() / micro::sum_wide(e);
                            if STATS {
                                stat_part[r - lo][1] = inv;
                            }
                            aggregate_row_scaled(out_row, &indices[rlo..rhi], e, inv, src, tile);
                        }
                        b0 = b1;
                    }
                    return;
                }
                for (r, out_row) in (lo..hi).zip(out_part.chunks_mut(out_stride.max(1))) {
                    let (rlo, rhi) = (indptr[r], indptr[r + 1]);
                    let cols = &indices[rlo..rhi];
                    let e: &mut [T] = match psi_part.as_deref_mut() {
                        Some(p) => &mut p[rlo - s0..rhi - s0],
                        None => {
                            // Grow-only: every slot is overwritten by the
                            // score loop, so stale tails never get read.
                            if ebuf.len() < rhi - rlo {
                                ebuf.resize(rhi - rlo, T::zero());
                            }
                            &mut ebuf[..rhi - rlo]
                        }
                    };
                    let sec = sec_part.as_deref_mut().map(|p| &mut p[rlo - s0..rhi - s0]);
                    let m = score_row(r, cols, e, sec);
                    // The softmax finalizes on the still-resident row
                    // buffer without ever re-traversing the adjacency
                    // structure, with exactly one exp per stored entry —
                    // the same row body the staged [`masked::row_softmax`]
                    // runs (the score loop's tracked max is bit-identical
                    // to the max pass it replaces), so fused and staged
                    // normalize with bit-identical arithmetic in every
                    // kernel mode.
                    if softmax {
                        let norm = masked::softmax_slice_with_max(e, m);
                        if STATS {
                            stat_part[r - lo] = [m, norm];
                        }
                    }
                    aggregate_row(out_row, cols, e, src, tile);
                }
            });
        });
    }
    SweepCaches {
        psi: want_cache.then(|| a.with_values(psi_values)),
        scores: (want_cache && want_secondary).then(|| a.with_values(sec_values)),
        stats: STATS.then_some(RowStats { rows: stats, wide }),
    }
}

/// What a [`fused_sweep`] leaves besides its aggregation.
struct SweepCaches<T: Scalar> {
    psi: Option<Csr<T>>,
    scores: Option<Csr<T>>,
    stats: Option<RowStats<T>>,
}

impl<T: Scalar> SweepCaches<T> {
    /// The [`FusedAttention`] of the sweep that aggregated into `out`.
    fn with_out(self, out: Dense<T>) -> FusedAttention<T> {
        FusedAttention {
            out,
            psi: self.psi,
            scores: self.scores,
        }
    }
}

// ---------------------------------------------------------------------------
// One-pass fused forward kernels
// ---------------------------------------------------------------------------

/// Fused VA forward: `Z' = (A ⊙ (H Hᵀ)) H` in one sweep. VA applies no
/// softmax — `psi` caches the *raw* scores `Ψ = A ⊙ (H Hᵀ)`. `a` may be a
/// row-prefix block (see [`dst_rows`]).
pub fn attention_forward_va<T: Scalar>(
    a: &Csr<T>,
    h: &Dense<T>,
    want_cache: bool,
) -> FusedAttention<T> {
    assert!(a.rows() <= h.rows(), "va attention: A has more rows than H");
    let mut out = h.zeros_matching(a.rows(), h.cols());
    fused_sweep::<T, false>(a, h, &mut out, false, want_cache, false, |r, cols, e, _| {
        let hr = h.row(r);
        for (slot, &c) in e.iter_mut().zip(cols) {
            *slot = gemm::dot(hr, h.row(c as usize));
        }
        T::neg_infinity() // no softmax: the row max is never consulted
    })
    .with_out(out)
}

/// Fused AGNN forward: `Z = sm(A ⊙ (β · H Hᵀ ⊘ n nᵀ)) H'` in one sweep
/// (`H' = H W`, projected by the caller). `scores` caches the raw cosines
/// the backward pass needs; zero-norm endpoints give a zero cosine. `a`
/// may be a row-prefix block (see [`dst_rows`]).
pub fn attention_forward_agnn<T: Scalar>(
    a: &Csr<T>,
    h: &Dense<T>,
    hp: &Dense<T>,
    beta: T,
    want_cache: bool,
) -> FusedAttention<T> {
    assert!(
        a.rows() <= h.rows(),
        "agnn attention: A has more rows than H"
    );
    let norms = blocks::row_l2_norms(h);
    let mut out = hp.zeros_matching(a.rows(), hp.cols());
    fused_sweep::<T, false>(
        a,
        hp,
        &mut out,
        true,
        want_cache,
        true,
        move |r, cols, e, sec| {
            let hr = h.row(r);
            let nr = norms[r];
            let cos_of = |c: usize| {
                let denom = nr * norms[c];
                if denom == T::zero() {
                    T::zero()
                } else {
                    gemm::dot(hr, h.row(c)) / denom
                }
            };
            let mut m = T::neg_infinity();
            match sec {
                Some(sec) => {
                    for ((slot, cache), &c) in e.iter_mut().zip(sec.iter_mut()).zip(cols) {
                        let cos = cos_of(c as usize);
                        *cache = cos;
                        let s = beta * cos;
                        *slot = s;
                        m = Scalar::max(m, s);
                    }
                }
                None => {
                    for (slot, &c) in e.iter_mut().zip(cols) {
                        let s = beta * cos_of(c as usize);
                        *slot = s;
                        m = Scalar::max(m, s);
                    }
                }
            }
            m
        },
    )
    .with_out(out)
}

/// Fused GAT forward: `Z = sm(A ⊙ LeakyReLU(u 𝟙ᵀ + 𝟙 vᵀ)) H'` in one
/// sweep. `scores` caches the pre-activation values `C_ij = u_i + v_j`.
/// GAT training takes [`attention_forward_gat_stats`] instead; the
/// caching form serves the callers that need `Ψ` as a matrix.
pub fn attention_forward_gat<T: Scalar>(
    a: &Csr<T>,
    u: &[T],
    v: &[T],
    hp: &Dense<T>,
    slope: f64,
    want_cache: bool,
) -> FusedAttention<T> {
    let mut out = hp.zeros_matching(a.rows(), hp.cols());
    gat_sweep::<T, false>(a, u, v, hp, slope, want_cache, &mut out).with_out(out)
}

/// Fused GAT training forward with `Ψ` kept virtual: the inference sweep
/// (the blocked-flat schedule in wide mode) plus each row's [`RowStats`].
/// No `Csr` value array is allocated. [`attention_backward_gat_virtual`]
/// and [`attention_psi_t_gat_virtual`] recompute `C_ij = u_i + v_j` and
/// `Ψ` from `u`, `v` and the stats, bit-identical to the `Ψ` and `C`
/// [`attention_forward_gat`] caches.
pub fn attention_forward_gat_stats<T: Scalar>(
    a: &Csr<T>,
    u: &[T],
    v: &[T],
    hp: &Dense<T>,
    slope: f64,
) -> (Dense<T>, RowStats<T>) {
    let mut out = hp.zeros_matching(a.rows(), hp.cols());
    let stats = gat_sweep::<T, true>(a, u, v, hp, slope, false, &mut out).stats;
    (out, stats.expect("a RowStats sweep returns its stats"))
}

/// [`attention_forward_gat_stats`] into `out`, an `a.rows() × hp.cols()`
/// matrix in `hp`'s layout whose old contents are overwritten (it is
/// zero-filled before the sweep accumulates into it). Returns the row
/// stats.
pub fn attention_forward_gat_stats_into<T: Scalar>(
    a: &Csr<T>,
    u: &[T],
    v: &[T],
    hp: &Dense<T>,
    slope: f64,
    out: &mut Dense<T>,
) -> RowStats<T> {
    out.zero_fill();
    let stats = gat_sweep::<T, true>(a, u, v, hp, slope, false, out).stats;
    stats.expect("a RowStats sweep returns its stats")
}

/// The GAT scoring of every forward entry point, aggregating into `out`
/// (zero on entry, see [`fused_sweep`]).
fn gat_sweep<T: Scalar, const STATS: bool>(
    a: &Csr<T>,
    u: &[T],
    v: &[T],
    hp: &Dense<T>,
    slope: f64,
    want_cache: bool,
    out: &mut Dense<T>,
) -> SweepCaches<T> {
    assert_eq!(a.rows(), u.len(), "gat attention: u length mismatch");
    assert_eq!(a.cols(), v.len(), "gat attention: v length mismatch");
    let act = Activation::LeakyRelu(slope);
    fused_sweep::<T, STATS>(
        a,
        hp,
        out,
        true,
        want_cache,
        true,
        move |r, cols, e, sec| {
            let ur = u[r];
            // The gather-and-activate loop carries no loop dependency once the
            // row max moves out of it into a [`micro::max_wide`] pass over the
            // finished score row — IEEE max is exact in any association, so
            // the lane-tree max matches the sequential fold bit-for-bit while
            // the gather loop pipelines freely.
            //
            // SAFETY (both gathers): `Csr` construction validates every stored
            // column index against `cols()`, and the entry assert pins
            // `v.len() == a.cols()`; the per-element bounds check would
            // otherwise keep the gather loop scalar.
            match sec {
                Some(sec) => {
                    for ((slot, cache), &c) in e.iter_mut().zip(sec.iter_mut()).zip(cols) {
                        let pre = ur + unsafe { *v.get_unchecked(c as usize) };
                        *cache = pre;
                        *slot = act.eval(pre);
                    }
                }
                None => {
                    for (slot, &c) in e.iter_mut().zip(cols) {
                        *slot = act.eval(ur + unsafe { *v.get_unchecked(c as usize) });
                    }
                }
            }
            micro::max_wide(e)
        },
    )
}

// ---------------------------------------------------------------------------
// One-pass fused backward kernels
// ---------------------------------------------------------------------------

/// Fused VA backward sweep: computes `N = A ⊙ (M Hᵀ)` *and* `N H` in one
/// traversal (the layer still needs `N` itself for the `Nᵀ H` scatter).
/// Returns `(N, N H)`.
pub fn attention_backward_va<T: Scalar>(
    a: &Csr<T>,
    m: &Dense<T>,
    h: &Dense<T>,
) -> (Csr<T>, Dense<T>) {
    assert_eq!(a.rows(), m.rows(), "va backward: A rows must match M rows");
    let mut out = h.zeros_matching(a.rows(), h.cols());
    let caches = fused_sweep::<T, false>(a, h, &mut out, false, true, false, |r, cols, e, _| {
        let mr = m.row(r);
        for (slot, &c) in e.iter_mut().zip(cols) {
            *slot = gemm::dot(mr, h.row(c as usize));
        }
        T::neg_infinity() // no softmax: the row max is never consulted
    });
    (caches.psi.expect("va backward: sweep always caches N"), out)
}

/// `d[e] = ⟨g_row, hp[cols[e]]⟩` over one row's stored entries — the
/// SDDMM inside both softmax backward sweeps — four neighbors per pass
/// through [`micro::dot4`], each result bit-identical to one
/// [`micro::dot`].
#[inline]
fn edge_dots<T: Scalar>(d: &mut [T], g_row: &[T], cols: &[u32], hp: &Dense<T>) {
    let mut dq = d.chunks_exact_mut(4);
    let mut cq = cols.chunks_exact(4);
    for (d4, c4) in (&mut dq).zip(&mut cq) {
        let rows = [
            hp.row(c4[0] as usize),
            hp.row(c4[1] as usize),
            hp.row(c4[2] as usize),
            hp.row(c4[3] as usize),
        ];
        d4.copy_from_slice(&micro::dot4(g_row, rows));
    }
    for (dv, &c) in dq.into_remainder().iter_mut().zip(cq.remainder()) {
        *dv = micro::dot(g_row, hp.row(c as usize));
    }
}

/// Fused GAT backward sweep over cached `Ψ` and `C` (the staged oracle's
/// and the distributed blocks' form; see [`gat_backward_sweep`]).
/// Returns `(∂C, ∂u)`; the column sums `∂v` are a scatter and stay on the
/// existing sequential kernel.
pub fn attention_backward_gat<T: Scalar>(
    a: &Csr<T>,
    psi: &Csr<T>,
    c_pre: &Csr<T>,
    hp: &Dense<T>,
    g: &Dense<T>,
    slope: f64,
) -> (Csr<T>, Vec<T>) {
    assert!(
        a.same_pattern(psi),
        "gat backward: Ψ must share A's pattern"
    );
    assert!(
        a.same_pattern(c_pre),
        "gat backward: C must share A's pattern"
    );
    let (psi_v, pre_v) = (psi.values(), c_pre.values());
    let act = Activation::LeakyRelu(slope);
    let mut dc = vec![T::zero(); a.nnz()];
    let du = gat_backward_sweep(a, hp, g, &mut dc, |_, entries, psi, grad| {
        psi.copy_from_slice(&psi_v[entries.clone()]);
        for (gr, &c) in grad.iter_mut().zip(&pre_v[entries]) {
            *gr = act.grad(c);
        }
    });
    (a.with_values(dc), du)
}

/// [`attention_backward_gat`] with `Ψ` and `C` recomputed from the
/// [`attention_forward_gat_stats`] call that produced `stats` on the same
/// `a`, `u` and `v`: `C_ij = u_i + v_j` and
/// `Ψ_ij` is what `masked::softmax_finish` makes of `LeakyReLU(C_ij) − m_i`
/// and `norm_i` — the forward's op sequence, so the result is
/// bit-identical to the cached form's.
pub fn attention_backward_gat_virtual<T: Scalar>(
    a: &Csr<T>,
    u: &[T],
    v: &[T],
    stats: &RowStats<T>,
    hp: &Dense<T>,
    g: &Dense<T>,
    slope: f64,
) -> (Csr<T>, Vec<T>) {
    let mut dc = vec![T::zero(); a.nnz()];
    let du = attention_backward_gat_virtual_into(a, u, v, stats, hp, g, slope, &mut dc);
    (a.with_values(dc), du)
}

/// [`attention_backward_gat_virtual`] writing `∂C`'s values — every one
/// of them — into `dc` (`a.nnz()` long, `a`'s storage order) instead of a
/// new `Csr`. Returns `∂u`.
#[allow(clippy::too_many_arguments)]
pub fn attention_backward_gat_virtual_into<T: Scalar>(
    a: &Csr<T>,
    u: &[T],
    v: &[T],
    stats: &RowStats<T>,
    hp: &Dense<T>,
    g: &Dense<T>,
    slope: f64,
    dc: &mut [T],
) -> Vec<T> {
    check_virtual(a, u, v, stats);
    let act = Activation::LeakyRelu(slope);
    let indices = a.indices();
    gat_backward_sweep(a, hp, g, dc, |r, entries, psi, grad| {
        let (ur, [m, norm]) = (u[r], stats.rows[r]);
        // The gather loop, then the exponentials in a loop of their own
        // (see `masked::softmax_finish`).
        for ((p, gr), &c) in psi.iter_mut().zip(grad.iter_mut()).zip(&indices[entries]) {
            let pre = ur + v[c as usize];
            *gr = act.grad(pre);
            *p = act.eval(pre) - m;
        }
        masked::softmax_finish(stats.wide, psi, std::iter::repeat(norm));
    })
}

/// `Ψᵀ G` with `Ψ` recomputed as in [`attention_backward_gat_virtual`]:
/// [`spmm::spmm_t`]'s gather over `a`'s transposed pattern, bit-identical
/// to `spmm_t(Ψ, G)` on the cached `Ψ`. Each entry gathers three row
/// scalars of its source row (`u_i`, `m_i`, `norm_i`) where the cached
/// form reads one stored value; the exponentials then run in one loop
/// over the column.
pub fn attention_psi_t_gat_virtual<T: Scalar>(
    a: &Csr<T>,
    u: &[T],
    v: &[T],
    stats: &RowStats<T>,
    g: &Dense<T>,
    slope: f64,
) -> Dense<T> {
    let mut out = g.zeros_matching(a.cols(), g.cols());
    psi_t_gat_virtual(a, u, v, stats, g, slope, &mut out);
    out
}

/// [`attention_psi_t_gat_virtual`] into `out`, an `a.cols() × g.cols()`
/// matrix in `g`'s layout whose old contents are overwritten (it is
/// zero-filled before the gather accumulates into it).
pub fn attention_psi_t_gat_virtual_into<T: Scalar>(
    a: &Csr<T>,
    u: &[T],
    v: &[T],
    stats: &RowStats<T>,
    g: &Dense<T>,
    slope: f64,
    out: &mut Dense<T>,
) {
    out.zero_fill();
    psi_t_gat_virtual(a, u, v, stats, g, slope, out);
}

/// The gather of both `Ψᵀ G` entry points, into a zeroed `out`.
fn psi_t_gat_virtual<T: Scalar>(
    a: &Csr<T>,
    u: &[T],
    v: &[T],
    stats: &RowStats<T>,
    g: &Dense<T>,
    slope: f64,
    out: &mut Dense<T>,
) {
    check_virtual(a, u, v, stats);
    let act = Activation::LeakyRelu(slope);
    spmm::gather_t(a, g, out, |j, _, src, vals, norms| {
        let vj = v[j];
        for ((x, n), &i) in vals.iter_mut().zip(norms.iter_mut()).zip(src) {
            let i = i as usize;
            let [m, norm] = stats.rows[i];
            *x = act.eval(u[i] + vj) - m;
            *n = norm;
        }
        masked::softmax_finish(stats.wide, vals, norms.iter().copied());
    });
}

/// The shape conditions of the virtual-`Ψ` kernels: `u` and the stats
/// cover `a`'s rows, `v` its columns.
fn check_virtual<T: Scalar>(a: &Csr<T>, u: &[T], v: &[T], stats: &RowStats<T>) {
    assert_eq!(a.rows(), u.len(), "virtual Ψ: u length mismatch");
    assert_eq!(a.cols(), v.len(), "virtual Ψ: v length mismatch");
    assert_eq!(a.rows(), stats.rows.len(), "virtual Ψ: row stats mismatch");
}

/// The GAT backward sweep body, one for both sources of `Ψ` and `C`:
/// `fill(r, entries, psi, grad)` writes row `r`'s `Ψ_ij` into `psi` and
/// the LeakyReLU gradient at `C_ij` into `grad`, both row-long scratch,
/// `entries` being the row's CSR positions. The upstream edge gradients
/// `D_ij = ⟨g_i, h'_j⟩` go to scratch beside them ([`edge_dots`]), then
/// the row dot `Σ_j Ψ_ij D_ij` accumulates in entry order and the
/// softmax backward `∂E = Ψ ⊙ (D − rep(rowdot))` times the gradient
/// folds into `∂C`, whose row sum is `∂u`. Every value of `∂C` is
/// written into `dc_values`; returns `∂u`.
fn gat_backward_sweep<T, F>(
    a: &Csr<T>,
    hp: &Dense<T>,
    g: &Dense<T>,
    dc_values: &mut [T],
    fill: F,
) -> Vec<T>
where
    T: Scalar,
    F: Fn(usize, Range<usize>, &mut [T], &mut [T]) + Sync,
{
    let indptr = a.indptr();
    let indices = a.indices();
    let nnz = a.nnz();
    assert_eq!(dc_values.len(), nnz, "gat backward: ∂C length mismatch");
    let mut du = vec![T::zero(); a.rows()];
    let parallel = nnz >= PAR_THRESHOLD;
    {
        let dc_slots = DisjointSlice::new(dc_values);
        let du_slots = DisjointSlice::new(&mut du);
        rt::parallel_for(a.rows(), Cost::Prefix(indptr), parallel, |lo, hi| {
            // SAFETY: row ranges are disjoint across chunk bodies; indptr
            // is monotone, so the value ranges are disjoint too.
            let dc_part = unsafe { dc_slots.range_mut(indptr[lo], indptr[hi]) };
            // SAFETY: as above.
            let du_part = unsafe { du_slots.range_mut(lo, hi) };
            let base = indptr[lo];
            rt::with_scratch::<T, _>(|buf| {
                for (r, du_r) in (lo..hi).zip(du_part.iter_mut()) {
                    let (rlo, rhi) = (indptr[r], indptr[r + 1]);
                    let cols = &indices[rlo..rhi];
                    let deg = cols.len();
                    // Grow-only: every slot below `3·deg` is written
                    // before it is read.
                    if buf.len() < 3 * deg {
                        buf.resize(3 * deg, T::zero());
                    }
                    let (d, rest) = buf[..3 * deg].split_at_mut(deg);
                    let (psi, grad) = rest.split_at_mut(deg);
                    fill(r, rlo..rhi, psi, grad);
                    edge_dots(d, g.row(r), cols, hp);
                    let mut rdot = T::zero();
                    for (&p, &dv) in psi.iter().zip(d.iter()) {
                        rdot += p * dv;
                    }
                    let mut du_acc = T::zero();
                    let terms = d.iter().zip(psi.iter()).zip(grad.iter());
                    for (out, ((&dv, &p), &gr)) in
                        dc_part[rlo - base..rhi - base].iter_mut().zip(terms)
                    {
                        let dc = p * (dv - rdot) * gr;
                        *out = dc;
                        du_acc += dc;
                    }
                    *du_r = du_acc;
                }
            });
        });
    }
    du
}

/// Everything the AGNN layer tail needs from the fused backward sweep.
pub struct AgnnBackward<T: Scalar> {
    /// `P = ∂cos ⊘ (n nᵀ)` on the pattern (the layer scatters `Pᵀ H`).
    pub p: Csr<T>,
    /// `P H`, aggregated inside the sweep.
    pub ph: Dense<T>,
    /// `∂cos ⊙ cos` — the layer takes its column sums.
    pub tc: Csr<T>,
    /// Row sums of `tc`, accumulated inside the sweep.
    pub row_corr: Vec<T>,
    /// `∂β = Σ ∂S ⊙ cos`.
    pub dbeta: T,
}

/// Fused AGNN backward sweep: one traversal produces the softmax backward,
/// `∂β`, the normalized gradient `P`, the correction products `∂cos ⊙ cos`
/// with their row sums, and the aggregation `P H`. Scatter-shaped pieces
/// (`Pᵀ H`, column sums) stay on the existing deterministic kernels in the
/// layer.
pub fn attention_backward_agnn<T: Scalar>(
    a: &Csr<T>,
    psi: &Csr<T>,
    cos: &Csr<T>,
    h: &Dense<T>,
    hp: &Dense<T>,
    g: &Dense<T>,
    beta: T,
) -> AgnnBackward<T> {
    assert!(
        a.same_pattern(psi),
        "agnn backward: Ψ must share A's pattern"
    );
    assert!(
        a.same_pattern(cos),
        "agnn backward: cos must share A's pattern"
    );
    let norms = blocks::row_l2_norms(h);
    let inv = |x: T| {
        if x == T::zero() {
            T::zero()
        } else {
            T::one() / x
        }
    };
    let indptr = a.indptr();
    let indices = a.indices();
    let psi_v = psi.values();
    let cos_v = cos.values();
    let nnz = a.nnz();
    let k = h.cols();
    let tile = auto_col_tile(k, T::BYTES);
    let mut p_values = vec![T::zero(); nnz];
    let mut tc_values = vec![T::zero(); nnz];
    let mut ph = h.zeros_matching(a.rows(), k);
    let ph_stride = ph.stride();
    let mut row_corr = vec![T::zero(); a.rows()];
    let mut dbeta_rows = vec![T::zero(); a.rows()];
    let parallel = nnz >= PAR_THRESHOLD;
    {
        let p_slots = DisjointSlice::new(&mut p_values);
        let tc_slots = DisjointSlice::new(&mut tc_values);
        let ph_slots = DisjointSlice::new(ph.as_mut_slice());
        let corr_slots = DisjointSlice::new(&mut row_corr);
        let dbeta_slots = DisjointSlice::new(&mut dbeta_rows);
        rt::parallel_for(a.rows(), Cost::Prefix(indptr), parallel, |lo, hi| {
            // SAFETY: row ranges are disjoint across chunk bodies; indptr
            // is monotone, so the value ranges are disjoint too.
            let p_part = unsafe { p_slots.range_mut(indptr[lo], indptr[hi]) };
            // SAFETY: as above.
            let tc_part = unsafe { tc_slots.range_mut(indptr[lo], indptr[hi]) };
            // SAFETY: as above.
            let ph_part = unsafe { ph_slots.range_mut(lo * ph_stride, hi * ph_stride) };
            // SAFETY: as above.
            let corr_part = unsafe { corr_slots.range_mut(lo, hi) };
            // SAFETY: as above.
            let dbeta_part = unsafe { dbeta_slots.range_mut(lo, hi) };
            let base = indptr[lo];
            rt::with_scratch::<T, _>(|dbuf| {
                for (i, (r, ph_row)) in (lo..hi)
                    .zip(ph_part.chunks_mut(ph_stride.max(1)))
                    .enumerate()
                {
                    let (rlo, rhi) = (indptr[r], indptr[r + 1]);
                    let cols = &indices[rlo..rhi];
                    dbuf.clear();
                    dbuf.resize(rhi - rlo, T::zero());
                    edge_dots(dbuf, g.row(r), cols, hp);
                    let mut rdot = T::zero();
                    for (&p, &dv) in psi_v[rlo..rhi].iter().zip(dbuf.iter()) {
                        rdot += p * dv;
                    }
                    let ir = inv(norms[r]);
                    let mut dbeta_acc = T::zero();
                    let mut corr_acc = T::zero();
                    for (&d, idx) in dbuf.iter().zip(rlo..rhi) {
                        let ds = psi_v[idx] * (d - rdot);
                        dbeta_acc += ds * cos_v[idx];
                        let dcos = beta * ds;
                        let tcv = dcos * cos_v[idx];
                        tc_part[idx - base] = tcv;
                        corr_acc += tcv;
                        // Match the staged evaluation order exactly:
                        // dcos · (n_i⁻¹ · n_j⁻¹).
                        p_part[idx - base] = dcos * (ir * inv(norms[indices[idx] as usize]));
                    }
                    dbeta_part[i] = dbeta_acc;
                    corr_part[i] = corr_acc;
                    aggregate_row(ph_row, cols, &p_part[rlo - base..rhi - base], h, tile);
                }
            });
        });
    }
    // Sequential reduction in row order — bit-identical for every thread
    // count, and identical to the staged `row_dots(∂S, cos).sum()`.
    let dbeta = dbeta_rows.into_iter().sum();
    AgnnBackward {
        p: a.with_values(p_values),
        ph,
        tc: a.with_values(tc_values),
        row_corr,
        dbeta,
    }
}

// ---------------------------------------------------------------------------
// Staged oracle pipelines
// ---------------------------------------------------------------------------

/// The destination features of a row-prefix block: `a` is `r × n` with
/// `n = h.rows()`, and its destination nodes are the first `r` source
/// nodes (DGL's block convention), so they read the first `r` rows of `h`
/// — `h` itself, borrowed, for a square `a`. The fused sweeps index `h`
/// by destination row directly; this serves the paths whose kernels take
/// destination and source features as separate matrices.
pub fn dst_rows<'h, T: Scalar>(a: &Csr<T>, h: &'h Dense<T>) -> Cow<'h, Dense<T>> {
    if a.rows() == h.rows() {
        Cow::Borrowed(h)
    } else {
        Cow::Owned(h.slice_rows(0, a.rows()))
    }
}

/// Staged VA forward: materialized scores, then SpMM — the pre-fusion
/// pipeline, kept as the equivalence-test oracle.
pub fn staged_forward_va<T: Scalar>(
    a: &Csr<T>,
    h: &Dense<T>,
    want_cache: bool,
) -> FusedAttention<T> {
    let psi = sddmm::sddmm_pattern(a, &dst_rows(a, h), h);
    let out = spmm::spmm(&psi, h);
    FusedAttention {
        out,
        psi: want_cache.then_some(psi),
        scores: None,
    }
}

/// Staged AGNN forward: fused score kernel, materialized softmax, SpMM.
pub fn staged_forward_agnn<T: Scalar>(
    a: &Csr<T>,
    h: &Dense<T>,
    hp: &Dense<T>,
    beta: T,
    want_cache: bool,
) -> FusedAttention<T> {
    let norms = blocks::row_l2_norms(h);
    let (scores, cos) =
        fused::agnn_scores_block(a, &dst_rows(a, h), h, &norms[..a.rows()], &norms, beta);
    let psi = masked::row_softmax(&scores);
    let out = spmm::spmm(&psi, hp);
    FusedAttention {
        out,
        psi: want_cache.then_some(psi),
        scores: want_cache.then_some(cos),
    }
}

/// Staged GAT forward: fused score kernel, materialized softmax, SpMM.
pub fn staged_forward_gat<T: Scalar>(
    a: &Csr<T>,
    u: &[T],
    v: &[T],
    hp: &Dense<T>,
    slope: f64,
    want_cache: bool,
) -> FusedAttention<T> {
    let (e, c_pre) = fused::gat_scores(a, u, v, slope);
    let psi = masked::row_softmax(&e);
    let out = spmm::spmm(&psi, hp);
    FusedAttention {
        out,
        psi: want_cache.then_some(psi),
        scores: want_cache.then_some(c_pre),
    }
}

/// Staged VA backward: SDDMM then SpMM, materializing `N` in between.
pub fn staged_backward_va<T: Scalar>(a: &Csr<T>, m: &Dense<T>, h: &Dense<T>) -> (Csr<T>, Dense<T>) {
    let n = sddmm::sddmm_pattern(a, m, h);
    let nh = spmm::spmm(&n, h);
    (n, nh)
}

/// Staged GAT backward: SDDMM, softmax backward, activation gradient and
/// row sums as separate passes.
pub fn staged_backward_gat<T: Scalar>(
    a: &Csr<T>,
    psi: &Csr<T>,
    c_pre: &Csr<T>,
    hp: &Dense<T>,
    g: &Dense<T>,
    slope: f64,
) -> (Csr<T>, Vec<T>) {
    let d = sddmm::sddmm_pattern(a, g, hp);
    let de = masked::row_softmax_backward(psi, &d);
    let act = Activation::LeakyRelu(slope);
    let dc = masked::zip_values(&de, c_pre, |dv, cv| dv * act.grad(cv));
    let du = masked::row_sums(&dc);
    (dc, du)
}

/// Staged AGNN backward: the original multi-pass pipeline.
pub fn staged_backward_agnn<T: Scalar>(
    a: &Csr<T>,
    psi: &Csr<T>,
    cos: &Csr<T>,
    h: &Dense<T>,
    hp: &Dense<T>,
    g: &Dense<T>,
    beta: T,
) -> AgnnBackward<T> {
    let d = sddmm::sddmm_pattern(a, g, hp);
    let ds = masked::row_softmax_backward(psi, &d);
    let dbeta: T = masked::row_dots(&ds, cos).into_iter().sum();
    let dcos = ds.map_values(|v| beta * v);
    let norms = blocks::row_l2_norms(h);
    let inv = |x: T| {
        if x == T::zero() {
            T::zero()
        } else {
            T::one() / x
        }
    };
    let p = {
        let mut vals = dcos.values().to_vec();
        let indptr = dcos.indptr().to_vec();
        let indices = dcos.indices();
        for r in 0..dcos.rows() {
            let ir = inv(norms[r]);
            for idx in indptr[r]..indptr[r + 1] {
                vals[idx] *= ir * inv(norms[indices[idx] as usize]);
            }
        }
        dcos.with_values(vals)
    };
    let ph = spmm::spmm(&p, h);
    let tc = masked::hadamard(&dcos, cos);
    let row_corr = masked::row_sums(&tc);
    AgnnBackward {
        p,
        ph,
        tc,
        row_corr,
        dbeta,
    }
}

// ---------------------------------------------------------------------------
// Exec dispatchers — the only entry points layer code should use
// ---------------------------------------------------------------------------

/// VA forward through the selected execution path.
pub fn forward_va<T: Scalar>(
    exec: AttentionExec,
    a: &Csr<T>,
    h: &Dense<T>,
    want_cache: bool,
) -> FusedAttention<T> {
    match exec {
        AttentionExec::FusedOnePass => attention_forward_va(a, h, want_cache),
        AttentionExec::Staged => staged_forward_va(a, h, want_cache),
    }
}

/// AGNN forward through the selected execution path.
pub fn forward_agnn<T: Scalar>(
    exec: AttentionExec,
    a: &Csr<T>,
    h: &Dense<T>,
    hp: &Dense<T>,
    beta: T,
    want_cache: bool,
) -> FusedAttention<T> {
    match exec {
        AttentionExec::FusedOnePass => attention_forward_agnn(a, h, hp, beta, want_cache),
        AttentionExec::Staged => staged_forward_agnn(a, h, hp, beta, want_cache),
    }
}

/// GAT forward through the selected execution path.
pub fn forward_gat<T: Scalar>(
    exec: AttentionExec,
    a: &Csr<T>,
    u: &[T],
    v: &[T],
    hp: &Dense<T>,
    slope: f64,
    want_cache: bool,
) -> FusedAttention<T> {
    match exec {
        AttentionExec::FusedOnePass => attention_forward_gat(a, u, v, hp, slope, want_cache),
        AttentionExec::Staged => staged_forward_gat(a, u, v, hp, slope, want_cache),
    }
}

/// VA backward through the selected execution path.
pub fn backward_va<T: Scalar>(
    exec: AttentionExec,
    a: &Csr<T>,
    m: &Dense<T>,
    h: &Dense<T>,
) -> (Csr<T>, Dense<T>) {
    match exec {
        AttentionExec::FusedOnePass => attention_backward_va(a, m, h),
        AttentionExec::Staged => staged_backward_va(a, m, h),
    }
}

/// GAT backward through the selected execution path.
#[allow(clippy::too_many_arguments)]
pub fn backward_gat<T: Scalar>(
    exec: AttentionExec,
    a: &Csr<T>,
    psi: &Csr<T>,
    c_pre: &Csr<T>,
    hp: &Dense<T>,
    g: &Dense<T>,
    slope: f64,
) -> (Csr<T>, Vec<T>) {
    match exec {
        AttentionExec::FusedOnePass => attention_backward_gat(a, psi, c_pre, hp, g, slope),
        AttentionExec::Staged => staged_backward_gat(a, psi, c_pre, hp, g, slope),
    }
}

/// AGNN backward through the selected execution path.
#[allow(clippy::too_many_arguments)]
pub fn backward_agnn<T: Scalar>(
    exec: AttentionExec,
    a: &Csr<T>,
    psi: &Csr<T>,
    cos: &Csr<T>,
    h: &Dense<T>,
    hp: &Dense<T>,
    g: &Dense<T>,
    beta: T,
) -> AgnnBackward<T> {
    match exec {
        AttentionExec::FusedOnePass => attention_backward_agnn(a, psi, cos, h, hp, g, beta),
        AttentionExec::Staged => staged_backward_agnn(a, psi, cos, h, hp, g, beta),
    }
}

// ---------------------------------------------------------------------------
// Ψ-only helpers and distributed block wrappers
// ---------------------------------------------------------------------------

/// `Ψ = A ⊙ (H Hᵀ)` alone (the VA layer's public `psi` accessor).
pub fn va_psi<T: Scalar>(a: &Csr<T>, h: &Dense<T>) -> Csr<T> {
    fused::va_scores(a, h)
}

/// AGNN's softmaxed cosine attention matrix alone.
pub fn agnn_psi<T: Scalar>(a: &Csr<T>, h: &Dense<T>, beta: T) -> Csr<T> {
    let (scores, _) = fused::agnn_scores(a, h, beta);
    masked::row_softmax(&scores)
}

/// GAT's softmaxed attention matrix alone (from precomputed `u`, `v`).
pub fn gat_psi<T: Scalar>(a: &Csr<T>, u: &[T], v: &[T], slope: f64) -> Csr<T> {
    let (e, _) = fused::gat_scores(a, u, v, slope);
    masked::row_softmax(&e)
}

/// Staged VA block scores for the distributed 2D-partitioned path, where
/// the softmax row reduction spans a whole grid row and cannot stream
/// locally: `A_block ⊙ (X Yᵀ)`.
pub fn staged_va_block_scores<T: Scalar>(a: &Csr<T>, x: &Dense<T>, y: &Dense<T>) -> Csr<T> {
    sddmm::sddmm_pattern(a, x, y)
}

/// Staged AGNN block scores (distributed path): row-side features/norms
/// differ from column-side on off-diagonal blocks.
pub fn staged_agnn_block_scores<T: Scalar>(
    a: &Csr<T>,
    x: &Dense<T>,
    y: &Dense<T>,
    nx: &[T],
    ny: &[T],
    beta: T,
) -> (Csr<T>, Csr<T>) {
    fused::agnn_scores_block(a, x, y, nx, ny, beta)
}

/// Staged GAT block scores (distributed path).
pub fn staged_gat_block_scores<T: Scalar>(
    a: &Csr<T>,
    u: &[T],
    v: &[T],
    slope: f64,
) -> (Csr<T>, Csr<T>) {
    fused::gat_scores(a, u, v, slope)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::csr;

    fn graph() -> Csr<f64> {
        let mut coo = Coo::from_edges(
            6,
            6,
            vec![
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 0),
                (1, 4),
                (0, 3),
            ],
        );
        coo.symmetrize_binary();
        Csr::from_coo(&coo)
    }

    fn feats(n: usize, k: usize, seed: usize) -> Dense<f64> {
        Dense::from_fn(n, k, |i, j| {
            ((i * 31 + j * 17 + seed * 7) % 23) as f64 / 11.0 - 1.0
        })
    }

    #[test]
    fn fused_va_forward_matches_staged() {
        let a = graph();
        let h = feats(6, 3, 1);
        let fused = attention_forward_va(&a, &h, true);
        let staged = staged_forward_va(&a, &h, true);
        assert!(fused.out.max_abs_diff(&staged.out) < 1e-12);
        let (fp, sp) = (fused.psi.unwrap(), staged.psi.unwrap());
        for (x, y) in fp.values().iter().zip(sp.values()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn fused_agnn_forward_matches_staged() {
        let a = graph();
        let h = feats(6, 3, 2);
        let hp = feats(6, 4, 3);
        let fused = attention_forward_agnn(&a, &h, &hp, 1.3, true);
        let staged = staged_forward_agnn(&a, &h, &hp, 1.3, true);
        assert!(fused.out.max_abs_diff(&staged.out) < 1e-12);
        let (fp, sp) = (fused.psi.unwrap(), staged.psi.unwrap());
        for (x, y) in fp.values().iter().zip(sp.values()) {
            assert!((x - y).abs() < 1e-12);
        }
        let (fc, sc) = (fused.scores.unwrap(), staged.scores.unwrap());
        for (x, y) in fc.values().iter().zip(sc.values()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn fused_gat_forward_matches_staged() {
        let a = graph();
        let hp = feats(6, 4, 4);
        let u: Vec<f64> = (0..6).map(|i| (i as f64) * 0.3 - 1.0).collect();
        let v: Vec<f64> = (0..6).map(|i| 0.7 - (i as f64) * 0.2).collect();
        let fused = attention_forward_gat(&a, &u, &v, &hp, 0.2, true);
        let staged = staged_forward_gat(&a, &u, &v, &hp, 0.2, true);
        assert!(fused.out.max_abs_diff(&staged.out) < 1e-12);
        let (fp, sp) = (fused.psi.unwrap(), staged.psi.unwrap());
        for (x, y) in fp.values().iter().zip(sp.values()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn fused_psi_rows_sum_to_one() {
        let a = graph();
        let hp = feats(6, 4, 5);
        let u = vec![0.5f64; 6];
        let v = vec![-0.25f64; 6];
        let psi = attention_forward_gat(&a, &u, &v, &hp, 0.2, true)
            .psi
            .unwrap();
        for total in masked::row_sums(&psi) {
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn streaming_softmax_handles_all_negative_rows() {
        // Large negative scores: the running max keeps every exponent at
        // most 0, so nothing underflows to a 0/0.
        let a = graph();
        let hp = feats(6, 4, 6);
        let u = vec![-1e4f64; 6];
        let v = vec![-500.0f64; 6];
        let fa = attention_forward_gat(&a, &u, &v, &hp, 0.2, true);
        let psi = fa.psi.unwrap();
        assert!(psi.values().iter().all(|p| p.is_finite() && *p >= 0.0));
        for total in masked::row_sums(&psi) {
            assert!((total - 1.0).abs() < 1e-12);
        }
        let staged = staged_forward_gat(&a, &u, &v, &hp, 0.2, false);
        assert!(fa.out.max_abs_diff(&staged.out) < 1e-12);
    }

    #[test]
    fn empty_rows_produce_zero_output() {
        let coo = Coo::from_triplets(3, 3, vec![(0, 1)], vec![1.0]);
        let a: Csr<f64> = Csr::from_coo(&coo);
        let hp = feats(3, 2, 7);
        let u = vec![0.1f64; 3];
        let v = vec![0.2f64; 3];
        let fa = attention_forward_gat(&a, &u, &v, &hp, 0.2, false);
        for j in 0..2 {
            assert_eq!(fa.out[(1, j)], 0.0);
            assert_eq!(fa.out[(2, j)], 0.0);
        }
    }

    #[test]
    fn inference_sweep_allocates_no_csr_values() {
        let a = graph();
        let h = feats(6, 3, 8);
        let hp = feats(6, 4, 9);
        let u = vec![0.4f64; 6];
        let v = vec![0.6f64; 6];
        let before = csr::value_allocs();
        let _ = attention_forward_va(&a, &h, false);
        let _ = attention_forward_agnn(&a, &h, &hp, 1.0, false);
        let _ = attention_forward_gat(&a, &u, &v, &hp, 0.2, false);
        assert_eq!(
            csr::value_allocs() - before,
            0,
            "fused inference must not allocate intermediate score matrices"
        );
    }

    #[test]
    fn fused_gat_backward_matches_staged() {
        let a = graph();
        let hp = feats(6, 4, 10);
        let g = feats(6, 4, 11);
        let u: Vec<f64> = (0..6).map(|i| (i as f64) * 0.25 - 0.6).collect();
        let v: Vec<f64> = (0..6).map(|i| 0.1 * (i as f64)).collect();
        let fa = attention_forward_gat(&a, &u, &v, &hp, 0.2, true);
        let (psi, c_pre) = (fa.psi.unwrap(), fa.scores.unwrap());
        let (dc_f, du_f) = attention_backward_gat(&a, &psi, &c_pre, &hp, &g, 0.2);
        let (dc_s, du_s) = staged_backward_gat(&a, &psi, &c_pre, &hp, &g, 0.2);
        for (x, y) in dc_f.values().iter().zip(dc_s.values()) {
            assert!((x - y).abs() < 1e-12);
        }
        for (x, y) in du_f.iter().zip(&du_s) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn fused_agnn_backward_matches_staged() {
        let a = graph();
        let h = feats(6, 3, 12);
        let hp = feats(6, 4, 13);
        let g = feats(6, 4, 14);
        let beta = 0.9;
        let fa = attention_forward_agnn(&a, &h, &hp, beta, true);
        let (psi, cos) = (fa.psi.unwrap(), fa.scores.unwrap());
        let f = attention_backward_agnn(&a, &psi, &cos, &h, &hp, &g, beta);
        let s = staged_backward_agnn(&a, &psi, &cos, &h, &hp, &g, beta);
        assert!((f.dbeta - s.dbeta).abs() < 1e-12);
        assert!(f.ph.max_abs_diff(&s.ph) < 1e-12);
        for (x, y) in f.p.values().iter().zip(s.p.values()) {
            assert!((x - y).abs() < 1e-12);
        }
        for (x, y) in f.tc.values().iter().zip(s.tc.values()) {
            assert!((x - y).abs() < 1e-12);
        }
        for (x, y) in f.row_corr.iter().zip(&s.row_corr) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn fused_va_backward_matches_staged() {
        let a = graph();
        let h = feats(6, 3, 15);
        let m = feats(6, 3, 16);
        let (n_f, nh_f) = attention_backward_va(&a, &m, &h);
        let (n_s, nh_s) = staged_backward_va(&a, &m, &h);
        assert!(nh_f.max_abs_diff(&nh_s) < 1e-12);
        for (x, y) in n_f.values().iter().zip(n_s.values()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn aggregate_row_is_tile_size_invariant() {
        // The accumulation order per output element never depends on the
        // tile width, so results are bit-identical across tile sizes.
        let src = feats(5, 19, 17);
        let cols: Vec<u32> = vec![0, 2, 3, 4];
        let p = [0.3f64, -0.7, 1.1, 0.05];
        let mut reference = vec![0.0f64; 19];
        aggregate_row(&mut reference, &cols, &p, &src, usize::MAX);
        for tile in [1usize, 2, 3, 7, 16, 19, 64] {
            let mut out = vec![0.0f64; 19];
            aggregate_row(&mut out, &cols, &p, &src, tile);
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "tile={tile} changed bits");
            }
        }
    }

    #[test]
    fn auto_col_tile_is_lane_shaped_and_bounded() {
        for (k, bytes) in [
            (1usize, 8usize),
            (7, 8),
            (64, 4),
            (1 << 20, 8),
            (1 << 20, 4),
        ] {
            let t = auto_col_tile(k, bytes);
            assert_eq!(t % micro::LANE, 0, "k={k}: tiles must be whole vectors");
            assert!(t >= micro::LANE, "k={k}: tile below one lane");
        }
        // Small feature counts round up to whole vectors covering k…
        assert_eq!(auto_col_tile(1, 8), micro::LANE);
        assert!(auto_col_tile(64, 8) >= 64);
        // …and huge ones are capped by the L1 budget.
        let budget = rt::l1d_cache_bytes() / 4 / 8;
        assert!(auto_col_tile(1 << 20, 8) <= budget.max(micro::LANE));
    }

    #[test]
    fn padded_layout_is_bit_transparent_through_the_fused_sweep() {
        // Scores read logical rows and the aggregation is elementwise, so
        // running the sweep on padded operands must reproduce the tight
        // pipeline bit-for-bit (and keep the padding tails zero).
        let a = graph();
        let hp = feats(6, 5, 20);
        let u: Vec<f64> = (0..6).map(|i| (i as f64) * 0.3 - 1.0).collect();
        let v: Vec<f64> = (0..6).map(|i| 0.7 - (i as f64) * 0.2).collect();
        let tight = attention_forward_gat(&a, &u, &v, &hp, 0.2, true);
        let padded = attention_forward_gat(&a, &u, &v, &hp.padded(), 0.2, true);
        assert!(padded.out.is_padded() && padded.out.padding_is_zero());
        for r in 0..6 {
            for (x, y) in padded.out.row(r).iter().zip(tight.out.row(r)) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        let (tp, pp) = (tight.psi.unwrap(), padded.psi.unwrap());
        for (x, y) in tp.values().iter().zip(pp.values()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn gat_writing_forms_overwrite_stale_buffers_bitwise() {
        // A training step hands the writing forms buffers that still hold
        // the last step's values: the result must not see them.
        let a = crate::norm::add_self_loops(&graph());
        let u: Vec<f64> = (0..6).map(|i| (i as f64) * 0.3 - 1.0).collect();
        let v: Vec<f64> = (0..6).map(|i| 0.7 - (i as f64) * 0.2).collect();
        let same = |x: &Dense<f64>, y: &Dense<f64>| {
            (0..x.rows()).all(|r| {
                x.row(r)
                    .iter()
                    .zip(y.row(r))
                    .all(|(p, q)| p.to_bits() == q.to_bits())
            })
        };
        for hp in [feats(6, 5, 21), feats(6, 5, 21).padded()] {
            let g = feats(6, 5, 22);
            let g = if hp.is_padded() { g.padded() } else { g };
            let (want_z, stats) = attention_forward_gat_stats(&a, &u, &v, &hp, 0.2);
            let (want_dc, want_du) =
                attention_backward_gat_virtual(&a, &u, &v, &stats, &hp, &g, 0.2);
            let want_pt = attention_psi_t_gat_virtual(&a, &u, &v, &stats, &g, 0.2);
            let mut stale = hp.clone();
            for r in 0..6 {
                stale.row_mut(r).fill(f64::NAN);
            }
            let mut z = stale.clone();
            let got_stats = attention_forward_gat_stats_into(&a, &u, &v, &hp, 0.2, &mut z);
            assert!(same(&z, &want_z) && z.padding_is_zero());
            assert_eq!(format!("{got_stats:?}"), format!("{stats:?}"));
            let mut dc = vec![f64::NAN; a.nnz()];
            let du = attention_backward_gat_virtual_into(&a, &u, &v, &stats, &hp, &g, 0.2, &mut dc);
            assert_eq!(bits(&dc), bits(want_dc.values()));
            assert_eq!(bits(&du), bits(&want_du));
            assert_eq!(
                bits(&masked::col_sums_on(&a, &dc)),
                bits(&masked::col_sums(&want_dc))
            );
            let mut pt = stale;
            attention_psi_t_gat_virtual_into(&a, &u, &v, &stats, &g, 0.2, &mut pt);
            assert!(same(&pt, &want_pt) && pt.padding_is_zero());
        }
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn zero_norm_rows_give_zero_cosine() {
        let a = graph();
        let mut h = feats(6, 3, 18);
        for v in h.row_mut(0) {
            *v = 0.0;
        }
        let hp = feats(6, 2, 19);
        let fa = attention_forward_agnn(&a, &h, &hp, 1.0, true);
        let cos = fa.scores.unwrap();
        assert!(cos.values().iter().all(|v| v.is_finite()));
        assert_eq!(cos.get(0, 1), 0.0);
    }
}
