//! Distributed forward and backward passes for VA, AGNN, GAT and GCN.
//!
//! Each function is the SPMD body executed by one rank. The layouts:
//!
//! * input features arrive as the replicated column-side block `H_j`;
//! * outputs leave as the replicated column-side block `Z_j` (ready to be
//!   the next layer's input after the local `σ`);
//! * gradients flow in the same column-side layout;
//! * parameter gradients are returned *un-reduced* (the caller all-reduces
//!   them once per training step, matching the replicated-parameter
//!   scheme).
//!
//! The communication per layer is exactly the paper's recipe: one
//! row-side broadcast (`O(nk/√p)`), softmax row reductions (`O(n/√p)`),
//! one reduce+redistribute for the output (`O(nk/√p)`), and column-team
//! all-reduces for the transpose products in the backward pass
//! (`O(nk/√p)`).

use crate::context::DistContext;
use atgnn_sparse::attention::{self, AttentionExec};
use atgnn_sparse::{masked, sddmm, spmm, Csr};
use atgnn_tensor::rt::{self, Cost, DisjointSlice};
use atgnn_tensor::{blocks, gemm, ops, Activation, Dense, Scalar};

/// Per-rank cached intermediates of one distributed layer forward pass.
pub struct DistCache<T: Scalar> {
    /// The input column-side block `H_j`.
    pub h_in: Dense<T>,
    /// The pre-activation output block `Z_j` (column-side, replicated).
    pub z: Dense<T>,
    /// The attention block `Ψ[i][j]` after softmax (where applicable).
    pub psi: Option<Csr<T>>,
    /// Pre-activation edge scores (GAT `C` values) or cosines (AGNN).
    pub scores: Option<Csr<T>>,
    /// Projected column-side features `H'_j = H_j W`.
    pub h_proj: Option<Dense<T>>,
    /// Row-side broadcast input block `H_i`.
    pub h_row: Option<Dense<T>>,
    /// Aggregated block `（Ψ H)_j` (VA weight gradient).
    pub h_agg: Option<Dense<T>>,
    /// GAT per-vertex scores: row-side `u_i`.
    pub u_row: Option<Vec<T>>,
    /// Per-head sub-caches (multi-head attention).
    pub sub: Vec<DistCache<T>>,
}

impl<T: Scalar> DistCache<T> {
    /// A fresh cache for one layer evaluation.
    pub fn new(h_in: Dense<T>) -> Self {
        Self {
            h_in,
            z: Dense::zeros(0, 0),
            psi: None,
            scores: None,
            h_proj: None,
            h_row: None,
            h_agg: None,
            u_row: None,
            sub: Vec::new(),
        }
    }
}

/// Parameter gradients of one distributed layer (un-reduced local
/// contributions, slot-aligned with the shared-memory layers).
pub type DistGrads<T> = Vec<Vec<T>>;

// ---------------------------------------------------------------------
// VA
// ---------------------------------------------------------------------

/// Distributed VA forward: `Ψ = A ⊙ (H Hᵀ)`, `Z = Ψ H W`.
///
/// On a 1×1 grid the whole sandwich lives on one rank, so the fused plan
/// runs the one-pass sweep; on larger grids the softmax-free VA sandwich
/// still needs `Ψ` materialized for the row reduction, so both plans take
/// the staged block pipeline.
pub fn forward_va<T: Scalar>(
    ctx: &DistContext<'_, T>,
    exec: AttentionExec,
    w: &Dense<T>,
    h_j: &Dense<T>,
) -> DistCache<T> {
    // Row-side H_i: one broadcast along the grid row.
    let h_i = ctx.bcast_row_side(h_j);
    let (psi, partial) = if exec == AttentionExec::FusedOnePass && ctx.grid.q == 1 {
        let fa = attention::attention_forward_va(&ctx.a_block, h_j, true);
        (fa.psi.expect("va fused sweep caches Ψ"), fa.out)
    } else {
        // SDDMM on the stationary block, then the local partial SpMM.
        let psi = attention::staged_va_block_scores(&ctx.a_block, &h_i, h_j);
        let partial = spmm::spmm(&psi, h_j);
        (psi, partial)
    };
    let h_agg = ctx.reduce_rows_redistribute(partial);
    let z = gemm::matmul(&h_agg, w);
    let mut cache = DistCache::new(h_j.clone());
    cache.z = z;
    cache.psi = Some(psi);
    cache.h_row = Some(h_i);
    cache.h_agg = Some(h_agg);
    cache
}

/// Distributed VA backward (paper Eqs. 11–13 in block form).
pub fn backward_va<T: Scalar>(
    ctx: &DistContext<'_, T>,
    w: &Dense<T>,
    cache: &DistCache<T>,
    g_j: &Dense<T>,
) -> (Dense<T>, DistGrads<T>) {
    let psi = cache.psi.as_ref().expect("VA dist cache psi");
    let h_i = cache.h_row.as_ref().expect("VA dist cache h_row");
    let h_j = &cache.h_in;
    let h_agg = cache.h_agg.as_ref().expect("VA dist cache h_agg");
    // M = G Wᵀ in both layouts: local column-side + row-side broadcast.
    let m_j = gemm::matmul_nt(g_j, w);
    let m_i = ctx.bcast_row_side(&m_j);
    // N[i][j] = A ⊙ (M_i H_jᵀ).
    let n = sddmm::sddmm_pattern(&ctx.a_block, &m_i, h_j);
    // dH = N H  (forward-oriented product: reduce over rows)
    let dh_forward = ctx.reduce_rows_redistribute(spmm::spmm(&n, h_j));
    //    + Nᵀ H + Ψᵀ M  (transpose products: all-reduce along columns).
    let mut dh_t = spmm::spmm_t(&n, h_i);
    ops::add_assign(&mut dh_t, &spmm::spmm_t(psi, &m_i));
    let dh_t = ctx.allreduce_col(dh_t);
    let mut dh = dh_forward;
    ops::add_assign(&mut dh, &dh_t);
    // dW = (Ψ H)ᵀ G: one representative per column team (the diagonal),
    // globally all-reduced by the caller.
    let dw = if ctx.i == ctx.j {
        gemm::matmul_tn(h_agg, g_j)
    } else {
        Dense::zeros(w.rows(), w.cols())
    };
    (dh, vec![dw.into_vec()])
}

// ---------------------------------------------------------------------
// GCN
// ---------------------------------------------------------------------

/// Distributed GCN forward: `Z = Â H W` (project first, as the SpMM then
/// runs at the output width).
pub fn forward_gcn<T: Scalar>(
    ctx: &DistContext<'_, T>,
    w: &Dense<T>,
    h_j: &Dense<T>,
) -> DistCache<T> {
    let hp_j = gemm::matmul(h_j, w);
    let partial = spmm::spmm(&ctx.a_block, &hp_j);
    let z = ctx.reduce_rows_redistribute(partial);
    let mut cache = DistCache::new(h_j.clone());
    cache.z = z;
    cache
}

/// Distributed GCN backward: `t = Âᵀ G`, `∂H = t Wᵀ`, `∂W = Hᵀ t`.
pub fn backward_gcn<T: Scalar>(
    ctx: &DistContext<'_, T>,
    w: &Dense<T>,
    cache: &DistCache<T>,
    g_j: &Dense<T>,
) -> (Dense<T>, DistGrads<T>) {
    let h_j = &cache.h_in;
    let g_i = ctx.bcast_row_side(g_j);
    let t_j = ctx.allreduce_col(spmm::spmm_t(&ctx.a_block, &g_i));
    let dh = gemm::matmul_nt(&t_j, w);
    let dw = if ctx.i == ctx.j {
        gemm::matmul_tn(h_j, &t_j)
    } else {
        Dense::zeros(w.rows(), w.cols())
    };
    (dh, vec![dw.into_vec()])
}

// ---------------------------------------------------------------------
// GIN
// ---------------------------------------------------------------------

/// Distributed GIN forward: `S = A H + (1+ε) H`, `Z = ReLU(S W₁) W₂`.
/// One reduce+redistribute for the aggregation; the MLP is local.
pub fn forward_gin<T: Scalar>(
    ctx: &DistContext<'_, T>,
    w1: &Dense<T>,
    w2: &Dense<T>,
    eps: T,
    h_j: &Dense<T>,
) -> DistCache<T> {
    // A[i][j]'s column range matches the locally replicated block H_j —
    // no row-side broadcast is needed (GIN has no SDDMM).
    let mut s = ctx.reduce_rows_redistribute(spmm::spmm(&ctx.a_block, h_j));
    ops::axpy(&mut s, T::one() + eps, h_j);
    let z1 = gemm::matmul(&s, w1);
    let z = gemm::matmul(&Activation::Relu.apply(&z1), w2);
    let mut cache = DistCache::new(h_j.clone());
    cache.z = z;
    cache.h_agg = Some(s);
    cache.h_proj = Some(z1);
    cache
}

/// Distributed GIN backward.
pub fn backward_gin<T: Scalar>(
    ctx: &DistContext<'_, T>,
    w1: &Dense<T>,
    w2: &Dense<T>,
    eps: T,
    cache: &DistCache<T>,
    g_j: &Dense<T>,
) -> (Dense<T>, DistGrads<T>) {
    let s = cache.h_agg.as_ref().expect("GIN dist cache S");
    let z1 = cache.h_proj.as_ref().expect("GIN dist cache Z1");
    let h_j = &cache.h_in;
    let r = Activation::Relu.apply(z1);
    let mut dz1 = gemm::matmul_nt(g_j, w2);
    Activation::Relu.chain_assign(&mut dz1, z1);
    let ds_j = gemm::matmul_nt(&dz1, w1);
    // dH = Aᵀ dS + (1+ε) dS: transpose product over the grid columns.
    let ds_i = ctx.bcast_row_side(&ds_j);
    let mut dh = ctx.allreduce_col(spmm::spmm_t(&ctx.a_block, &ds_i));
    ops::axpy(&mut dh, T::one() + eps, &ds_j);
    // Parameter gradients from the diagonal representatives.
    let (dw1, dw2, deps) = if ctx.i == ctx.j {
        (
            gemm::matmul_tn(s, &dz1),
            gemm::matmul_tn(&r, g_j),
            ops::total_sum(&ops::hadamard(&ds_j, h_j)),
        )
    } else {
        (
            Dense::zeros(w1.rows(), w1.cols()),
            Dense::zeros(w2.rows(), w2.cols()),
            T::zero(),
        )
    };
    (dh, vec![dw1.into_vec(), dw2.into_vec(), vec![deps]])
}

// ---------------------------------------------------------------------
// AGNN
// ---------------------------------------------------------------------

/// Distributed AGNN forward:
/// `Ψ = sm(A ⊙ (β · H Hᵀ ⊘ n nᵀ))`, `Z = Ψ H W`.
/// On a 1×1 grid the softmax row reduction is local, so the fused plan
/// runs the one-pass sweep; on larger grids the row reduction spans the
/// grid row and the scores must be materialized for `dist_row_softmax`.
pub fn forward_agnn<T: Scalar>(
    ctx: &DistContext<'_, T>,
    exec: AttentionExec,
    w: &Dense<T>,
    beta: T,
    h_j: &Dense<T>,
) -> DistCache<T> {
    let h_i = ctx.bcast_row_side(h_j);
    let hp_j = gemm::matmul(h_j, w);
    let (psi, cos, partial) = if exec == AttentionExec::FusedOnePass && ctx.grid.q == 1 {
        let fa = attention::attention_forward_agnn(&ctx.a_block, h_j, &hp_j, beta, true);
        (
            fa.psi.expect("agnn fused sweep caches Ψ"),
            fa.scores.expect("agnn fused sweep caches cosines"),
            fa.out,
        )
    } else {
        // Norms are local to each side (recomputed, cheaper than a message).
        let n_i = blocks::row_l2_norms(&h_i);
        let n_j = blocks::row_l2_norms(h_j);
        let (scores, cos) =
            attention::staged_agnn_block_scores(&ctx.a_block, &h_i, h_j, &n_i, &n_j, beta);
        let psi = ctx.dist_row_softmax(&scores);
        let partial = spmm::spmm(&psi, &hp_j);
        (psi, cos, partial)
    };
    let z = ctx.reduce_rows_redistribute(partial);
    let mut cache = DistCache::new(h_j.clone());
    cache.z = z;
    cache.psi = Some(psi);
    cache.scores = Some(cos);
    cache.h_proj = Some(hp_j);
    cache.h_row = Some(h_i);
    cache
}

/// Distributed AGNN backward.
pub fn backward_agnn<T: Scalar>(
    ctx: &DistContext<'_, T>,
    w: &Dense<T>,
    beta: T,
    cache: &DistCache<T>,
    g_j: &Dense<T>,
) -> (Dense<T>, DistGrads<T>) {
    let psi = cache.psi.as_ref().expect("AGNN dist cache psi");
    let cos = cache.scores.as_ref().expect("AGNN dist cache cos");
    let hp_j = cache.h_proj.as_ref().expect("AGNN dist cache h_proj");
    let h_i = cache.h_row.as_ref().expect("AGNN dist cache h_row");
    let h_j = &cache.h_in;
    let g_i = ctx.bcast_row_side(g_j);
    // D = A ⊙ (G (HW)ᵀ): row side G_i, column side H'_j.
    let d = sddmm::sddmm_pattern(&ctx.a_block, &g_i, hp_j);
    // Softmax backward with the row-dot reduction along the grid row.
    let local_dots = masked::row_dots(psi, &d);
    let r = ctx.allreduce_row_vec(local_dots, |a, b| a + b);
    let ds = masked::row_softmax_backward_with_dots(psi, &d, &r);
    // ∂β — a scalar all-reduce (deferred to the caller's parameter
    // all-reduce; the local contribution is this block's sum).
    let dbeta: T = masked::row_dots(&ds, cos).into_iter().sum();
    // ∂cos = β ∂S, then the cosine backward.
    let dcos = ds.map_values(|v| beta * v);
    let n_i = blocks::row_l2_norms(h_i);
    let n_j = blocks::row_l2_norms(h_j);
    let inv = |x: T| {
        if x == T::zero() {
            T::zero()
        } else {
            T::one() / x
        }
    };
    // P = diag(1/n_i) · dcos · diag(1/n_j) — the cosine denominator.
    let inv_ni: Vec<T> = n_i.iter().map(|&x| inv(x)).collect();
    let inv_nj: Vec<T> = n_j.iter().map(|&x| inv(x)).collect();
    let p = masked::scale_cols(&masked::scale_rows(&dcos, &inv_ni), &inv_nj);
    // dH = P H (row reduce) + Pᵀ H (column all-reduce) − diagonal terms.
    let mut dh = ctx.reduce_rows_redistribute(spmm::spmm(&p, h_j));
    let dh_t = ctx.allreduce_col(spmm::spmm_t(&p, h_i));
    ops::add_assign(&mut dh, &dh_t);
    // Diagonal corrections, re-expressed in the column blocking: the
    // row-side sums live in the row blocking, so the diagonal rank
    // rebroadcasts its block down the grid column.
    let tc = masked::hadamard(&dcos, cos);
    let row_corr_i = ctx.allreduce_row_vec(masked::row_sums(&tc), |a, b| a + b);
    let row_corr_j = ctx.bcast_col_side_vec((ctx.i == ctx.j).then(|| row_corr_i.clone()));
    let col_corr_j = ctx.allreduce_col_vec(masked::col_sums(&tc), |a, b| a + b);
    let k = dh.cols();
    let rows = dh.rows();
    let slots = DisjointSlice::new(dh.as_mut_slice());
    rt::parallel_for(rows, Cost::Uniform, rows * k >= 16 * 1024, |lo, hi| {
        // SAFETY: row ranges are disjoint across chunk bodies.
        let part = unsafe { slots.range_mut(lo * k, hi * k) };
        for (v, orow) in (lo..hi).zip(part.chunks_mut(k.max(1))) {
            let coef = (row_corr_j[v] + col_corr_j[v]) * inv_nj[v] * inv_nj[v];
            for (o, &hv) in orow.iter_mut().zip(h_j.row(v)) {
                *o -= coef * hv;
            }
        }
    });
    // Product-rule terms of Z = Ψ (H W).
    let dhp_j = ctx.allreduce_col(spmm::spmm_t(psi, &g_i));
    ops::add_assign(&mut dh, &gemm::matmul_nt(&dhp_j, w));
    let dw = if ctx.i == ctx.j {
        gemm::matmul_tn(h_j, &dhp_j)
    } else {
        Dense::zeros(w.rows(), w.cols())
    };
    (dh, vec![dw.into_vec(), vec![dbeta]])
}

// ---------------------------------------------------------------------
// GAT
// ---------------------------------------------------------------------

/// Distributed GAT forward:
/// `Ψ = sm(A ⊙ LeakyReLU(u 𝟙ᵀ + 𝟙 vᵀ))`, `Z = Ψ H'`.
/// On a 1×1 grid the fused plan runs the one-pass sweep; larger grids
/// need the staged block scores for the distributed softmax.
pub fn forward_gat<T: Scalar>(
    ctx: &DistContext<'_, T>,
    exec: AttentionExec,
    w: &Dense<T>,
    a_src: &[T],
    a_dst: &[T],
    slope: f64,
    h_j: &Dense<T>,
) -> DistCache<T> {
    let hp_j = gemm::matmul(h_j, w);
    let (u_j, v_j) = gemm::matvec_pair(&hp_j, hp_j.rows(), a_src, a_dst);
    // Row side only needs u_i — a length-n/√p *vector*, an O(n/√p)
    // broadcast instead of the O(nk/√p) feature block: the split
    // concatenation of Figure 2 is what makes this possible.
    let u_i = ctx.bcast_row_side_vec(&u_j);
    let (psi, c_pre, partial) = if exec == AttentionExec::FusedOnePass && ctx.grid.q == 1 {
        let fa = attention::attention_forward_gat(&ctx.a_block, &u_i, &v_j, &hp_j, slope, true);
        (
            fa.psi.expect("gat fused sweep caches Ψ"),
            fa.scores.expect("gat fused sweep caches C"),
            fa.out,
        )
    } else {
        let (e, c_pre) = attention::staged_gat_block_scores(&ctx.a_block, &u_i, &v_j, slope);
        let psi = ctx.dist_row_softmax(&e);
        let partial = spmm::spmm(&psi, &hp_j);
        (psi, c_pre, partial)
    };
    let z = ctx.reduce_rows_redistribute(partial);
    let mut cache = DistCache::new(h_j.clone());
    cache.z = z;
    cache.psi = Some(psi);
    cache.scores = Some(c_pre);
    cache.h_proj = Some(hp_j);
    cache.u_row = Some(u_i);
    cache
}

/// Distributed GAT backward.
pub fn backward_gat<T: Scalar>(
    ctx: &DistContext<'_, T>,
    w: &Dense<T>,
    a_src: &[T],
    a_dst: &[T],
    slope: f64,
    cache: &DistCache<T>,
    g_j: &Dense<T>,
) -> (Dense<T>, DistGrads<T>) {
    let psi = cache.psi.as_ref().expect("GAT dist cache psi");
    let c_pre = cache.scores.as_ref().expect("GAT dist cache scores");
    let hp_j = cache.h_proj.as_ref().expect("GAT dist cache h_proj");
    let h_j = &cache.h_in;
    let g_i = ctx.bcast_row_side(g_j);
    // D = A ⊙ (G H'ᵀ).
    let d = sddmm::sddmm_pattern(&ctx.a_block, &g_i, hp_j);
    // Softmax backward across the full row.
    let r = ctx.allreduce_row_vec(masked::row_dots(psi, &d), |a, b| a + b);
    let de = masked::row_softmax_backward_with_dots(psi, &d, &r);
    // LeakyReLU backward on the cached pre-activation scores.
    let lrelu = Activation::LeakyRelu(slope);
    let dc = masked::zip_values(&de, c_pre, |x, c| x * lrelu.grad(c));
    // ∂u (row blocking) and ∂v (column blocking).
    let du_i = ctx.allreduce_row_vec(masked::row_sums(&dc), |a, b| a + b);
    let dv_j = ctx.allreduce_col_vec(masked::col_sums(&dc), |a, b| a + b);
    // Re-express ∂u in the column blocking for the rank-1 updates.
    let du_j = ctx.bcast_col_side_vec((ctx.i == ctx.j).then(|| du_i.clone()));
    // ∂H' = Ψᵀ G + ∂u a₁ᵀ + ∂v a₂ᵀ.
    let mut dhp_j = ctx.allreduce_col(spmm::spmm_t(psi, &g_i));
    let k = dhp_j.cols();
    let rows = dhp_j.rows();
    let slots = DisjointSlice::new(dhp_j.as_mut_slice());
    rt::parallel_for(rows, Cost::Uniform, rows * k >= 16 * 1024, |lo, hi| {
        // SAFETY: row ranges are disjoint across chunk bodies.
        let part = unsafe { slots.range_mut(lo * k, hi * k) };
        for (v, orow) in (lo..hi).zip(part.chunks_mut(k.max(1))) {
            let (duv, dvv) = (du_j[v], dv_j[v]);
            for ((o, &s), &t) in orow.iter_mut().zip(a_src).zip(a_dst) {
                *o += duv * s + dvv * t;
            }
        }
    });
    // Parameter gradients from one representative per column team.
    let (dw, da_src, da_dst) = if ctx.i == ctx.j {
        (
            gemm::matmul_tn(h_j, &dhp_j),
            gemm::matvec_t(hp_j, &du_j),
            gemm::matvec_t(hp_j, &dv_j),
        )
    } else {
        (
            Dense::zeros(w.rows(), w.cols()),
            vec![T::zero(); a_src.len()],
            vec![T::zero(); a_dst.len()],
        )
    };
    let dh = gemm::matmul_nt(&dhp_j, w);
    (dh, vec![dw.into_vec(), da_src, da_dst])
}
