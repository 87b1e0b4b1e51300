//! Fused virtual-tensor kernels (paper Sections 6.1–6.2).
//!
//! In every considered model the attention-score computation `Ψ(A, H)`
//! passes through a dense `n×n` *virtual* matrix (`H Hᵀ` for VA/AGNN, the
//! replicated score matrix `C` for GAT). Materializing it is infeasible
//! (`n` can exceed 10⁹ in the paper's setting), so the execution DAG is
//! traversed until the first sparse sampler and the whole path is fused
//! into one SDDMM-like kernel that iterates `A`'s non-zeros and evaluates
//! the virtual entries on demand.
//!
//! The `unfused_*` references materialize the intermediates instead; they
//! exist for the fusion ablation (Figure 5) and for tests, and must only be
//! called on small graphs.

use crate::csr::Csr;
use crate::sddmm::sddmm_pattern;
use atgnn_tensor::rt::{self, Cost, DisjointSlice};
use atgnn_tensor::{blocks, gemm, ops, Activation, Dense, Scalar};

/// Stored entries below which the fused score kernels stay sequential.
const PAR_THRESHOLD: usize = 4 * 1024;

/// Fused VA scores: `Ψ = A ⊙ (H Hᵀ)` in one pass over `A`'s non-zeros
/// (the dense `H Hᵀ` is never formed). `A` is assumed binary, so the
/// Hadamard with its values is skipped.
pub fn va_scores<T: Scalar>(a: &Csr<T>, h: &Dense<T>) -> Csr<T> {
    sddmm_pattern(a, h, h)
}

/// Fused AGNN scores: `β · (H Hᵀ ⊘ n nᵀ)` sampled on `A`'s pattern, where
/// `n_i = ‖h_i‖₂` — the cosine similarity of the endpoint features scaled
/// by the learnable temperature `β`.
///
/// Returns `(scores, cosines)`: the backward pass needs the raw cosines.
/// Zero-norm endpoints yield a zero cosine (instead of NaN).
pub fn agnn_scores<T: Scalar>(a: &Csr<T>, h: &Dense<T>, beta: T) -> (Csr<T>, Csr<T>) {
    let norms = blocks::row_l2_norms(h);
    agnn_scores_block(a, h, h, &norms, &norms, beta)
}

/// Block-level variant of [`agnn_scores`] used by the distributed engine:
/// the sampler `A` is an off-diagonal 2D block, so the row-side features
/// `x` (and their norms `nx`) differ from the column-side `y`/`ny`.
pub fn agnn_scores_block<T: Scalar>(
    a: &Csr<T>,
    x: &Dense<T>,
    y: &Dense<T>,
    nx: &[T],
    ny: &[T],
    beta: T,
) -> (Csr<T>, Csr<T>) {
    assert_eq!(a.rows(), x.rows(), "agnn block: x rows");
    assert_eq!(a.cols(), y.rows(), "agnn block: y rows");
    assert_eq!(a.rows(), nx.len(), "agnn block: nx length");
    assert_eq!(a.cols(), ny.len(), "agnn block: ny length");
    let mut cos_values = vec![T::zero(); a.nnz()];
    let indptr = a.indptr();
    let indices = a.indices();
    let parallel = a.nnz() >= PAR_THRESHOLD;
    let slots = DisjointSlice::new(&mut cos_values);
    rt::parallel_for(a.rows(), Cost::Prefix(indptr), parallel, |lo, hi| {
        // SAFETY: row ranges map to disjoint value ranges via indptr.
        let out = unsafe { slots.range_mut(indptr[lo], indptr[hi]) };
        let base = indptr[lo];
        for r in lo..hi {
            let xrow = x.row(r);
            let nr = nx[r];
            for idx in indptr[r]..indptr[r + 1] {
                let c = indices[idx] as usize;
                let denom = nr * ny[c];
                out[idx - base] = if denom == T::zero() {
                    T::zero()
                } else {
                    gemm::dot(xrow, y.row(c)) / denom
                };
            }
        }
    });
    let cos = a.with_values(cos_values);
    let scores = cos.map_values(|v| beta * v);
    (scores, cos)
}

/// Fused GAT edge scores.
///
/// For `H' = H W`, `u = H' a₁`, `v = H' a₂`, the virtual score matrix is
/// `C = u 𝟙ᵀ + 𝟙 vᵀ` (i.e. `C_ij = u_i + v_j`, the split concatenated dot
/// product of Figure 2). This kernel samples `C` on `A`'s pattern and
/// applies the LeakyReLU in the same pass, returning
/// `(E = A ⊙ σ(C), C_pattern)` — the pre-activation values are kept for
/// the backward pass (`σ'(C)`).
pub fn gat_scores<T: Scalar>(a: &Csr<T>, u: &[T], v: &[T], slope: f64) -> (Csr<T>, Csr<T>) {
    assert_eq!(a.rows(), u.len(), "gat_scores: u length mismatch");
    assert_eq!(a.cols(), v.len(), "gat_scores: v length mismatch");
    let act = Activation::LeakyRelu(slope);
    let mut pre = vec![T::zero(); a.nnz()];
    let mut post = vec![T::zero(); a.nnz()];
    let indptr = a.indptr();
    let indices = a.indices();
    let parallel = a.nnz() >= PAR_THRESHOLD;
    let pre_slots = DisjointSlice::new(&mut pre);
    let post_slots = DisjointSlice::new(&mut post);
    rt::parallel_for(a.rows(), Cost::Prefix(indptr), parallel, |lo, hi| {
        // SAFETY: row ranges map to disjoint value ranges via indptr.
        let pre_out = unsafe { pre_slots.range_mut(indptr[lo], indptr[hi]) };
        let post_out = unsafe { post_slots.range_mut(indptr[lo], indptr[hi]) };
        let base = indptr[lo];
        for r in lo..hi {
            let ur = u[r];
            for idx in indptr[r]..indptr[r + 1] {
                let c = indices[idx] as usize;
                let score = ur + v[c];
                pre_out[idx - base] = score;
                post_out[idx - base] = act.eval(score);
            }
        }
    });
    (a.with_values(post), a.with_values(pre))
}

/// Unfused VA reference: materializes the dense `n×n` product `H Hᵀ` and
/// masks it with `A` afterwards. **Ablation/test only** — `O(n²k)` time
/// and `O(n²)` memory.
pub fn unfused_va_scores<T: Scalar>(a: &Csr<T>, h: &Dense<T>) -> Csr<T> {
    let hx = gemm::matmul_nt(h, h);
    mask_dense(a, &hx)
}

/// Unfused GAT reference: materializes `C = rep_n(u) + rep_nᵀ(v)` as a
/// dense `n×n` matrix, applies the LeakyReLU, then masks with `A`.
/// **Ablation/test only.**
pub fn unfused_gat_scores<T: Scalar>(a: &Csr<T>, u: &[T], v: &[T], slope: f64) -> Csr<T> {
    let c = ops::add(&blocks::rep(u, v.len()), &blocks::rep_t(v, u.len()));
    let activated = Activation::LeakyRelu(slope).apply(&c);
    mask_dense(a, &activated)
}

/// Unfused AGNN reference: materializes `H Hᵀ` and the outer product
/// `n nᵀ`, divides, scales by `β`, then masks. **Ablation/test only.**
pub fn unfused_agnn_scores<T: Scalar>(a: &Csr<T>, h: &Dense<T>, beta: T) -> Csr<T> {
    let norms = blocks::row_l2_norms(h);
    let mut hx = gemm::matmul_nt(h, h);
    let nn = blocks::outer(&norms, &norms);
    // Per logical row: `hx` inherits `h`'s layout and may be padded.
    for r in 0..nn.rows() {
        for (x, &d) in hx.row_mut(r).iter_mut().zip(nn.row(r)) {
            *x = if d == T::zero() {
                T::zero()
            } else {
                beta * *x / d
            };
        }
    }
    mask_dense(a, &hx)
}

/// Samples a dense matrix on `A`'s pattern: `out_ij = dense_ij` for stored
/// `(i, j)` (the Hadamard `A ⊙ X` for binary `A`).
pub fn mask_dense<T: Scalar>(a: &Csr<T>, dense: &Dense<T>) -> Csr<T> {
    assert_eq!(a.rows(), dense.rows(), "mask: row mismatch");
    assert_eq!(a.cols(), dense.cols(), "mask: col mismatch");
    let mut values = vec![T::zero(); a.nnz()];
    let indptr = a.indptr();
    let indices = a.indices();
    let parallel = a.nnz() >= PAR_THRESHOLD;
    let slots = DisjointSlice::new(&mut values);
    rt::parallel_for(a.rows(), Cost::Prefix(indptr), parallel, |lo, hi| {
        // SAFETY: row ranges map to disjoint value ranges via indptr.
        let out = unsafe { slots.range_mut(indptr[lo], indptr[hi]) };
        let base = indptr[lo];
        for r in lo..hi {
            for idx in indptr[r]..indptr[r + 1] {
                out[idx - base] = dense[(r, indices[idx] as usize)];
            }
        }
    });
    a.with_values(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn mask() -> Csr<f64> {
        let coo = Coo::from_edges(4, 4, vec![(0, 1), (1, 0), (1, 2), (2, 3), (3, 3), (0, 3)]);
        Csr::from_coo(&coo)
    }

    fn feats() -> Dense<f64> {
        Dense::from_fn(4, 3, |i, j| ((i * 3 + j) % 5) as f64 - 2.0)
    }

    #[test]
    fn fused_va_matches_unfused() {
        let a = mask();
        let h = feats();
        let fused = va_scores(&a, &h);
        let unfused = unfused_va_scores(&a, &h);
        assert!(fused.to_dense().max_abs_diff(&unfused.to_dense()) < 1e-12);
    }

    #[test]
    fn fused_gat_matches_unfused() {
        let a = mask();
        let u: Vec<f64> = vec![0.3, -1.2, 0.7, 2.0];
        let v: Vec<f64> = vec![-0.5, 0.1, 0.0, 1.5];
        let (fused, pre) = gat_scores(&a, &u, &v, 0.2);
        let unfused = unfused_gat_scores(&a, &u, &v, 0.2);
        assert!(fused.to_dense().max_abs_diff(&unfused.to_dense()) < 1e-12);
        // Pre-activation values are the raw sums.
        assert_eq!(pre.get(0, 1), 0.3 + 0.1);
    }

    #[test]
    fn fused_agnn_matches_unfused() {
        let a = mask();
        let h = feats();
        let (fused, cos) = agnn_scores(&a, &h, 1.7);
        let unfused = unfused_agnn_scores(&a, &h, 1.7);
        assert!(fused.to_dense().max_abs_diff(&unfused.to_dense()) < 1e-12);
        // Cosine of an edge between identical rows is 1.
        for &c in cos.values() {
            assert!(c.abs() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn agnn_zero_norm_rows_give_zero_not_nan() {
        let a = mask();
        let mut h = feats();
        for v in h.row_mut(0) {
            *v = 0.0;
        }
        let (scores, _) = agnn_scores(&a, &h, 1.0);
        assert!(scores.values().iter().all(|v| v.is_finite()));
        assert_eq!(scores.get(0, 1), 0.0);
    }

    #[test]
    fn mask_dense_extracts_pattern() {
        let a = mask();
        let d = Dense::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let m = mask_dense(&a, &d);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.get(0, 0), 0.0); // not on pattern
    }

    #[test]
    fn gat_scores_apply_leaky_relu() {
        let a = mask();
        let u = vec![-1.0f64; 4];
        let v = vec![0.0f64; 4];
        let (post, pre) = gat_scores(&a, &u, &v, 0.2);
        for (p, q) in post.values().iter().zip(pre.values()) {
            assert!((q - -1.0).abs() < 1e-15);
            assert!((p - -0.2).abs() < 1e-15);
        }
    }
}
