//! Unfused references for the virtual-tensor fusion (paper Sections
//! 6.1–6.2).
//!
//! In every considered model the attention-score computation `Ψ(A, H)`
//! passes through a dense `n×n` *virtual* matrix (`H Hᵀ` for VA/AGNN, the
//! replicated score matrix `C` for GAT). Materializing it is infeasible
//! (`n` can exceed 10⁹ in the paper's setting), so the execution DAG is
//! traversed until the first sparse sampler and the whole path is fused
//! into one SDDMM-like kernel that iterates `A`'s non-zeros and evaluates
//! the virtual entries on demand: the [`crate::attention::Score`] impls,
//! run by [`crate::attention::scores`] and the fused sweep.
//!
//! The `unfused_*` references here materialize the intermediates instead;
//! they exist for the fusion ablation (Figure 5) and as the check of every
//! score that shares no code with the sweep, and must only be called on
//! small graphs.

use crate::csr::Csr;
use atgnn_tensor::rt::{self, Cost, DisjointSlice};
use atgnn_tensor::{blocks, gemm, ops, Activation, Dense, Scalar};

/// Stored entries below which [`mask_dense`] stays sequential.
const PAR_THRESHOLD: usize = 4 * 1024;

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
fn mask_dense<T: Scalar>(a: &Csr<T>, dense: &Dense<T>) -> Csr<T> {
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
    use crate::attention::{self, Agnn, Gat, Va};
    use crate::coo::Coo;

    fn mask() -> Csr<f64> {
        let coo = Coo::from_edges(4, 4, vec![(0, 1), (1, 0), (1, 2), (2, 3), (3, 3), (0, 3)]);
        Csr::from_coo(&coo)
    }

    fn feats() -> Dense<f64> {
        Dense::from_fn(4, 3, |i, j| ((i * 3 + j) % 5) as f64 - 2.0)
    }

    /// A denser 7-node mask and features whose rows all differ, for the
    /// block shapes: rows `0..R` against every column (a row-prefix
    /// block) and against columns `R..7` only (an off-diagonal block whose
    /// row-side and column-side operands differ, as on a distributed
    /// grid).
    fn big_mask() -> Csr<f64> {
        let edges = (0..7u32)
            .flat_map(|i| (0..7u32).map(move |j| (i, j)))
            .filter(|&(i, j)| (i * 3 + j * 5) % 4 != 0)
            .collect();
        Csr::from_coo(&Coo::from_edges(7, 7, edges))
    }

    fn big_feats() -> Dense<f64> {
        Dense::from_fn(7, 3, |i, j| ((i * 5 + j * 3 + 1) % 7) as f64 * 0.4 - 1.1)
    }

    const R: usize = 3;

    fn close(got: &Csr<f64>, want: &Csr<f64>, what: &str) {
        let e = got.to_dense().max_abs_diff(&want.to_dense());
        assert!(e < 1e-12, "{what}: error {e}");
    }

    #[test]
    fn fused_va_matches_unfused() {
        let (a, h) = (mask(), feats());
        let (fused, secondary) = attention::scores(&a, &Va { dst: &h, src: &h });
        assert!(secondary.is_none());
        close(&fused, &unfused_va_scores(&a, &h), "square");
        let (a, h) = (big_mask(), big_feats());
        let want = unfused_va_scores(&a, &h);
        let prefix = a.block(0, R, 0, 7);
        let (got, _) = attention::scores(&prefix, &Va { dst: &h, src: &h });
        close(&got, &want.block(0, R, 0, 7), "row prefix");
        let (x, y) = (h.slice_rows(0, R), h.slice_rows(R, 7 - R));
        let (got, _) = attention::scores(&a.block(0, R, R, 7), &Va { dst: &x, src: &y });
        close(&got, &want.block(0, R, R, 7), "off-diagonal");
    }

    #[test]
    fn fused_gat_matches_unfused() {
        let a = mask();
        let u: Vec<f64> = vec![0.3, -1.2, 0.7, 2.0];
        let v: Vec<f64> = vec![-0.5, 0.1, 0.0, 1.5];
        let gat = Gat {
            u: &u,
            v: &v,
            slope: 0.2,
        };
        let (fused, pre) = attention::scores(&a, &gat);
        close(&fused, &unfused_gat_scores(&a, &u, &v, 0.2), "square");
        // Pre-activation values are the raw sums.
        assert_eq!(pre.expect("GAT caches C").get(0, 1), 0.3 + 0.1);
        let a = big_mask();
        let u: Vec<f64> = (0..7).map(|i| (i as f64) * 0.45 - 1.3).collect();
        let v: Vec<f64> = (0..7).map(|i| 0.9 - (i as f64) * 0.35).collect();
        let want = unfused_gat_scores(&a, &u, &v, 0.2);
        let prefix = Gat {
            u: &u[..R],
            v: &v,
            slope: 0.2,
        };
        let (got, _) = attention::scores(&a.block(0, R, 0, 7), &prefix);
        close(&got, &want.block(0, R, 0, 7), "row prefix");
        let block = Gat {
            u: &u[..R],
            v: &v[R..],
            slope: 0.2,
        };
        let (got, _) = attention::scores(&a.block(0, R, R, 7), &block);
        close(&got, &want.block(0, R, R, 7), "off-diagonal");
    }

    #[test]
    fn fused_agnn_matches_unfused() {
        let (a, h) = (mask(), feats());
        let norms = blocks::row_l2_norms(&h);
        let agnn = Agnn {
            dst: &h,
            src: &h,
            n_dst: &norms,
            n_src: &norms,
            beta: 1.7,
        };
        let (fused, cos) = attention::scores(&a, &agnn);
        close(&fused, &unfused_agnn_scores(&a, &h, 1.7), "square");
        // Cosine of an edge between identical rows is 1.
        for &c in cos.expect("AGNN caches cosines").values() {
            assert!(c.abs() <= 1.0 + 1e-12);
        }
        let (a, h) = (big_mask(), big_feats());
        let want = unfused_agnn_scores(&a, &h, 1.7);
        let norms = blocks::row_l2_norms(&h);
        let prefix = Agnn {
            dst: &h,
            src: &h,
            n_dst: &norms,
            n_src: &norms,
            beta: 1.7,
        };
        let (got, _) = attention::scores(&a.block(0, R, 0, 7), &prefix);
        close(&got, &want.block(0, R, 0, 7), "row prefix");
        let (x, y) = (h.slice_rows(0, R), h.slice_rows(R, 7 - R));
        let (nx, ny) = (blocks::row_l2_norms(&x), blocks::row_l2_norms(&y));
        let block = Agnn {
            dst: &x,
            src: &y,
            n_dst: &nx,
            n_src: &ny,
            beta: 1.7,
        };
        let (got, _) = attention::scores(&a.block(0, R, R, 7), &block);
        close(&got, &want.block(0, R, R, 7), "off-diagonal");
    }

    #[test]
    fn agnn_zero_norm_rows_give_zero_not_nan() {
        let a = mask();
        let mut h = feats();
        for v in h.row_mut(0) {
            *v = 0.0;
        }
        let norms = blocks::row_l2_norms(&h);
        let agnn = Agnn {
            dst: &h,
            src: &h,
            n_dst: &norms,
            n_src: &norms,
            beta: 1.0,
        };
        let (scores, _) = attention::scores(&a, &agnn);
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
        let gat = Gat {
            u: &u,
            v: &v,
            slope: 0.2,
        };
        let (post, pre) = attention::scores(&a, &gat);
        for (p, q) in post
            .values()
            .iter()
            .zip(pre.expect("GAT caches C").values())
        {
            assert!((q - -1.0).abs() < 1e-15);
            assert!((p - -0.2).abs() < 1e-15);
        }
    }
}
