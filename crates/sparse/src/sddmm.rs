//! Sampled dense-dense matrix products (`SDDMM`, paper Table 2).
//!
//! `SDDMM` computes `A ⊙ (X Yᵀ)`: the dense product `X Yᵀ` would be an
//! `n×n` *virtual* matrix (paper Section 6.1) — it is never materialized.
//! Instead the kernel iterates the non-zeros of the sparse sampler `A` and
//! evaluates only the sampled dot products, producing values aligned to
//! `A`'s pattern.
//!
//! The sampled dot products go through [`gemm::dot`], which dispatches on
//! the kernel switch (`atgnn_tensor::micro`): the 8-lane lane-tree dot by
//! default, and the original scalar loop when `ATGNN_MICROKERNEL=scalar`
//! pins the oracle. The dots always read
//! *logical* rows (never the padded stride), so the `ATGNN_LAYOUT`
//! choice cannot change a single bit of any score.

use crate::csr::Csr;
use atgnn_tensor::rt::{self, Cost, DisjointSlice};
use atgnn_tensor::{gemm, Dense, Scalar};

/// Stored entries below which the row loop stays sequential.
const PAR_THRESHOLD: usize = 4 * 1024;

/// `out = A ⊙ (X Yᵀ)`: for every stored `(i, j)` of `A`,
/// `out_ij = a_ij · ⟨x_i, y_j⟩`. The result shares `A`'s pattern.
///
/// # Panics
/// Panics if shapes disagree (`A: n×m`, `X: n×k`, `Y: m×k`).
pub fn sddmm<T: Scalar>(a: &Csr<T>, x: &Dense<T>, y: &Dense<T>) -> Csr<T> {
    sddmm_with(a, x, y, |av, dot| av * dot)
}

/// SDDMM variant that skips the multiplication with `A`'s values —
/// `out_ij = ⟨x_i, y_j⟩` on `A`'s pattern. Used when `A` is a 0/1 mask so
/// the multiply is a no-op.
pub fn sddmm_pattern<T: Scalar>(a: &Csr<T>, x: &Dense<T>, y: &Dense<T>) -> Csr<T> {
    sddmm_with(a, x, y, |_, dot| dot)
}

/// General SDDMM with a custom per-entry epilogue:
/// `out_ij = f(a_ij, ⟨x_i, y_j⟩)`.
///
/// The epilogue hook is what the fusing optimization of Section 6.2 builds
/// on: any element-wise chain following the sampled product folds into `f`
/// instead of materializing intermediates.
pub fn sddmm_with<T: Scalar>(
    a: &Csr<T>,
    x: &Dense<T>,
    y: &Dense<T>,
    f: impl Fn(T, T) -> T + Sync,
) -> Csr<T> {
    assert_eq!(a.rows(), x.rows(), "sddmm: A rows must match X rows");
    assert_eq!(a.cols(), y.rows(), "sddmm: A cols must match Y rows");
    assert_eq!(x.cols(), y.cols(), "sddmm: X and Y feature dims differ");
    let mut values = vec![T::zero(); a.nnz()];
    let indptr = a.indptr();
    let indices = a.indices();
    let avals = a.values();
    let parallel = a.nnz() >= PAR_THRESHOLD;
    // The output value array is laid out exactly like A's values, so an
    // nnz-balanced row range owns the contiguous value range
    // `indptr[lo]..indptr[hi]` — no per-row slice bookkeeping needed.
    let slots = DisjointSlice::new(&mut values);
    rt::parallel_for(a.rows(), Cost::Prefix(indptr), parallel, |lo, hi| {
        // SAFETY: indptr is monotone, so row ranges map to disjoint
        // value ranges across chunk bodies.
        let out = unsafe { slots.range_mut(indptr[lo], indptr[hi]) };
        let base = indptr[lo];
        for r in lo..hi {
            let xrow = x.row(r);
            let (rlo, rhi) = (indptr[r], indptr[r + 1]);
            let row_out = &mut out[rlo - base..rhi - base];
            for (slot, (&c, &av)) in row_out
                .iter_mut()
                .zip(indices[rlo..rhi].iter().zip(&avals[rlo..rhi]))
            {
                let yrow = y.row(c as usize);
                *slot = f(av, gemm::dot(xrow, yrow));
            }
        }
    });
    a.with_values(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use atgnn_tensor::ops;

    fn mask() -> Csr<f64> {
        let coo = Coo::from_edges(3, 3, vec![(0, 1), (1, 0), (1, 2), (2, 2)]);
        Csr::from_coo(&coo)
    }

    #[test]
    fn sddmm_matches_dense_reference() {
        let a = mask();
        let x = Dense::from_fn(3, 2, |i, j| (i + j) as f64);
        let y = Dense::from_fn(3, 2, |i, j| (2 * i + j) as f64 - 1.0);
        let dense = ops::hadamard(&a.to_dense(), &gemm::matmul_nt(&x, &y));
        let got = sddmm(&a, &x, &y);
        assert!(got.same_pattern(&a));
        assert!(got.to_dense().max_abs_diff(&dense) < 1e-12);
    }

    #[test]
    fn sddmm_scales_by_a_values() {
        let a = mask().map_values(|_| 2.0);
        let x = Dense::ones(3, 1);
        let y = Dense::ones(3, 1);
        let got = sddmm(&a, &x, &y);
        assert!(got.values().iter().all(|&v| v == 2.0));
        let pat = sddmm_pattern(&a, &x, &y);
        assert!(pat.values().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn sddmm_with_epilogue_fuses_nonlinearity() {
        let a = mask();
        let x = Dense::from_fn(3, 2, |i, _| i as f64 - 1.0);
        let y = Dense::ones(3, 2);
        let relu = sddmm_with(&a, &x, &y, |av, dot| av * dot.max(0.0));
        for &v in relu.values() {
            assert!(v >= 0.0);
        }
    }

    #[test]
    fn sddmm_parallel_path_matches_serial() {
        let n = 400u32;
        let coo = Coo::from_edges(
            n as usize,
            n as usize,
            (0..n)
                .flat_map(|i| (0..20u32).map(move |d| (i, (i + d * 13 + 1) % n)))
                .collect::<Vec<_>>(),
        );
        let mut coo = coo;
        coo.dedup_binary();
        let a: Csr<f64> = Csr::from_coo(&coo);
        assert!(a.nnz() >= PAR_THRESHOLD);
        let x = Dense::from_fn(n as usize, 8, |i, j| ((i * 3 + j) % 7) as f64 - 3.0);
        let y = Dense::from_fn(n as usize, 8, |i, j| ((i + 5 * j) % 11) as f64 - 5.0);
        let got = sddmm(&a, &x, &y);
        let dense = ops::hadamard(&a.to_dense(), &gemm::matmul_nt(&x, &y));
        assert!(got.to_dense().max_abs_diff(&dense) < 1e-9);
    }

    #[test]
    fn padded_operands_are_bit_transparent() {
        // Scores come from logical-row dots, so padding the operands must
        // not change a single bit of the sampled products.
        let a = mask();
        let x = Dense::from_fn(3, 5, |i, j| (i * 5 + j) as f64 * 0.3 - 1.1);
        let y = Dense::from_fn(3, 5, |i, j| ((i + 2) * (j + 1)) as f64 * 0.2);
        let tight = sddmm(&a, &x, &y);
        let padded = sddmm(&a, &x.padded(), &y.padded());
        for (t, p) in tight.values().iter().zip(padded.values()) {
            assert_eq!(t.to_bits(), p.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "A rows must match")]
    fn sddmm_checks_shapes() {
        let a = mask();
        let x = Dense::<f64>::zeros(2, 2);
        let y = Dense::<f64>::zeros(3, 2);
        let _ = sddmm(&a, &x, &y);
    }

    #[test]
    fn rectangular_sampler() {
        let coo = Coo::from_edges(2, 4, vec![(0, 3), (1, 0)]);
        let a: Csr<f64> = Csr::from_coo(&coo);
        let x = Dense::from_fn(2, 3, |i, j| (i + j) as f64);
        let y = Dense::from_fn(4, 3, |i, j| (i * j) as f64 + 1.0);
        let got = sddmm(&a, &x, &y);
        let dense = ops::hadamard(&a.to_dense(), &gemm::matmul_nt(&x, &y));
        assert!(got.to_dense().max_abs_diff(&dense) < 1e-12);
    }
}
