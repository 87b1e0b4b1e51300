//! The dense-product contracts across the shape space.
//!
//! `matmul_nt` runs `matmul`'s tile kernels over `Bᵀ`'s panels packed
//! straight from `B`, and `matmul_tn` runs an outer-product tile over a
//! size-derived grid of row blocks. For `n` rows around the block and
//! quad boundaries, reduction lengths and widths around the 4-, 8- and
//! 16-lane edges, `f32` and `f64`, this pins:
//!
//! (a) `matmul_nt(A, B)` is bit-identical to `matmul(A, Bᵀ)`, including
//!     the `H Hᵀ` shape where `B.rows()` dwarfs the reduction length;
//! (b) `matmul_tn(A, B)` is bit-identical to a sequential fold of the
//!     same block grid (`gemm::tn_blocks`) and within the rounding bound
//!     `2·n·ε·Σ|a·b|` of the naive triple loop;
//! (c) both are bit-identical across `rt::set_threads ∈ {1, 2, 8}` and
//!     across padded ↔ tight operands;
//! (d) under `MicroKernel::Scalar` both stay within the kernel family's
//!     relative tolerance of the blocked results — `1e-6`, widened to
//!     `n·ε` where a reduction of `n` single-precision terms cannot
//!     meet that.
//!
//! An optimized build (`cargo test --release --test gemm_contract`) runs
//! the full `n × k × j` product. An unoptimized one runs every `(k, j)`
//! pair at every small `n` and at one large `n` each, rotated so that
//! every `(n, k)` and `(n, j)` pair still occurs — the full product costs
//! a minute there.
//!
//! One `#[test]`, so the process-global thread-count and kernel-mode
//! sweeps cannot race another test; both are restored on the way out.

use atgnn_tensor::micro::{self, MicroKernel};
use atgnn_tensor::{gemm, rt, Dense, Scalar};

const SMALL_ROWS: [usize; 3] = [0, 1, 5];
const LARGE_ROWS: [usize; 4] = [5000, 1023, 1024, 1025];
const WIDTHS: [usize; 9] = [1, 3, 4, 7, 8, 9, 16, 17, 64];

/// Deterministic values in `[-1, 1)`.
fn arb<T: Scalar>(rows: usize, cols: usize, seed: u64) -> Dense<T> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    Dense::from_fn(rows, cols, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        T::from_f64((state % 2000) as f64 / 1000.0 - 1.0)
    })
}

/// The logical elements' bit patterns (`f32 → f64` is exact, so equal
/// images are equal `f32` bits too).
fn bits<T: Scalar>(m: &Dense<T>) -> Vec<u64> {
    (0..m.rows())
        .flat_map(|r| m.row(r).iter().map(|v| v.to_f64().to_bits()))
        .collect()
}

fn rel_err<T: Scalar>(a: &Dense<T>, b: &Dense<T>) -> f64 {
    a.max_abs_diff(b).to_f64() / a.max_abs().to_f64().max(1.0)
}

/// `Aᵀ·B` two ways in one pass over the operands: the naive triple loop
/// with `Σ|a·b|` per element, and the sequential fold of the block grid
/// `bounds` — `r`-ascending `mul_add` inside a block, partials added in
/// ascending block order.
fn tn_references<T: Scalar>(
    a: &Dense<T>,
    b: &Dense<T>,
    bounds: &[usize],
) -> (Dense<T>, Dense<T>, Dense<T>) {
    let (k, j) = (a.cols(), b.cols());
    let mut naive = Dense::zeros(k, j);
    let mut mass = Dense::zeros(k, j);
    let mut folded = Dense::zeros(k, j);
    for (c, w) in bounds.windows(2).enumerate() {
        let mut part = Dense::<T>::zeros(k, j);
        for r in w[0]..w[1] {
            let brow = b.row(r);
            for (kk, &av) in a.row(r).iter().enumerate() {
                let (nrow, mrow, prow) = (naive.row_mut(kk), mass.row_mut(kk), part.row_mut(kk));
                for jj in 0..j {
                    nrow[jj] += av * brow[jj];
                    mrow[jj] += (av * brow[jj]).abs();
                    prow[jj] = av.mul_add(brow[jj], prow[jj]);
                }
            }
        }
        if c == 0 {
            folded = part;
        } else {
            for kk in 0..k {
                for jj in 0..j {
                    folded[(kk, jj)] += part[(kk, jj)];
                }
            }
        }
    }
    (naive, mass, folded)
}

/// Contracts (a)–(d) for one scalar type; `eps` is its unit roundoff.
fn check<T: Scalar>(eps: f64) {
    for (ki, k) in WIDTHS.into_iter().enumerate() {
        for (ji, j) in WIDTHS.into_iter().enumerate() {
            let large = if cfg!(debug_assertions) {
                &LARGE_ROWS[(ki + ji) % 4..][..1]
            } else {
                &LARGE_ROWS[..]
            };
            for &n in SMALL_ROWS.iter().chain(large) {
                let tag = format!("n={n} k={k} j={j}");
                let a = arb::<T>(n, k, 1 + n as u64);
                let b = arb::<T>(n, j, 2 + k as u64);
                let w = arb::<T>(j, k, 3 + j as u64);
                rt::set_threads(1);
                let nt = gemm::matmul_nt(&a, &w);
                let tn = gemm::matmul_tn(&a, &b);
                assert_eq!(nt.shape(), (n, j), "{tag}");
                assert_eq!(tn.shape(), (k, j), "{tag}");

                // (a)
                let via_transpose = gemm::matmul(&a, &w.transpose());
                assert_eq!(
                    bits(&nt),
                    bits(&via_transpose),
                    "nt vs matmul(A, Bᵀ): {tag}"
                );

                // (b)
                let (naive, mass, folded) = tn_references(&a, &b, &gemm::tn_blocks(n));
                assert_eq!(bits(&tn), bits(&folded), "tn vs block fold: {tag}");
                for kk in 0..k {
                    for jj in 0..j {
                        let err = (tn[(kk, jj)].to_f64() - naive[(kk, jj)].to_f64()).abs();
                        let bound = 2.0 * n as f64 * eps * mass[(kk, jj)].to_f64();
                        assert!(
                            err <= bound,
                            "tn vs naive: {tag} [{kk},{jj}] {err} > {bound}"
                        );
                    }
                }

                // (c) — a pool smaller than 8 clamps; the padded operands
                // ride the widest setting.
                rt::set_threads(2);
                assert_eq!(
                    bits(&gemm::matmul_nt(&a, &w)),
                    bits(&nt),
                    "nt threads: {tag}"
                );
                assert_eq!(
                    bits(&gemm::matmul_tn(&a, &b)),
                    bits(&tn),
                    "tn threads: {tag}"
                );
                rt::set_threads(8);
                let a_pad = a.padded();
                let nt_pad = gemm::matmul_nt(&a_pad, &w.padded());
                assert!(nt_pad.padding_is_zero(), "nt padding tail: {tag}");
                assert_eq!(
                    nt_pad.stride(),
                    a_pad.zeros_matching(n, j).stride(),
                    "{tag}"
                );
                assert_eq!(bits(&nt_pad), bits(&nt), "nt padded: {tag}");
                let tn_pad = gemm::matmul_tn(&a_pad, &b.padded());
                assert!(!tn_pad.is_padded(), "tn result stays tight: {tag}");
                assert_eq!(bits(&tn_pad), bits(&tn), "tn padded: {tag}");

                // (d)
                micro::set_mode(MicroKernel::Scalar);
                let tol_nt = 1e-6f64.max(k as f64 * eps);
                let tol_tn = 1e-6f64.max(n as f64 * eps);
                let nt_scalar = gemm::matmul_nt(&a, &w);
                let tn_scalar = gemm::matmul_tn(&a, &b);
                micro::set_mode(MicroKernel::Blocked);
                assert!(
                    rel_err(&nt, &nt_scalar) <= tol_nt,
                    "nt scalar oracle: {tag}"
                );
                assert!(
                    rel_err(&tn, &tn_scalar) <= tol_tn,
                    "tn scalar oracle: {tag}"
                );
            }
        }
    }
    // (a) again on the `H Hᵀ` shape: thousands of packed columns over a
    // short reduction, with a ragged last panel.
    for (n, k) in [(1027, 3), (1029, 16)] {
        let h = arb::<T>(n, k, 99);
        rt::set_threads(8);
        let hht = gemm::matmul_nt(&h, &h);
        assert_eq!(
            bits(&hht),
            bits(&gemm::matmul(&h, &h.transpose())),
            "H Hᵀ n={n} k={k}"
        );
        rt::set_threads(1);
        assert_eq!(
            bits(&gemm::matmul_nt(&h, &h)),
            bits(&hht),
            "H Hᵀ threads n={n} k={k}"
        );
    }
}

#[test]
fn gemm_contracts_hold_across_the_shape_space() {
    let (entry_mode, entry_threads) = (micro::mode(), rt::num_threads());
    micro::set_mode(MicroKernel::Blocked);
    check::<f32>(f32::EPSILON as f64 / 2.0);
    check::<f64>(f64::EPSILON / 2.0);
    micro::set_mode(entry_mode);
    rt::set_threads(entry_threads);
}
