#![cfg_attr(feature = "simd-nightly", feature(portable_simd))]
//! Dense tensor substrate for the attentional-GNN workspace.
//!
//! This crate provides the dense half of the tensor-algebra building blocks
//! from the paper *"High-Performance and Programmable Attentional Graph
//! Neural Networks with Global Tensor Formulations"* (Besta et al., SC '23):
//!
//! * [`Dense`] — a row-major dense matrix over any [`Scalar`] (`f32`/`f64`),
//!   holding feature matrices `H ∈ R^{n×k}`, parameter matrices
//!   `W ∈ R^{k×k}`, and gradients.
//! * [`gemm`] — dense matrix products (`MM` in the paper's Table 2),
//!   including the transposed variants needed by the backward passes,
//!   on register tiles, parallelized over row ranges via [`rt`].
//! * [`blocks`] — the tensor building blocks of Table 2: replication
//!   `rep_i(x) = x 1ᵀ`, row summation `sum(X) = X 1`, their composition
//!   `rs_i(X)`, outer products, row norms, and a numerically stable dense
//!   softmax.
//! * [`activation`] — element-wise non-linearities `σ` and their
//!   derivatives `σ'`, applied between GNN layers.
//! * [`init`] — deterministic, seedable random initializers (Glorot/Xavier
//!   and friends) mirroring the artifact's `--seed` flag.
//! * [`micro`] — register-blocked `mul_add` inner kernels (dot/axpy) and
//!   the `ATGNN_MICROKERNEL` mode switch; the scalar loops remain available
//!   as the bit-exact equivalence oracle.
//! * [`rt`] — the persistent worker-pool runtime every kernel schedules
//!   onto: nnz-balanced work descriptors, chunked self-scheduling,
//!   deterministic reductions, per-thread scratch arenas, and the
//!   `ATGNN_THREADS` pool size; [`rng`] — the
//!   self-contained ChaCha8 generator behind every seeded random choice
//!   in the workspace.
//!
//! Everything is generic over [`Scalar`] so the benchmark harness can run in
//! `f32` (as the paper does) while gradient-checking tests run in `f64`.

pub mod activation;
pub mod blocks;
pub mod dense;
pub mod gemm;
pub mod init;
pub mod micro;
pub mod ops;
pub mod rng;
pub mod rt;
pub mod scalar;

pub use activation::Activation;
pub use dense::Dense;
pub use scalar::Scalar;
