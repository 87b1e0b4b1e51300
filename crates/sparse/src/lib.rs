//! Sparse tensor substrate for the attentional-GNN workspace.
//!
//! Implements the sparse half of the paper's Table 2 kernel set, from
//! scratch:
//!
//! * [`coo::Coo`] and [`csr::Csr`] — the adjacency-matrix storage. CSR
//!   structure (`indptr`/`indices`) is reference-counted so the many
//!   intermediate sparse matrices that share `A`'s pattern (attention
//!   scores `Ψ`, SDDMM outputs, softmax results, gradients) reuse it
//!   without copies.
//! * [`semiring`] — generalized matrix products over arbitrary semirings
//!   (Section 4.3): the real semiring, the tropical min-plus / max-plus
//!   variants, and the averaging semiring.
//! * [`spmm`] — sparse×dense products (`SpMM`), the transposed product
//!   `AᵀH` without materializing `Aᵀ`, and the composed `SpMMM` / `MSpMM`
//!   patterns identified by the paper.
//! * [`sddmm`] — sampled dense-dense products `A ⊙ (X Yᵀ)`.
//! * [`masked`] — operations on values aligned to a sparse pattern:
//!   Hadamard product/division, the graph softmax `sm(·)` of Section 4.2,
//!   row/column sums, and `X + Xᵀ`.
//! * [`fused`] — the fused virtual-tensor kernels of Section 6.2: the dense
//!   `n×n` score matrix `C` is *never* instantiated; each fused kernel
//!   iterates the non-zeros of the sparse sampler and evaluates the virtual
//!   entries on the fly (the CUDA grid-stride loop of the paper maps to a
//!   parallel loop over CSR rows).
//! * [`norm`] — adjacency preprocessing: self-loops, symmetric GCN
//!   normalization, row normalization.
//! * [`attention`] — one-pass fused attention pipelines (Section 6.2 pushed
//!   through the whole SDDMM→softmax→SpMM sandwich): scores, streaming row
//!   softmax and aggregation in a single CSR sweep with feature-column
//!   tiling, plus the staged pipelines kept as the test oracle.

pub mod attention;
pub mod coo;
pub mod csr;
pub mod fused;
pub mod masked;
pub mod norm;
pub mod sample;
pub mod sddmm;
pub mod semiring;
pub mod spmm;

pub use coo::Coo;
pub use csr::Csr;
pub use sample::{EgoScratch, EgoSubgraph};
pub use semiring::{Average, MaxPlus, MinPlus, Real, Semiring, SemiringKind};
