//! Communication-minimizing distributed execution of A-GNNs
//! (paper Sections 6.3 and 7.1).
//!
//! The distribution scheme follows the paper exactly:
//!
//! * the adjacency matrix `A` (and every `A`-patterned intermediate —
//!   attention scores `Ψ`, SDDMM gradients) is 2D-partitioned on a
//!   `√p × √p` process grid and **never moves**;
//! * the layer input `H^l` is distributed in `√p` block rows, each
//!   replicated along a grid column, so rank `(i, j)` always holds the
//!   column-side block `H_j` its `A[i][j]` needs;
//! * row-side blocks (`H_i`, `G_i`, `u_i`, …) are broadcast along grid
//!   rows from the diagonal rank — `O(nk/√p)` volume per rank;
//! * the layer output is produced as `√p` partial sums per block, reduced
//!   along grid rows and redistributed (broadcast along grid columns)
//!   into the input layout of the next layer;
//! * parameters (`W`, `a₁`, `a₂`, `β`) are fully replicated; their
//!   gradients are all-reduced (`O(k²)` volume), and every rank applies
//!   the identical optimizer update;
//! * graph softmax spans a full matrix row, so row maxima and row sums
//!   are all-reduced along grid rows (`O(n/√p)` volume).
//!
//! All communication goes through [`atgnn_net`], so the per-layer volume
//! is *measured*, not assumed; [`comm_model`] predicts it exactly, byte
//! for byte and superstep for superstep, with the paper's
//! `O(nk/√p + k²)` as its leading term.

pub mod comm_model;
pub mod context;
pub mod grid;
pub mod layers;
pub mod model;
pub mod recovery;

pub use context::{DistContext, DistError};
pub use grid::{Grid, GridError};
pub use model::{DistGnnModel, DistLayer};
pub use recovery::{train_mse_with_recovery, RecoveryConfig, RecoveryReport};
