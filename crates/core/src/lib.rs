//! `atgnn` — global tensor formulations of attentional graph neural
//! networks.
//!
//! This is the Rust reproduction of the core contribution of
//! *"High-Performance and Programmable Attentional Graph Neural Networks
//! with Global Tensor Formulations"* (Besta et al., SC '23): A-GNN
//! inference **and** training expressed entirely as sparse/dense tensor
//! kernels, with the dense `n×n` intermediates kept *virtual*.
//!
//! # Model zoo
//!
//! * [`layers::VaLayer`] — vanilla attention: `Ψ = A ⊙ (H Hᵀ)`,
//!   `Z = Ψ H W` (forward known; the backward formulation, Eqs. 11–13 of
//!   the paper, is the novel part).
//! * [`layers::AgnnLayer`] — AGNN: cosine attention
//!   `Ψ = sm(A ⊙ (β · H Hᵀ ⊘ n nᵀ))` with learnable temperature `β`.
//! * [`layers::GatLayer`] — GAT: `Ψ = sm(A ⊙ LeakyReLU(u 𝟙ᵀ + 𝟙 vᵀ))`
//!   with `u = H W a₁`, `v = H W a₂` (the split concatenation of the
//!   paper's Figure 2).
//! * [`layers::GcnLayer`] — the C-GNN special case `Z = Â H W` used by the
//!   paper's Section 8.4 comparison.
//!
//! Every layer implements [`layer::AGnnLayer`]: a cached forward pass and
//! a full analytic backward pass, each finite-difference-verified in the
//! test suite.
//!
//! # Programmability
//!
//! The paper's generic formulation
//! `Z = (Φ ∘ ⊕)(Ψ(A, H), H)` (Eq. 1) is exposed directly by
//! [`generic::GenericLayer`]: plug in any `Ψ` (an edge-score function),
//! any `⊕` (a [`atgnn_sparse::Semiring`] aggregation), and any `Φ`
//! (projection), and run inference without writing a kernel.
//!
//! # Training
//!
//! [`model::GnnModel`] stacks layers, runs full-batch forward/backward
//! ([`model::GnnModel::train_step`]), and supports the paper's
//! `--inference` mode (no intermediate caching). Losses live in [`loss`],
//! optimizers (SGD, momentum, Adam) in [`optimizer`], and
//! finite-difference verification helpers in [`gradcheck`].

pub mod analyze;
pub mod buffers;
pub mod checkpoint;
pub mod dag;
pub mod generic;
pub mod gradcheck;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod model;
pub mod optimizer;
pub mod plan;
pub mod train;

pub use analyze::{Diagnostic, Rule, Severity, Span};
pub use buffers::StepBuffers;
pub use layer::{AGnnLayer, Gradients, LayerCache};
pub use model::{GnnModel, ModelKind};
pub use plan::{AttentionExec, ExecPlan, Layout, ReorderStrategy, Reordering};
