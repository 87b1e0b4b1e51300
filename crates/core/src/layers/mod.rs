//! The model zoo: global tensor formulations of VA, AGNN, GAT and GCN.
//!
//! Each layer implements [`crate::layer::AGnnLayer`] with a cached forward
//! pass and a full analytic backward pass. The derivations follow the
//! paper's Section 5 recipe (Steps 1–6); every gradient is verified
//! against central finite differences in `gradcheck` tests.

mod agnn;
mod gat;
mod gcn;
mod gin;
mod multihead;
mod va;

pub use agnn::AgnnLayer;
pub use gat::{GatLayer, GAT_SLOPE};
pub use gcn::GcnLayer;
pub use gin::GinLayer;
pub use multihead::{HeadCombine, MultiHeadGatLayer};
pub use va::VaLayer;
