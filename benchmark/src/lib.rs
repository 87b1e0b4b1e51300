//! The end-to-end benchmark of the atgnn workspace.
//!
//! Four workloads (`train_kron`, `infer_er`, `serve_er`, `dist_kron4`),
//! a handful of gated end-to-end metrics, and a separate traced run that
//! attributes each workload's time to the crate that spends it — all
//! measured from outside the product, through its public API.
//!
//! This library and the gated binary (`e2e`) call only the product's
//! top-level API; kernel-level calls live in the traced binary
//! (`e2e_trace`) alone, so a kernel-signature change cannot take the
//! gated numbers down. See `README.md` for the metric glossary.

pub mod cli;
pub mod diff;
pub mod harness;
pub mod host;
pub mod inputs;
pub mod json;
pub mod openloop;
pub mod results;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;
