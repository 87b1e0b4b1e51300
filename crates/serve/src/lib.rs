//! # atgnn-serve — resilient online inference serving
//!
//! The paper's global tensor formulation makes whole-graph attention
//! sweeps fast; this crate puts those kernels behind a request loop that
//! stays up under overload, stragglers, and injected faults:
//!
//! * **dynamic batching** — per-node requests are coalesced into one
//!   pass over the union ego subgraph
//!   ([`atgnn_sparse::Csr::ego_union_in`]), each layer a fused attention
//!   sweep over the row-prefix block that can still reach a requested
//!   node ([`atgnn::GnnModel::inference_prefix`]); a batch closes at
//!   [`ServeConfig::batch_max`] requests, after
//!   [`ServeConfig::batch_window`], or on an empty queue whose arrivals
//!   are sparser than what is left of that window, whichever first;
//! * **admission control** — a bounded queue sheds load with the typed
//!   [`ServeError::Overloaded`]; queued requests answer under
//!   [`ServeConfig::deadline`] or settle as
//!   [`ServeError::DeadlineExceeded`];
//! * **graceful degradation** — under sustained queue pressure a
//!   hysteretic [`Ladder`] steps service down one rung at a time
//!   (narrower batch window → reduced sampling fanout) and back up when
//!   pressure clears,
//!   every move counted in [`ServeStats`];
//! * **warm restart** — a write-ahead intent log plus a
//!   `core::checkpoint` image let [`Server::recover`] rebuild a dead
//!   server and replay every accepted-but-unsettled request; in-process
//!   worker crashes heal transparently from the in-flight snapshot;
//! * **chaos coverage** — the worker routes through
//!   [`atgnn_net::FaultPlan`] fates at batch boundaries (delay, hang,
//!   crash), so the degradation and restart paths are exercised
//!   deterministically in tests and the serve bench.
//!
//! Liveness discipline: nothing in this crate blocks without a
//! deadline. The `unfenced-wait` source lint (atgnn-lint) bans bare
//! `recv`/Condvar-wait/`join` in `crates/serve/src/`.

pub mod config;
pub mod ladder;
pub mod server;
pub mod stats;
pub mod wal;

pub use config::ServeConfig;
pub use ladder::{Ladder, RUNG_COUNT, RUNG_FULL, RUNG_NARROW_WINDOW, RUNG_REDUCED_FANOUT};
pub use server::{InferResponse, ServeError, Server, Ticket};
pub use stats::ServeStats;
