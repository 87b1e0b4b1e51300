//! The four workloads: set-up, the gated measurement, and the gates.
//! The traced binary reuses the set-ups and the load generators.

pub mod dist;
pub mod infer;
pub mod serve;
pub mod train;

use crate::cli::Args;
use crate::harness::Report;
use crate::spec::Workload;

/// Runs one workload's gated measurement.
pub fn run(workload: Workload, args: &Args) -> Report {
    match workload {
        Workload::TrainKron => train::run(args),
        Workload::InferEr => infer::run(args),
        Workload::ServeEr => serve::run(args),
        Workload::DistKron4 => dist::run(args),
    }
}
