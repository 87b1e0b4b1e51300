//! The gated binary: end-to-end metrics through the top-level API only.
//!
//! `e2e --workload W --seed N --seconds S` runs one workload in this
//! process and prints its result object as the last line. Without
//! `--workload` it runs the whole set — every workload in a fresh child
//! process, `--repeat` times with consecutive seeds — and writes the
//! results file; with `--trace` the children are the traced binary.

mod suite;

use atgnn_e2e_benchmark::cli::Args;
use atgnn_e2e_benchmark::{host, spec, workloads};

fn main() {
    host::clear_atgnn_env();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}");
            std::process::exit(2);
        }
    };
    let ok = match args.workload {
        None => suite::run(&args),
        Some(_) if args.trace => {
            eprintln!(
                "e2e: per-layer metrics come from the e2e_trace binary (benchmark/run.sh picks it)"
            );
            std::process::exit(2);
        }
        Some(w) => {
            let report = workloads::run(w, &args);
            report.print(&spec::END_TO_END);
            report.correct()
        }
    };
    std::process::exit(if ok { 0 } else { 1 });
}
