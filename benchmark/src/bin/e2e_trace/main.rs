//! The traced binary: per-layer metrics, kernel-level calls allowed.
//!
//! `e2e_trace --workload W --seed N --seconds S --trace 1` runs one
//! workload with spans recorded around the calls into each crate and
//! prints every per-layer metric (0 for a layer the workload does not
//! exercise). The spans are written to `results/trace/` at exit. The
//! gated numbers never come from this binary: tracing adds work.

mod attribute;
mod dist;
mod infer;
mod model_trace;
mod roofline;
mod serve;
mod shadow;
mod train;

use atgnn_e2e_benchmark::cli::Args;
use atgnn_e2e_benchmark::host;
use atgnn_e2e_benchmark::spans::Tracer;
use atgnn_e2e_benchmark::spec::{self, Workload};

fn main() {
    host::clear_atgnn_env();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e_trace: {e}");
            std::process::exit(2);
        }
    };
    let Some(workload) = args.workload else {
        eprintln!("e2e_trace: --workload is required (benchmark/run.sh --trace runs them all)");
        std::process::exit(2);
    };
    let mut tracer = Tracer::new();
    let report = match workload {
        Workload::TrainKron => train::run(&args, &mut tracer),
        Workload::InferEr => infer::run(&args, &mut tracer),
        Workload::ServeEr => serve::run(&args, &mut tracer),
        Workload::DistKron4 => dist::run(&args, &mut tracer),
    };
    write_spans(&args, workload, &tracer);
    report.print(&spec::PER_LAYER);
    std::process::exit(if report.correct() { 0 } else { 1 });
}

/// Spans are held in memory during the run and written here, at its end.
/// A failed write costs the span file, not the run.
fn write_spans(args: &Args, workload: Workload, tracer: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results/trace");
    let path = dir.join(format!("TRACE_{}_seed{}.json", workload.name(), args.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json().compact()));
    match written {
        Ok(()) => println!(
            "{}  spans: {} -> {}",
            workload.name(),
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("e2e_trace: cannot write {}: {e}", path.display()),
    }
}
