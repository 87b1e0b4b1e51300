//! `atgnn-lint` CLI.
//!
//! ```text
//! atgnn-lint [--root DIR] [--deny warnings] [--dag]
//! ```
//!
//! Without flags, scans every `crates/*/src/**.rs` file for the
//! workspace's source-hygiene rules and exits nonzero on any *error*.
//! `--deny warnings` fails on any diagnostic at all (today every source
//! finding is an error, so this mostly hardens the `--dag` pass).
//! `--dag` additionally runs the full DAG analyzer — shapes, virtual
//! safety, fusion legality, semirings, determinism, FP-stability,
//! aliasing — over every canned model and both execution plans, and
//! prints the determinism-proof count per model.

use std::path::PathBuf;
use std::process::ExitCode;

use atgnn::analyze::{self, Severity};
use atgnn::plan::ExecPlan;
use atgnn::ModelKind;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut deny_warnings = false;
    let mut check_dags = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("atgnn-lint: --root needs a directory");
                    return ExitCode::from(2);
                }
            },
            "--deny" => match args.next().as_deref() {
                Some("warnings") => deny_warnings = true,
                other => {
                    eprintln!("atgnn-lint: --deny expects 'warnings', got {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--dag" => check_dags = true,
            "--help" | "-h" => {
                eprintln!("usage: atgnn-lint [--root DIR] [--deny warnings] [--dag]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("atgnn-lint: unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }

    let mut diags = match atgnn_lint::scan_workspace(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("atgnn-lint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let scanned_sources = diags.len();

    if check_dags {
        for kind in [
            ModelKind::Va,
            ModelKind::Agnn,
            ModelKind::Gat,
            ModelKind::Gcn,
        ] {
            for plan in [ExecPlan::fused(), ExecPlan::staged()] {
                diags.extend(analyze::validate_plan(&plan, kind));
            }
            let proofs: usize = analyze::model_dags(kind)
                .iter()
                .map(|d| analyze::determinism::proofs(d).len())
                .sum();
            println!("atgnn-lint: {kind:?}: {proofs} reduction(s) proven order-invariant");
        }
        // The staged plan legitimately warns about materialized
        // sandwiches; keep those visible but only fatal under --deny.
    }

    for d in &diags {
        println!("{d}");
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    println!(
        "atgnn-lint: {} source finding(s), {errors} error(s), {warnings} warning(s)",
        scanned_sources
    );
    if errors > 0 || (deny_warnings && warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
