//! Running the whole set: one fresh process per workload run, folded
//! into the results file.

use atgnn_e2e_benchmark::cli::Args;
use atgnn_e2e_benchmark::json::{obj, Value};
use atgnn_e2e_benchmark::results::{self, RunOutput};
use atgnn_e2e_benchmark::{host, spec::Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The results file of this kind of run, under `benchmark/results/`.
fn out_path(args: &Args) -> PathBuf {
    if let Some(out) = &args.out {
        return PathBuf::from(out);
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let dir = if args.smoke { dir.join("smoke") } else { dir };
    dir.join(if args.trace {
        "BENCH_e2e_trace.json"
    } else {
        "BENCH_e2e.json"
    })
}

/// Runs one workload once in a child process; its human-readable lines
/// pass through to our standard output.
fn run_child(args: &Args, workload: Workload, seed: u64) -> Result<RunOutput, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let exe = if args.trace {
        exe.with_file_name("e2e_trace")
    } else {
        exe
    };
    let mut cmd = Command::new(&exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.window().to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines().filter(|l| !l.starts_with("DETAIL ")) {
        println!("{line}");
    }
    let run = results::parse_run(seed, &stdout)
        .map_err(|e| format!("{} seed {seed}: {e} (exit {})", workload.name(), out.status))?;
    Ok(run)
}

/// Runs the set, writes the file; true when every run was correct.
pub fn run(args: &Args) -> bool {
    let path = out_path(args);
    if let Err(e) = results::guard_overwrite(&path, args.smoke) {
        eprintln!("e2e: {e}");
        return false;
    }
    let mut ok = true;
    let mut entries = Vec::new();
    for workload in Workload::ALL {
        let mut runs = Vec::new();
        for r in 0..args.repeat as u64 {
            match run_child(args, workload, args.seed + r) {
                Ok(run) => runs.push(run),
                Err(e) => {
                    eprintln!("e2e: {e}");
                    ok = false;
                }
            }
        }
        let entry = results::workload_entry(workload.name(), &runs);
        ok &= entry.get("correct").and_then(Value::as_bool) == Some(true) && !runs.is_empty();
        entries.push(entry);
    }
    let doc = obj([
        ("bench", if args.trace { "e2e_trace" } else { "e2e" }.into()),
        ("git_rev", args.git_rev.as_str().into()),
        ("smoke", args.smoke.into()),
        ("seed", args.seed.into()),
        ("repeat", args.repeat.into()),
        ("seconds", args.window().into()),
        ("host", host::stamp()),
        ("workloads", Value::Arr(entries)),
    ]);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, doc.pretty()));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("e2e: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if !ok {
        eprintln!("e2e: at least one run failed a correctness gate or did not finish");
    }
    ok
}
