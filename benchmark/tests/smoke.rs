//! End-to-end checks of the benchmark's own binaries: a smoke run of all
//! four workloads (gated and traced), the whole-set runner and its
//! results file, and `bench_diff`'s self-compare.

use atgnn_e2e_benchmark::json::{self, Value};
use atgnn_e2e_benchmark::spec::{Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("atgnn_e2e_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The workloads time themselves and the server answers against a
/// deadline: one at a time, whatever the test harness's thread count.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs a binary, returns (exit ok, stdout).
fn run(exe: &str, args: &[&str]) -> (bool, String) {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(exe)
        // A caller's knobs must not reach the product.
        .env("ATGNN_SPMMT_CHUNKS", "1")
        .env("ATGNN_EXEC", "staged")
        .args(args)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    if !out.status.success() {
        eprintln!("{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    }
    (out.status.success(), stdout)
}

/// The last line is the result object: exactly the four keys, every
/// catalog metric present with its unit.
fn check_result(stdout: &str, catalog: &[(&str, &str)]) -> Value {
    let result = json::parse(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    let metrics = result.get("metrics").and_then(Value::as_obj).unwrap();
    assert_eq!(metrics.len(), catalog.len());
    for ((name, unit), (got, m)) in catalog.iter().zip(metrics) {
        assert_eq!(got, name);
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit));
        let v = m.get("value").and_then(Value::as_f64).unwrap();
        assert!(v.is_finite(), "{name} = {v}");
    }
    result
}

#[test]
fn smoke_run_of_every_workload_gated() {
    for w in Workload::ALL {
        let (ok, stdout) = run(
            env!("CARGO_BIN_EXE_e2e"),
            &[
                "--workload",
                w.name(),
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                "0",
                "--smoke",
            ],
        );
        assert!(ok, "{} failed", w.name());
        let result = check_result(&stdout, &END_TO_END);
        // End-to-end metrics are never 0.
        for (name, _) in END_TO_END {
            let v = result
                .get("metrics")
                .unwrap()
                .get(name)
                .unwrap()
                .get("value");
            assert!(
                v.and_then(Value::as_f64).unwrap() > 0.0,
                "{} {name}",
                w.name()
            );
        }
        // The plan the product resolved is its default, whatever the
        // caller's environment said.
        let detail = stdout
            .lines()
            .find_map(|l| l.strip_prefix("DETAIL "))
            .unwrap();
        let plan = json::parse(detail).unwrap();
        let plan = plan
            .get("plan")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        assert!(
            plan.contains("FusedOnePass") && plan.contains("spmmt_chunks: 0"),
            "{plan}"
        );
    }
}

#[test]
fn smoke_run_of_every_workload_traced() {
    for w in Workload::ALL {
        let (ok, stdout) = run(
            env!("CARGO_BIN_EXE_e2e_trace"),
            &[
                "--workload",
                w.name(),
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                "1",
                "--smoke",
            ],
        );
        assert!(ok, "{} failed", w.name());
        check_result(&stdout, &PER_LAYER);
        assert!(
            stdout.contains("gate shadow_bit_identical ok"),
            "{}",
            w.name()
        );
    }
}

#[test]
fn whole_set_writes_a_results_file_that_diffs_clean_against_itself() {
    let dir = scratch("set");
    let file = dir.join("BENCH_e2e.json");
    let file = file.to_str().unwrap();
    let (ok, _) = run(
        env!("CARGO_BIN_EXE_e2e"),
        &[
            "--smoke",
            "--seconds",
            "0.5",
            "--repeat",
            "2",
            "--out",
            file,
            "--git-rev",
            "test",
        ],
    );
    assert!(ok);
    let doc = json::parse(&std::fs::read_to_string(file).unwrap()).unwrap();
    assert_eq!(doc.get("smoke").and_then(Value::as_bool), Some(true));
    assert_eq!(doc.get("git_rev").and_then(Value::as_str), Some("test"));
    for key in ["nproc", "l1d", "llc", "simd", "codegen"] {
        assert!(doc.get("host").unwrap().get(key).is_some(), "host.{key}");
    }
    let workloads = doc.get("workloads").and_then(Value::as_arr).unwrap();
    assert_eq!(workloads.len(), Workload::ALL.len());
    for w in workloads {
        let step = w.get("metrics").unwrap().get("step_s_p50").unwrap();
        assert_eq!(step.get("values").and_then(Value::as_arr).unwrap().len(), 2);
        assert!(step.get("spread").and_then(Value::as_f64).is_some());
        let detail = w.get("runs").and_then(Value::as_arr).unwrap()[0]
            .get("detail")
            .unwrap();
        for key in ["seed", "smoke", "plan", "samples", "window_s"] {
            assert!(detail.get(key).is_some(), "detail.{key}");
        }
    }

    // A smoke run refuses to replace a full run's file.
    let full = dir.join("full.json");
    std::fs::write(&full, "{\"smoke\": false}").unwrap();
    let (ok, _) = run(
        env!("CARGO_BIN_EXE_e2e"),
        &[
            "--smoke",
            "--seconds",
            "0.5",
            "--out",
            full.to_str().unwrap(),
        ],
    );
    assert!(!ok);
    assert_eq!(
        std::fs::read_to_string(&full).unwrap(),
        "{\"smoke\": false}"
    );

    // Self-compare: exit 0, every ratio 1.
    let (ok, table) = run(env!("CARGO_BIN_EXE_bench_diff"), &[file, file]);
    assert!(ok, "{table}");
    let rows: Vec<&str> = table.lines().filter(|l| l.contains(" [")).collect();
    // The gated metrics of every workload, and what each reports beside them.
    assert!(rows.len() > Workload::ALL.len() * END_TO_END.len());
    for row in rows {
        let ratio: f64 = row.split_whitespace().nth(5).unwrap().parse().unwrap();
        assert_eq!(ratio, 1.0, "{row}");
        assert!(!row.contains("REGRESSION"), "{row}");
    }
    assert!(table.contains("0 regressed"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn committed_artifact_diffs_clean_against_itself() {
    let file = concat!(env!("CARGO_MANIFEST_DIR"), "/results/BENCH_e2e.json");
    let (ok, table) = run(env!("CARGO_BIN_EXE_bench_diff"), &[file, file]);
    assert!(ok, "{table}");
    assert!(table.contains("0 regressed"));
}

/// The library and the gated binary reach the product through its
/// top-level API only; kernel-level modules are named in the traced
/// binary alone.
#[test]
fn kernel_calls_live_in_the_traced_binary_only() {
    fn sources(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                if !path.ends_with("e2e_trace") {
                    sources(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    sources(
        &PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src"),
        &mut files,
    );
    assert!(files.len() > 10);
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        for module in [
            "attention::",
            "spmm::",
            "gemm::",
            "masked::",
            "micro::",
            "rt::",
            "fused::",
            "sddmm::",
        ] {
            assert!(!text.contains(module), "{} names {module}", file.display());
        }
    }
}
