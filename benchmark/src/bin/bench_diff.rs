//! `bench_diff old.json new.json [--spec BENCHMARK.json]`
//!
//! Prints, per workload × metric, the ratio of the two files' medians
//! with its base, applies the bounds from `BENCHMARK.json`, and exits
//! non-zero when a metric regressed. See `atgnn_e2e_benchmark::diff`.

use atgnn_e2e_benchmark::diff::{self, Verdict};
use atgnn_e2e_benchmark::{json, results};

fn load(path: &str) -> Result<json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run() -> Result<bool, String> {
    let mut files = Vec::new();
    let mut spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json").to_string();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--spec" => spec = argv.next().ok_or("--spec needs a path")?,
            _ => files.push(arg),
        }
    }
    let [old, new] = files.as_slice() else {
        return Err("usage: bench_diff old.json new.json [--spec BENCHMARK.json]".into());
    };
    let bounds = diff::read_bounds(&load(&spec)?)?;
    let (old_doc, new_doc) = (load(old)?, load(new)?);
    let stamp =
        |doc: &json::Value, key: &str| doc.get(key).map_or("?".to_string(), json::Value::compact);
    for (label, doc) in [("old", &old_doc), ("new", &new_doc)] {
        println!(
            "{label}: git_rev {} smoke {} repeat {}",
            stamp(doc, "git_rev"),
            stamp(doc, "smoke"),
            stamp(doc, "repeat")
        );
    }
    let rows = diff::compare(
        &results::read_summaries(&old_doc)?,
        &results::read_summaries(&new_doc)?,
        &bounds,
    );
    print!("{}", diff::render(&rows));
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} regressed, {} unresolved, {} within bounds, {} ungated",
        count(Verdict::Regression),
        count(Verdict::Unresolved),
        count(Verdict::Ok),
        count(Verdict::Ungated)
    );
    Ok(count(Verdict::Regression) == 0)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("bench_diff: {e}");
            std::process::exit(2);
        }
    }
}
