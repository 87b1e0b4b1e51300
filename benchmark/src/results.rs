//! The results file (`results/BENCH_e2e.json`): how the runs of a whole
//! set are folded into it, and how it is read back.
//!
//! Per workload and metric the file keeps every run's value with their
//! median, quartiles and spread (quartile distance over the median — the
//! rule the driver judges steadiness by), so two files can be compared
//! and a metric whose own spread exceeds its bound can be called
//! unresolved instead of unchanged.

use crate::json::{self, obj, Value};
use crate::stats;

/// One child run, as parsed from its standard output.
#[derive(Clone, Debug)]
pub struct RunOutput {
    pub seed: u64,
    /// The last line: `correct`, `attempted`, `failed`, `metrics`.
    pub result: Value,
    /// The `DETAIL` line.
    pub detail: Value,
}

/// Splits a run's standard output into its result object (last line) and
/// its `DETAIL` line.
pub fn parse_run(seed: u64, stdout: &str) -> Result<RunOutput, String> {
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("the run printed nothing")?;
    let result = json::parse(last).map_err(|e| format!("last line is not a result: {e}"))?;
    for key in ["correct", "attempted", "failed", "metrics"] {
        if result.get(key).is_none() {
            return Err(format!("result has no {key:?}"));
        }
    }
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("DETAIL "))
        .map_or(Ok(Value::Null), json::parse)?;
    Ok(RunOutput {
        seed,
        result,
        detail,
    })
}

/// `values` with their median, quartiles and spread.
fn summarize(unit: &str, values: &[f64]) -> Value {
    let (q1, q3) = if values.len() >= 2 {
        let (a, b) = stats::quartiles(values);
        (Some(a), Some(b))
    } else {
        (None, None)
    };
    obj([
        ("unit", unit.into()),
        ("median", stats::median(values).into()),
        ("q1", q1.into()),
        ("q3", q3.into()),
        ("spread", stats::spread(values).into()),
        ("values", values.to_vec().into()),
    ])
}

/// Folds one `{name: {value, unit}}` section of the runs — found in each
/// run by `section` — into `{name: summary}`, names as the first run has
/// them.
fn fold<'a>(runs: &'a [RunOutput], section: impl Fn(&'a RunOutput) -> Option<&'a Value>) -> Value {
    let first = runs.first().and_then(&section).and_then(Value::as_obj);
    obj(first.unwrap_or(&[]).iter().map(|(name, m)| {
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| section(r)?.get(name)?.get("value")?.as_f64())
            .collect();
        (name.clone(), summarize(unit, &values))
    }))
}

/// Folds the runs of one workload into its entry of the results file:
/// the gated metrics, and the workload-specific numbers each run reports
/// beside them (`lat_ms_p90`, `comm_bytes_per_step`, ...).
pub fn workload_entry(name: &str, runs: &[RunOutput]) -> Value {
    let num = |r: &RunOutput, k: &str| r.result.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    obj([
        ("name", name.into()),
        (
            "correct",
            runs.iter()
                .all(|r| r.result.get("correct").and_then(Value::as_bool) == Some(true))
                .into(),
        ),
        (
            "attempted",
            runs.iter().map(|r| num(r, "attempted")).sum::<f64>().into(),
        ),
        (
            "failed",
            runs.iter().map(|r| num(r, "failed")).sum::<f64>().into(),
        ),
        ("metrics", fold(runs, |r| r.result.get("metrics"))),
        ("reported", fold(runs, |r| r.detail.get("reported"))),
        (
            "runs",
            Value::Arr(
                runs.iter()
                    .map(|r| obj([("seed", r.seed.into()), ("detail", r.detail.clone())]))
                    .collect(),
            ),
        ),
    ])
}

/// One metric of one workload, read back from a results file.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSummary {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub median: f64,
    /// `None` when the file holds a single run of the workload.
    pub spread: Option<f64>,
    pub runs: usize,
}

/// Every workload × metric of a results file, in file order: the gated
/// metrics, then the workload's reported ones.
pub fn read_summaries(doc: &Value) -> Result<Vec<MetricSummary>, String> {
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .ok_or("no \"workloads\" array")?;
    let mut out = Vec::new();
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .ok_or("workload without a name")?;
        let metrics = w
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("{name}: no metrics"))?;
        let reported = w.get("reported").and_then(Value::as_obj).unwrap_or(&[]);
        for (metric, m) in metrics.iter().chain(reported) {
            out.push(MetricSummary {
                workload: name.to_string(),
                metric: metric.clone(),
                unit: m
                    .get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                median: m
                    .get("median")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{name}.{metric}: no median"))?,
                spread: m.get("spread").and_then(Value::as_f64),
                runs: m
                    .get("values")
                    .and_then(Value::as_arr)
                    .map_or(0, <[Value]>::len),
            });
        }
    }
    Ok(out)
}

/// A smoke run must never replace a full run's file: refuses when the
/// file at `path` parses as a full-run (`"smoke": false`) results file.
pub fn guard_overwrite(path: &std::path::Path, smoke: bool) -> Result<(), String> {
    if !smoke {
        return Ok(());
    }
    let Ok(text) = std::fs::read_to_string(path) else {
        return Ok(());
    };
    match json::parse(&text)
        .ok()
        .and_then(|d| d.get("smoke")?.as_bool())
    {
        Some(false) => Err(format!(
            "{} holds a full run; a smoke run will not overwrite it",
            path.display()
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64, step: f64) -> RunOutput {
        let stdout = format!(
            "w  step_s_p50 = {step} s\nDETAIL {{\"n\":2048}}\n{{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{{\"step_s_p50\":{{\"value\":{step},\"unit\":\"s\"}}}}}}\n"
        );
        parse_run(seed, &stdout).unwrap()
    }

    #[test]
    fn folds_runs_and_reads_them_back() {
        let runs: Vec<_> = [1.0, 1.1, 0.9, 1.05]
            .iter()
            .enumerate()
            .map(|(i, &s)| run(i as u64, s))
            .collect();
        let doc = obj([("workloads", Value::Arr(vec![workload_entry("w", &runs)]))]);
        let doc = json::parse(&doc.pretty()).unwrap();
        let got = read_summaries(&doc).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(
            (got[0].workload.as_str(), got[0].metric.as_str()),
            ("w", "step_s_p50")
        );
        assert_eq!((got[0].runs, got[0].unit.as_str()), (4, "s"));
        assert!((got[0].median - 1.025).abs() < 1e-12);
        assert!(got[0].spread.unwrap() > 0.0);
        let w = &doc.get("workloads").and_then(Value::as_arr).unwrap()[0];
        assert_eq!(w.get("attempted").and_then(Value::as_f64), Some(40.0));
        assert_eq!(w.get("correct").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn a_single_run_has_no_spread() {
        let doc = obj([(
            "workloads",
            Value::Arr(vec![workload_entry("w", &[run(0, 2.0)])]),
        )]);
        let got = read_summaries(&doc).unwrap();
        assert_eq!((got[0].median, got[0].spread, got[0].runs), (2.0, None, 1));
    }

    #[test]
    fn parse_run_needs_a_result_on_the_last_line() {
        assert!(parse_run(0, "").is_err());
        assert!(parse_run(0, "hello\n").is_err());
        assert!(parse_run(0, "{\"correct\":true}\n").is_err());
    }

    #[test]
    fn smoke_never_overwrites_a_full_run() {
        let dir = std::env::temp_dir().join(format!("atgnn_e2e_guard_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let full = dir.join("full.json");
        std::fs::write(&full, "{\"smoke\": false}").unwrap();
        assert!(guard_overwrite(&full, true).is_err());
        assert!(guard_overwrite(&full, false).is_ok());
        let smoke = dir.join("smoke.json");
        std::fs::write(&smoke, "{\"smoke\": true}").unwrap();
        assert!(guard_overwrite(&smoke, true).is_ok());
        assert!(guard_overwrite(&dir.join("absent.json"), true).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
