//! Comparing two results files: per workload × metric the ratio of the
//! medians (with its base), held against the bound `BENCHMARK.json`
//! fixes for the metric.
//!
//! A metric is **unresolved** — neither unchanged nor regressed — when
//! either file's own run-to-run spread exceeds the bound: the comparison
//! cannot see a change that small.

use crate::json::Value;
use crate::results::MetricSummary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Direction and bound of one end-to-end metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    pub lower_is_better: bool,
    /// Share of the old median by which the metric may get worse.
    pub bound: f64,
}

/// The `end_to_end` section of `BENCHMARK.json`, by metric name.
pub fn read_bounds(spec: &Value) -> Result<BTreeMap<String, Bound>, String> {
    let list = spec
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no \"end_to_end\" array")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let better = m.get("better").and_then(Value::as_str).unwrap_or("");
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            let lower_is_better = match better {
                "lower" => true,
                "higher" => false,
                other => return Err(format!("{name}: better is {other:?}")),
            };
            Ok((
                name.to_string(),
                Bound {
                    lower_is_better,
                    bound,
                },
            ))
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse by more than the bound.
    Regression,
    /// An input's own spread exceeds the bound.
    Unresolved,
    /// No bound is fixed for this metric (per-layer metrics).
    Ungated,
}

#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub old: f64,
    pub new: f64,
    /// Share of `old` by which `new` is worse (negative: better).
    pub worse_by: Option<f64>,
    pub bound: Option<f64>,
    pub verdict: Verdict,
}

impl Row {
    /// `new / old`; equal medians — two zero counts included — are 1.
    pub fn ratio(&self) -> f64 {
        if self.new == self.old {
            1.0
        } else {
            self.new / self.old
        }
    }
}

/// One row per workload × metric present in both files, in `old`'s order.
pub fn compare(
    old: &[MetricSummary],
    new: &[MetricSummary],
    bounds: &BTreeMap<String, Bound>,
) -> Vec<Row> {
    old.iter()
        .filter_map(|o| {
            let n = new
                .iter()
                .find(|n| n.workload == o.workload && n.metric == o.metric)?;
            let bound = bounds.get(&o.metric);
            let worse_by = bound.map(|b| {
                let delta = if b.lower_is_better {
                    n.median - o.median
                } else {
                    o.median - n.median
                };
                delta / o.median.abs()
            });
            let verdict = match (bound, worse_by) {
                (Some(b), Some(w)) => {
                    let noisy = |s: Option<f64>| s.is_some_and(|s| s > b.bound);
                    if noisy(o.spread) || noisy(n.spread) {
                        Verdict::Unresolved
                    } else if w > b.bound {
                        Verdict::Regression
                    } else {
                        Verdict::Ok
                    }
                }
                _ => Verdict::Ungated,
            };
            Some(Row {
                workload: o.workload.clone(),
                metric: o.metric.clone(),
                unit: o.unit.clone(),
                old: o.median,
                new: n.median,
                worse_by,
                bound: bound.map(|b| b.bound),
                verdict,
            })
        })
        .collect()
}

/// The comparison as a table, every ratio beside its base.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<32} {:>14} {:>14} {:>8} {:>9} {:>7}  verdict",
        "workload", "metric", "old (base)", "new", "new/old", "worse by", "bound"
    );
    for r in rows {
        let pct = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{:+.1}%", v * 100.0));
        let verdict = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved (spread > bound)",
            Verdict::Ungated => "-",
        };
        let _ = writeln!(
            out,
            "{:<12} {:<32} {:>14.6} {:>14.6} {:>8.3} {:>9} {:>7}  {verdict}",
            r.workload,
            format!("{} [{}]", r.metric, r.unit),
            r.old,
            r.new,
            r.ratio(),
            pct(r.worse_by),
            r.bound
                .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn summary(metric: &str, median: f64, spread: Option<f64>) -> MetricSummary {
        MetricSummary {
            workload: "w".into(),
            metric: metric.into(),
            unit: "s".into(),
            median,
            spread,
            runs: 10,
        }
    }

    fn bounds() -> BTreeMap<String, Bound> {
        let spec = json::parse(
            r#"{"end_to_end": [
                {"name": "step_s_p50", "unit": "s", "better": "lower", "bound": 0.1},
                {"name": "steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        read_bounds(&spec).unwrap()
    }

    fn verdict(metric: &str, old: f64, new: f64, spread: Option<f64>) -> Verdict {
        let rows = compare(
            &[summary(metric, old, spread)],
            &[summary(metric, new, Some(0.01))],
            &bounds(),
        );
        rows[0].verdict
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert_eq!(
            verdict("step_s_p50", 1.0, 1.2, Some(0.01)),
            Verdict::Regression
        );
        assert_eq!(verdict("step_s_p50", 1.0, 0.5, Some(0.01)), Verdict::Ok);
        assert_eq!(verdict("step_s_p50", 1.0, 1.05, Some(0.01)), Verdict::Ok);
        assert_eq!(
            verdict("steps_per_s", 10.0, 8.0, Some(0.01)),
            Verdict::Regression
        );
        assert_eq!(verdict("steps_per_s", 10.0, 12.0, Some(0.01)), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_leaves_the_metric_unresolved() {
        assert_eq!(
            verdict("step_s_p50", 1.0, 1.5, Some(0.2)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict("step_s_p50", 1.0, 1.0, Some(0.2)),
            Verdict::Unresolved
        );
        // A single run has no spread to judge by; the bound still applies.
        assert_eq!(verdict("step_s_p50", 1.0, 1.5, None), Verdict::Regression);
    }

    #[test]
    fn metrics_without_a_bound_are_reported_ungated() {
        let rows = compare(
            &[summary("sparse.spmm_t_ms", 4.0, None)],
            &[summary("sparse.spmm_t_ms", 2.0, None)],
            &bounds(),
        );
        assert_eq!(rows[0].verdict, Verdict::Ungated);
        assert_eq!(rows[0].ratio(), 0.5);
        assert!(render(&rows).contains("sparse.spmm_t_ms"));
    }

    #[test]
    fn metrics_missing_from_the_new_file_are_skipped() {
        let rows = compare(&[summary("step_s_p50", 1.0, None)], &[], &bounds());
        assert!(rows.is_empty());
    }
}
