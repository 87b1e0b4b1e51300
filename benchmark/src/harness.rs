//! What every workload run produces and how it is printed.
//!
//! A run prints, in this order: one line per metric for people, one
//! `DETAIL {json}` line for the results file (plan, sizes, sample counts,
//! gates), and — as the last line of standard output — the result object
//! the driver reads: exactly `correct`, `attempted`, `failed`, `metrics`.

use crate::cli::Args;
use crate::json::{obj, Value};
use crate::spec::Workload;
use crate::stats;
use std::time::Instant;

/// One correctness gate of a run.
#[derive(Clone, Debug)]
pub struct Gate {
    pub name: &'static str,
    pub pass: bool,
    pub detail: String,
}

pub fn gate(name: &'static str, pass: bool, detail: impl Into<String>) -> Gate {
    Gate {
        name,
        pass,
        detail: detail.into(),
    }
}

pub struct Report {
    pub workload: Workload,
    /// Operations attempted (steps, passes, requests sent) and failed.
    pub attempted: u64,
    pub failed: u64,
    pub gates: Vec<Gate>,
    /// The metrics of the result object: `(name, value)`.
    pub metrics: Vec<(&'static str, f64)>,
    /// Workload-specific numbers for people and the results file:
    /// `(name, value, unit, samples)`.
    pub reported: Vec<(&'static str, f64, &'static str, usize)>,
    /// Plan, sizes, sample counts, window lengths.
    pub detail: Vec<(&'static str, Value)>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.pass)
    }

    /// Prints the run. `catalog` is the metric list of the mode
    /// ([`crate::spec::END_TO_END`] or [`crate::spec::PER_LAYER`]): every
    /// name in it is printed, a name the workload did not fill as 0.
    pub fn print(&self, catalog: &[(&'static str, &'static str)]) {
        let w = self.workload.name();
        for m in &self.metrics {
            assert!(
                catalog.iter().any(|(n, _)| *n == m.0),
                "{} is not in the metric catalog",
                m.0
            );
        }
        let value_of = |name: &str| {
            self.metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |m| m.1)
        };
        for (name, unit) in catalog {
            println!("{w}  {name} = {} {unit}", value_of(name));
        }
        // The sample counts behind the catalog lines above.
        let counts: Vec<String> = ["samples", "window_s", "setup_samples"]
            .iter()
            .filter_map(|k| self.detail.iter().find(|(d, _)| d == k))
            .map(|(k, v)| format!("{k} = {}", v.compact()))
            .collect();
        if !counts.is_empty() {
            println!("{w}  {}", counts.join(", "));
        }
        for (name, value, unit, n) in &self.reported {
            println!("{w}  {name} = {value} {unit}  (n={n})");
        }
        for g in &self.gates {
            let verdict = if g.pass { "ok" } else { "FAILED" };
            println!("{w}  gate {} {verdict}: {}", g.name, g.detail);
        }
        let detail = obj(self.detail.iter().map(|(k, v)| (*k, v.clone())).chain([
            (
                "reported",
                obj(self.reported.iter().map(|(name, value, unit, n)| {
                    (
                        *name,
                        obj([
                            ("value", (*value).into()),
                            ("unit", (*unit).into()),
                            ("n", (*n).into()),
                        ]),
                    )
                })),
            ),
            (
                "gates",
                Value::Arr(
                    self.gates
                        .iter()
                        .map(|g| {
                            obj([
                                ("name", g.name.into()),
                                ("pass", g.pass.into()),
                                ("detail", g.detail.as_str().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]));
        println!("DETAIL {}", detail.compact());
        let result = obj([
            ("correct", self.correct().into()),
            ("attempted", self.attempted.max(1).into()),
            ("failed", self.failed.into()),
            (
                "metrics",
                obj(catalog.iter().map(|(name, unit)| {
                    (
                        *name,
                        obj([("value", value_of(name).into()), ("unit", (*unit).into())]),
                    )
                })),
            ),
        ]);
        println!("{}", result.compact());
    }
}

/// The stamp every run's detail starts with: what ran, on which inputs,
/// under which resolved plan.
pub fn run_detail(
    workload: Workload,
    args: &Args,
    n: usize,
    nnz: usize,
    plan: &dyn std::fmt::Debug,
) -> Vec<(&'static str, Value)> {
    vec![
        ("workload", workload.name().into()),
        ("seed", args.seed.into()),
        ("smoke", args.smoke.into()),
        ("n", n.into()),
        ("nnz", nnz.into()),
        ("plan", format!("{plan:?}").into()),
    ]
}

/// The ungated tail of the step times, when the sample supports one
/// (see [`stats::tail`]): its value, its percentile, the count beyond it.
pub fn tail_rows(samples: &[f64]) -> Vec<(&'static str, f64, &'static str, usize)> {
    let sorted = stats::sorted(samples.to_vec());
    stats::tail(&sorted).map_or(Vec::new(), |t| {
        vec![
            ("e2e.step_s_tail", t.value, "s", t.beyond),
            ("e2e.step_s_tail_pct", t.percentile, "%", sorted.len()),
        ]
    })
}

/// Runs `setup` `count` times, dropping each state before building the
/// next (two live copies would double the peak resident set), and
/// returns the last state with the duration of every set-up. `setup_s`
/// is the median: one set-up per run would make it a single sample.
pub fn timed_setups<S>(count: usize, mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(count);
    let mut state = None;
    for _ in 0..count.max(1) {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up ran"), times)
}

/// Calls `step` until `window_s` seconds have passed and it has run
/// `min_steps` times (once at least); returns each call's duration and
/// the whole loop's elapsed time.
pub fn timed_loop(window_s: f64, min_steps: usize, mut step: impl FnMut()) -> (Vec<f64>, f64) {
    let mut samples = Vec::new();
    let t0 = Instant::now();
    loop {
        let t = Instant::now();
        step();
        samples.push(t.elapsed().as_secs_f64());
        if samples.len() >= min_steps && t0.elapsed().as_secs_f64() >= window_s {
            return (samples, t0.elapsed().as_secs_f64());
        }
    }
}

/// `|a − b| ≤ tol · max(|a|, |b|)`; false when either is not finite.
pub fn close_rel(a: f64, b: f64, tol: f64) -> bool {
    a.is_finite() && b.is_finite() && (a - b).abs() <= tol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setups_run_the_stated_number_of_times_one_state_alive() {
        let live = std::cell::Cell::new(0);
        struct Guard<'a>(&'a std::cell::Cell<i32>);
        impl Drop for Guard<'_> {
            fn drop(&mut self) {
                self.0.set(self.0.get() - 1);
            }
        }
        let (state, times) = timed_setups(3, || {
            assert_eq!(live.get(), 0, "previous state must be dropped first");
            live.set(live.get() + 1);
            Guard(&live)
        });
        assert_eq!(times.len(), 3);
        assert_eq!(live.get(), 1);
        drop(state);
    }

    #[test]
    fn loop_runs_until_the_window_closes_and_the_minimum_is_met() {
        let (samples, elapsed) = timed_loop(0.0, 0, || ());
        assert_eq!(samples.len(), 1);
        assert!(elapsed >= 0.0);
        assert_eq!(timed_loop(0.0, 4, || ()).0.len(), 4);
        let nap = || std::thread::sleep(std::time::Duration::from_millis(5));
        let (samples, elapsed) = timed_loop(0.02, 1, nap);
        assert!(samples.len() >= 2 && elapsed >= 0.02);
    }

    #[test]
    fn relative_closeness() {
        assert!(close_rel(1.0, 1.0005, 1e-3));
        assert!(!close_rel(1.0, 1.01, 1e-3));
        assert!(!close_rel(f64::NAN, 1.0, 1e-3));
    }
}
