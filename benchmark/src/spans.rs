//! In-memory span recording for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each crate's public functions — nothing inside the product is
//! instrumented. A span has a name, a start, an end, the span that
//! caused it (its parent) and the id of the step or request it belongs
//! to; the list is held in memory and written out when the run ends.

use crate::json::{obj, Value};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// Spans of one step/request share this id.
    pub trace: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    trace: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            trace: 0,
        }
    }

    /// Sets the id stamped on spans opened from now on.
    pub fn set_trace(&mut self, id: u64) {
        self.trace = id;
    }

    /// Runs `f` inside a span named `name`, nested under the span that
    /// is open at the call.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: 0.0,
            end: 0.0,
            parent: self.stack.last().copied(),
            trace: self.trace,
        });
        self.stack.push(idx);
        self.spans[idx].start = self.epoch.elapsed().as_secs_f64();
        let r = f(self);
        self.spans[idx].end = self.epoch.elapsed().as_secs_f64();
        self.stack.pop();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj([
                        ("name", s.name.into()),
                        ("start", s.start.into()),
                        ("end", s.end.into()),
                        ("parent", s.parent.into()),
                        ("trace", s.trace.into()),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the part of it its child
/// spans cover (children of one parent run one after another here, so
/// that part is the sum of their durations).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end - s.start;
        }
    }
    own
}

/// Per-name totals over the spans of the given traces.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: usize,
    /// Summed durations (a name nested under itself would double count;
    /// the benchmark never nests a name under itself).
    pub total: f64,
    /// Summed self times.
    pub own: f64,
    /// Summed self times of the spans that have no children.
    pub leaf_own: f64,
}

pub fn totals_by_name(
    spans: &[Span],
    keep: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, NameTotals> {
    let own = self_times(spans);
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            has_child[p] = true;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| keep(s)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total += s.end - s.start;
        t.own += own[i];
        if !has_child[i] {
            t.leaf_own += own[i];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            trace: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        // step [0,10] ⊃ fwd [1,4] ⊃ gemm [2,3]; step ⊃ bwd [5,9].
        let spans = vec![
            span("step", 0.0, 10.0, None),
            span("fwd", 1.0, 4.0, Some(0)),
            span("gemm", 2.0, 3.0, Some(1)),
            span("bwd", 5.0, 9.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![3.0, 2.0, 1.0, 4.0]);
        // Self times partition the root: they sum to its duration.
        assert_eq!(self_times(&spans).iter().sum::<f64>(), 10.0);
        let t = totals_by_name(&spans, |_| true);
        assert_eq!(t["fwd"].total, 3.0);
        assert_eq!(t["fwd"].own, 2.0);
        assert_eq!(t["fwd"].leaf_own, 0.0);
        assert_eq!(t["gemm"].leaf_own, 1.0);
        assert_eq!(t["bwd"].leaf_own, 4.0);
    }

    #[test]
    fn tracer_nests_by_call_structure_and_stamps_the_trace_id() {
        let mut t = Tracer::new();
        t.set_trace(7);
        let got = t.span("outer", |t| {
            t.span("a", |_| ());
            t.span("b", |t| t.span("c", |_| 42))
        });
        assert_eq!(got, 42);
        let s = t.spans();
        let names: Vec<_> = s.iter().map(|s| s.name).collect();
        assert_eq!(names, ["outer", "a", "b", "c"]);
        let parents: Vec<_> = s.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        assert!(s.iter().all(|s| s.trace == 7 && s.end >= s.start));
        // Children lie inside their parent.
        assert!(s[3].start >= s[2].start && s[3].end <= s[2].end);
        assert!(self_times(s).iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn totals_filter_by_trace() {
        let mut a = span("k", 0.0, 1.0, None);
        a.trace = 1;
        let mut b = span("k", 1.0, 3.0, None);
        b.trace = 2;
        let t = totals_by_name(&[a, b], |s| s.trace == 2);
        assert_eq!((t["k"].count, t["k"].total), (1, 2.0));
    }
}
