//! FP-stability analysis: an interval + error-magnitude abstract domain.
//!
//! Each DAG node is abstractly evaluated to a [`Value`]: a symbolic
//! magnitude interval for its entries plus an accumulated rounding-error
//! estimate in ulps. The domain is a *heuristic* estimate, not a sound
//! worst-case bound — reductions over `m` terms gain `√m` (the
//! random-sign model) rather than `m`, because the worst case over a
//! dense `n×n` product would flag every model while the √-model tracks
//! what training actually sees. Two hazards are reported:
//!
//! * [`Rule::SoftmaxOverflow`] (error) — a raw `exp` applied to values
//!   whose upper bound exceeds [`EXP_OVERFLOW`]: a softmax missing the
//!   row-max subtraction. The library's own graph softmax is immune
//!   ([`atgnn_sparse::masked::ROW_SOFTMAX_MAX_SHIFTED`]: its exp
//!   arguments are `≤ 0` by construction), which is exactly why the
//!   `row_softmax` transfer is the tight `[0, 1]`.
//! * [`Rule::Cancellation`] (warning) — a subtraction of two large
//!   overlapping operands: the result can retain no correct digits, so
//!   its ulp error goes to `∞`.

use atgnn_sparse::masked::ROW_SOFTMAX_MAX_SHIFTED;

use super::{classify, Diagnostic, OpKind, Rule};
use crate::dag::{Dag, Dim, TensorClass};

/// `exp` overflows f64 above this argument (`ln(f64::MAX) ≈ 709.78`).
pub const EXP_OVERFLOW: f64 = 709.0;
/// Operand-magnitude threshold for the cancellation rule: subtracting
/// two overlapping values of magnitude `≥ CANCEL_MAG` can erase every
/// correct digit relative to the unit-magnitude leaves.
pub const CANCEL_MAG: f64 = 32.0;

/// Symbolic problem sizes the abstract evaluation plugs in for the
/// dimension symbols `n`, `k`, `k'`.
#[derive(Clone, Copy, Debug)]
pub struct StabilityConfig {
    /// Vertex count substituted for `n`.
    pub n: f64,
    /// Feature width substituted for `k` and `k'`.
    pub k: f64,
    /// Average degree: the reduction length of sparse aggregations.
    pub avg_degree: f64,
    /// Magnitude bound assumed for leaf (input/parameter) entries.
    pub leaf_bound: f64,
}

impl Default for StabilityConfig {
    fn default() -> Self {
        // Representative mid-size layer; large enough that genuine
        // blow-ups (exp chains, repeated unnormalized products) trip the
        // thresholds.
        Self {
            n: 256.0,
            k: 16.0,
            avg_degree: 16.0,
            leaf_bound: 1.0,
        }
    }
}

impl StabilityConfig {
    fn count(&self, d: Dim) -> f64 {
        match d {
            Dim::N => self.n,
            Dim::K | Dim::KPrime => self.k,
            Dim::One => 1.0,
        }
    }

    /// √-model gain of a reduction over dimension `d`.
    fn gain(&self, d: Dim) -> f64 {
        self.count(d).sqrt()
    }

    /// √-model gain of a sparse (per-row neighbor) reduction.
    fn sparse_gain(&self) -> f64 {
        self.avg_degree.sqrt()
    }
}

/// A closed magnitude interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Interval {
    /// `[lo, hi]`.
    pub fn new(lo: f64, hi: f64) -> Self {
        debug_assert!(lo <= hi, "inverted interval [{lo}, {hi}]");
        Self { lo, hi }
    }

    /// The symmetric interval `[-m, m]`.
    pub fn sym(m: f64) -> Self {
        Self::new(-m, m)
    }

    /// Largest absolute value in the interval.
    pub fn mag(self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }

    /// Smallest interval containing both.
    pub fn hull(self, other: Self) -> Self {
        Self::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Whether the intervals intersect.
    pub fn overlaps(self, other: Self) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    fn add(self, other: Self) -> Self {
        Self::new(self.lo + other.lo, self.hi + other.hi)
    }

    fn sub(self, other: Self) -> Self {
        Self::new(self.lo - other.hi, self.hi - other.lo)
    }

    fn mul(self, other: Self) -> Self {
        let p = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ];
        Self::new(
            p.iter().copied().fold(f64::INFINITY, f64::min),
            p.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    }
}

/// The abstract value of one node.
#[derive(Clone, Copy, Debug)]
pub struct Value {
    /// Magnitude interval of the node's entries.
    pub range: Interval,
    /// Estimated accumulated rounding error, in ulps of the result
    /// (`∞` after a flagged cancellation).
    pub err_ulps: f64,
}

/// Abstractly evaluates every node under the default configuration.
pub fn analyze(dag: &Dag) -> Vec<Value> {
    let mut sink = Vec::new();
    eval(dag, &StabilityConfig::default(), &mut sink)
}

/// Runs the analysis under the default configuration, appending hazard
/// diagnostics.
pub fn check(dag: &Dag, diags: &mut Vec<Diagnostic>) {
    check_with(dag, &StabilityConfig::default(), diags);
}

/// Runs the analysis under an explicit configuration.
pub fn check_with(dag: &Dag, cfg: &StabilityConfig, diags: &mut Vec<Diagnostic>) {
    eval(dag, cfg, diags);
}

fn eval(dag: &Dag, cfg: &StabilityConfig, diags: &mut Vec<Diagnostic>) -> Vec<Value> {
    let nodes = dag.nodes();
    let mut vals: Vec<Value> = Vec::with_capacity(nodes.len());
    for (id, node) in nodes.iter().enumerate() {
        let ins: Vec<Value> = node.inputs.iter().map(|&i| vals[i]).collect();
        vals.push(transfer(dag, cfg, id, &ins, diags));
    }
    vals
}

fn transfer(
    dag: &Dag,
    cfg: &StabilityConfig,
    id: usize,
    ins: &[Value],
    diags: &mut Vec<Diagnostic>,
) -> Value {
    let node = &dag.nodes()[id];
    let op = node.op.as_str();
    // Leaves: the declared inputs/parameters of the plan.
    if ins.is_empty() {
        let range = if node.output == TensorClass::SparseNn {
            // Adjacency / pattern leaves: nonnegative weights.
            Interval::new(0.0, cfg.leaf_bound)
        } else {
            Interval::sym(cfg.leaf_bound)
        };
        return Value {
            range,
            err_ulps: 0.5,
        };
    }
    let in_err = ins.iter().map(|v| v.err_ulps).fold(0.0, f64::max);
    let step = |range: Interval| Value {
        range,
        err_ulps: in_err + 0.5,
    };
    let reduce = |range: Interval, count: f64| Value {
        range,
        err_ulps: in_err + 0.5 * count.max(2.0).log2(),
    };
    let shape_of = |slot: usize| dag.nodes()[node.inputs[slot]].shape;

    // Label-special transfers take precedence over the kind table: the
    // labels carry semantic guarantees (guarded division, bounded
    // gradients) the generic families cannot see.
    if op.starts_with("hadamard_div") {
        // The AGNN cosine: a dot product divided by the product of the
        // factors' norms — bounded by Cauchy–Schwarz.
        return step(Interval::sym(cfg.leaf_bound.max(1.0)));
    }
    if op.starts_with("softmax_bwd") {
        // dS = Ψ ⊙ (dΨ - rowsum(Ψ ⊙ dΨ)): |dS| ≤ 2·|Ψ|·|dΨ|.
        let (a, b) = (ins[0].range.mag(), ins[1].range.mag());
        return step(Interval::sym(2.0 * a * b));
    }
    if op.starts_with("lrelu_grad") {
        return step(Interval::new(0.0, 1.0));
    }
    if op.starts_with("row_l2") {
        let m = ins[0].range.mag() * cfg.gain(shape_of(0).cols);
        return reduce(Interval::new(0.0, m), cfg.count(shape_of(0).cols));
    }
    if op.starts_with("exp") {
        let x = ins[0].range;
        if x.hi > EXP_OVERFLOW {
            diags.push(Diagnostic::error(
                Rule::SoftmaxOverflow,
                Some(id),
                format!(
                    "'{op}' exponentiates values bounded only by {:.3e}, past the \
                     overflow threshold e^{EXP_OVERFLOW:.0} — subtract the row \
                     maximum first (the library row_softmax already does)",
                    x.hi
                ),
            ));
        }
        // exp's condition number is |x|: upstream error is amplified.
        return Value {
            range: Interval::new(x.lo.exp(), x.hi.exp()),
            err_ulps: in_err * x.mag().max(1.0) + 0.5,
        };
    }
    if op.starts_with("sigmoid") {
        return step(Interval::new(0.0, 1.0));
    }
    if op.starts_with("tanh") {
        return step(Interval::sym(1.0));
    }
    if op.starts_with("neg") {
        let x = ins[0].range;
        return step(Interval::new(-x.hi, -x.lo));
    }
    if op.starts_with("sub") {
        let (a, b) = (ins[0].range, ins[1].range);
        if a.mag() >= CANCEL_MAG && b.mag() >= CANCEL_MAG && a.overlaps(b) {
            diags.push(Diagnostic::warning(
                Rule::Cancellation,
                Some(id),
                format!(
                    "'{op}' subtracts overlapping operands of magnitude {:.1} and \
                     {:.1} — catastrophic cancellation can leave no correct \
                     digits; restructure (e.g. factor the difference) or keep a \
                     compensated accumulation",
                    a.mag(),
                    b.mag()
                ),
            ));
            return Value {
                range: a.sub(b),
                err_ulps: f64::INFINITY,
            };
        }
        return step(a.sub(b));
    }

    let sym_scaled = |m: f64| Interval::sym(m);
    match classify(op) {
        OpKind::MatMul | OpKind::MatMulNt | OpKind::MatVec => {
            let inner = shape_of(0).cols;
            reduce(
                sym_scaled(ins[0].range.mag() * ins[1].range.mag() * cfg.gain(inner)),
                cfg.count(inner),
            )
        }
        OpKind::MatMulTn | OpKind::MatVecT => {
            let inner = shape_of(0).rows;
            reduce(
                sym_scaled(ins[0].range.mag() * ins[1].range.mag() * cfg.gain(inner)),
                cfg.count(inner),
            )
        }
        OpKind::Sddmm => {
            // S ⊙ (P Qᵀ): a k-length dot per stored entry, masked.
            let inner = shape_of(1).cols;
            let dot = ins[1].range.mag() * ins[2].range.mag() * cfg.gain(inner);
            reduce(ins[0].range.mul(Interval::sym(dot)), cfg.count(inner))
        }
        OpKind::Outer => step(ins[0].range.mul(ins[1].range)),
        OpKind::SpMm | OpKind::SpMmT => spmm_range(dag, cfg, node, ins, &reduce),
        OpKind::SpMmm => {
            let m = ins[0].range.mag()
                * ins[1].range.mag()
                * ins[2].range.mag()
                * cfg.sparse_gain()
                * cfg.gain(shape_of(1).cols);
            reduce(sym_scaled(m), cfg.avg_degree * cfg.count(shape_of(1).cols))
        }
        OpKind::MSpMm => {
            let m =
                ins[0].range.mag() * ins[1].range.mag() * ins[2].range.mag() * cfg.sparse_gain();
            reduce(sym_scaled(m), cfg.avg_degree)
        }
        OpKind::Mask => step(ins[0].range.mul(ins[1].range)),
        OpKind::Softmax => {
            // Max-shifted graph softmax: exp arguments ≤ 0, rows sum to
            // one. Without the kernel's shift guarantee this would need
            // the raw-exp overflow transfer above.
            const { assert!(ROW_SOFTMAX_MAX_SHIFTED) };
            reduce(Interval::new(0.0, 1.0), cfg.avg_degree)
        }
        OpKind::Rep | OpKind::RepT => step(ins[0].range),
        OpKind::RowReduce | OpKind::ColReduce => {
            let (gain, count) = if dag.nodes()[node.inputs[0]].output == TensorClass::SparseNn {
                (cfg.sparse_gain(), cfg.avg_degree)
            } else {
                let d = shape_of(0).cols;
                (cfg.gain(d), cfg.count(d))
            };
            reduce(sym_scaled(ins[0].range.mag() * gain), count)
        }
        OpKind::Contract => {
            let per_row = if dag.nodes()[node.inputs[0]].output == TensorClass::SparseNn {
                cfg.avg_degree
            } else {
                cfg.count(shape_of(0).cols)
            };
            let count = cfg.n * per_row;
            let m = ins[0].range.mag() * ins.get(1).map_or(1.0, |v| v.range.mag());
            reduce(sym_scaled(m * count.sqrt()), count)
        }
        OpKind::Elementwise => {
            if op.starts_with("hadamard") {
                step(
                    ins.iter()
                        .skip(1)
                        .fold(ins[0].range, |acc, v| acc.mul(v.range)),
                )
            } else {
                // add (sub handled above).
                step(
                    ins.iter()
                        .skip(1)
                        .fold(ins[0].range, |acc, v| acc.add(v.range)),
                )
            }
        }
        OpKind::ScaleLike => step(ins[0].range),
        // Unknown ops and samplers beyond the table: hull of the inputs.
        _ => step(
            ins.iter()
                .skip(1)
                .fold(ins[0].range, |acc, v| acc.hull(v.range)),
        ),
    }
}

/// SpMM family: the sparse operand either *averages* (softmax scores:
/// rows are convex weights, so the output is in the convex hull of the
/// dense rows and zero), *selects* (min/max semirings add, then take one
/// term), or *sums* (√-model gain over the neighbors).
fn spmm_range(
    dag: &Dag,
    cfg: &StabilityConfig,
    node: &crate::dag::Node,
    ins: &[Value],
    reduce: &dyn Fn(Interval, f64) -> Value,
) -> Value {
    let sparse_id = node.inputs[0];
    let h = ins[1].range;
    if classify(&dag.nodes()[sparse_id].op) == OpKind::Softmax {
        return reduce(h.hull(Interval::new(0.0, 0.0)), cfg.avg_degree);
    }
    if node.semiring.is_some_and(|sk| sk.order_insensitive()) {
        // Tropical: one (s + h) term survives per output entry.
        return reduce(ins[0].range.add(h), 2.0);
    }
    reduce(
        Interval::sym(ins[0].range.mag() * h.mag() * cfg.sparse_gain()),
        cfg.avg_degree,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::TensorClass;

    fn chain_of_matmuls(d: &mut Dag, depth: usize) -> usize {
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let w = d.add("W", TensorClass::DenseKk, &[]);
        let mut cur = h;
        for _ in 0..depth {
            cur = d.add("matmul", TensorClass::DenseNk, &[cur, w]);
        }
        cur
    }

    #[test]
    fn canned_dags_are_stable() {
        for dag in [
            Dag::va_forward(),
            Dag::agnn_forward(),
            Dag::gat_forward(),
            Dag::gcn_forward(),
            Dag::va_backward(),
            Dag::agnn_backward(),
            Dag::gat_backward(),
        ] {
            let mut diags = Vec::new();
            check(&dag, &mut diags);
            assert!(diags.is_empty(), "{diags:?}");
        }
    }

    #[test]
    fn raw_exp_of_grown_values_is_an_overflow_error() {
        // Five unnormalized k-gain matmuls: 4^5 = 1024 > 709, so a raw
        // exp (no max subtraction) can overflow.
        let mut d = Dag::new();
        let big = chain_of_matmuls(&mut d, 5);
        let e = d.add("exp", TensorClass::DenseNk, &[big]);
        let mut diags = Vec::new();
        check(&d, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::SoftmaxOverflow);
        assert_eq!(diags[0].node, Some(e));
    }

    #[test]
    fn shifted_softmax_is_not_flagged() {
        // The same grown scores through mask + row_softmax: the kernel's
        // max shift keeps exp arguments ≤ 0.
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let a = d.add("A", TensorClass::SparseNn, &[]);
        let hht = d.add("matmul_nt(H,H)", TensorClass::DenseNn, &[h, h]);
        let m = d.add("mask(A,·)", TensorClass::SparseNn, &[a, hht]);
        let sm = d.add("row_softmax", TensorClass::SparseNn, &[m]);
        let mut diags = Vec::new();
        check(&d, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(analyze(&d)[sm].range, Interval::new(0.0, 1.0));
    }

    #[test]
    fn overlapping_large_subtraction_is_cancellation() {
        let mut d = Dag::new();
        let x = chain_of_matmuls(&mut d, 3); // magnitude 64 ≥ CANCEL_MAG
        let s = d.add("sub", TensorClass::DenseNk, &[x, x]);
        let mut diags = Vec::new();
        check(&d, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::Cancellation);
        assert_eq!(diags[0].node, Some(s));
        assert!(analyze(&d)[s].err_ulps.is_infinite());
    }

    #[test]
    fn small_subtraction_is_fine() {
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let g = d.add("G", TensorClass::DenseNk, &[]);
        let _s = d.add("sub", TensorClass::DenseNk, &[h, g]);
        let mut diags = Vec::new();
        check(&d, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn exp_of_moderate_magnitudes_is_fine() {
        // exp(16) ≈ 8.9e6 is large but far below the overflow threshold.
        let mut d = Dag::new();
        let m2 = chain_of_matmuls(&mut d, 2); // magnitude 16
        let _e = d.add("exp", TensorClass::DenseNk, &[m2]);
        let mut diags = Vec::new();
        check(&d, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn softmax_weighted_aggregation_stays_in_the_feature_hull() {
        // Ψ rows are convex weights: spmm(Ψ, H') cannot exceed H'.
        let d = Dag::gat_forward();
        let vals = analyze(&d);
        let z = d.nodes().len() - 1;
        let hp = 5; // matmul(H,W)
        assert!(vals[z].range.mag() <= vals[hp].range.mag() + 1e-12);
    }
}
