//! Plan-time static analysis of tensor-expression DAGs.
//!
//! Before a plan executes (or, for the canned models, before a model is
//! even constructed in debug builds), the analyzer walks the
//! [`Dag`](crate::dag::Dag) and checks everything that can be decided
//! symbolically:
//!
//! 1. **Shape consistency** — every kernel composition (MM, SpMM, SDDMM,
//!    SpMMM, MSpMM, rep/sum/rs, sm, …) must agree on the symbolic
//!    dimensions `n`, `k`, `k'`, `1` ([`Rule::ShapeMismatch`]).
//! 2. **Virtual-tensor safety** — a dense `n×n` node must be absorbed
//!    into a fusion group that ends in a sparse sampler; escapes into
//!    dense consumers and never-sampled regions are structured errors
//!    ([`Rule::UnfusedVirtual`]), not panics or silent passes.
//! 3. **Fusion legality** — each fusion group must be a valid
//!    virtual→sparse path per §6.2: generators expressible per-entry
//!    (`matmul_nt`, `outer`, `rep`, `rep_t`), element-wise combinators
//!    in between, and pattern-sampling consumers at the end
//!    ([`Rule::IllegalFusion`]).
//! 4. **Semiring compatibility** — tropical min/max aggregations on a
//!    *backward* DAG are flagged: the global backward formulation
//!    differentiates through the aggregation as a linear map, which
//!    requires an additive inverse ([`Rule::SemiringBackward`]).
//! 5. **Communication volume** — the distributed crate's exact
//!    communication model (`atgnn_dist::comm_model`) lints a layer whose
//!    busiest rank sends more than its schedule's leading coefficient
//!    times the paper's `O(nk/√p + k²)` global bound, and reports it as
//!    [`Rule::CommVolume`].
//! 6. **Determinism** — [`determinism`] proves bit-identity of the
//!    parallel schedule by checking a reduction-order invariance fact
//!    (exported by the kernels themselves) for every reducing node, and
//!    flags aggregations whose accumulation order is unspecified
//!    ([`Rule::NondetReduction`]).
//! 7. **FP-stability** — [`stability`] runs an interval + error-magnitude
//!    abstract domain over the DAG and flags overflow-prone `exp` chains
//!    missing the max-subtraction ([`Rule::SoftmaxOverflow`]) and
//!    catastrophic-cancellation sites ([`Rule::Cancellation`]).
//! 8. **Alias / in-place legality** — [`alias`] extends the escape
//!    analysis with consumer counts, proving which buffers may be reused
//!    in place and which sandwiches run allocation-free; declared
//!    in-place ops that violate the proof are errors
//!    ([`Rule::AliasUnsafe`]).
//!
//! A ninth family of rules lints *source code* rather than DAGs: the
//! `atgnn-lint` binary (crates/lint) scans the workspace for hygiene
//! violations (unwrap-in-kernels, raw-threads, staged-bypass,
//! permute-layering, unbounded-recv) and reports them through the same
//! [`Diagnostic`] stream, anchored by [`Span`]s instead of node ids.
//!
//! [`validate`] runs every DAG rule over one DAG; [`validate_model`] runs
//! them over the canned forward+backward DAGs of a
//! [`ModelKind`](crate::ModelKind), [`debug_validate`] is the
//! `debug_assertions` hook wired into model construction here and in the
//! distributed crate, and [`env_validate`] upgrades that hook in release
//! builds when `ATGNN_ANALYZE` is set.

use std::fmt;

use crate::dag::{Dag, Dim, Node, Shape, TensorClass};
use crate::model::ModelKind;

pub mod alias;
pub mod determinism;
pub mod stability;

/// How severe a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// The plan is suspicious (e.g. wasteful) but executable.
    Warning,
    /// The plan violates an invariant the kernels rely on.
    Error,
}

/// Which analyzer rule produced a diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// Rule 1: symbolic shapes do not compose.
    ShapeMismatch,
    /// Rule 2: a virtual (dense `n×n`) tensor escapes fusion or is never
    /// sampled by a sparse consumer.
    UnfusedVirtual,
    /// Rule 3: a fusion group is not a legal virtual→sparse path.
    IllegalFusion,
    /// Rule 4: a non-invertible (tropical) aggregation on a backward DAG.
    SemiringBackward,
    /// Rule 5: a layer's exact communication volume exceeds the global
    /// bound (reported by `atgnn_dist::comm_model`).
    CommVolume,
    /// Rule 6: a staged execution plan materializes a softmax sandwich
    /// (sampler → softmax → aggregation) that the one-pass fused sweep
    /// would keep virtual.
    StagedSandwich,
    /// Rule 7: a reducing node's floating-point accumulation order is
    /// unspecified, so results could vary with thread count or tile
    /// size.
    NondetReduction,
    /// Rule 8: an `exp` is applied to values that can exceed the
    /// floating-point overflow threshold — a softmax without the row-max
    /// subtraction.
    SoftmaxOverflow,
    /// Rule 9: a subtraction of two large, overlapping operands —
    /// catastrophic cancellation can leave the result with no correct
    /// digits.
    Cancellation,
    /// Rule 10: an op declared in-place (`*_inplace`) mutates a buffer
    /// the alias analysis cannot prove dead.
    AliasUnsafe,
    /// Source lint: `.unwrap()` in kernel-crate non-test code.
    UnwrapInKernels,
    /// Source lint: raw `thread::spawn`/`scope` outside the rt pool.
    RawThreads,
    /// Source lint: layer code calling staged attention kernels directly
    /// instead of routing through `ExecPlan`.
    StagedBypass,
    /// Source lint: `Csr::permute` called outside the plan layer.
    PermuteLayering,
    /// Source lint: the legacy unbounded recv in distributed code.
    UnboundedRecv,
    /// Source lint: hot-path kernel code indexing `Dense` storage with a
    /// raw `row * cols` offset instead of the stride-aware accessors —
    /// silently wrong once the padded layout makes `stride != cols`.
    DenseRawIndex,
    /// Source lint: kernel or layer code reading a plan-knob environment
    /// variable directly instead of going through `ExecPlan`
    /// (the sanctioned lazy-fallback home `micro` excepted) —
    /// scattered env reads would let a model's plan and the kernels
    /// disagree about the active configuration.
    PlanKnobEnv,
    /// Source lint: serve-path code blocking without a deadline — a bare
    /// `.recv()`, Condvar `.wait(...)`, or thread `.join()` where the
    /// serving runtime's liveness contract demands `recv_timeout` /
    /// `wait_timeout` / bounded `is_finished()` polling.
    UnfencedWait,
    /// Source lint: a `std::collections` hash container in non-test code
    /// of `crates/sparse/src` — hashing on a kernel path costs what the
    /// ego extractor's two `HashMap`s did (29 % of a served batch), and
    /// `RandomState` iteration order is a determinism hazard the DAG
    /// analysis cannot see.
    HashInKernels,
}

impl Rule {
    /// Short kebab-case rule name used in rendered diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Rule::ShapeMismatch => "shape-mismatch",
            Rule::UnfusedVirtual => "unfused-virtual",
            Rule::IllegalFusion => "illegal-fusion",
            Rule::SemiringBackward => "semiring-backward",
            Rule::CommVolume => "comm-volume",
            Rule::StagedSandwich => "staged-sandwich",
            Rule::NondetReduction => "nondet-reduction",
            Rule::SoftmaxOverflow => "softmax-overflow",
            Rule::Cancellation => "cancellation",
            Rule::AliasUnsafe => "alias-unsafe",
            Rule::UnwrapInKernels => "unwrap-in-kernels",
            Rule::RawThreads => "raw-threads",
            Rule::StagedBypass => "staged-bypass",
            Rule::PermuteLayering => "permute-layering",
            Rule::UnboundedRecv => "unbounded-recv",
            Rule::DenseRawIndex => "dense-raw-index",
            Rule::PlanKnobEnv => "plan-knob-env",
            Rule::UnfencedWait => "unfenced-wait",
            Rule::HashInKernels => "hash-in-kernels",
        }
    }

    /// Parses a kebab-case rule name (the inverse of [`Rule::name`]);
    /// used by `atgnn-lint`'s `allow(...)` annotations.
    pub fn from_name(name: &str) -> Option<Rule> {
        const ALL: [Rule; 19] = [
            Rule::ShapeMismatch,
            Rule::UnfusedVirtual,
            Rule::IllegalFusion,
            Rule::SemiringBackward,
            Rule::CommVolume,
            Rule::StagedSandwich,
            Rule::NondetReduction,
            Rule::SoftmaxOverflow,
            Rule::Cancellation,
            Rule::AliasUnsafe,
            Rule::UnwrapInKernels,
            Rule::RawThreads,
            Rule::StagedBypass,
            Rule::PermuteLayering,
            Rule::UnboundedRecv,
            Rule::DenseRawIndex,
            Rule::PlanKnobEnv,
            Rule::UnfencedWait,
            Rule::HashInKernels,
        ];
        ALL.into_iter().find(|r| r.name() == name)
    }
}

/// A source location, for diagnostics produced by the source-scanning
/// lints rather than a DAG walk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
}

/// One finding of the static analyzer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: Rule,
    /// Error or warning.
    pub severity: Severity,
    /// The offending node, when the finding is attributable to one.
    pub node: Option<usize>,
    /// The offending source location, for source-scanning lints.
    pub span: Option<Span>,
    /// Human-readable explanation.
    pub explanation: String,
}

impl Diagnostic {
    /// An error attributed to a DAG node (or to the whole plan).
    pub fn error(rule: Rule, node: Option<usize>, explanation: String) -> Self {
        Self {
            rule,
            severity: Severity::Error,
            node,
            span: None,
            explanation,
        }
    }

    /// A warning attributed to a DAG node (or to the whole plan).
    pub fn warning(rule: Rule, node: Option<usize>, explanation: String) -> Self {
        Self {
            rule,
            severity: Severity::Warning,
            node,
            span: None,
            explanation,
        }
    }

    /// An error anchored to a source location (the lint rules).
    pub fn error_at(rule: Rule, span: Span, explanation: String) -> Self {
        Self {
            rule,
            severity: Severity::Error,
            node: None,
            span: Some(span),
            explanation,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "{sev}[{}]", self.rule.name())?;
        if let Some(s) = &self.span {
            write!(f, " @ {}:{}", s.file, s.line)?;
        } else if let Some(n) = self.node {
            write!(f, " @ node {n}")?;
        }
        write!(f, ": {}", self.explanation)
    }
}

/// Runs every DAG rule (shape, virtual safety, fusion legality,
/// semirings, determinism, FP-stability, alias legality) over one DAG
/// and returns every finding (errors first is *not* guaranteed; filter
/// on [`Diagnostic::severity`]).
pub fn validate(dag: &Dag) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    check_shapes(dag, &mut diags);
    check_virtual_safety(dag, &mut diags);
    check_fusion_legality(dag, &mut diags);
    check_semirings(dag, &mut diags);
    determinism::check(dag, &mut diags);
    stability::check(dag, &mut diags);
    alias::check(dag, &mut diags);
    diags
}

/// Validates the canned forward and backward plans of a model kind.
pub fn validate_model(kind: ModelKind) -> Vec<Diagnostic> {
    model_dags(kind).iter().flat_map(validate).collect()
}

/// The canned execution DAGs of a model kind (forward, then backward
/// where one is modeled).
pub fn model_dags(kind: ModelKind) -> Vec<Dag> {
    match kind {
        ModelKind::Va => vec![Dag::va_forward(), Dag::va_backward()],
        ModelKind::Agnn => vec![Dag::agnn_forward(), Dag::agnn_backward()],
        ModelKind::Gat => vec![Dag::gat_forward(), Dag::gat_backward()],
        ModelKind::Gcn => vec![Dag::gcn_forward()],
    }
}

/// A softmax sandwich: a sparse sampler feeding (optionally through a
/// graph softmax) an aggregation — the SDDMM→softmax→SpMM pattern the
/// one-pass fused sweep executes in a single CSR traversal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sandwich {
    /// The sampler node (`mask` / `sddmm`).
    pub sampler: usize,
    /// The softmax node, when the model has one (VA does not).
    pub softmax: Option<usize>,
    /// The aggregation (`spmm`) node consuming the scores.
    pub aggregation: usize,
}

/// Finds every softmax sandwich in a DAG: `spmm` nodes whose sparse
/// operand is a `row_softmax` of a sampler, or a sampler directly (the
/// softmax-free VA pattern).
pub fn detect_sandwiches(dag: &Dag) -> Vec<Sandwich> {
    let nodes = dag.nodes();
    let mut found = Vec::new();
    for (id, node) in nodes.iter().enumerate() {
        if classify(&node.op) != OpKind::SpMm {
            continue;
        }
        let Some(&sparse) = node.inputs.first() else {
            continue;
        };
        match classify(&nodes[sparse].op) {
            OpKind::Softmax => {
                if let Some(&below) = nodes[sparse].inputs.first() {
                    if matches!(classify(&nodes[below].op), OpKind::Mask | OpKind::Sddmm) {
                        found.push(Sandwich {
                            sampler: below,
                            softmax: Some(sparse),
                            aggregation: id,
                        });
                    }
                }
            }
            OpKind::Mask | OpKind::Sddmm => found.push(Sandwich {
                sampler: sparse,
                softmax: None,
                aggregation: id,
            }),
            _ => {}
        }
    }
    found
}

/// Validates an execution plan against the canned DAGs of `kind`: the
/// model rules (1–4) always run; a staged plan additionally earns one
/// `staged-sandwich` warning per detected sandwich, because the staged
/// path materializes score matrices the one-pass fused sweep keeps
/// virtual.
pub fn validate_plan(plan: &crate::plan::ExecPlan, kind: ModelKind) -> Vec<Diagnostic> {
    let mut diags = validate_model(kind);
    if !plan.is_fused() {
        for dag in model_dags(kind) {
            for s in detect_sandwiches(&dag) {
                let via = match s.softmax {
                    Some(sm) => format!(" via softmax node {sm}"),
                    None => String::new(),
                };
                diags.push(Diagnostic::warning(
                    Rule::StagedSandwich,
                    Some(s.aggregation),
                    format!(
                        "staged plan materializes the sandwich sampler node {}{via} \
                         feeding aggregation node {}; the one-pass fused sweep \
                         executes it in a single CSR traversal",
                        s.sampler, s.aggregation
                    ),
                ));
            }
        }
    }
    diags
}

/// Estimated locality of an execution plan on a concrete graph.
///
/// Complements the DAG rules above with the data-layout half of the cost
/// model: the fused sweep is bandwidth-bound, and its effective bandwidth
/// is governed by how far each stored edge's feature-row gather lands
/// from the current row ([`atgnn_graphgen::reorder::Locality`]). The
/// report shows the metrics before and after the plan's reorder stage,
/// with the `auto` strategy resolved against this graph.
#[derive(Clone, Debug)]
pub struct LocalityReport {
    /// The strategy after per-graph `auto` resolution (knob spelling).
    pub strategy: &'static str,
    /// Vertices of the analyzed graph.
    pub n: usize,
    /// Stored entries of the analyzed graph.
    pub nnz: usize,
    /// Locality of the graph as given.
    pub before: atgnn_graphgen::reorder::Locality,
    /// Locality after the plan's reordering; `None` when the plan does
    /// not reorder this graph.
    pub after: Option<atgnn_graphgen::reorder::Locality>,
}

impl LocalityReport {
    /// Ratio of average gather distance before/after reordering (> 1
    /// means the reorder improves locality); `None` without a reorder or
    /// with a degenerate (already zero-distance) graph.
    pub fn gather_improvement(&self) -> Option<f64> {
        let after = self.after.as_ref()?;
        if after.avg_neighbor_distance == 0.0 {
            return None;
        }
        Some(self.before.avg_neighbor_distance / after.avg_neighbor_distance)
    }
}

impl fmt::Display for LocalityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "locality[{}] n={} nnz={}: bw {} avg_dist {:.1}",
            self.strategy,
            self.n,
            self.nnz,
            self.before.bandwidth,
            self.before.avg_neighbor_distance
        )?;
        match &self.after {
            Some(a) => write!(
                f,
                " -> bw {} avg_dist {:.1}",
                a.bandwidth, a.avg_neighbor_distance
            ),
            None => write!(f, " (not reordered)"),
        }
    }
}

/// Measures [`LocalityReport`] for a plan on a graph. Exposed on the plan
/// as `ExecPlan::locality_report`.
pub fn locality_report<T: atgnn_tensor::Scalar>(
    plan: &crate::plan::ExecPlan,
    a: &atgnn_sparse::Csr<T>,
) -> LocalityReport {
    use atgnn_graphgen::reorder;
    let resolved = reorder::resolve(a, plan.reorder());
    let before = reorder::locality_of(a);
    let after = plan.reorder_graph(a).map(|r| reorder::locality_of(&r.a));
    LocalityReport {
        strategy: resolved.name(),
        n: a.rows(),
        nnz: a.nnz(),
        before,
        after,
    }
}

/// Debug-build hook: panics with the rendered diagnostics if the canned
/// plans of `kind` contain any analyzer *error*. Called from
/// `GnnModel::uniform` and the distributed model constructor under
/// `debug_assertions`; release builds skip it entirely.
pub fn debug_validate(kind: ModelKind) {
    let errors: Vec<String> = validate_model(kind)
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.to_string())
        .collect();
    assert!(
        errors.is_empty(),
        "static analysis rejected the {kind:?} plan:\n{}",
        errors.join("\n")
    );
}

/// Model-construction analysis hook driven by `ATGNN_ANALYZE`.
///
/// * unset — [`debug_validate`] under `debug_assertions` only (release
///   builds skip analysis entirely);
/// * `report` / `1` — run the full analysis in any build, print each
///   diagnostic plus a one-line summary to stderr;
/// * `deny` — run the full analysis in any build and panic on *any*
///   diagnostic, warnings included.
pub fn env_validate(kind: ModelKind) {
    #[cfg(debug_assertions)]
    debug_validate(kind);
    match std::env::var("ATGNN_ANALYZE").as_deref() {
        Ok("report") | Ok("1") => {
            let diags = validate_model(kind);
            for d in &diags {
                eprintln!("atgnn-analyze: {d}");
            }
            let proofs: usize = model_dags(kind)
                .iter()
                .map(|d| determinism::proofs(d).len())
                .sum();
            eprintln!(
                "atgnn-analyze: {kind:?}: {} diagnostic(s), {proofs} reduction(s) \
                 proven order-invariant",
                diags.len()
            );
        }
        Ok("deny") => {
            let diags = validate_model(kind);
            assert!(
                diags.is_empty(),
                "ATGNN_ANALYZE=deny: the {kind:?} plan has diagnostics:\n{}",
                diags
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------
// Rule 1: shape consistency.
// ---------------------------------------------------------------------

/// Operation families the shape checker understands. Classification is
/// by op-label prefix, so decorated labels like `"spmm(Psi,H)"` resolve
/// to their kernel family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpKind {
    MatMul,
    MatMulNt,
    MatMulTn,
    MatVec,
    MatVecT,
    SpMm,
    SpMmT,
    SpMmm,
    MSpMm,
    Sddmm,
    Mask,
    Softmax,
    Rep,
    RepT,
    Outer,
    RowReduce,
    ColReduce,
    Contract,
    Elementwise,
    ScaleLike,
    Unknown,
}

fn classify(op: &str) -> OpKind {
    // Longest-prefix-first so "matmul_nt" does not classify as "matmul".
    const TABLE: &[(&str, OpKind)] = &[
        ("matmul_nt", OpKind::MatMulNt),
        ("matmul_tn", OpKind::MatMulTn),
        ("matmul", OpKind::MatMul),
        ("mm", OpKind::MatMul),
        ("matvec_t", OpKind::MatVecT),
        ("matvec", OpKind::MatVec),
        ("spmm_t", OpKind::SpMmT),
        ("spmmm", OpKind::SpMmm),
        ("spmm", OpKind::SpMm),
        ("mspmm", OpKind::MSpMm),
        ("sddmm", OpKind::Sddmm),
        ("mask", OpKind::Mask),
        ("row_softmax", OpKind::Softmax),
        ("sm", OpKind::Softmax),
        ("softmax_bwd", OpKind::Elementwise),
        ("rep_t", OpKind::RepT),
        ("rep", OpKind::Rep),
        ("outer", OpKind::Outer),
        ("row_sums", OpKind::RowReduce),
        ("row_l2_norms", OpKind::RowReduce),
        ("rs", OpKind::RowReduce),
        ("col_sums", OpKind::ColReduce),
        ("sum", OpKind::Contract),
        ("contract", OpKind::Contract),
        ("add", OpKind::Elementwise),
        ("sub", OpKind::Elementwise),
        ("hadamard", OpKind::Elementwise),
        ("leaky_relu", OpKind::ScaleLike),
        ("lrelu_grad", OpKind::ScaleLike),
        ("lrelu", OpKind::ScaleLike),
        ("relu", OpKind::ScaleLike),
        ("elu", OpKind::ScaleLike),
        ("exp", OpKind::ScaleLike),
        ("tanh", OpKind::ScaleLike),
        ("sigmoid", OpKind::ScaleLike),
        ("scale", OpKind::ScaleLike),
        ("neg", OpKind::ScaleLike),
    ];
    // "softmax_bwd" must win over "sm"? They share no prefix; fine. The
    // table is scanned in order, so longer keys are listed before their
    // prefixes.
    TABLE
        .iter()
        .find(|(key, _)| op.starts_with(key))
        .map(|&(_, kind)| kind)
        .unwrap_or(OpKind::Unknown)
}

fn dim_eq(a: Dim, b: Dim) -> bool {
    a == b
}

struct ShapeChecker<'a> {
    dag: &'a Dag,
    diags: &'a mut Vec<Diagnostic>,
}

impl ShapeChecker<'_> {
    fn shape(&self, id: usize) -> Shape {
        self.dag.nodes()[id].shape
    }

    fn mismatch(&mut self, id: usize, detail: String) {
        let op = &self.dag.nodes()[id].op;
        self.diags.push(Diagnostic::error(
            Rule::ShapeMismatch,
            Some(id),
            format!("'{op}': {detail}"),
        ));
    }

    /// Checks the inner-dimension constraint and the declared output
    /// shape of one node; returns early (one diagnostic per node) on the
    /// first violation.
    fn check(&mut self, id: usize, node: &Node) {
        if node.inputs.is_empty() {
            return; // leaf: the declared shape is the definition
        }
        let ins: Vec<Shape> = node.inputs.iter().map(|&i| self.shape(i)).collect();
        let expected: Option<Shape> = match classify(&node.op) {
            OpKind::MatMul => self.binary_product(id, &ins, |a, b| {
                (dim_eq(a.cols, b.rows)).then(|| Shape::new(a.rows, b.cols))
            }),
            OpKind::MatMulNt => self.binary_product(id, &ins, |a, b| {
                (dim_eq(a.cols, b.cols)).then(|| Shape::new(a.rows, b.rows))
            }),
            OpKind::MatMulTn => self.binary_product(id, &ins, |a, b| {
                (dim_eq(a.rows, b.rows)).then(|| Shape::new(a.cols, b.cols))
            }),
            OpKind::MatVec => self.binary_product(id, &ins, |a, v| {
                (dim_eq(a.cols, v.rows) && dim_eq(v.cols, Dim::One))
                    .then(|| Shape::new(a.rows, Dim::One))
            }),
            OpKind::MatVecT => self.binary_product(id, &ins, |a, v| {
                (dim_eq(a.rows, v.rows) && dim_eq(v.cols, Dim::One))
                    .then(|| Shape::new(a.cols, Dim::One))
            }),
            OpKind::Outer => self.binary_product(id, &ins, |u, v| {
                (dim_eq(u.cols, Dim::One) && dim_eq(v.cols, Dim::One))
                    .then(|| Shape::new(u.rows, v.rows))
            }),
            OpKind::SpMm => self.spmm_like(id, node, &ins, false),
            OpKind::SpMmT => self.spmm_like(id, node, &ins, true),
            OpKind::SpMmm => self.spmmm(id, node, &ins),
            OpKind::MSpMm => self.mspmm(id, node, &ins),
            OpKind::Mask | OpKind::Sddmm => self.sampler(id, node, &ins),
            OpKind::Softmax => self.softmax(id, node, &ins),
            OpKind::Rep | OpKind::RepT => self.rep(id, &ins),
            OpKind::RowReduce => ins.first().map(|a| Shape::new(a.rows, Dim::One)),
            OpKind::ColReduce => ins.first().map(|a| Shape::new(a.cols, Dim::One)),
            OpKind::Contract => self
                .same_shape(id, &ins)
                .map(|_| Shape::new(Dim::One, Dim::One)),
            OpKind::Elementwise => self.same_shape(id, &ins),
            OpKind::ScaleLike => ins.first().copied(),
            OpKind::Unknown => None, // unknown ops are not shape-checked
        };
        if let Some(exp) = expected {
            if exp != node.shape {
                self.mismatch(
                    id,
                    format!(
                        "declared output shape {} but the operands compose to {exp}",
                        node.shape
                    ),
                );
            }
        }
    }

    fn binary_product(
        &mut self,
        id: usize,
        ins: &[Shape],
        rule: impl Fn(Shape, Shape) -> Option<Shape>,
    ) -> Option<Shape> {
        let [a, b] = *ins else {
            self.mismatch(id, format!("expects 2 operands, got {}", ins.len()));
            return None;
        };
        let out = rule(a, b);
        if out.is_none() {
            self.mismatch(id, format!("operand shapes {a} and {b} do not compose"));
        }
        out
    }

    fn spmm_like(
        &mut self,
        id: usize,
        node: &Node,
        ins: &[Shape],
        transposed: bool,
    ) -> Option<Shape> {
        let [s, h] = *ins else {
            self.mismatch(id, format!("expects 2 operands, got {}", ins.len()));
            return None;
        };
        if self.dag.nodes()[node.inputs[0]].output != TensorClass::SparseNn {
            self.mismatch(id, "first operand must be a sparse matrix".into());
            return None;
        }
        let (contracted, kept) = if transposed {
            (s.rows, s.cols)
        } else {
            (s.cols, s.rows)
        };
        if !dim_eq(contracted, h.rows) {
            self.mismatch(
                id,
                format!("sparse operand {s} cannot contract dense operand {h}"),
            );
            return None;
        }
        Some(Shape::new(kept, h.cols))
    }

    /// Fused `A (H W)`: sparse `n×n`, dense `n×k`, dense `k×k'`.
    fn spmmm(&mut self, id: usize, node: &Node, ins: &[Shape]) -> Option<Shape> {
        let [a, h, w] = *ins else {
            self.mismatch(id, format!("expects 3 operands, got {}", ins.len()));
            return None;
        };
        if self.dag.nodes()[node.inputs[0]].output != TensorClass::SparseNn {
            self.mismatch(id, "first operand must be a sparse matrix".into());
            return None;
        }
        if !dim_eq(a.cols, h.rows) || !dim_eq(h.cols, w.rows) {
            self.mismatch(id, format!("shapes {a}, {h}, {w} do not chain"));
            return None;
        }
        Some(Shape::new(a.rows, w.cols))
    }

    /// Fused `(M ⊙ ·) A H`: two sparse `n×n` operands, one dense `n×k`.
    fn mspmm(&mut self, id: usize, node: &Node, ins: &[Shape]) -> Option<Shape> {
        let [m, a, h] = *ins else {
            self.mismatch(id, format!("expects 3 operands, got {}", ins.len()));
            return None;
        };
        for (slot, &input) in node.inputs.iter().take(2).enumerate() {
            if self.dag.nodes()[input].output != TensorClass::SparseNn {
                self.mismatch(id, format!("operand {slot} must be a sparse matrix"));
                return None;
            }
        }
        if m != a || !dim_eq(a.cols, h.rows) {
            self.mismatch(id, format!("shapes {m}, {a}, {h} do not chain"));
            return None;
        }
        Some(Shape::new(a.rows, h.cols))
    }

    /// `mask`/`sddmm`: a sparse sampler plus a dense operand of the same
    /// shape (mask) or two tall factors (sddmm, `S ⊙ (P Qᵀ)`).
    fn sampler(&mut self, id: usize, node: &Node, ins: &[Shape]) -> Option<Shape> {
        let s = *ins.first()?;
        if self.dag.nodes()[node.inputs[0]].output != TensorClass::SparseNn {
            self.mismatch(id, "sampler pattern must be a sparse matrix".into());
            return None;
        }
        match *ins {
            [_, x] => {
                if s != x {
                    self.mismatch(
                        id,
                        format!("pattern {s} cannot sample operand of shape {x}"),
                    );
                    return None;
                }
                Some(s)
            }
            [_, p, q] => {
                if !dim_eq(p.cols, q.cols) || !dim_eq(s.rows, p.rows) || !dim_eq(s.cols, q.rows) {
                    self.mismatch(
                        id,
                        format!("pattern {s} cannot sample product of {p} and {q}ᵀ"),
                    );
                    return None;
                }
                Some(s)
            }
            _ => {
                self.mismatch(id, format!("expects 2 or 3 operands, got {}", ins.len()));
                None
            }
        }
    }

    fn softmax(&mut self, id: usize, node: &Node, ins: &[Shape]) -> Option<Shape> {
        if self.dag.nodes()[node.inputs[0]].output != TensorClass::SparseNn {
            self.mismatch(
                id,
                "graph softmax runs on a sparse (pattern-masked) matrix; a dense \
                 operand would materialize the scores"
                    .into(),
            );
            return None;
        }
        ins.first().copied()
    }

    fn rep(&mut self, id: usize, ins: &[Shape]) -> Option<Shape> {
        let v = *ins.first()?;
        if !dim_eq(v.cols, Dim::One) {
            self.mismatch(id, format!("replication expects a vector, got {v}"));
            return None;
        }
        Some(Shape::new(v.rows, v.rows))
    }

    fn same_shape(&mut self, id: usize, ins: &[Shape]) -> Option<Shape> {
        let first = *ins.first()?;
        if ins.iter().any(|&s| s != first) {
            let rendered: Vec<String> = ins.iter().map(|s| s.to_string()).collect();
            self.mismatch(
                id,
                format!("element-wise operands disagree: {}", rendered.join(" vs ")),
            );
            return None;
        }
        Some(first)
    }
}

fn check_shapes(dag: &Dag, diags: &mut Vec<Diagnostic>) {
    let mut checker = ShapeChecker { dag, diags };
    for (id, node) in dag.nodes().iter().enumerate() {
        checker.check(id, node);
    }
}

// ---------------------------------------------------------------------
// Rule 2: virtual-tensor safety.
// ---------------------------------------------------------------------

fn check_virtual_safety(dag: &Dag, diags: &mut Vec<Diagnostic>) {
    let analysis = dag.fusion_analysis();
    for e in &analysis.escapes {
        let vop = &dag.nodes()[e.virtual_node].op;
        let cop = &dag.nodes()[e.consumer].op;
        diags.push(Diagnostic::error(
            Rule::UnfusedVirtual,
            Some(e.consumer),
            format!(
                "virtual n×n tensor '{vop}' (node {}) flows into non-sparse op \
                 '{cop}' — it would have to be materialized",
                e.virtual_node
            ),
        ));
    }
    for region in &analysis.unsampled {
        let first = region[0];
        let vop = &dag.nodes()[first].op;
        diags.push(Diagnostic::error(
            Rule::UnfusedVirtual,
            Some(first),
            format!(
                "virtual n×n tensor '{vop}' is never sampled by a sparse consumer \
                 — no SDDMM-like kernel absorbs it, so it would have to be \
                 materialized (region: {region:?})"
            ),
        ));
    }
}

// ---------------------------------------------------------------------
// Rule 3: fusion legality.
// ---------------------------------------------------------------------

/// Generators whose `(i, j)` entry is computable from per-row data — the
/// ops an SDDMM-like kernel can evaluate on the fly.
fn is_fusable_generator(op: &str) -> bool {
    matches!(
        classify(op),
        OpKind::MatMulNt | OpKind::Outer | OpKind::Rep | OpKind::RepT
    )
}

/// Element-wise combinators a fused kernel can apply per sampled entry.
fn is_fusable_elementwise(op: &str) -> bool {
    matches!(classify(op), OpKind::Elementwise | OpKind::ScaleLike)
}

fn check_fusion_legality(dag: &Dag, diags: &mut Vec<Diagnostic>) {
    let analysis = dag.fusion_analysis();
    for group in &analysis.groups {
        for &id in &group.nodes {
            let node = &dag.nodes()[id];
            match node.output {
                TensorClass::DenseNn => {
                    let has_virtual_input = node
                        .inputs
                        .iter()
                        .any(|&i| dag.nodes()[i].output == TensorClass::DenseNn);
                    if has_virtual_input {
                        if !is_fusable_elementwise(&node.op) {
                            diags.push(Diagnostic::error(
                                Rule::IllegalFusion,
                                Some(id),
                                format!(
                                    "'{}' combines virtual operands but is not an \
                                     element-wise op — it cannot run per sampled entry \
                                     inside an SDDMM-like kernel",
                                    node.op
                                ),
                            ));
                        }
                    } else if !is_fusable_generator(&node.op) {
                        diags.push(Diagnostic::error(
                            Rule::IllegalFusion,
                            Some(id),
                            format!(
                                "'{}' generates a virtual tensor but its (i,j) entry is \
                                 not computable from per-row data — only matmul_nt, \
                                 outer, and rep/rep_t generators fuse into SDDMM",
                                node.op
                            ),
                        ));
                    }
                }
                TensorClass::SparseNn
                    if !matches!(classify(&node.op), OpKind::Mask | OpKind::Sddmm) =>
                {
                    diags.push(Diagnostic::error(
                        Rule::IllegalFusion,
                        Some(id),
                        format!(
                            "'{}' consumes a virtual tensor but does not sample it \
                             on an existing sparsity pattern — only mask/sddmm \
                             samplers terminate a fusion path",
                            node.op
                        ),
                    ));
                }
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule 4: semiring compatibility.
// ---------------------------------------------------------------------

fn check_semirings(dag: &Dag, diags: &mut Vec<Diagnostic>) {
    if !dag.is_backward() {
        return;
    }
    for (id, node) in dag.nodes().iter().enumerate() {
        if let Some(sk) = node.semiring {
            if !sk.has_additive_inverse() {
                diags.push(Diagnostic::error(
                    Rule::SemiringBackward,
                    Some(id),
                    format!(
                        "'{}' aggregates over the {sk} semiring in a backward DAG: \
                         the global backward formulation treats aggregation as a \
                         linear map, which needs an additive inverse — min/max \
                         aggregation requires an argmin/argmax-tracking backward \
                         instead",
                        node.op
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::SemiringKind;

    fn errors(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
        diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    #[test]
    fn locality_report_shows_reorder_improvement() {
        use crate::plan::{ExecPlan, ReorderStrategy};
        use atgnn_sparse::{Coo, Csr};
        // A path graph with scattered vertex labels: RCM recovers
        // bandwidth 1, so the report must show a strict improvement.
        let n = 64usize;
        let label = |v: usize| ((v * 23) % n) as u32;
        let mut edges = Vec::new();
        for v in 0..n - 1 {
            edges.push((label(v), label(v + 1)));
            edges.push((label(v + 1), label(v)));
        }
        let a: Csr<f64> = Csr::from_coo(&Coo::from_edges(n, n, edges));
        let rep = ExecPlan::fused()
            .with_reorder(ReorderStrategy::Rcm)
            .locality_report(&a);
        assert_eq!(rep.strategy, "rcm");
        let after = rep.after.expect("forced rcm must reorder");
        assert_eq!(after.bandwidth, 1);
        assert!(after.bandwidth < rep.before.bandwidth);
        assert!(rep.gather_improvement().expect("improvement defined") > 1.0);
        assert!(rep.to_string().contains("locality[rcm]"));

        let off = ExecPlan::fused()
            .with_reorder(ReorderStrategy::Off)
            .locality_report(&a);
        assert!(off.after.is_none());
        assert!(off.gather_improvement().is_none());
        assert!(off.to_string().contains("not reordered"));
    }

    #[test]
    fn all_canned_model_plans_pass_clean() {
        for kind in [
            ModelKind::Va,
            ModelKind::Agnn,
            ModelKind::Gat,
            ModelKind::Gcn,
        ] {
            let diags = validate_model(kind);
            assert!(
                diags.is_empty(),
                "{kind:?} plan not clean:\n{}",
                diags
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            );
            debug_validate(kind); // must not panic
        }
    }

    // Rule 1 ----------------------------------------------------------

    #[test]
    fn misshaped_spmm_is_diagnosed() {
        // spmm(A, W): the n×n adjacency cannot contract a k×k' operand.
        let mut d = Dag::new();
        let a = d.add("A", TensorClass::SparseNn, &[]);
        let w = d.add("W", TensorClass::DenseKk, &[]);
        let _z = d.add("spmm(A,W)", TensorClass::DenseNk, &[a, w]);
        let diags = validate(&d);
        let errs = errors(&diags);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].rule, Rule::ShapeMismatch);
        assert_eq!(errs[0].node, Some(2));
        assert!(
            errs[0].explanation.contains("cannot contract"),
            "{}",
            errs[0]
        );
    }

    #[test]
    fn spmm_on_dense_first_operand_is_diagnosed() {
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let _z = d.add("spmm(H,H)", TensorClass::DenseNk, &[h, h]);
        let diags = validate(&d);
        assert!(diags
            .iter()
            .any(|x| x.rule == Rule::ShapeMismatch && x.explanation.contains("sparse")));
    }

    #[test]
    fn mismatched_matmul_inner_dims_are_diagnosed() {
        // matmul(W, H): k×k times n×k has no common inner dimension.
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let w = d.add("W", TensorClass::DenseKk, &[]);
        let _z = d.add("matmul(W,H)", TensorClass::DenseNk, &[w, h]);
        let diags = validate(&d);
        let errs = errors(&diags);
        assert_eq!(errs.len(), 1);
        assert!(
            errs[0].explanation.contains("do not compose"),
            "{}",
            errs[0]
        );
    }

    #[test]
    fn declared_output_shape_must_match_inference() {
        // matmul(H, W) composes to n×k, but the node claims k×k.
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let w = d.add("W", TensorClass::DenseKk, &[]);
        let _z = d.add("matmul(H,W)", TensorClass::DenseKk, &[h, w]);
        let diags = validate(&d);
        let errs = errors(&diags);
        assert_eq!(errs.len(), 1);
        assert!(
            errs[0].explanation.contains("declared output shape"),
            "{}",
            errs[0]
        );
    }

    #[test]
    fn elementwise_operand_disagreement_is_diagnosed() {
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let v = d.add("u", TensorClass::VecN, &[]);
        let _z = d.add("add", TensorClass::DenseNk, &[h, v]);
        let diags = validate(&d);
        let errs = errors(&diags);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].explanation.contains("disagree"), "{}", errs[0]);
    }

    #[test]
    fn spmmm_and_mspmm_chain_checking() {
        // Well-formed fused chains pass …
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let a = d.add("A", TensorClass::SparseNn, &[]);
        let m = d.add("M", TensorClass::SparseNn, &[]);
        let w = d.add_shaped(
            "W",
            TensorClass::DenseKk,
            &[],
            Shape::new(Dim::K, Dim::KPrime),
        );
        let _s3 = d.add_shaped(
            "spmmm(A,H,W)",
            TensorClass::DenseNk,
            &[a, h, w],
            Shape::new(Dim::N, Dim::KPrime),
        );
        let _ms = d.add("mspmm(M,A,H)", TensorClass::DenseNk, &[m, a, h]);
        assert!(validate(&d).is_empty());
        // … and a broken chain (W fed where features belong) fails.
        let _bad = d.add("spmmm(A,W,H)", TensorClass::DenseNk, &[a, w, h]);
        let diags = validate(&d);
        let errs = errors(&diags);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].explanation.contains("do not chain"), "{}", errs[0]);
    }

    // Rule 2 ----------------------------------------------------------

    #[test]
    fn unfused_virtual_escape_is_an_error_not_a_panic() {
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let hht = d.add("matmul_nt(H,H)", TensorClass::DenseNn, &[h, h]);
        let _bad = d.add("matmul(HHt,H)", TensorClass::DenseNk, &[hht, h]);
        let diags = validate(&d);
        let unfused: Vec<_> = diags
            .iter()
            .filter(|x| x.rule == Rule::UnfusedVirtual)
            .collect();
        // One escape plus the region never reaching a sparse sampler.
        assert_eq!(unfused.len(), 2);
        assert!(
            unfused[0].explanation.contains("materialized"),
            "{}",
            unfused[0]
        );
    }

    #[test]
    fn never_sampled_virtual_region_is_an_error() {
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let _hht = d.add("matmul_nt(H,H)", TensorClass::DenseNn, &[h, h]);
        let diags = validate(&d);
        let errs = errors(&diags);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].rule, Rule::UnfusedVirtual);
        assert!(errs[0].explanation.contains("never sampled"), "{}", errs[0]);
    }

    // Rule 3 ----------------------------------------------------------

    #[test]
    fn non_elementwise_combinator_in_fusion_group_is_illegal() {
        // Multiplying two virtual matrices cannot run per sampled entry.
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let a = d.add("A", TensorClass::SparseNn, &[]);
        let v1 = d.add("matmul_nt(H,H)", TensorClass::DenseNn, &[h, h]);
        let v2 = d.add_shaped(
            "matmul(V,V)",
            TensorClass::DenseNn,
            &[v1, v1],
            Shape::new(Dim::N, Dim::N),
        );
        let _s = d.add("mask(A,·)", TensorClass::SparseNn, &[a, v2]);
        let diags = validate(&d);
        let errs = errors(&diags);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].rule, Rule::IllegalFusion);
        assert_eq!(errs[0].node, Some(v2));
        assert!(errs[0].explanation.contains("element-wise"), "{}", errs[0]);
    }

    #[test]
    fn non_sddmm_generator_is_illegal() {
        // A virtual tensor whose entries need global data (e.g. a full
        // inverse) cannot be generated inside the fused kernel.
        let mut d = Dag::new();
        let x = d.add_shaped("X", TensorClass::DenseKk, &[], Shape::new(Dim::N, Dim::N));
        let a = d.add("A", TensorClass::SparseNn, &[]);
        let inv = d.add("inverse(X)", TensorClass::DenseNn, &[x]);
        let _s = d.add("mask(A,·)", TensorClass::SparseNn, &[a, inv]);
        let diags = validate(&d);
        assert!(diags
            .iter()
            .any(|e| e.rule == Rule::IllegalFusion && e.node == Some(inv)));
    }

    // Rule 4 ----------------------------------------------------------

    #[test]
    fn tropical_aggregation_on_backward_dag_is_flagged() {
        let mut d = Dag::new();
        d.mark_backward();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let a = d.add("A", TensorClass::SparseNn, &[]);
        let agg = d.add_agg(
            "spmm(A,H)",
            TensorClass::DenseNk,
            &[a, h],
            Shape::new(Dim::N, Dim::K),
            SemiringKind::MinPlus,
        );
        let diags = validate(&d);
        let errs = errors(&diags);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].rule, Rule::SemiringBackward);
        assert_eq!(errs[0].node, Some(agg));
        assert!(errs[0].explanation.contains("min-plus"), "{}", errs[0]);
    }

    #[test]
    fn tropical_aggregation_on_forward_dag_is_fine() {
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let a = d.add("A", TensorClass::SparseNn, &[]);
        let _agg = d.add_agg(
            "spmm(A,H)",
            TensorClass::DenseNk,
            &[a, h],
            Shape::new(Dim::N, Dim::K),
            SemiringKind::MaxPlus,
        );
        assert!(validate(&d).is_empty());
    }

    #[test]
    fn linear_semirings_pass_on_backward_dags() {
        for sk in [SemiringKind::Real, SemiringKind::Average] {
            let mut d = Dag::new();
            d.mark_backward();
            let h = d.add("H", TensorClass::DenseNk, &[]);
            let a = d.add("A", TensorClass::SparseNn, &[]);
            let _agg = d.add_agg(
                "spmm(A,H)",
                TensorClass::DenseNk,
                &[a, h],
                Shape::new(Dim::N, Dim::K),
                sk,
            );
            assert!(validate(&d).is_empty(), "{sk} must be backward-safe");
        }
    }

    #[test]
    fn diagnostics_render_with_rule_and_node() {
        let d = Diagnostic::error(Rule::ShapeMismatch, Some(7), "boom".into());
        assert_eq!(d.to_string(), "error[shape-mismatch] @ node 7: boom");
        let w = Diagnostic::warning(Rule::CommVolume, None, "slow".into());
        assert_eq!(w.to_string(), "warning[comm-volume]: slow");
    }

    #[test]
    fn detects_the_gat_forward_sandwich() {
        let found = detect_sandwiches(&Dag::gat_forward());
        assert!(
            found.contains(&Sandwich {
                sampler: 12,
                softmax: Some(13),
                aggregation: 14
            }),
            "missing the mask→row_softmax→spmm chain: {found:?}"
        );
    }

    #[test]
    fn detects_the_agnn_forward_sandwich() {
        let found = detect_sandwiches(&Dag::agnn_forward());
        assert!(
            found
                .iter()
                .any(|s| s.sampler == 8 && s.softmax == Some(9) && s.aggregation == 11),
            "missing the mask→row_softmax→spmm chain: {found:?}"
        );
    }

    #[test]
    fn detects_the_softmax_free_va_sandwich() {
        let found = detect_sandwiches(&Dag::va_forward());
        assert!(
            found.contains(&Sandwich {
                sampler: 4,
                softmax: None,
                aggregation: 5
            }),
            "missing the mask→spmm chain: {found:?}"
        );
    }

    #[test]
    fn gcn_has_no_sandwich() {
        // GCN aggregates with a precomputed Â — there is no sampler to
        // fuse with, so no sandwich and no staged-plan warning.
        assert!(detect_sandwiches(&Dag::gcn_forward()).is_empty());
        let staged = crate::plan::ExecPlan::staged().validate(ModelKind::Gcn);
        assert!(staged.iter().all(|d| d.rule != Rule::StagedSandwich));
    }

    #[test]
    fn staged_plan_warns_fused_plan_is_clean() {
        let fused = crate::plan::ExecPlan::fused().validate(ModelKind::Gat);
        assert!(
            fused.iter().all(|d| d.rule != Rule::StagedSandwich),
            "fused plan must not earn staged-sandwich warnings: {fused:?}"
        );
        let staged = crate::plan::ExecPlan::staged().validate(ModelKind::Gat);
        let warnings: Vec<_> = staged
            .iter()
            .filter(|d| d.rule == Rule::StagedSandwich)
            .collect();
        assert!(
            !warnings.is_empty(),
            "staged GAT plan must warn about its materialized sandwich"
        );
        assert!(warnings.iter().all(|d| d.severity == Severity::Warning));
    }
}
