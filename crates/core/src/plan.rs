//! Explicit execution plans for attentional layers.
//!
//! A plan records *how* a model executes. Two axes shape the algorithm:
//!
//! * **Attention execution** — the score→softmax→aggregate sandwich runs
//!   fused into one CSR sweep ([`AttentionExec::FusedOnePass`], the
//!   default — no intermediate score matrices on the hot path) or as
//!   three staged sweeps with materialized intermediates
//!   ([`AttentionExec::Staged`], the test oracle). Layer code never calls
//!   the staged score kernels directly; it dispatches through the plan,
//!   and [`crate::analyze::validate_plan`] lints plans that would
//!   materialize a softmax sandwich the fused path avoids.
//! * **Locality reordering** — an opt-out preprocessing stage
//!   ([`ReorderStrategy`], `ATGNN_REORDER={auto,degree,rcm,off}`) that
//!   permutes the adjacency and feature matrices into a cache-friendly
//!   vertex order before kernels run, and inverse-permutes model outputs
//!   so results stay observationally identical to the unordered run (up
//!   to floating-point reassociation; see DESIGN.md §6). This module is
//!   the **only** place that applies `Csr::permute` — kernels and layers
//!   stay permutation-agnostic, which ci.sh lints.
//!
//! Two more axes are pure performance knobs: the dense [`Layout`] and the
//! [`MicroKernel`] family. (The attention
//! column tile is not an axis: the sweep derives it from `k` and the
//! probed L1d, `atgnn_sparse::attention::auto_col_tile`.) Storage is not
//! an axis either: layers hold and stream their buffers in the model's
//! scalar type `T`.
//!
//! There is no resolver. The environment is read by
//! [`ExecPlan::from_env`]; the `with_*` builders override it;
//! [`ExecPlan::defaulted_for_width`] — a pure function of the plan and
//! the model's hot width — picks the layout when nobody chose one; and
//! the one choice that needs more than the plan is made where that
//! knowledge lives: `reorder::permutation` resolves `auto` per graph.
//!
//! The microkernel family is still a process-global atomic in
//! `atgnn_tensor::micro`; a plan carries a snapshot of it, and
//! [`ExecPlan::apply_kernel_knobs`] is the single point where a plan
//! writes it back — which the `plan-knob-env` source lint enforces.
//! The product never calls it on its own: the atomic exists for the
//! bench sweeps and for callers that apply a plan explicitly, and
//! passing the plan to the kernels by value is what will remove it.

use crate::analyze::{self, Diagnostic};
use crate::model::ModelKind;
use atgnn_graphgen::reorder;
use atgnn_sparse::Csr;
use atgnn_tensor::{micro, Dense, Scalar};

pub use atgnn_graphgen::reorder::Strategy as ReorderStrategy;
pub use atgnn_sparse::attention::AttentionExec;
pub use atgnn_tensor::micro::MicroKernel;

/// The dense-feature memory layout a plan's kernels run in. Conversion
/// happens exactly once, at the model boundary (`GnnModel::inference` /
/// `train_step`, next to the reorder permute/restore); kernels are
/// layout-agnostic through `Dense`'s stride-aware accessors, and the
/// choice never changes results — scores read logical rows and the
/// aggregation is elementwise, so padded and tight runs are bit-identical
/// (asserted by the `simd_equivalence` suite).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// Rows padded to the SIMD lane width: `stride = round_up(cols, 8)`,
    /// zero tails, lane-aligned row starts — the wide kernels aggregate
    /// whole vectors with no tail loop.
    Padded,
    /// `stride == cols`: the seed layout, no padding anywhere.
    Tight,
}

impl Layout {
    /// Reads `ATGNN_LAYOUT` (`padded`/`tight`); any other value —
    /// including unset — is `None`: nobody chose, so the plan takes
    /// [`Layout::default_for`] once the feature width is known.
    pub fn from_env() -> Option<Self> {
        std::env::var("ATGNN_LAYOUT")
            .ok()
            .as_deref()
            .and_then(Self::parse)
    }

    /// The right default once the feature width is known, given whether
    /// the 8-lane wide kernels run: padding exists so they see whole
    /// vectors, and at a whole-lane `k` the tight layout is *already*
    /// lane-shaped — `padded_stride(k) == k` — so padding would buy
    /// nothing and the ingest copy it forces is pure overhead. Only wide
    /// kernels over a ragged `k` want padding.
    pub fn default_for(k: usize, wide: bool) -> Self {
        if wide && !k.is_multiple_of(micro::LANE) {
            Layout::Padded
        } else {
            Layout::Tight
        }
    }

    /// Human-readable name used in diagnostics and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            Layout::Padded => "padded",
            Layout::Tight => "tight",
        }
    }

    /// The inverse of [`Layout::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "padded" => Some(Layout::Padded),
            "tight" => Some(Layout::Tight),
            _ => None,
        }
    }
}

/// Compatibility shim for the frozen benchmark, which still names a
/// storage precision in two places: `benchmark/src/inputs.rs`'s oracle
/// plan calls `.with_precision(Precision::F32)`, and the `e2e_trace`
/// shadow layer asks `plan.precision().is_narrow()` before a
/// `round_matrix` span. Storage is always the model's `T`, so the one
/// variant is the identity and every method is a no-op. No product code
/// calls it; the next `[benchmark]` change (ROADMAP item 4) deletes it
/// together with those two call sites.
#[derive(Clone, Copy, Debug)]
pub enum Precision {
    /// Storage in the model's own scalar type.
    F32,
}

impl Precision {
    /// Always `false`: there is no narrow format.
    pub fn is_narrow(self) -> bool {
        false
    }

    /// The identity.
    pub fn round_matrix<T: Scalar>(self, _m: &mut Dense<T>) {}
}

/// How a model's attentional layers execute their sandwiches, and which
/// kernel configuration they run under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecPlan {
    exec: AttentionExec,
    reorder: ReorderStrategy,
    /// `None` until somebody chooses (`ATGNN_LAYOUT`, `with_layout`) or
    /// [`ExecPlan::defaulted_for_width`] fills in the width-aware default.
    layout: Option<Layout>,
    micro: MicroKernel,
    // Always 0: only here so `Debug` still prints the key the frozen
    // benchmark/tests/smoke.rs:108 matches — drop it with that assertion.
    spmmt_chunks: usize,
}

impl Default for ExecPlan {
    fn default() -> Self {
        Self::fused()
    }
}

impl ExecPlan {
    /// The one-pass fused plan (the default), with `auto` reordering,
    /// the environment's layout, and the process's current kernel
    /// configuration — so applying an untouched plan's knobs is a no-op.
    pub fn fused() -> Self {
        Self {
            exec: AttentionExec::FusedOnePass,
            reorder: ReorderStrategy::Auto,
            layout: Layout::from_env(),
            micro: micro::mode(),
            spmmt_chunks: 0,
        }
    }

    /// The staged oracle plan: three sweeps, materialized intermediates,
    /// `auto` reordering, the environment's layout.
    pub fn staged() -> Self {
        Self {
            exec: AttentionExec::Staged,
            ..Self::fused()
        }
    }

    /// Reads the plan knobs from the environment: `ATGNN_EXEC`
    /// (`"staged"` selects the oracle path; anything else — including
    /// unset — selects the fused path), `ATGNN_REORDER`
    /// (`auto`/`degree`/`rcm`/`off`), on top of what every plan starts
    /// from: `ATGNN_LAYOUT` (see [`Layout::from_env`]) and the process's
    /// kernel configuration (`ATGNN_MICROKERNEL`).
    pub fn from_env() -> Self {
        let mut plan = match std::env::var("ATGNN_EXEC").as_deref() {
            Ok("staged") => Self::staged(),
            _ => Self::fused(),
        };
        if let Some(r) = std::env::var("ATGNN_REORDER")
            .ok()
            .as_deref()
            .and_then(ReorderStrategy::parse)
        {
            plan = plan.with_reorder(r);
        }
        plan
    }

    /// This plan with a different attention execution.
    pub fn with_exec(mut self, exec: AttentionExec) -> Self {
        self.exec = exec;
        self
    }

    /// This plan with a different reorder strategy.
    pub fn with_reorder(mut self, reorder: ReorderStrategy) -> Self {
        self.reorder = reorder;
        self
    }

    /// This plan with an explicitly chosen dense layout, which
    /// [`ExecPlan::defaulted_for_width`] then leaves alone.
    pub fn with_layout(mut self, layout: Layout) -> Self {
        self.layout = Some(layout);
        self
    }

    /// This plan with a different microkernel family.
    pub fn with_micro(mut self, micro: MicroKernel) -> Self {
        self.micro = micro;
        self
    }

    /// This plan, unchanged — part of the [`Precision`] shim.
    pub fn with_precision(self, _precision: Precision) -> Self {
        self
    }

    /// Whether this plan's kernel configuration selects the 8-lane wide
    /// kernels — `micro::wide` asked of the plan, not of the process.
    fn wide(&self) -> bool {
        self.micro == MicroKernel::Blocked
    }

    /// This plan with the width-aware layout default
    /// ([`Layout::default_for`]) when no layout was chosen explicitly —
    /// all that is left of plan resolution, and what
    /// `GnnModel::resolved_plan` returns. A pure function of the plan and
    /// `k`; it never changes results, only whether ingest pads.
    pub fn defaulted_for_width(mut self, k: usize) -> Self {
        if self.layout.is_none() {
            self.layout = Some(Layout::default_for(k, self.wide()));
        }
        self
    }

    /// The dense layout this plan runs its kernels in; before
    /// [`ExecPlan::defaulted_for_width`] has seen the feature width, an
    /// unchosen layout reads as the width-blind default — `Padded`
    /// exactly when the wide kernels are selected.
    pub fn layout(&self) -> Layout {
        self.layout.unwrap_or(if self.wide() {
            Layout::Padded
        } else {
            Layout::Tight
        })
    }

    /// The execution path this plan selects.
    pub fn exec(&self) -> AttentionExec {
        self.exec
    }

    /// Whether this plan runs the one-pass fused sweep.
    pub fn is_fused(&self) -> bool {
        self.exec == AttentionExec::FusedOnePass
    }

    /// The reorder strategy this plan selects (before per-graph `auto`
    /// resolution).
    pub fn reorder(&self) -> ReorderStrategy {
        self.reorder
    }

    /// The microkernel family this plan runs under.
    pub fn micro_kernel(&self) -> MicroKernel {
        self.micro
    }

    /// Always [`Precision::F32`] — part of the [`Precision`] shim.
    pub fn precision(&self) -> Precision {
        Precision::F32
    }

    /// Writes this plan's kernel configuration into the process-global
    /// switch the kernels read ([`micro::set_mode`]).
    ///
    /// This is the **single sanctioned bridge** from plan to kernel
    /// globals — kernels and layers never read plan-knob env vars
    /// themselves (the `plan-knob-env` lint). Applying a plan built by
    /// [`ExecPlan::fused`]/[`ExecPlan::from_env`] is a no-op while
    /// nobody else has written them, because construction snapshots the
    /// same globals. The model never calls this; callers that want a
    /// plan's kernel configuration to take effect do.
    pub fn apply_kernel_knobs(&self) {
        micro::set_mode(self.micro);
    }

    /// Computes and applies this plan's locality reordering to an
    /// adjacency matrix. Returns `None` when the (resolved) strategy
    /// declines to reorder — small or already-local graphs under `auto`,
    /// or `off`.
    ///
    /// This is the single entry point through which a vertex permutation
    /// reaches kernel data (`Csr::permute` — see the module docs and the
    /// ci.sh lint). Callers run the model in the permuted space and map
    /// outputs back via [`Reordering::restore_rows`].
    pub fn reorder_graph<T: Scalar>(&self, a: &Csr<T>) -> Option<Reordering<T>> {
        let perm = reorder::permutation(a, self.reorder)?;
        let inv = reorder::inverse(&perm);
        let a = a.permute(&perm);
        Some(Reordering { a, perm, inv })
    }

    /// Estimated locality of this plan on a concrete graph: bandwidth and
    /// average neighbor (gather) distance before and after the plan's
    /// reordering (see [`analyze::locality_report`]).
    pub fn locality_report<T: Scalar>(&self, a: &Csr<T>) -> analyze::LocalityReport {
        analyze::locality_report(self, a)
    }

    /// Static-analyzes this plan against the canned DAGs of `kind`:
    /// the model's own shape/fusion/semiring rules, plus a
    /// `staged-sandwich` warning for every softmax sandwich a staged plan
    /// would materialize.
    pub fn validate(&self, kind: ModelKind) -> Vec<Diagnostic> {
        analyze::validate_plan(self, kind)
    }
}

/// A locality reordering applied to one adjacency matrix: the permuted
/// graph plus both directions of the vertex permutation.
///
/// Convention: `perm[new] = old`, i.e. `a[new_i][new_j] =
/// original[perm[new_i]][perm[new_j]]`, and `inv[old] = new`.
pub struct Reordering<T> {
    /// The symmetrically permuted adjacency.
    pub a: Csr<T>,
    /// `perm[new] = old` — gathers original-order rows into plan order.
    pub perm: Vec<u32>,
    /// `inv[old] = new` — gathers plan-order rows back to original order.
    pub inv: Vec<u32>,
}

impl<T: Scalar> Reordering<T> {
    /// Brings a vertex-indexed matrix (features, labels) into the plan's
    /// vertex order.
    pub fn permute_rows(&self, x: &Dense<T>) -> Dense<T> {
        x.gather_rows(&self.perm)
    }

    /// Maps a plan-order output back to the original vertex order.
    pub fn restore_rows(&self, out: &Dense<T>) -> Dense<T> {
        out.gather_rows(&self.inv)
    }

    /// [`Reordering::permute_rows`] into `out`, whose layout is kept.
    pub fn permute_rows_into(&self, x: &Dense<T>, out: &mut Dense<T>) {
        x.gather_rows_into(&self.perm, out);
    }

    /// [`Reordering::restore_rows`] into `out`, whose layout is kept.
    pub fn restore_rows_into(&self, out_p: &Dense<T>, out: &mut Dense<T>) {
        out_p.gather_rows_into(&self.inv, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgnn_sparse::Coo;

    #[test]
    fn default_plan_is_fused() {
        assert!(ExecPlan::default().is_fused());
        assert_eq!(ExecPlan::fused(), ExecPlan::default());
        assert_eq!(ExecPlan::staged().exec(), AttentionExec::Staged);
    }

    #[test]
    fn layout_resolves_from_env_and_is_overridable() {
        // Width-blind default tracks the kernel mode (only assertable
        // when the environment does not choose a layout itself).
        if std::env::var("ATGNN_LAYOUT").is_err() {
            let want = if micro::wide() {
                Layout::Padded
            } else {
                Layout::Tight
            };
            assert_eq!(Layout::from_env(), None);
            assert_eq!(ExecPlan::default().layout(), want);
        }
        let p = ExecPlan::fused().with_layout(Layout::Tight);
        assert_eq!(p.layout(), Layout::Tight);
        assert!(p.is_fused());
        assert_eq!(Layout::Padded.name(), "padded");
        assert_eq!(Layout::Tight.name(), "tight");
        assert_eq!(Layout::parse("padded"), Some(Layout::Padded));
        assert_eq!(Layout::parse("weird"), None);
    }

    #[test]
    fn width_aware_layout_default_skips_pointless_padding() {
        // At whole-lane k the tight layout is already lane-shaped, so
        // the default must not pay the padding copy; ragged k pads only
        // when the wide kernels can use the alignment.
        for wide in [false, true] {
            assert_eq!(Layout::default_for(64, wide), Layout::Tight);
            assert_eq!(Layout::default_for(8, wide), Layout::Tight);
        }
        assert_eq!(Layout::default_for(60, true), Layout::Padded);
        assert_eq!(Layout::default_for(60, false), Layout::Tight);
        // defaulted_for_width respects an explicit choice…
        let chosen = ExecPlan::fused().with_layout(Layout::Padded);
        assert_eq!(chosen.defaulted_for_width(64).layout(), Layout::Padded);
        // …and otherwise decides from the plan's own kernel fields, not
        // from the process's.
        if std::env::var("ATGNN_LAYOUT").is_err() {
            let wide = ExecPlan::fused().with_micro(MicroKernel::Blocked);
            assert_eq!(wide.defaulted_for_width(64).layout(), Layout::Tight);
            assert_eq!(wide.defaulted_for_width(60).layout(), Layout::Padded);
            let scalar = wide.with_micro(MicroKernel::Scalar);
            assert_eq!(scalar.defaulted_for_width(60).layout(), Layout::Tight);
        }
    }

    #[test]
    fn builders_set_their_fields() {
        let p = ExecPlan::fused()
            .with_exec(AttentionExec::Staged)
            .with_reorder(ReorderStrategy::Off)
            .with_layout(Layout::Tight)
            .with_micro(MicroKernel::Scalar);
        assert_eq!(p.exec(), AttentionExec::Staged);
        assert_eq!(p.reorder(), ReorderStrategy::Off);
        assert_eq!(p.layout(), Layout::Tight);
        assert_eq!(p.micro_kernel(), MicroKernel::Scalar);
    }

    #[test]
    fn applying_an_untouched_plan_is_a_no_op() {
        let before = micro::mode();
        ExecPlan::fused().apply_kernel_knobs();
        let after = micro::mode();
        assert_eq!(before, after);
    }

    #[test]
    fn default_reorder_is_auto_and_overridable() {
        assert_eq!(ExecPlan::default().reorder(), ReorderStrategy::Auto);
        let p = ExecPlan::fused().with_reorder(ReorderStrategy::Off);
        assert_eq!(p.reorder(), ReorderStrategy::Off);
        assert!(p.is_fused());
    }

    fn ring(n: usize) -> Csr<f64> {
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|v| {
                let w = (v + 1) % n as u32;
                [(v, w), (w, v)]
            })
            .collect();
        Csr::from_coo(&Coo::from_edges(n, n, edges))
    }

    #[test]
    fn off_and_tiny_auto_plans_do_not_reorder() {
        let a = ring(8);
        assert!(ExecPlan::fused()
            .with_reorder(ReorderStrategy::Off)
            .reorder_graph(&a)
            .is_none());
        // Auto declines tiny graphs (reorder's size floor).
        assert!(ExecPlan::fused().reorder_graph(&a).is_none());
    }

    #[test]
    fn forced_reorder_roundtrips_features() {
        let a = ring(10);
        let r = ExecPlan::fused()
            .with_reorder(ReorderStrategy::Rcm)
            .reorder_graph(&a)
            .expect("forced rcm must reorder");
        let x = Dense::from_fn(10, 3, |i, j| (i * 3 + j) as f64);
        // permute ∘ restore is the identity on row order.
        assert!(r.restore_rows(&r.permute_rows(&x)).max_abs_diff(&x) == 0.0);
        // The writing forms gather the same rows into a kept layout.
        let mut xp = Dense::zeros_padded(10, 3);
        r.permute_rows_into(&x, &mut xp);
        assert!(xp.is_padded() && xp == r.permute_rows(&x));
        let mut back = Dense::filled(10, 3, -1.0);
        r.restore_rows_into(&xp, &mut back);
        assert_eq!(back, x);
        // The permuted adjacency relates to the original entrywise.
        let d = a.to_dense();
        let pd = r.a.to_dense();
        for i in 0..10 {
            for j in 0..10 {
                assert_eq!(
                    pd[(i, j)],
                    d[(r.perm[i] as usize, r.perm[j] as usize)],
                    "mismatch at permuted ({i},{j})"
                );
            }
        }
    }
}
