//! Precision-safety analysis: per-node narrowing verdicts.
//!
//! Combines the semiring facts exported by the kernels
//! ([`atgnn_sparse::semiring::SemiringKind::needs_wide_accumulator`])
//! with the FP-stability pass ([`super::stability`]) into one verdict
//! per node:
//!
//! * [`Narrowing::SafeBf16`] — the node may be *stored and computed*
//!   narrow: element-wise work, or an order-insensitive (min/max)
//!   aggregation, where narrowing loses only the bits any rounding
//!   would;
//! * [`Narrowing::AccumulateF32`] — storage may narrow but the reduction
//!   must keep a wide accumulator: every rounding-semiring aggregation
//!   and dense contraction, where per-term rounding compounds with the
//!   reduction length;
//! * [`Narrowing::KeepF32`] — the node must stay at full precision:
//!   softmax/exp territory (exponent-sensitive) or anything the
//!   stability pass flagged.
//!
//! A planner requests narrowing by annotating nodes with
//! [`crate::dag::Storage`]; [`check`] rejects narrow (`bf16`/`f16`)
//! storage on a keep-f32 node as [`Rule::UnsafeNarrowing`]. Narrow
//! storage on an accumulate-f32 node is legal — narrow the buffer, widen
//! the accumulator — which is the mixed-precision recipe the verdict
//! names. The verdicts are analysis only: no plan narrows a buffer
//! (layers store the model's scalar type), so they constrain planners
//! that annotate a DAG, and `atgnn-lint --dag` / `ATGNN_ANALYZE=report`
//! print them.
//! [`report_json`] renders the verdicts for a whole model as a
//! machine-readable report (hand-rolled JSON: the workspace is
//! dependency-free by design).

use super::{classify, stability, Diagnostic, OpKind, Rule};
use crate::dag::Dag;
use crate::model::ModelKind;

/// How far one node's output may be narrowed below f32.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Narrowing {
    /// Store and compute in bf16.
    SafeBf16,
    /// Store narrow, accumulate wide.
    AccumulateF32,
    /// Keep full f32 precision.
    KeepF32,
}

impl Narrowing {
    /// Kebab-case verdict name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Narrowing::SafeBf16 => "safe-bf16",
            Narrowing::AccumulateF32 => "accumulate-f32",
            Narrowing::KeepF32 => "keep-f32",
        }
    }
}

fn is_reduction(kind: OpKind) -> bool {
    matches!(
        kind,
        OpKind::MatMul
            | OpKind::MatMulNt
            | OpKind::MatMulTn
            | OpKind::MatVec
            | OpKind::MatVecT
            | OpKind::SpMm
            | OpKind::SpMmT
            | OpKind::SpMmm
            | OpKind::MSpMm
            | OpKind::Sddmm
            | OpKind::RowReduce
            | OpKind::ColReduce
            | OpKind::Contract
    )
}

/// The narrowing verdict of every node, in node order.
pub fn verdicts(dag: &Dag) -> Vec<Narrowing> {
    let flagged = stability::flagged(dag);
    dag.nodes()
        .iter()
        .enumerate()
        .map(|(id, node)| {
            if flagged.contains(&id) {
                return Narrowing::KeepF32;
            }
            let kind = classify(&node.op);
            if kind == OpKind::Softmax || node.op.starts_with("exp") || node.op.contains("softmax")
            {
                // Exponent-sensitive: bf16's 8-bit mantissa turns the
                // normalized weights into a handful of distinct values.
                return Narrowing::KeepF32;
            }
            if let Some(sk) = node.semiring {
                return if sk.order_insensitive() {
                    Narrowing::SafeBf16
                } else {
                    debug_assert!(sk.needs_wide_accumulator());
                    Narrowing::AccumulateF32
                };
            }
            if is_reduction(kind) {
                Narrowing::AccumulateF32
            } else {
                Narrowing::SafeBf16
            }
        })
        .collect()
}

/// Flags storage annotations that contradict the verdict: narrow
/// (bf16/f16) storage on a keep-f32 node.
pub fn check(dag: &Dag, diags: &mut Vec<Diagnostic>) {
    if dag.nodes().iter().all(|n| n.storage.is_none()) {
        return; // nothing annotated: skip the stability re-run
    }
    let verdicts = verdicts(dag);
    for (id, node) in dag.nodes().iter().enumerate() {
        let narrow = match node.storage {
            Some(st) if st.is_narrow() => st,
            _ => continue,
        };
        if verdicts[id] == Narrowing::KeepF32 {
            diags.push(Diagnostic::error(
                Rule::UnsafeNarrowing,
                Some(id),
                format!(
                    "'{}' is annotated {} but its verdict is keep-f32 — the \
                     node is exponent-sensitive or stability-flagged; store it \
                     at full precision",
                    node.op,
                    narrow.name()
                ),
            ));
        }
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Machine-readable narrowing report for the canned DAGs of a model.
pub fn report_json(kind: ModelKind) -> String {
    let mut out = String::from("{\"model\":");
    push_json_str(&mut out, &format!("{kind:?}").to_lowercase());
    out.push_str(",\"dags\":[");
    for (di, dag) in super::model_dags(kind).iter().enumerate() {
        if di > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"backward\":{},\"nodes\":[", dag.is_backward()));
        let verdicts = verdicts(dag);
        for (id, (node, v)) in dag.nodes().iter().zip(&verdicts).enumerate() {
            if id > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"id\":{id},\"op\":"));
            push_json_str(&mut out, &node.op);
            out.push_str(",\"verdict\":");
            push_json_str(&mut out, v.name());
            if let Some(s) = node.storage {
                out.push_str(",\"storage\":");
                push_json_str(&mut out, s.name());
            }
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{Storage, TensorClass};

    #[test]
    fn softmax_keeps_f32_and_tropical_narrows() {
        let d = Dag::gat_forward();
        let v = verdicts(&d);
        for (id, node) in d.nodes().iter().enumerate() {
            match classify(&node.op) {
                OpKind::Softmax => assert_eq!(v[id], Narrowing::KeepF32),
                _ if node.semiring.is_some() => {
                    assert_eq!(v[id], Narrowing::AccumulateF32, "node {id}")
                }
                _ => {}
            }
        }
        // An order-insensitive aggregation may go fully narrow.
        let mut t = Dag::new();
        let h = t.add("H", TensorClass::DenseNk, &[]);
        let a = t.add("A", TensorClass::SparseNn, &[]);
        let agg = t.add_agg(
            "spmm(A,H)",
            TensorClass::DenseNk,
            &[a, h],
            crate::dag::Shape::new(crate::dag::Dim::N, crate::dag::Dim::K),
            crate::dag::SemiringKind::MaxPlus,
        );
        assert_eq!(verdicts(&t)[agg], Narrowing::SafeBf16);
    }

    #[test]
    fn bf16_on_softmax_is_rejected() {
        let mut d = Dag::gat_forward();
        let sm = d
            .nodes()
            .iter()
            .position(|n| classify(&n.op) == OpKind::Softmax)
            .expect("gat has a softmax");
        d.set_storage(sm, Storage::Bf16);
        let mut diags = Vec::new();
        check(&d, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::UnsafeNarrowing);
        assert_eq!(diags[0].node, Some(sm));
    }

    #[test]
    fn bf16_storage_with_wide_accumulator_is_legal() {
        // accumulate-f32 permits narrow storage: the verdict constrains
        // the accumulator, not the buffer.
        let mut d = Dag::gat_forward();
        let agg = d
            .nodes()
            .iter()
            .position(|n| n.semiring.is_some())
            .expect("gat has an aggregation");
        d.set_storage(agg, Storage::Bf16);
        let mut diags = Vec::new();
        check(&d, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn f16_on_softmax_is_rejected_like_bf16() {
        let mut d = Dag::gat_forward();
        let sm = d
            .nodes()
            .iter()
            .position(|n| classify(&n.op) == OpKind::Softmax)
            .expect("gat has a softmax");
        d.set_storage(sm, Storage::F16);
        let mut diags = Vec::new();
        check(&d, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::UnsafeNarrowing);
        assert!(diags[0].explanation.contains("annotated f16"));
        // Wide annotations are never narrowing violations.
        let mut d = Dag::gat_forward();
        d.set_storage(sm, Storage::F64);
        let mut diags = Vec::new();
        check(&d, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unannotated_dags_are_silent() {
        for kind in [
            ModelKind::Va,
            ModelKind::Agnn,
            ModelKind::Gat,
            ModelKind::Gcn,
        ] {
            for dag in super::super::model_dags(kind) {
                let mut diags = Vec::new();
                check(&dag, &mut diags);
                assert!(diags.is_empty(), "{diags:?}");
            }
        }
    }

    #[test]
    fn report_json_is_well_formed() {
        let json = report_json(ModelKind::Gat);
        assert!(json.starts_with("{\"model\":\"gat\""));
        assert!(json.contains("\"verdict\":\"keep-f32\""));
        assert!(json.contains("\"verdict\":\"accumulate-f32\""));
        assert!(json.contains("\"verdict\":\"safe-bf16\""));
        // Balanced braces/brackets (no string in the report contains
        // either, so plain counting suffices).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
