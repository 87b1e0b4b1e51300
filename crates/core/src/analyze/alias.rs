//! Alias analysis: buffer-reuse legality and allocation-free sandwiches.
//!
//! The escape analysis of [`crate::dag::Dag::fusion_analysis`] decides
//! which *virtual* tensors may remain unmaterialized; this pass answers
//! the complementary storage question for the tensors that *are*
//! materialized: which output buffers may alias an operand buffer, and
//! which softmax sandwiches run without allocating at all.
//!
//! A node may overwrite its first operand in place
//! ([`reuse_legal`]) only when every condition holds:
//!
//! * the op is element-wise/scale-like/softmax — it reads each operand
//!   entry exactly once, before writing the corresponding output entry;
//! * the operand is not a leaf — plan inputs and parameters are owned by
//!   the caller and must survive the step;
//! * this node is the operand's **only** consumer — any other consumer
//!   would observe the clobbered buffer;
//! * operand and output agree on shape and tensor class, so the buffer
//!   is bit-for-bit reusable.
//!
//! [`report`] additionally proves, per detected softmax sandwich, the
//! fused sweep's zero-allocation invariant: when the sampler's scores
//! are consumed only inside the sandwich (and the softmax only by its
//! aggregation), the one-pass sweep never has to materialize them —
//! the claim `attention::forward`'s fused path makes for the canned forward
//! models.
//!
//! Declared in-place ops (`*_inplace` labels) that violate
//! [`reuse_legal`] are [`Rule::AliasUnsafe`] errors.

use super::{classify, detect_sandwiches, Diagnostic, OpKind, Rule, Sandwich};
use crate::dag::Dag;

/// A proved-legal in-place rewrite: `node` may overwrite the buffer of
/// its operand `operand`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InPlace {
    /// The overwriting node.
    pub node: usize,
    /// The operand node whose buffer dies here.
    pub operand: usize,
}

/// Buffer facts for one softmax sandwich.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SandwichBuffers {
    /// The sampler → (softmax) → aggregation chain.
    pub sandwich: Sandwich,
    /// Whether the fused sweep can execute the sandwich without
    /// materializing the score matrices: every intermediate is consumed
    /// only inside the sandwich.
    pub zero_alloc: bool,
}

/// The alias facts of a DAG.
#[derive(Clone, Debug, Default)]
pub struct AliasReport {
    /// Every proved-legal in-place rewrite.
    pub in_place: Vec<InPlace>,
    /// Buffer facts per detected softmax sandwich.
    pub sandwiches: Vec<SandwichBuffers>,
}

/// Number of consumers of each node.
fn consumer_counts(dag: &Dag) -> Vec<usize> {
    let mut counts = vec![0usize; dag.nodes().len()];
    for node in dag.nodes() {
        for &i in &node.inputs {
            counts[i] += 1;
        }
    }
    counts
}

/// Whether `node` may legally overwrite its first operand's buffer.
pub fn reuse_legal(dag: &Dag, node: usize) -> bool {
    let nodes = dag.nodes();
    let n = &nodes[node];
    if !matches!(
        classify(&n.op),
        OpKind::Elementwise | OpKind::ScaleLike | OpKind::Softmax
    ) {
        return false;
    }
    let Some(&operand) = n.inputs.first() else {
        return false;
    };
    let o = &nodes[operand];
    if o.inputs.is_empty() {
        return false; // leaves are caller-owned
    }
    consumer_counts(dag)[operand] == 1 && o.shape == n.shape && o.output == n.output
}

/// Computes the full alias report: legal in-place rewrites plus the
/// zero-allocation verdict of every softmax sandwich.
pub fn report(dag: &Dag) -> AliasReport {
    let counts = consumer_counts(dag);
    let nodes = dag.nodes();
    let mut rep = AliasReport::default();
    for (id, node) in nodes.iter().enumerate() {
        if reuse_legal(dag, id) {
            rep.in_place.push(InPlace {
                node: id,
                operand: node.inputs[0],
            });
        }
    }
    for sandwich in detect_sandwiches(dag) {
        // The sampler must feed only the next sandwich stage, and the
        // softmax (when present) only its aggregation; otherwise some
        // out-of-sandwich consumer forces the scores into memory.
        let sampler_consumer = sandwich.softmax.unwrap_or(sandwich.aggregation);
        let sampler_private = counts[sandwich.sampler] == 1
            && nodes[sampler_consumer].inputs.contains(&sandwich.sampler);
        let softmax_private = sandwich.softmax.is_none_or(|sm| counts[sm] == 1);
        rep.sandwiches.push(SandwichBuffers {
            sandwich,
            zero_alloc: sampler_private && softmax_private,
        });
    }
    rep
}

/// Flags declared in-place ops (`*_inplace` labels) whose operand buffer
/// the analysis cannot prove dead.
pub fn check(dag: &Dag, diags: &mut Vec<Diagnostic>) {
    for (id, node) in dag.nodes().iter().enumerate() {
        if !node.op.contains("_inplace") {
            continue;
        }
        if !reuse_legal(dag, id) {
            let operand = node
                .inputs
                .first()
                .map(|&i| format!("'{}' (node {i})", dag.nodes()[i].op))
                .unwrap_or_else(|| "<missing>".into());
            diags.push(Diagnostic::error(
                Rule::AliasUnsafe,
                Some(id),
                format!(
                    "'{}' is declared in-place but overwriting {operand} is not \
                     provably safe: the buffer must be a non-leaf with this node \
                     as its only consumer and an identical shape/class",
                    node.op
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::TensorClass;

    #[test]
    fn forward_sandwiches_run_allocation_free() {
        for dag in [Dag::va_forward(), Dag::agnn_forward(), Dag::gat_forward()] {
            let rep = report(&dag);
            assert!(!rep.sandwiches.is_empty());
            assert!(rep.sandwiches.iter().all(|s| s.zero_alloc), "{rep:?}");
        }
    }

    #[test]
    fn shared_scores_defeat_zero_alloc() {
        // A second consumer of the sampler's scores forces them into
        // memory even under the fused sweep.
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let a = d.add("A", TensorClass::SparseNn, &[]);
        let hht = d.add("matmul_nt(H,H)", TensorClass::DenseNn, &[h, h]);
        let e = d.add("mask(A,·)", TensorClass::SparseNn, &[a, hht]);
        let sm = d.add("row_softmax", TensorClass::SparseNn, &[e]);
        let _z = d.add_agg(
            "spmm(sm,H)",
            TensorClass::DenseNk,
            &[sm, h],
            crate::dag::Shape::new(crate::dag::Dim::N, crate::dag::Dim::K),
            crate::dag::SemiringKind::Real,
        );
        let _leak = d.add("lrelu_grad", TensorClass::SparseNn, &[e]);
        let rep = report(&d);
        assert_eq!(rep.sandwiches.len(), 1);
        assert!(!rep.sandwiches[0].zero_alloc, "{rep:?}");
    }

    #[test]
    fn single_consumer_elementwise_may_reuse() {
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let x = d.add("scale", TensorClass::DenseNk, &[h]);
        let y = d.add("relu", TensorClass::DenseNk, &[x]);
        assert!(!reuse_legal(&d, x), "leaves are caller-owned");
        assert!(reuse_legal(&d, y), "x dies at y");
        assert_eq!(
            report(&d).in_place,
            vec![InPlace {
                node: y,
                operand: x
            }]
        );
    }

    #[test]
    fn second_consumer_blocks_reuse() {
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let x = d.add("scale", TensorClass::DenseNk, &[h]);
        let y = d.add("relu", TensorClass::DenseNk, &[x]);
        let _z = d.add("add", TensorClass::DenseNk, &[x, y]);
        assert!(!reuse_legal(&d, y), "x is still live at z");
    }

    #[test]
    fn unsafe_declared_inplace_is_an_error() {
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let x = d.add("scale", TensorClass::DenseNk, &[h]);
        let bad = d.add("add_inplace(x,h)", TensorClass::DenseNk, &[x, h]);
        let _second = d.add("add", TensorClass::DenseNk, &[x, h]);
        let mut diags = Vec::new();
        check(&d, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::AliasUnsafe);
        assert_eq!(diags[0].node, Some(bad));
    }

    #[test]
    fn safe_declared_inplace_passes() {
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let x = d.add("scale", TensorClass::DenseNk, &[h]);
        let _y = d.add("relu_inplace(x)", TensorClass::DenseNk, &[x]);
        let mut diags = Vec::new();
        check(&d, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn canned_dags_declare_no_unsafe_inplace() {
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
}
