//! Determinism analysis: proving bit-identity of the parallel schedule.
//!
//! The kernels promise that results are bit-identical across
//! `ATGNN_THREADS`, column-tile widths, and chunking decisions — a promise
//! the test suite pins empirically. This analysis proves it *statically*
//! per DAG node by consulting reduction-order facts exported by the
//! kernels themselves:
//!
//! * gather-style aggregations (`spmm`, `spmm_t` — the same row loop
//!   over the pattern's CSC view — `spmmm`, `mspmm`, and the fused
//!   sweep) accumulate neighbors in ascending stored order per output
//!   element ([`atgnn_sparse::spmm::GATHER_ORDER`],
//!   [`atgnn_sparse::attention::SWEEP_ORDER`]);
//! * the dense products `matmul` / `matmul_nt` fold every output element
//!   `kk`-ascending inside one chunk ([`atgnn_tensor::gemm::FOLD_ORDER`]),
//!   and `matmul_tn` folds `r`-ascending inside size-derived row blocks
//!   merged in ascending order ([`atgnn_tensor::gemm::TN_ORDER`]);
//! * dense dot products (`matvec`, `matvec_t`, SDDMM scoring) reduce in
//!   an order that depends only on the row
//!   ([`atgnn_tensor::micro::accumulation_order`] — the eight-lane tree
//!   of the wide kernels, one ascending fold under the scalar oracle);
//! * the softmax's exponential sum follows the active softmax kernel
//!   ([`atgnn_sparse::masked::softmax_accumulation_order`]: the wide
//!   lane tree, or one ascending fold);
//! * the remaining per-row reductions (row/col sums, contraction) run
//!   sequentially over each row's stored entries.
//!
//! Every one of those orders is a function of the data alone — never of
//! the thread count or tile size — so each covered node earns a
//! [`NodeProof`]. A node that aggregates over a rounding semiring
//! (`Real` / `Average`) *without* a covering schedule fact is flagged
//! with [`Rule::NondetReduction`]: its floating-point accumulation order
//! is unspecified, which is exactly the situation in which a parallel
//! runtime silently loses reproducibility. Idempotent semirings
//! (min/max) are proven order-insensitive algebraically instead
//! ([`atgnn_sparse::semiring::SemiringKind::order_insensitive`]).

use atgnn_sparse::{masked, spmm};
use atgnn_tensor::rt::ReductionOrder;
use atgnn_tensor::{gemm, micro};

use super::{classify, Diagnostic, OpKind, Rule};
use crate::dag::Dag;

/// Why one reducing node is bit-deterministic under any parallel
/// schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Certificate {
    /// The semiring's `op₁` is exact (idempotent min/max): any
    /// evaluation order yields identical bits.
    OrderInsensitive,
    /// A kernel schedule fact fixes the accumulation order as a function
    /// of the data alone.
    Invariant(ReductionOrder),
}

/// A proved-deterministic reduction node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeProof {
    /// The reducing node.
    pub node: usize,
    /// Why its schedule is bit-deterministic.
    pub cert: Certificate,
    /// The kernel (or algebraic) fact the certificate rests on.
    pub source: &'static str,
}

/// The schedule fact covering one op family, if the kernels export one.
fn schedule_fact(kind: OpKind) -> Option<(ReductionOrder, &'static str)> {
    match kind {
        OpKind::SpMm | OpKind::SpMmT | OpKind::SpMmm | OpKind::MSpMm => Some((
            spmm::GATHER_ORDER,
            "csr-gather: neighbors accumulate in ascending storage order",
        )),
        OpKind::MatMul | OpKind::MatMulNt => Some((
            gemm::FOLD_ORDER,
            "gemm tile: one kk-ascending mul_add fold per output element",
        )),
        OpKind::MatMulTn => Some((
            gemm::TN_ORDER,
            "gemm tn: r-ascending folds inside size-derived row blocks, \
             partials merged in ascending block order",
        )),
        OpKind::MatVec | OpKind::MatVecT | OpKind::Sddmm => Some((
            micro::accumulation_order(),
            "microkernel dot: lane grouping is a function of the row alone",
        )),
        OpKind::Softmax => Some((
            masked::softmax_accumulation_order(),
            "graph softmax: shared row body (masked::softmax_slice) — wide \
             mode sums exponentials with the fixed 8-lane tree, otherwise \
             one ascending fold",
        )),
        OpKind::RowReduce | OpKind::ColReduce | OpKind::Contract => Some((
            ReductionOrder::RowSequential,
            "row reduce: one sequential fold per output element",
        )),
        _ => None,
    }
}

/// Per-node determinism proofs for every covered reduction in the DAG.
/// Nodes that are not reductions (elementwise ops, samplers, leaves) are
/// trivially deterministic and carry no proof.
pub fn proofs(dag: &Dag) -> Vec<NodeProof> {
    let mut out = Vec::new();
    for (id, node) in dag.nodes().iter().enumerate() {
        if let Some(sk) = node.semiring {
            if sk.order_insensitive() {
                out.push(NodeProof {
                    node: id,
                    cert: Certificate::OrderInsensitive,
                    source: "idempotent semiring: min/max is exact in any order",
                });
                continue;
            }
        }
        if let Some((order, source)) = schedule_fact(classify(&node.op)) {
            if order.thread_invariant() {
                out.push(NodeProof {
                    node: id,
                    cert: Certificate::Invariant(order),
                    source,
                });
            }
        }
    }
    out
}

/// Flags reducing nodes whose accumulation order is unspecified: a
/// rounding-semiring aggregation with no covering kernel fact, or a
/// schedule fact that is not thread-invariant.
pub fn check(dag: &Dag, diags: &mut Vec<Diagnostic>) {
    for (id, node) in dag.nodes().iter().enumerate() {
        let Some(sk) = node.semiring else {
            continue;
        };
        if sk.order_insensitive() {
            continue;
        }
        let order = schedule_fact(classify(&node.op)).map(|(o, _)| o);
        let invariant = order.is_some_and(ReductionOrder::thread_invariant);
        if !invariant {
            diags.push(Diagnostic::error(
                Rule::NondetReduction,
                Some(id),
                format!(
                    "'{}' aggregates over the {sk} semiring but no kernel schedule \
                     fact fixes its accumulation order — results could differ \
                     across thread counts or tile sizes; route it through a \
                     spmm/spmm_t kernel or use an order-insensitive semiring",
                    node.op
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::{Dim, SemiringKind, Shape, TensorClass};

    #[test]
    fn fused_and_staged_aggregation_share_one_order() {
        // The plan choice (fused vs staged) must not change bits: both
        // paths accumulate neighbors in the same CSR-ascending order.
        assert_eq!(atgnn_sparse::attention::SWEEP_ORDER, spmm::GATHER_ORDER);
        // So does the backward `AᵀG`: one gather order for every kernel.
        let (order, _) = schedule_fact(OpKind::SpMmT).expect("spmm_t must carry a fact");
        assert_eq!(order, ReductionOrder::RowSequential);
    }

    #[test]
    fn dense_products_carry_the_gemm_facts_not_the_dot_fact() {
        for kind in [OpKind::MatMul, OpKind::MatMulNt] {
            let (order, _) = schedule_fact(kind).expect("gemm must carry a fact");
            assert_eq!(order, ReductionOrder::RowSequential);
        }
        let (order, _) = schedule_fact(OpKind::MatMulTn).expect("gemm must carry a fact");
        assert_eq!(order, ReductionOrder::FixedBlocks);
        assert!(order.thread_invariant());
        let (order, _) = schedule_fact(OpKind::MatVec).expect("matvec must carry a fact");
        assert_eq!(order, micro::accumulation_order());
    }

    #[test]
    fn softmax_fact_tracks_the_active_kernel() {
        // Read-only: whatever mode this process runs in, the analyzer's
        // softmax fact must be the kernel's exported order, and it must
        // be thread-invariant so the proof coverage never regresses.
        let (order, _) = schedule_fact(OpKind::Softmax).expect("softmax must carry a fact");
        assert_eq!(order, masked::softmax_accumulation_order());
        if micro::wide() {
            assert_eq!(order, ReductionOrder::LaneTree);
        } else {
            assert_eq!(order, ReductionOrder::RowSequential);
        }
        assert!(order.thread_invariant());
    }

    #[test]
    fn every_canned_reduction_is_proven() {
        for dag in [
            Dag::va_forward(),
            Dag::agnn_forward(),
            Dag::gat_forward(),
            Dag::gcn_forward(),
            Dag::va_backward(),
            Dag::agnn_backward(),
            Dag::gat_backward(),
        ] {
            // Every semiring-annotated aggregation must carry a proof.
            let proved: Vec<usize> = proofs(&dag).iter().map(|p| p.node).collect();
            for (id, node) in dag.nodes().iter().enumerate() {
                if node.semiring.is_some() {
                    assert!(proved.contains(&id), "node {id} '{}' unproven", node.op);
                }
            }
            let mut diags = Vec::new();
            check(&dag, &mut diags);
            assert!(diags.is_empty(), "{diags:?}");
        }
    }

    #[test]
    fn unknown_aggregation_with_rounding_semiring_is_flagged() {
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let a = d.add("A", TensorClass::SparseNn, &[]);
        let agg = d.add_agg(
            "scatter_add(A,H)",
            TensorClass::DenseNk,
            &[a, h],
            Shape::new(Dim::N, Dim::K),
            SemiringKind::Real,
        );
        let mut diags = Vec::new();
        check(&d, &mut diags);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::NondetReduction);
        assert_eq!(diags[0].node, Some(agg));
    }

    #[test]
    fn idempotent_semiring_needs_no_schedule_fact() {
        // The same unknown op is fine under min aggregation: min is
        // exact in any order.
        let mut d = Dag::new();
        let h = d.add("H", TensorClass::DenseNk, &[]);
        let a = d.add("A", TensorClass::SparseNn, &[]);
        let agg = d.add_agg(
            "scatter_min(A,H)",
            TensorClass::DenseNk,
            &[a, h],
            Shape::new(Dim::N, Dim::K),
            SemiringKind::MinPlus,
        );
        let mut diags = Vec::new();
        check(&d, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        assert!(proofs(&d)
            .iter()
            .any(|p| p.node == agg && p.cert == Certificate::OrderInsensitive));
    }
}
