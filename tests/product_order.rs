//! The two product orders of a GAT inference forward.
//!
//! `GatLayer::forward` asks `spmm::product_order` whether to project then
//! aggregate (`Ψ (H W)`, scores from `(H W) a`) or aggregate then project
//! (`(Ψ H) W`, scores from `H (W a)`). The orders reassociate, so:
//!
//! * they agree to rounding — max |Δ| ≤ 1e-5 · scale — over exec × k ×
//!   layout × square / row-prefix block, and **each** is bit-identical
//!   across thread counts (the reassociation is the only difference there
//!   is);
//! * where the rule ties — a square graph at `k_in = k_out`, the shape of
//!   full-graph inference — `GnnModel::inference` stays on the training
//!   order: `to_bits()`-equal to `forward_cached`'s output.
//!
//! One `#[test]`, so the in-process `rt::set_threads` sweep cannot race
//! with itself under the parallel test harness.

use atgnn::layers::GatLayer;
use atgnn::plan::{ExecPlan, ReorderStrategy};
use atgnn::{AttentionExec, GnnModel, ModelKind};
use atgnn_graphgen::erdos_renyi;
use atgnn_sparse::spmm::{product_order, ProductOrder};
use atgnn_sparse::Csr;
use atgnn_tensor::{init, rt, Activation, Dense};

const EXECS: [AttentionExec; 2] = [AttentionExec::FusedOnePass, AttentionExec::Staged];
/// 7 and 60 are ragged: their padded layout has a real tail.
const KS: [usize; 4] = [4, 7, 60, 64];
const ORDERS: [ProductOrder; 2] = [ProductOrder::ProjectFirst, ProductOrder::AggregateFirst];

fn bits(m: &Dense<f32>) -> Vec<u32> {
    (0..m.rows())
        .flat_map(|i| m.row(i).iter().map(|v| v.to_bits()))
        .collect()
}

/// Returns the largest |aggregate-first − project-first| it saw, relative
/// to the output's scale.
fn orders_agree_to_rounding_and_each_is_thread_invariant(a: &Csr<f32>) -> f32 {
    let n = a.rows();
    let block = a.row_prefix(n / 2, n);
    let mut worst = 0.0f32;
    for exec in EXECS {
        for (wi, &k_in) in KS.iter().enumerate() {
            // A square `W` and a rectangular one per input width.
            for k_out in [k_in, KS[(wi + 1) % KS.len()]] {
                let layer = GatLayer::<f32>::new(k_in, k_out, Activation::Identity, 3)
                    .with_plan(ExecPlan::fused().with_exec(exec));
                let tight = init::features::<f32>(n, k_in, 11);
                for h in [tight.padded(), tight] {
                    for a in [a, &block] {
                        let case = format!(
                            "{}/k={k_in}->{k_out} padded={} rows={}",
                            exec.name(),
                            h.is_padded(),
                            a.rows()
                        );
                        let mut outs = Vec::new();
                        for order in ORDERS {
                            rt::set_threads(1);
                            let want = layer.forward_ordered(a, &h, order);
                            assert_eq!(want.shape(), (a.rows(), k_out), "{case}");
                            for threads in [2, 8] {
                                rt::set_threads(threads);
                                assert_eq!(
                                    bits(&layer.forward_ordered(a, &h, order)),
                                    bits(&want),
                                    "{case}: {order:?} at {threads} threads"
                                );
                            }
                            outs.push(want);
                        }
                        let scale = outs[0].max_abs().max(1.0);
                        let delta = outs[0].max_abs_diff(&outs[1]) / scale;
                        assert!(delta <= 1e-5, "{case}: the orders are {delta} apart");
                        worst = worst.max(delta);
                    }
                }
            }
        }
    }
    worst
}

/// The guard on `infer_er`: at a tie the layer must not leave the order
/// training uses.
fn square_uniform_k_inference_is_the_training_forward(a: &Csr<f32>) {
    let x = init::features::<f32>(a.rows(), 64, 5);
    assert_eq!(
        product_order(a.rows(), a.cols(), a.nnz(), 64, 64),
        ProductOrder::ProjectFirst
    );
    for exec in EXECS {
        let model = GnnModel::<f32>::uniform(ModelKind::Gat, &[64, 64, 64], Activation::Relu, 9);
        // `forward_cached` runs in the caller's order; so must `inference`.
        let plan = model
            .plan()
            .with_exec(exec)
            .with_reorder(ReorderStrategy::Off);
        let model = model.with_plan(plan);
        let (trained, _) = model.forward_cached(a, &x);
        assert_eq!(
            bits(&model.inference(a, &x)),
            bits(&trained),
            "{}: square uniform-k inference left the training order",
            exec.name()
        );
    }
}

#[test]
fn gat_product_orders_differ_by_reassociation_only() {
    let max_threads = rt::max_threads();
    // ≈ 25 stored entries a row: over 4096 entries (the sweeps' parallel
    // threshold) and, from k = 60, over 16 Ki projected elements (the
    // GEMM's), on the square graph and on its row-prefix block.
    let raw = erdos_renyi::adjacency::<f32>(384, 384 * 12, 7);
    let a = GnnModel::<f32>::prepare_adjacency(ModelKind::Gat, &raw);
    assert!(a.row_prefix(a.rows() / 2, a.rows()).nnz() >= 4096);
    let worst = orders_agree_to_rounding_and_each_is_thread_invariant(&a);
    rt::set_threads(max_threads);
    // `--nocapture` shows it; DESIGN.md §serve quotes it.
    println!("max |aggregate-first - project-first| / scale over the grid: {worst:e}");
    square_uniform_k_inference_is_the_training_forward(&a);
}
