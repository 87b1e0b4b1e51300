//! `train_step` skips the `∂L/∂X` nobody reads and chains `σ'` in place;
//! neither may change a trained bit.
//!
//! For every model kind, feature widths that resolve to a padded (4, 7)
//! and a tight (64) layout, and with and without a reordering, the
//! parameters after three `train_step`s equal — `to_bits()` — the
//! parameters after three steps assembled from the public pieces:
//! `forward_cached` → `Loss::gradient` → the public `GnnModel::backward`
//! (which does compute `∂L/∂X`) → `apply_gradients`.

use atgnn::loss::{Loss, Mse};
use atgnn::optimizer::Sgd;
use atgnn::plan::{ExecPlan, Layout, ReorderStrategy};
use atgnn::{GnnModel, ModelKind};
use atgnn_graphgen::kronecker;
use atgnn_sparse::Csr;
use atgnn_tensor::{init, Activation, Dense};

const KINDS: [ModelKind; 4] = [
    ModelKind::Va,
    ModelKind::Agnn,
    ModelKind::Gat,
    ModelKind::Gcn,
];

fn param_bits(model: &GnnModel<f32>) -> Vec<u32> {
    model
        .layers()
        .iter()
        .flat_map(|l| l.param_slices())
        .flat_map(|s| s.iter().map(|v| v.to_bits()))
        .collect()
}

/// One training step from the public pieces, in the resolved plan's
/// vertex order and layout, as `train_step` runs it.
fn assembled_step(model: &mut GnnModel<f32>, a: &Csr<f32>, x: &Dense<f32>, loss: &Mse<f32>) {
    let plan = model.resolved_plan(a);
    let reordering = (plan.reorder() != ReorderStrategy::Off)
        .then(|| plan.reorder_graph(a))
        .flatten();
    let ingest = |m: Dense<f32>| match plan.layout() {
        Layout::Padded => m.padded(),
        Layout::Tight => m,
    };
    let grads = match &reordering {
        Some(r) => {
            let (out, ctxs) = model.forward_cached(&r.a, &ingest(r.permute_rows(x)));
            let grad = loss.gradient(&r.restore_rows(&out));
            model
                .backward(&r.a, &ctxs, &ingest(r.permute_rows(&grad)))
                .0
        }
        None => {
            let (out, ctxs) = model.forward_cached(a, &ingest(x.clone()));
            let grad = loss.gradient(&out.into_tight());
            model.backward(a, &ctxs, &ingest(grad)).0
        }
    };
    model.apply_gradients(&grads, &mut Sgd::new(0.05));
}

#[test]
fn train_step_matches_steps_assembled_from_the_public_pieces() {
    let n = 128;
    let raw = kronecker::adjacency::<f32>(n, 6 * n, 11);
    for kind in KINDS {
        let a = GnnModel::<f32>::prepare_adjacency(kind, &raw);
        for k in [4usize, 7, 64] {
            for reorder in [ReorderStrategy::Off, ReorderStrategy::Degree] {
                let tag = format!("{kind:?} k={k} reorder={}", reorder.name());
                let x = init::features::<f32>(n, k, 3);
                let loss = Mse::new(init::features::<f32>(n, k, 5));
                let build = || {
                    GnnModel::<f32>::uniform(kind, &[k, k, k], Activation::Tanh, 7)
                        .with_plan(ExecPlan::fused().with_reorder(reorder))
                };
                let (mut real, mut assembled) = (build(), build());
                assert_eq!(
                    real.resolved_plan(&a).reorder_graph(&a).is_some(),
                    reorder == ReorderStrategy::Degree,
                    "{tag}: the case must run the order it names"
                );
                let mut opt = Sgd::new(0.05);
                for step in 0..3 {
                    real.train_step(&a, &x, &loss, &mut opt);
                    assembled_step(&mut assembled, &a, &x, &loss);
                    assert_eq!(
                        param_bits(&real),
                        param_bits(&assembled),
                        "{tag} step {step}"
                    );
                }
            }
        }
    }
}
