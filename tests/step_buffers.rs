//! `train_step` keeps its buffers from one step to the next, so a step
//! starts on buffers that still hold another step's values — of another
//! graph, another layout, another plan. None of that may reach a result:
//! one long-lived model alternates between two graphs of different size,
//! between plans (`Off` ↔ `Degree`, tight ↔ padded at a width the padding
//! changes), and across an in-place edit of the graph's values, and every
//! step's loss and updated parameters must be `to_bits`-equal to those of
//! a freshly built model with the same weights taking the same step —
//! both through `train_step` (whose first step on new buffers still
//! reuses them within the step) and assembled from the public pieces,
//! which allocate every intermediate.

use atgnn::loss::{Loss, Mse};
use atgnn::optimizer::Sgd;
use atgnn::plan::{ExecPlan, Layout, ReorderStrategy};
use atgnn::{GnnModel, ModelKind};
use atgnn_graphgen::kronecker;
use atgnn_sparse::Csr;
use atgnn_tensor::{init, Activation, Dense};

/// Not a lane multiple, so the padded layout really pads.
const K: usize = 60;
const DIMS: [usize; 3] = [K, K, 12];

struct Graph {
    a: Csr<f32>,
    x: Dense<f32>,
    loss: Mse<f32>,
}

fn graph(kind: ModelKind, n: usize, seed: u64) -> Graph {
    let a = GnnModel::<f32>::prepare_adjacency(kind, &kronecker::adjacency(n, 8 * n, seed));
    Graph {
        a,
        x: init::features(n, K, seed + 1),
        loss: Mse::new(init::features(n, DIMS[2], seed + 2)),
    }
}

fn plan(reorder: ReorderStrategy, layout: Layout) -> ExecPlan {
    ExecPlan::fused().with_reorder(reorder).with_layout(layout)
}

fn param_bits(model: &GnnModel<f32>) -> Vec<u32> {
    let layers = model.layers().iter();
    layers
        .flat_map(|l| l.param_slices().concat())
        .map(f32::to_bits)
        .collect()
}

/// One training step from the public pieces — `forward_cached`, the
/// loss, the public `backward`, `apply_gradients` — in the resolved
/// plan's vertex order and layout, as `train_step` runs it. Returns the
/// loss.
fn assembled_step(model: &mut GnnModel<f32>, a: &Csr<f32>, x: &Dense<f32>, loss: &Mse<f32>) -> f32 {
    let plan = model.resolved_plan(a);
    let ingest = |m: Dense<f32>| match plan.layout() {
        Layout::Padded => m.padded(),
        Layout::Tight => m,
    };
    let (value, grads) = match plan.reorder_graph(a) {
        Some(r) => {
            let (out, ctxs) = model.forward_cached(&r.a, &ingest(r.permute_rows(x)));
            let out = r.restore_rows(&out);
            let g = ingest(r.permute_rows(&loss.gradient(&out)));
            (loss.value(&out), model.backward(&r.a, &ctxs, &g).0)
        }
        None => {
            let (out, ctxs) = model.forward_cached(a, &ingest(x.clone()));
            let out = out.into_tight();
            let g = ingest(loss.gradient(&out));
            (loss.value(&out), model.backward(a, &ctxs, &g).0)
        }
    };
    model.apply_gradients(&grads, &mut Sgd::new(0.05));
    value
}

/// A new model under `model`'s plan holding `model`'s weights: no
/// buffers, no cached reordering.
fn fresh_copy(kind: ModelKind, model: &GnnModel<f32>) -> GnnModel<f32> {
    let mut fresh =
        GnnModel::<f32>::uniform(kind, &DIMS, Activation::Relu, 3).with_plan(model.plan());
    for (dst, src) in fresh.layers_mut().iter_mut().zip(model.layers()) {
        for (d, s) in dst.param_slices_mut().into_iter().zip(src.param_slices()) {
            d.copy_from_slice(s);
        }
    }
    fresh
}

#[test]
fn reused_buffers_never_change_a_step() {
    use Layout::{Padded, Tight};
    use ReorderStrategy::{Degree, Off};
    for kind in [ModelKind::Gat, ModelKind::Gcn] {
        let mut graphs = [graph(kind, 256, 11), graph(kind, 512, 21)];
        // (graph, plan, edit the graph's values in place first)
        let schedule = [
            (0, plan(Off, Tight), false),
            (0, plan(Off, Tight), false),
            (1, plan(Off, Tight), false),
            (0, plan(Off, Tight), false),
            (0, plan(Degree, Padded), false),
            (0, plan(Degree, Padded), true),
            (1, plan(Degree, Padded), false),
            (1, plan(Off, Padded), false),
            (0, plan(Off, Padded), true),
            (0, plan(Degree, Tight), false),
            (1, plan(Degree, Tight), true),
            (0, plan(Degree, Tight), false),
        ];
        let mut model =
            GnnModel::<f32>::uniform(kind, &DIMS, Activation::Relu, 3).with_plan(schedule[0].1);
        for (step, &(g, plan, edit)) in schedule.iter().enumerate() {
            if model.plan() != plan {
                model = model.with_plan(plan);
            }
            let Graph { a, x, loss } = &mut graphs[g];
            if edit {
                for v in a.values_mut() {
                    *v *= 1.5;
                }
            }
            let (mut fresh, mut pieces) = (fresh_copy(kind, &model), fresh_copy(kind, &model));
            let want = assembled_step(&mut pieces, a, x, loss);
            let fresh_loss = fresh.train_step(a, x, loss, &mut Sgd::new(0.05));
            let got = model.train_step(a, x, loss, &mut Sgd::new(0.05));
            let case = format!("{kind:?} step {step} (graph {g}, {plan:?})");
            assert_eq!(fresh_loss.to_bits(), want.to_bits(), "{case}: fresh loss");
            assert_eq!(got.to_bits(), want.to_bits(), "{case}: loss");
            let want = param_bits(&pieces);
            assert!(param_bits(&fresh) == want, "{case}: fresh parameters");
            assert!(param_bits(&model) == want, "{case}: parameters");
        }
    }
}
