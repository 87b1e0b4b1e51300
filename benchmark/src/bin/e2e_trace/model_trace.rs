//! `GnnModel::inference` and `GnnModel::train_step`, taken apart.
//!
//! Three depths, each a separate pass over the same step:
//!
//! * [`Depth::Phases`] — the **real** model phases
//!   (`forward_cached` / loss / `backward` / `apply_gradients`), each
//!   one opaque call in a span;
//! * [`Depth::Layers`] — the phases' layer loops replayed here around
//!   the **real** `layer.forward` / `layer.backward`;
//! * [`Depth::Kernels`] — each layer replaced by its [`ShadowGat`].
//!
//! Around them sits what the model does before the first FLOP and after
//! the last: the permute/ingest/restore copies of the resolved plan.
//! Every depth computes the same bits as the real call.

use crate::shadow::ShadowGat;
use atgnn::layer::{Gradients, LayerCache};
use atgnn::loss::Loss;
use atgnn::model::TrainContext;
use atgnn::plan::{ExecPlan, Layout, ReorderStrategy, Reordering};
use atgnn::GnnModel;
use atgnn_e2e_benchmark::spans::Tracer;
use atgnn_e2e_benchmark::workloads::train::Train;
use atgnn_sparse::Csr;
use atgnn_tensor::{ops, Dense};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Depth {
    Phases,
    Layers,
    Kernels,
}

impl Depth {
    /// The depth of the `i`-th traced step: every depth gets a turn.
    pub fn of_step(i: usize) -> Self {
        [Depth::Phases, Depth::Layers, Depth::Kernels][i % 3]
    }
}

const LAYER_FWD: [&str; 2] = ["core.layer_fwd.l0", "core.layer_fwd.l1"];
const LAYER_BWD: [&str; 2] = ["core.layer_bwd.l0", "core.layer_bwd.l1"];

/// What the model resolves and caches privately per graph, held here so
/// the replay can run in the plan's vertex order and layout.
pub struct Resolved {
    pub plan: ExecPlan,
    pub reordering: Option<Reordering<f32>>,
}

impl Resolved {
    /// Resolves `a` the way the model's first call does, timing the cold
    /// resolution (which includes the model's own reorder), the warm
    /// one, and a reorder of our own.
    pub fn of(t: &mut Tracer, model: &GnnModel<f32>, a: &Csr<f32>) -> Self {
        let plan = t.span("core.resolve_cold", |_| model.resolved_plan(a));
        t.span("core.resolve_warm", |_| model.resolved_plan(a));
        let reordering = t.span("graphgen.reorder", |_| {
            (plan.reorder() != ReorderStrategy::Off)
                .then(|| plan.reorder_graph(a))
                .flatten()
        });
        Self { plan, reordering }
    }

    fn ingest(&self, x: Dense<f32>) -> Dense<f32> {
        match self.plan.layout() {
            Layout::Padded => x.padded(),
            Layout::Tight => x,
        }
    }

    /// The graph the layers run on and the features in its vertex order
    /// and layout (`GnnModel`'s permute + ingest).
    fn enter<'a>(
        &'a self,
        t: &mut Tracer,
        a: &'a Csr<f32>,
        x: &Dense<f32>,
    ) -> (&'a Csr<f32>, Dense<f32>) {
        let (a, x) = match &self.reordering {
            Some(r) => (&r.a, t.span("core.copy", |_| r.permute_rows(x))),
            None => (a, t.span("core.copy", |_| x.clone())),
        };
        (a, t.span("core.ingest", |_| self.ingest(x)))
    }

    /// Back to the caller's vertex order, tight.
    fn leave(&self, t: &mut Tracer, out: Dense<f32>) -> Dense<f32> {
        t.span("core.restore", |_| match &self.reordering {
            Some(r) => r.restore_rows(&out),
            None => out.into_tight(),
        })
    }
}

fn shadows(model: &GnnModel<f32>) -> Vec<ShadowGat> {
    assert!(
        model.depth() <= LAYER_FWD.len(),
        "span names cover two layers"
    );
    model
        .layers()
        .iter()
        .map(|l| ShadowGat::of(l.as_ref(), model.plan()))
        .collect()
}

/// `GnnModel::inference`, replayed at `depth`.
pub fn inference(
    t: &mut Tracer,
    model: &GnnModel<f32>,
    r: &Resolved,
    a: &Csr<f32>,
    x: &Dense<f32>,
    depth: Depth,
) -> Dense<f32> {
    if depth == Depth::Phases {
        return t.span("core.inference", |_| model.inference(a, x));
    }
    let shadows = (depth == Depth::Kernels).then(|| shadows(model));
    t.span("core.inference", |t| {
        let (a, x) = r.enter(t, a, x);
        let mut h = t.span("core.copy", |_| x.clone());
        for (l, layer) in model.layers().iter().enumerate() {
            let z = t.span(LAYER_FWD[l], |t| match &shadows {
                Some(s) => s[l].forward(t, a, &h, None),
                None => layer.forward(a, &h, None),
            });
            h = t.span("tensor.activation", |_| layer.activation().apply(&z));
        }
        r.leave(t, h)
    })
}

/// `GnnModel::forward_cached`'s layer loop.
fn forward_cached(
    t: &mut Tracer,
    model: &GnnModel<f32>,
    shadows: Option<&[ShadowGat]>,
    a: &Csr<f32>,
    x: &Dense<f32>,
) -> (Dense<f32>, Vec<TrainContext<f32>>) {
    let mut h = t.span("core.copy", |_| x.clone());
    let mut ctxs = Vec::with_capacity(model.depth());
    for (l, layer) in model.layers().iter().enumerate() {
        let mut cache = LayerCache::new();
        let z = t.span(LAYER_FWD[l], |t| match shadows {
            Some(s) => s[l].forward(t, a, &h, Some(&mut cache)),
            None => layer.forward(a, &h, Some(&mut cache)),
        });
        let h_next = t.span("tensor.activation", |_| layer.activation().apply(&z));
        ctxs.push(TrainContext {
            h_in: std::mem::replace(&mut h, h_next),
            z,
            cache,
        });
    }
    (h, ctxs)
}

/// `GnnModel::backward`'s layer loop (the input gradient is dropped, as
/// `train_step` drops it).
fn backward(
    t: &mut Tracer,
    model: &GnnModel<f32>,
    shadows: Option<&[ShadowGat]>,
    a: &Csr<f32>,
    ctxs: &[TrainContext<f32>],
    grad_output: &Dense<f32>,
) -> Vec<Gradients<f32>> {
    let layers = model.layers();
    let chain = |t: &mut Tracer, upstream: &Dense<f32>, l: usize| {
        t.span("tensor.activation", |_| {
            ops::hadamard(upstream, &layers[l].activation().derivative(&ctxs[l].z))
        })
    };
    let mut g = chain(t, grad_output, layers.len() - 1);
    let mut grads: Vec<Option<Gradients<f32>>> = (0..layers.len()).map(|_| None).collect();
    for l in (0..layers.len()).rev() {
        let res = t.span(LAYER_BWD[l], |t| match shadows {
            Some(s) => s[l].backward(t, a, &ctxs[l].h_in, &ctxs[l].cache, &g),
            None => layers[l].backward(a, &ctxs[l].h_in, &ctxs[l].cache, &g),
        });
        grads[l] = Some(res.grads);
        if l > 0 {
            g = chain(t, &res.dh_in, l - 1);
        }
    }
    grads.into_iter().flatten().collect()
}

/// `GnnModel::train_step` on `train`'s model and inputs, replayed at
/// `depth`. Returns the loss before the update, as the real call does.
pub fn train_step(t: &mut Tracer, train: &mut Train, r: &Resolved, depth: Depth) -> f32 {
    let Train {
        model,
        a,
        x,
        loss,
        opt,
        ..
    } = train;
    let shadows = (depth == Depth::Kernels).then(|| shadows(model));
    let shadows = shadows.as_deref();
    t.span("core.step", |t| {
        let (a, x) = r.enter(t, a, x);
        let (out, ctxs) = t.span("core.forward", |t| match depth {
            Depth::Phases => model.forward_cached(a, &x),
            _ => forward_cached(t, model, shadows, a, &x),
        });
        let out = r.leave(t, out);
        let (value, grad) = t.span("core.loss", |_| (loss.value(&out), loss.gradient(&out)));
        let grad = match &r.reordering {
            Some(re) => t.span("core.copy", |_| re.permute_rows(&grad)),
            None => grad,
        };
        let grad = t.span("core.ingest", |_| r.ingest(grad));
        let grads = t.span("core.backward", |t| match depth {
            Depth::Phases => model.backward(a, &ctxs, &grad).0,
            _ => backward(t, model, shadows, a, &ctxs, &grad),
        });
        // The step's working set (contexts, gradients of the features)
        // is released before the update, as in the real call.
        drop((ctxs, grad, out, x));
        t.span("core.optimizer", |_| model.apply_gradients(&grads, opt));
        value
    })
}

/// Whether two matrices hold the same bits (`-0.0 ≠ 0.0`, `NaN = NaN`).
pub fn same_bits(a: &Dense<f32>, b: &Dense<f32>) -> bool {
    let bits = |v: &f32| v.to_bits();
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .map(bits)
            .eq(b.as_slice().iter().map(bits))
}

/// Bit pattern of every trainable parameter, layer by layer.
pub fn param_bits(model: &GnnModel<f32>) -> Vec<u32> {
    model
        .layers()
        .iter()
        .flat_map(|l| l.param_slices().concat())
        .map(f32::to_bits)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgnn::loss::Mse;
    use atgnn::optimizer::Sgd;
    use atgnn::ModelKind;
    use atgnn_e2e_benchmark::inputs;
    use atgnn_tensor::{init, Activation};

    /// The replay at every depth — the shadow layer included — computes
    /// the real call's bits: same inference output, same losses, same
    /// parameters after training. 256 nodes; k = 3 and 17 are ragged
    /// against the 8-lane kernels (the padded layout), 64 is whole-lane.
    #[test]
    fn every_depth_is_bit_identical_to_the_real_path() {
        for k in [3usize, 17, 64] {
            let a = inputs::kron(256, 11);
            let x = init::features::<f32>(256, k, 12);
            let loss = Mse::new(init::features::<f32>(256, k, 13));
            let build =
                || GnnModel::<f32>::uniform(ModelKind::Gat, &[k, k, k], Activation::Relu, 14);

            let mut real = build();
            let mut opt_r = Sgd::new(0.05);
            let mut traced = Train {
                a: a.clone(),
                x: x.clone(),
                loss: loss.clone(),
                model: build(),
                opt: Sgd::new(0.05),
                warm_loss: 0.0,
                generate_s: 0.0,
            };
            let mut t = Tracer::new();
            let r = Resolved::of(&mut t, &traced.model, &a);
            for step in 0..6 {
                let depth = Depth::of_step(step);
                let want = real.inference(&a, &x);
                let got = inference(&mut t, &traced.model, &r, &a, &x, depth);
                assert!(same_bits(&got, &want), "k={k} {depth:?} inference");
                let want = real.train_step(&a, &x, &loss, &mut opt_r);
                let got = train_step(&mut t, &mut traced, &r, depth);
                assert_eq!(got.to_bits(), want.to_bits(), "k={k} {depth:?} loss");
                assert_eq!(
                    param_bits(&traced.model),
                    param_bits(&real),
                    "k={k} {depth:?} params"
                );
            }
            // Kernel spans nest under layer spans under phase spans.
            let spans = t.spans();
            let parent_name = |i: usize| spans[i].parent.map(|p| spans[p].name);
            let sweep = spans
                .iter()
                .position(|s| s.name == "sparse.spmm_t")
                .unwrap();
            let layer = spans[sweep].parent.unwrap();
            assert!(spans[layer].name.starts_with("core.layer_bwd"));
            assert_eq!(parent_name(layer), Some("core.backward"));
        }
    }
}
