//! The shadow GAT layer: the kernel-level view of `GatLayer`.
//!
//! A real layer is one opaque call. The shadow reads the same weights
//! through `param_slices()` and replays `GatLayer::forward`/`backward`
//! call by call — the same public kernels, the same arguments, the same
//! order — with a span around each, so a layer's time splits by crate.
//! Its outputs must be bit-identical to the real layer's; the traced run
//! checks that on every step and voids itself otherwise, because a
//! shadow that computes something else attributes time to the wrong
//! calls.

use atgnn::layer::{AGnnLayer, BackwardResult, Gradients, LayerCache};
use atgnn::layers::GAT_SLOPE;
use atgnn::plan::ExecPlan;
use atgnn_e2e_benchmark::spans::Tracer;
use atgnn_sparse::{attention, masked, spmm, Csr};
use atgnn_tensor::{gemm, Dense};

pub struct ShadowGat {
    w: Dense<f32>,
    a_src: Vec<f32>,
    a_dst: Vec<f32>,
    plan: ExecPlan,
}

impl ShadowGat {
    /// Copies the parameters of a real GAT layer that runs under `plan`
    /// (the model's base plan, which `GnnModel::with_plan` keeps every
    /// layer in step with).
    pub fn of(layer: &dyn AGnnLayer<f32>, plan: ExecPlan) -> Self {
        assert_eq!(layer.name(), "GAT", "the shadow replays GatLayer only");
        let p = layer.param_slices();
        assert_eq!(p.len(), 3, "GAT exposes W, a₁, a₂");
        Self {
            w: Dense::from_vec(layer.in_dim(), layer.out_dim(), p[0].to_vec()),
            a_src: p[1].to_vec(),
            a_dst: p[2].to_vec(),
            plan,
        }
    }

    /// `GatLayer::forward`, call by call.
    pub fn forward(
        &self,
        t: &mut Tracer,
        a: &Csr<f32>,
        h: &Dense<f32>,
        cache: Option<&mut LayerCache<f32>>,
    ) -> Dense<f32> {
        let mut hp = t.span("tensor.project_gemm", |_| gemm::matmul(h, &self.w));
        let (u, v) = t.span("tensor.matvec", |_| {
            (
                gemm::matvec(&hp, &self.a_src),
                gemm::matvec(&hp, &self.a_dst),
            )
        });
        if self.plan.precision().is_narrow() {
            t.span("core.round_storage", |_| {
                self.plan.precision().round_matrix(&mut hp)
            });
        }
        let fa = t.span("sparse.sweep_fwd", |_| {
            attention::forward_gat(self.plan.exec(), a, &u, &v, &hp, GAT_SLOPE, cache.is_some())
        });
        if let Some(c) = cache {
            c.psi = fa.psi;
            c.scores = fa.scores;
            c.h_proj = Some(hp);
            c.u = Some(u);
            c.v = Some(v);
        }
        fa.out
    }

    /// `GatLayer::backward`, call by call.
    pub fn backward(
        &self,
        t: &mut Tracer,
        a: &Csr<f32>,
        h: &Dense<f32>,
        cache: &LayerCache<f32>,
        g: &Dense<f32>,
    ) -> BackwardResult<f32> {
        let psi = cache.psi.as_ref().expect("GAT backward needs cached Ψ");
        let c_pre = cache.scores.as_ref().expect("GAT backward needs cached C");
        let hp = cache.h_proj.as_ref().expect("GAT backward needs cached H'");
        let (dc, du) = t.span("sparse.sweep_bwd", |_| {
            attention::backward_gat(self.plan.exec(), a, psi, c_pre, hp, g, GAT_SLOPE)
        });
        let dv = t.span("sparse.col_sums", |_| masked::col_sums(&dc));
        let (da_src, da_dst) = t.span("tensor.matvec", |_| {
            (gemm::matvec_t(hp, &du), gemm::matvec_t(hp, &dv))
        });
        let mut dhp = t.span("sparse.spmm_t", |_| spmm::spmm_t(psi, g));
        t.span("core.rank1_update", |_| {
            for i in 0..dhp.rows() {
                let (dui, dvi) = (du[i], dv[i]);
                let row = dhp.row_mut(i);
                for ((o, &a1), &a2) in row.iter_mut().zip(&self.a_src).zip(&self.a_dst) {
                    *o += dui * a1 + dvi * a2;
                }
            }
        });
        let dw = t.span("tensor.wgrad_gemm", |_| gemm::matmul_tn(h, &dhp));
        let dh = t.span("tensor.dgrad_gemm", |_| gemm::matmul_nt(&dhp, &self.w));
        // The real layer drops Ψ-shaped ∂C and the dense ∂H' on return;
        // dropping them here, inside the layer span, keeps that cost
        // where the real layer pays it.
        drop((dc, dhp));
        BackwardResult {
            dh_in: dh,
            grads: Gradients::from_slots(vec![dw.into_vec(), da_src, da_dst]),
        }
    }
}
