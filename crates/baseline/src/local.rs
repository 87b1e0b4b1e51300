//! Shared-memory local-formulation (message-passing) inference.
//!
//! The classic per-vertex loops
//! `h_i' = φ(h_i, ⊕_{j∈N(i)} ψ(h_i, h_j))` (paper Section 2.2), written
//! the way a message-passing framework executes them: iterate each
//! vertex's neighborhood, evaluate `ψ` per edge, aggregate, update. The
//! outputs are cross-checked (in tests and in the §8.4 harness) against
//! the global tensor formulation — identical math, very different data
//! movement.

use atgnn::ModelKind;
use atgnn_sparse::Csr;
use atgnn_tensor::{blocks, gemm, Activation, Dense, Scalar};

/// One local-formulation layer evaluation (no parameters of its own: the
/// caller supplies the replicated parameter tensors, which lets the
/// harness run the exact weights of a global-formulation model).
pub struct LocalLayerParams<'a, T> {
    /// The weight matrix `W`.
    pub w: &'a Dense<T>,
    /// GAT's `a₁` (ignored by other models).
    pub a_src: &'a [T],
    /// GAT's `a₂`.
    pub a_dst: &'a [T],
    /// AGNN's temperature `β`.
    pub beta: T,
    /// The model.
    pub kind: ModelKind,
}

/// Evaluates one local-formulation layer: per-vertex neighborhood loops.
///
/// `a` carries the same (model-appropriately normalized) adjacency the
/// global formulation uses.
pub fn layer_forward<T: Scalar>(p: &LocalLayerParams<'_, T>, a: &Csr<T>, h: &Dense<T>) -> Dense<T> {
    let n = a.rows();
    let k_out = p.w.cols();
    match p.kind {
        ModelKind::Gcn => {
            // h_i' = W Σ_j â_ij h_j  — per-vertex gather of neighbor rows.
            let mut agg = Dense::zeros(n, h.cols());
            for i in 0..n {
                let (cols, vals) = a.row(i);
                let out = agg.row_mut(i);
                for (&j, &aij) in cols.iter().zip(vals) {
                    for (o, &hv) in out.iter_mut().zip(h.row(j as usize)) {
                        *o += aij * hv;
                    }
                }
            }
            gemm::matmul(&agg, p.w)
        }
        ModelKind::Va => {
            // ψ(h_i, h_j) = ⟨h_i, h_j⟩; h_i' = W Σ_j ψ h_j.
            let mut agg = Dense::zeros(n, h.cols());
            for i in 0..n {
                let (cols, _) = a.row(i);
                let hi = h.row(i).to_vec();
                let out = agg.row_mut(i);
                for &j in cols {
                    let score = gemm::dot(&hi, h.row(j as usize));
                    for (o, &hv) in out.iter_mut().zip(h.row(j as usize)) {
                        *o += score * hv;
                    }
                }
            }
            gemm::matmul(&agg, p.w)
        }
        ModelKind::Agnn => {
            // ψ = softmax_j(β cos(h_i, h_j)).
            let norms = blocks::row_l2_norms(h);
            let mut agg = Dense::zeros(n, h.cols());
            for i in 0..n {
                let (cols, _) = a.row(i);
                if cols.is_empty() {
                    continue;
                }
                let hi = h.row(i).to_vec();
                let scores: Vec<T> = cols
                    .iter()
                    .map(|&j| {
                        let j = j as usize;
                        let denom = norms[i] * norms[j];
                        if denom == T::zero() {
                            T::zero()
                        } else {
                            p.beta * gemm::dot(&hi, h.row(j)) / denom
                        }
                    })
                    .collect();
                let att = softmax(&scores);
                let out = agg.row_mut(i);
                for (&j, &w) in cols.iter().zip(&att) {
                    for (o, &hv) in out.iter_mut().zip(h.row(j as usize)) {
                        *o += w * hv;
                    }
                }
            }
            gemm::matmul(&agg, p.w)
        }
        ModelKind::Gat => {
            // ψ = softmax_j(LeakyReLU(a₁·Wh_i + a₂·Wh_j)); h_i' = Σ ψ Wh_j.
            let hp = gemm::matmul(h, p.w);
            let (u, v) = gemm::matvec_pair(&hp, hp.rows(), p.a_src, p.a_dst);
            let lrelu = Activation::LeakyRelu(atgnn::layers::GAT_SLOPE);
            let mut z = Dense::zeros(n, k_out);
            for (i, &ui) in u.iter().enumerate() {
                let (cols, _) = a.row(i);
                if cols.is_empty() {
                    continue;
                }
                let scores: Vec<T> = cols
                    .iter()
                    .map(|&j| lrelu.eval(ui + v[j as usize]))
                    .collect();
                let att = softmax(&scores);
                let out = z.row_mut(i);
                for (&j, &w) in cols.iter().zip(&att) {
                    for (o, &hv) in out.iter_mut().zip(hp.row(j as usize)) {
                        *o += w * hv;
                    }
                }
            }
            z
        }
    }
}

fn softmax<T: Scalar>(scores: &[T]) -> Vec<T> {
    let m = scores
        .iter()
        .copied()
        .fold(T::neg_infinity(), |a, b| Scalar::max(a, b));
    let exps: Vec<T> = scores.iter().map(|&s| (s - m).exp()).collect();
    let total: T = exps.iter().copied().sum();
    exps.into_iter().map(|e| e / total).collect()
}

/// Full local-formulation inference with the parameters extracted from a
/// global-formulation [`atgnn::GnnModel`] (same weights, same function —
/// the §8.4 comparison runs both on identical models).
pub fn inference_like<T: Scalar>(
    model: &atgnn::GnnModel<T>,
    kind: ModelKind,
    a: &Csr<T>,
    x: &Dense<T>,
) -> Dense<T> {
    let mut h = x.clone();
    for layer in model.layers() {
        let slices = layer.param_slices();
        let k_in = layer.in_dim();
        let k_out = layer.out_dim();
        let w = Dense::from_vec(k_in, k_out, slices[0].to_vec());
        let (a_src, a_dst, beta) = match kind {
            ModelKind::Gat => (slices[1].to_vec(), slices[2].to_vec(), T::one()),
            ModelKind::Agnn => (Vec::new(), Vec::new(), slices[1][0]),
            _ => (Vec::new(), Vec::new(), T::one()),
        };
        let params = LocalLayerParams {
            w: &w,
            a_src: &a_src,
            a_dst: &a_dst,
            beta,
            kind,
        };
        let z = layer_forward(&params, a, &h);
        h = layer.activation().apply(&z);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgnn::GnnModel;
    use atgnn_sparse::Coo;
    use atgnn_tensor::init;

    fn graph(n: usize) -> Csr<f64> {
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| [(i, (i + 1) % n as u32), (i, (i * 5 + 2) % n as u32)])
            .filter(|&(a, b)| a != b)
            .collect();
        let mut coo = Coo::from_edges(n, n, edges);
        coo.symmetrize_binary();
        Csr::from_coo(&coo)
    }

    #[test]
    fn local_formulation_equals_global_for_every_model() {
        // The paper's core premise: local and global formulations compute
        // the same function; only the execution differs.
        let n = 14;
        for kind in [
            ModelKind::Va,
            ModelKind::Agnn,
            ModelKind::Gat,
            ModelKind::Gcn,
        ] {
            let a = GnnModel::<f64>::prepare_adjacency(kind, &graph(n));
            let x = init::features(n, 4, 3);
            let model = GnnModel::<f64>::uniform(kind, &[4, 5, 3], Activation::Elu, 9);
            let global = model.inference(&a, &x);
            let local = inference_like(&model, kind, &a, &x);
            let err = global.max_abs_diff(&local);
            assert!(err < 1e-11, "{kind:?}: local vs global differ by {err}");
        }
    }

    #[test]
    fn isolated_vertices_produce_zero_rows() {
        let coo = Coo::from_edges(3, 3, vec![(0, 1), (1, 0)]);
        let a: Csr<f64> = Csr::from_coo(&coo);
        let x = init::features(3, 2, 1);
        let w = init::glorot(2, 2, 2);
        let params = LocalLayerParams {
            w: &w,
            a_src: &[],
            a_dst: &[],
            beta: 1.0,
            kind: ModelKind::Va,
        };
        let z = layer_forward(&params, &a, &x);
        assert_eq!(z.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn local_softmax_is_stable() {
        let s = softmax(&[1000.0f32, 999.0]);
        assert!(s.iter().all(|v| v.is_finite()));
        assert!((s[0] + s[1] - 1.0).abs() < 1e-5);
    }
}
