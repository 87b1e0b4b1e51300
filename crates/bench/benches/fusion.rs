//! The kernel-fusion ablation (Figure 5): the fused virtual-tensor score
//! pass against its materializing counterparts, per model, plus the full
//! attention sandwich (SDDMM→softmax→SpMM) staged vs one-pass.
//! Plain timing harness; prints median seconds per variant.

use atgnn_bench::measure::time_median;
use atgnn_graphgen::kronecker;
use atgnn_sparse::attention::{self, Agnn, AttentionExec, Gat, Va};
use atgnn_sparse::fused;
use atgnn_tensor::{blocks, init};

fn report(name: &str, id: &str, secs: f64) {
    println!("fusion/{name}/{id}: {:.3} ms", secs * 1e3);
}

/// The full attention sandwich `run` performs, staged (score Csr +
/// softmax Csr + SpMM, three sweeps) vs one-pass (single CSR traversal,
/// no intermediate Csr).
fn sandwich(name: &str, suffix: &str, id: &str, run: impl Fn(AttentionExec)) {
    for (exec, path) in [
        (AttentionExec::Staged, "staged"),
        (AttentionExec::FusedOnePass, "onepass"),
    ] {
        report(
            &format!("pipeline_{name}_{path}{suffix}"),
            id,
            time_median(|| run(exec)),
        );
    }
}

fn main() {
    for n_exp in [9usize, 11] {
        let n = 1usize << n_exp;
        let a = kronecker::adjacency::<f32>(n, n * 16, 5);
        let h = init::features::<f32>(a.rows(), 32, 7);
        let u = init::glorot_vec::<f32>(a.rows(), 1);
        let v = init::glorot_vec::<f32>(a.rows(), 2);
        let id = format!("n{n}");
        let va = Va { dst: &h, src: &h };
        let gat = Gat {
            u: &u,
            v: &v,
            slope: 0.2,
        };
        report(
            "va_fused",
            &id,
            time_median(|| {
                std::hint::black_box(attention::scores(&a, &va));
            }),
        );
        report(
            "va_unfused",
            &id,
            time_median(|| {
                std::hint::black_box(fused::unfused_va_scores(&a, &h));
            }),
        );
        report(
            "gat_fused",
            &id,
            time_median(|| {
                std::hint::black_box(attention::scores(&a, &gat));
            }),
        );
        report(
            "gat_unfused",
            &id,
            time_median(|| {
                std::hint::black_box(fused::unfused_gat_scores(&a, &u, &v, 0.2));
            }),
        );
        report(
            "agnn_fused",
            &id,
            time_median(|| {
                // The norms count, as they do in the unfused reference.
                let norms = blocks::row_l2_norms(&h);
                let agnn = Agnn {
                    dst: &h,
                    src: &h,
                    n_dst: &norms,
                    n_src: &norms,
                    beta: 1.0f32,
                };
                std::hint::black_box(attention::scores(&a, &agnn));
            }),
        );
        report(
            "agnn_unfused",
            &id,
            time_median(|| {
                std::hint::black_box(fused::unfused_agnn_scores(&a, &h, 1.0f32));
            }),
        );
        // k=64 aggregation features is the headline configuration from the
        // acceptance criteria.
        let hp = init::features::<f32>(a.rows(), 64, 8);
        sandwich("va", "", &id, |exec| {
            std::hint::black_box(attention::forward(exec, &a, &va, &h, false));
        });
        sandwich("agnn", "", &id, |exec| {
            let norms = blocks::row_l2_norms(&h);
            let agnn = Agnn {
                dst: &h,
                src: &h,
                n_dst: &norms,
                n_src: &norms,
                beta: 1.0f32,
            };
            std::hint::black_box(attention::forward(exec, &a, &agnn, &hp, false));
        });
        sandwich("gat", "_k64", &id, |exec| {
            std::hint::black_box(attention::forward(exec, &a, &gat, &hp, false));
        });
    }
}
