//! Runtime correctness and determinism guarantees.
//!
//! Two properties of the persistent worker-pool runtime are load-bearing:
//!
//! 1. `spmm_t` computes the same product as a plain sequential scatter,
//!    on both uniform and heavily skewed graphs;
//! 2. training results are *bit-identical* across `ATGNN_THREADS`
//!    settings: every kernel gives each output element one writer and a
//!    fixed accumulation order, and picks its parallel/sequential path
//!    from the problem size alone.

use atgnn::loss::Mse;
use atgnn::optimizer::Sgd;
use atgnn::{GnnModel, ModelKind};
use atgnn_graphgen::{erdos_renyi, kronecker};
use atgnn_sparse::{spmm, Csr};
use atgnn_tensor::{init, rt, Activation, Dense};

/// Plain sequential AᵀH scatter — the obviously-correct reference.
fn spmm_t_reference(a: &Csr<f64>, h: &Dense<f64>) -> Dense<f64> {
    let mut out = Dense::zeros(a.cols(), h.cols());
    for i in 0..a.rows() {
        let (cols, vals) = a.row(i);
        let hrow = h.row(i);
        for (&j, &av) in cols.iter().zip(vals) {
            let orow = out.row_mut(j as usize);
            for (o, &hv) in orow.iter_mut().zip(hrow) {
                *o += av * hv;
            }
        }
    }
    out
}

#[test]
fn parallel_spmm_t_matches_sequential_scatter() {
    let k = 8;
    // Uniform (Erdős–Rényi) and skewed (Kronecker power-law) patterns.
    let graphs = [
        (
            "erdos_renyi",
            erdos_renyi::adjacency::<f64>(2000, 32_000, 42),
        ),
        ("kronecker", kronecker::adjacency::<f64>(2048, 32_768, 7)),
    ];
    for (name, a) in graphs {
        let h = Dense::from_fn(a.rows(), k, |i, j| {
            ((i * 31 + j * 17) % 23) as f64 / 11.0 - 1.0
        });
        let got = spmm::spmm_t(&a, &h);
        let want = spmm_t_reference(&a, &h);
        // The reference spells `a*b + c` out (two roundings) where the
        // default kernels fuse it: tolerance here, bitwise against the
        // fused scatter in the sparse crate's own property test.
        assert!(
            got.max_abs_diff(&want) < 1e-9,
            "{name}: parallel scatter diverged from the sequential reference"
        );
    }
}

/// One test (not several) so the in-process `rt::set_threads` sweep cannot
/// race with itself under the parallel test harness.
#[test]
fn training_is_bit_identical_across_thread_counts() {
    // Sized to cross the parallel thresholds of spmm and spmm_t
    // (rows·k ≥ 8k), matmul (m·n ≥ 16k) and matmul_tn.
    let n = 512;
    let a = kronecker::adjacency::<f64>(n, 4096, 3);
    let x = init::features::<f64>(n, 32, 5);
    let target = init::features::<f64>(n, 16, 7);
    let max = rt::max_threads();

    // Kernel-level check first: spmm_t bits must not move with threads.
    let baseline_bits: Vec<u64> = {
        rt::set_threads(1);
        spmm::spmm_t(&a, &x)
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };

    let mut runs: Vec<(usize, Vec<u64>)> = Vec::new();
    for threads in [1usize, 2, 8] {
        rt::set_threads(threads);
        let bits: Vec<u64> = spmm::spmm_t(&a, &x)
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(
            bits,
            baseline_bits,
            "spmm_t bits changed between 1 and {threads} threads (active {})",
            rt::num_threads()
        );

        let prepared = GnnModel::<f64>::prepare_adjacency(ModelKind::Gat, &a);
        let mut model =
            GnnModel::<f64>::uniform(ModelKind::Gat, &[32, 32, 16], Activation::Tanh, 9);
        let loss = Mse::new(target.clone());
        let mut opt = Sgd::new(0.01);
        let losses: Vec<u64> = (0..5)
            .map(|_| model.train_step(&prepared, &x, &loss, &mut opt).to_bits())
            .collect();
        runs.push((threads, losses));
    }
    rt::set_threads(max);

    let (_, reference) = &runs[0];
    for (threads, losses) in &runs[1..] {
        assert_eq!(
            losses, reference,
            "training losses diverged between 1 and {threads} threads"
        );
    }
}
