//! Virtual `Ψ` ≡ materialized `Ψ`, bit for bit.
//!
//! A fused GAT training forward keeps two floats per row instead of the
//! nnz-long `Ψ` and `C` (`attention::attention_forward_gat_stats_into`), and
//! backward recomputes both. This pins the recomputing kernels against
//! the materialized public ones — `forward_gat(FusedOnePass, .., true)`,
//! then `backward_gat`, `spmm_t(Ψ, G)` and `col_sums` — `to_bits`-equal
//! across the wide and scalar-oracle microkernels, tight and padded
//! layouts, `ATGNN_THREADS` ∈ {1, 2, 8}, f32 and f64, awkward widths and
//! hostile graph shapes; and a 3-step `train_step` trajectory against a
//! reference step assembled from those materialized kernels.
//!
//! The kernel-mode and thread-count switches are process-global, so both
//! tests hold one lock, in a test binary of their own.

use std::sync::{Mutex, MutexGuard};

use atgnn::layers::GAT_SLOPE;
use atgnn::loss::{Loss, Mse};
use atgnn::optimizer::Sgd;
use atgnn::plan::{ExecPlan, Layout, ReorderStrategy};
use atgnn::{GnnModel, Gradients, ModelKind};
use atgnn_graphgen::{erdos_renyi, kronecker};
use atgnn_sparse::attention::{self, AttentionExec};
use atgnn_sparse::{masked, norm, spmm, Coo, Csr};
use atgnn_tensor::micro::{self, MicroKernel};
use atgnn_tensor::{gemm, init, rt, Activation, Dense, Scalar};

static LOCK: Mutex<()> = Mutex::new(());

/// The two kernel families: wide, scalar oracle.
const MODES: [MicroKernel; 2] = [MicroKernel::Blocked, MicroKernel::Scalar];

const THREADS: [usize; 3] = [1, 2, 8];

/// Takes the lock; restores the entry modes and thread count on drop.
struct Switches {
    _lock: MutexGuard<'static, ()>,
    micro: MicroKernel,
    threads: usize,
}

impl Switches {
    fn lock() -> Self {
        Self {
            _lock: LOCK.lock().unwrap_or_else(|e| e.into_inner()),
            micro: micro::mode(),
            threads: rt::max_threads(),
        }
    }

    fn set(&self, m: MicroKernel, threads: usize) {
        micro::set_mode(m);
        rt::set_threads(threads);
    }
}

impl Drop for Switches {
    fn drop(&mut self) {
        micro::set_mode(self.micro);
        rt::set_threads(self.threads);
    }
}

trait Bits: Scalar {
    fn bits(self) -> u64;
}

impl Bits for f32 {
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

fn bits<T: Bits>(x: &[T]) -> Vec<u64> {
    x.iter().map(|&v| v.bits()).collect()
}

/// Whole-storage bit equality (padded tails included).
fn same_dense<T: Bits>(a: &Dense<T>, b: &Dense<T>) -> bool {
    a.shape() == b.shape() && a.stride() == b.stride() && bits(a.as_slice()) == bits(b.as_slice())
}

/// The graph families the contract must hold on.
fn graphs<T: Scalar>() -> Vec<(&'static str, Csr<T>)> {
    let mut dups = Coo::<T>::new(120, 120);
    for e in 0..3000u32 {
        let (r, c) = ((e * 7919) % 120, (e * e + 3 * e) % 97);
        dups.push(r, c, T::from_f64(1.0));
    }
    let gaps = Coo::from_edges(
        6,
        6,
        vec![(0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (2, 2), (4, 5)],
    );
    // Row `r` holds `r` entries, 0 ..= 17: every remainder of the
    // four-neighbour dots, the 8-lane loops and the `finish` loop, on
    // both sides of the transposed gather.
    let lengths = Coo::from_edges(
        18,
        18,
        (0..18u32)
            .flat_map(|r| (0..r).map(move |e| (r, (5 * e + r) % 18)))
            .collect(),
    );
    // One hub row of 5 000 entries halfway down: the row scratch grows
    // past every earlier row, and every later row reads a longer one.
    let (n, hub_row) = (5_001u32, 2_500u32);
    let hub = Coo::from_edges(
        n as usize,
        n as usize,
        (0..n)
            .flat_map(|r| {
                let cols: Vec<u32> = if r == hub_row {
                    (0..n).filter(|&c| c != r).collect()
                } else {
                    vec![r, (r * 7 + 1) % n]
                };
                cols.into_iter().map(move |c| (r, c))
            })
            .collect(),
    );
    vec![
        (
            "erdos-renyi",
            norm::add_self_loops(&erdos_renyi::adjacency(200, 1200, 1)),
        ),
        // ≈ 5.8 k stored entries with hub rows: past the sweeps' parallel
        // threshold, and past `spmm_t`'s from k = 16.
        ("power-law", kronecker::adjacency(512, 4096, 2)),
        ("duplicate-heavy", Csr::from_coo(&dups)),
        ("self-loop-only", Csr::identity(50)),
        ("n=1", Csr::identity(1)),
        ("empty rows", Csr::from_coo(&gaps)),
        ("row lengths 0..=17", Csr::from_coo(&lengths)),
        ("5000-entry hub", Csr::from_coo(&hub)),
    ]
}

/// Scores that take both LeakyReLU branches.
fn scores<T: Scalar>(n: usize, mul: usize, shift: f64) -> Vec<T> {
    (0..n)
        .map(|i| T::from_f64(((i * mul) % 37) as f64 / 9.0 - shift))
        .collect()
}

/// One case: the virtual kernels against the materialized ones, at every
/// thread count, in the active kernel mode.
fn check_case<T: Bits>(sw: &Switches, mode: MicroKernel, case: &str, kernels: Kernels<T>) {
    let Kernels { a, u, v, hp, g } = kernels;
    sw.set(mode, rt::max_threads());
    let cached = attention::forward_gat(AttentionExec::FusedOnePass, a, u, v, hp, GAT_SLOPE, true);
    let psi = cached.psi.expect("a cached forward returns Ψ");
    let c_pre = cached.scores.expect("a cached forward returns C");
    let (dc, du) = attention::backward_gat(
        AttentionExec::FusedOnePass,
        a,
        &psi,
        &c_pre,
        hp,
        g,
        GAT_SLOPE,
    );
    let dv = masked::col_sums(&dc);
    let psi_t_g = spmm::spmm_t(&psi, g);
    for threads in THREADS {
        sw.set(mode, threads);
        let tag = format!("{case} t={threads}");
        let mut out = hp.zeros_matching(a.rows(), hp.cols());
        let stats = attention::attention_forward_gat_stats_into(a, u, v, hp, GAT_SLOPE, &mut out);
        assert!(same_dense(&out, &cached.out), "{tag}: forward output");
        // ∂C's values in `a`'s storage order: `dc`'s pattern.
        let mut dc_v = vec![T::zero(); a.nnz()];
        let du_v = attention::attention_backward_gat_virtual_into(
            a, u, v, &stats, hp, g, GAT_SLOPE, &mut dc_v,
        );
        assert_eq!(bits(&dc_v), bits(dc.values()), "{tag}: ∂C");
        assert_eq!(bits(&du_v), bits(&du), "{tag}: ∂u");
        assert_eq!(bits(&masked::col_sums_on(a, &dc_v)), bits(&dv), "{tag}: ∂v");
        let mut psi_t_g_v = g.zeros_matching(a.cols(), g.cols());
        attention::attention_psi_t_gat_virtual_into(a, u, v, &stats, g, GAT_SLOPE, &mut psi_t_g_v);
        assert!(same_dense(&psi_t_g_v, &psi_t_g), "{tag}: Ψᵀ G");
    }
}

struct Kernels<'a, T: Scalar> {
    a: &'a Csr<T>,
    u: &'a [T],
    v: &'a [T],
    hp: &'a Dense<T>,
    g: &'a Dense<T>,
}

fn contract<T: Bits>(sw: &Switches, ty: &str) {
    for (name, a) in graphs::<T>() {
        let n = a.rows();
        let ordinary = (scores::<T>(n, 13, 2.0), scores::<T>(n, 29, 1.6));
        // All-negative score rows: the row max must keep exp finite. Their
        // width does not matter to the softmax, so two widths suffice.
        let negative = (vec![T::from_f64(-1e4); n], scores::<T>(n, 29, 4.0));
        let cases = [
            ("ordinary", &ordinary, &[1usize, 3, 7, 8, 9, 31, 33, 64][..]),
            ("all-negative", &negative, &[3, 33][..]),
        ];
        for (uv_name, (u, v), widths) in cases {
            for &k in widths {
                let (hp, g) = (init::features::<T>(n, k, 3), init::features::<T>(n, k, 4));
                for (hp, g, layout) in [(hp.padded(), g.padded(), "padded"), (hp, g, "tight")] {
                    for mode in MODES {
                        let case = format!("{ty} {name} {uv_name} k={k} {layout} {mode:?}");
                        let kernels = Kernels {
                            a: &a,
                            u,
                            v,
                            hp: &hp,
                            g: &g,
                        };
                        check_case(sw, mode, &case, kernels);
                    }
                }
            }
        }
    }
}

#[test]
fn virtual_psi_kernels_are_bitwise_the_materialized_ones() {
    let sw = Switches::lock();
    contract::<f32>(&sw, "f32");
    contract::<f64>(&sw, "f64");
}

/// One training step assembled from the materialized public kernels:
/// `GatLayer`'s forward and backward with `Ψ` and `C` cached by
/// `forward_gat(FusedOnePass, .., true)` and consumed by `backward_gat`,
/// `col_sums` and `spmm_t(Ψ, G)`.
fn reference_step<T: Scalar>(
    model: &mut GnnModel<T>,
    padded: bool,
    a: &Csr<T>,
    x: &Dense<T>,
    loss: &Mse<T>,
    opt: &mut Sgd<T>,
) -> T {
    let ingest = |m: Dense<T>| if padded { m.padded() } else { m };
    struct Saved<T: Scalar> {
        h_in: Dense<T>,
        hp: Dense<T>,
        psi: Csr<T>,
        c_pre: Csr<T>,
        z: Dense<T>,
    }
    let params = |l: usize| {
        let layer = &model.layers()[l];
        let p = layer.param_slices();
        let w = Dense::from_vec(layer.in_dim(), layer.out_dim(), p[0].to_vec());
        (w, p[1].to_vec(), p[2].to_vec(), layer.activation())
    };
    let mut h = ingest(x.clone());
    let mut saved = Vec::new();
    for l in 0..model.depth() {
        let (w, a_src, a_dst, act) = params(l);
        let hp = gemm::matmul(&h, &w);
        let (u, v) = (gemm::matvec(&hp, &a_src), gemm::matvec(&hp, &a_dst));
        let fa =
            attention::forward_gat(AttentionExec::FusedOnePass, a, &u, &v, &hp, GAT_SLOPE, true);
        let h_next = act.apply(&fa.out);
        saved.push(Saved {
            h_in: std::mem::replace(&mut h, h_next),
            hp,
            psi: fa.psi.expect("cached Ψ"),
            c_pre: fa.scores.expect("cached C"),
            z: fa.out,
        });
    }
    let out = h.into_tight();
    let value = loss.value(&out);
    let mut g = ingest(loss.gradient(&out));
    let mut grads = vec![Gradients::none(); model.depth()];
    for (l, s) in saved.iter().enumerate().rev() {
        let (w, a_src, a_dst, act) = params(l);
        act.chain_assign(&mut g, &s.z);
        let (dc, du) = attention::backward_gat(
            AttentionExec::FusedOnePass,
            a,
            &s.psi,
            &s.c_pre,
            &s.hp,
            &g,
            GAT_SLOPE,
        );
        let dv = masked::col_sums(&dc);
        let (da_src, da_dst) = (gemm::matvec_t(&s.hp, &du), gemm::matvec_t(&s.hp, &dv));
        let mut dhp = spmm::spmm_t(&s.psi, &g);
        for i in 0..dhp.rows() {
            for ((o, &a1), &a2) in dhp.row_mut(i).iter_mut().zip(&a_src).zip(&a_dst) {
                *o += du[i] * a1 + dv[i] * a2;
            }
        }
        grads[l] = Gradients::from_slots(vec![
            gemm::matmul_tn(&s.h_in, &dhp).into_vec(),
            da_src,
            da_dst,
        ]);
        g = gemm::matmul_nt(&dhp, &w);
    }
    model.apply_gradients(&grads, opt);
    value
}

fn param_bits<T: Bits>(model: &GnnModel<T>) -> Vec<u64> {
    model
        .layers()
        .iter()
        .flat_map(|l| bits(&l.param_slices().concat()))
        .collect()
}

fn trajectory<T: Bits>(sw: &Switches, ty: &str) {
    let a = GnnModel::<T>::prepare_adjacency(ModelKind::Gat, &kronecker::adjacency(512, 4096, 5));
    let x = init::features::<T>(512, 17, 6);
    let loss = Mse::new(init::features::<T>(512, 9, 7));
    let build = |layout| {
        GnnModel::<T>::uniform(ModelKind::Gat, &[17, 33, 9], Activation::Relu, 8).with_plan(
            ExecPlan::fused()
                .with_reorder(ReorderStrategy::Off)
                .with_layout(layout),
        )
    };
    for mode in MODES {
        for layout in [Layout::Padded, Layout::Tight] {
            let tag = format!("{ty} {mode:?} {layout:?}");
            sw.set(mode, rt::max_threads());
            let mut reference = build(layout);
            let mut opt = Sgd::new(T::from_f64(0.05));
            let want: Vec<(u64, Vec<u64>)> = (0..3)
                .map(|_| {
                    let padded = layout == Layout::Padded;
                    let value = reference_step(&mut reference, padded, &a, &x, &loss, &mut opt);
                    (value.bits(), param_bits(&reference))
                })
                .collect();
            for threads in THREADS {
                sw.set(mode, threads);
                let mut model = build(layout);
                let mut opt = Sgd::new(T::from_f64(0.05));
                for (step, (value, params)) in want.iter().enumerate() {
                    let got = model.train_step(&a, &x, &loss, &mut opt);
                    assert_eq!(got.bits(), *value, "{tag} t={threads} step {step}: loss");
                    assert!(
                        param_bits(&model) == *params,
                        "{tag} t={threads} step {step}: params"
                    );
                }
            }
        }
    }
}

#[test]
fn train_step_trajectory_is_bitwise_the_materialized_reference() {
    let sw = Switches::lock();
    trajectory::<f32>(&sw, "f32");
    trajectory::<f64>(&sw, "f64");
}
