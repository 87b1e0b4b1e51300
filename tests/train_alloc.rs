//! A warm `train_step` owns its gradient buffers: `σ'` is chained in
//! place and layer 0 computes no `∂L/∂X`. Against the same step taken
//! through the public per-layer pieces — `forward_cached`, then
//! `ops::hadamard(g, &act.derivative(z))` and `AGnnLayer::backward` for
//! every layer, which is how a caller outside the crate chains `σ'` — a
//! 2-layer GAT makes at least four fewer allocations of a whole `n × k`
//! matrix: two temporaries per chain gone. (`train_step` is counted with
//! its loss gradient and optimizer, the pieces without.)
//!
//! And a warm fused GAT `train_step` allocates nothing of that size at
//! all, nor a value array on the graph's pattern (`∂C`): the model keeps
//! the step's buffers.
//!
//! Its own test binary: the counting `#[global_allocator]` is
//! process-wide, and only the thread that asks is counted.

use atgnn::loss::{Loss, Mse};
use atgnn::optimizer::Sgd;
use atgnn::plan::{ExecPlan, ReorderStrategy};
use atgnn::{GnnModel, ModelKind};
use atgnn_graphgen::kronecker;
use atgnn_tensor::{init, ops, rt, Activation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const N: usize = 2048;
const K: usize = 64;
/// Bytes of one tight `N × K` `f32` matrix; the graph's `nnz`-sized
/// buffers (`Ψ`, scores, the transpose index) stay under it.
const MATRIX_BYTES: usize = N * K * 4;

thread_local! {
    /// Const-initialized and destructor-free, so touching them inside the
    /// allocator never allocates. Per thread, so the tests of this binary
    /// count only their own allocations. `NNZ_BYTES == 0` means "not
    /// counting".
    static NNZ_BYTES: Cell<usize> = const { Cell::new(0) };
    /// (matrices, nnz-sized buffers) allocated while counting.
    static ALLOCATIONS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

struct Counting;

impl Counting {
    fn note(bytes: usize) {
        let nnz_bytes = NNZ_BYTES.try_with(Cell::get).unwrap_or(0);
        if nnz_bytes == 0 {
            return;
        }
        let _ = ALLOCATIONS.try_with(|c| {
            let (mats, nnz) = c.get();
            c.set((
                mats + usize::from(bytes >= MATRIX_BYTES),
                nnz + usize::from(bytes == nnz_bytes),
            ));
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// How many `N × K` matrices and buffers of exactly `nnz · 4` bytes (`f32`
/// values on a pattern of `nnz` entries) `f` allocates on this thread.
fn allocations_of<R>(nnz: usize, f: impl FnOnce() -> R) -> ((usize, usize), R) {
    ALLOCATIONS.with(|c| c.set((0, 0)));
    NNZ_BYTES.with(|c| c.set(nnz * 4));
    let out = f();
    NNZ_BYTES.with(|c| c.set(0));
    (ALLOCATIONS.with(Cell::get), out)
}

#[test]
fn warm_train_step_drops_the_chain_temporaries() {
    let a = GnnModel::<f32>::prepare_adjacency(
        ModelKind::Gat,
        &kronecker::adjacency::<f32>(N, 8 * N, 3),
    );
    assert!(
        a.nnz() * 8 < MATRIX_BYTES,
        "nnz-sized buffers must stay uncounted"
    );
    let x = init::features::<f32>(N, K, 5);
    let loss = Mse::new(init::features::<f32>(N, K, 7));
    // No reordering, so both sides run the same graph and the step makes
    // no permute/restore copies of its own.
    let mut model = GnnModel::<f32>::uniform(ModelKind::Gat, &[K, K, K], Activation::Relu, 9)
        .with_plan(ExecPlan::fused().with_reorder(ReorderStrategy::Off));
    let mut opt = Sgd::new(0.01);
    // Warm: plan resolution, the transpose index, the pool's scratch.
    model.train_step(&a, &x, &loss, &mut opt);

    let ((pieces, _), _) = {
        let grad = loss.gradient(&model.inference(&a, &x));
        allocations_of(a.nnz(), || {
            let (_, ctxs) = model.forward_cached(&a, &x);
            let mut g = grad;
            for (layer, ctx) in model.layers().iter().zip(&ctxs).rev() {
                g = ops::hadamard(&g, &layer.activation().derivative(&ctx.z));
                g = layer.backward(&a, &ctx.h_in, &ctx.cache, &g).dh_in;
            }
        })
    };
    let ((step, _), _) = allocations_of(a.nnz(), || model.train_step(&a, &x, &loss, &mut opt));
    assert!(
        step + 4 <= pieces,
        "train_step made {step} matrix allocations, the public pieces {pieces}"
    );
}

/// The step buffers serve every `n × k` matrix and the `∂C` of a warm
/// step — under both reorderings (a permuted input, restored output and
/// permuted gradient under `Degree`) and whatever the pool size. `∂C` is
/// a plain value array, not a `Csr`, so it is counted by its size, as the
/// cold step (which allocates it) shows.
#[test]
fn warm_fused_gat_step_allocates_no_matrix_and_no_value_array() {
    let a = GnnModel::<f32>::prepare_adjacency(
        ModelKind::Gat,
        &kronecker::adjacency::<f32>(N, 8 * N, 3),
    );
    assert!(a.nnz() * 4 < MATRIX_BYTES && a.nnz() != N * K);
    let x = init::features::<f32>(N, K, 5);
    let loss = Mse::new(init::features::<f32>(N, K, 7));
    let max = rt::max_threads();
    for reorder in [ReorderStrategy::Off, ReorderStrategy::Degree] {
        for threads in [1, max] {
            rt::set_threads(threads);
            let mut model =
                GnnModel::<f32>::uniform(ModelKind::Gat, &[K, K, K], Activation::Relu, 9)
                    .with_plan(ExecPlan::fused().with_reorder(reorder));
            let mut opt = Sgd::new(0.01);
            // Cold: plan resolution, the reordering, the step buffers.
            let ((_, cold_values), _) =
                allocations_of(a.nnz(), || model.train_step(&a, &x, &loss, &mut opt));
            assert!(
                cold_values >= 1,
                "{reorder:?}: the counter misses the cold step's nnz-sized buffers"
            );
            let (warm, _) = allocations_of(a.nnz(), || model.train_step(&a, &x, &loss, &mut opt));
            assert_eq!(
                warm,
                (0, 0),
                "{reorder:?}, {threads} threads: matrix and value-array allocations"
            );
        }
    }
    rt::set_threads(max);
}
