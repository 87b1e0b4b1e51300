//! A warm `train_step` owns its gradient buffers: `σ'` is chained in
//! place and layer 0 computes no `∂L/∂X`. Against the same step taken
//! through the public per-layer pieces — `forward_cached`, then
//! `ops::hadamard(g, &act.derivative(z))` and `AGnnLayer::backward` for
//! every layer, which is how a caller outside the crate chains `σ'` — a
//! 2-layer GAT makes at least four fewer allocations of a whole `n × k`
//! matrix: two temporaries per chain gone. (`train_step` is counted with
//! its loss gradient and optimizer, the pieces without.)
//!
//! Its own test binary: the counting `#[global_allocator]` is
//! process-wide, and only the thread that asks is counted.

use atgnn::loss::{Loss, Mse};
use atgnn::optimizer::Sgd;
use atgnn::plan::{ExecPlan, ReorderStrategy};
use atgnn::{GnnModel, ModelKind};
use atgnn_graphgen::kronecker;
use atgnn_tensor::{init, ops, Activation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

const N: usize = 2048;
const K: usize = 64;
/// Bytes of one tight `N × K` `f32` matrix; the graph's `nnz`-sized
/// buffers (`Ψ`, scores, the transpose index) stay under it.
const MATRIX_BYTES: usize = N * K * 4;

static MATRIX_ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Const-initialized and destructor-free, so reading it inside the
    /// allocator never allocates.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

impl Counting {
    fn note(bytes: usize) {
        if bytes >= MATRIX_BYTES && COUNTED.try_with(Cell::get).unwrap_or(false) {
            MATRIX_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
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

fn matrix_allocations_of<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = MATRIX_ALLOCATIONS.load(Ordering::Relaxed);
    COUNTED.with(|c| c.set(true));
    let out = f();
    COUNTED.with(|c| c.set(false));
    (MATRIX_ALLOCATIONS.load(Ordering::Relaxed) - before, out)
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

    let (pieces, _) = {
        let grad = loss.gradient(&model.inference(&a, &x));
        matrix_allocations_of(|| {
            let (_, ctxs) = model.forward_cached(&a, &x);
            let mut g = grad;
            for (layer, ctx) in model.layers().iter().zip(&ctxs).rev() {
                g = ops::hadamard(&g, &layer.activation().derivative(&ctx.z));
                g = layer.backward(&a, &ctx.h_in, &ctx.cache, &g).dh_in;
            }
        })
    };
    let (step, _) = matrix_allocations_of(|| model.train_step(&a, &x, &loss, &mut opt));
    assert!(
        step + 4 <= pieces,
        "train_step made {step} matrix allocations, the public pieces {pieces}"
    );
}
