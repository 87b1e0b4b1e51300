//! What a fused GAT `train_step` holds at its peak, and keeps after it.
//!
//! The training forward keeps `Ψ` virtual — two floats per row, not the
//! nnz-long `Ψ` and `C` per layer — and the step keeps its buffers in the
//! model: every `n × k` matrix and the nnz-long `∂C` are taken from the
//! model's step buffers and given back where the step is done with them.
//! So the step's working set is what the model owns between steps, and a
//! step on buffers dropped by `with_plan` shows it: it allocates exactly
//! its live-at-peak set, and keeps it. The step's outputs are dead once
//! the loss gradient exists and go back before backward, and `Z^l` goes
//! back once `σ'` is chained into the gradient, so neither is part of the
//! peak.
//!
//! Its own test binary: the counting `#[global_allocator]` is
//! process-wide, and only the thread that asks is counted.

use atgnn::loss::Mse;
use atgnn::optimizer::Sgd;
use atgnn::plan::{ExecPlan, ReorderStrategy};
use atgnn::{GnnModel, ModelKind};
use atgnn_graphgen::kronecker;
use atgnn_sparse::csr;
use atgnn_tensor::{init, Activation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const N: usize = 2048;
const K: usize = 64;
/// Bytes of one tight `N × K` `f32` matrix.
const MATRIX_BYTES: usize = N * K * 4;

/// The counted thread's allocations over a window: what was live at the
/// high-water mark of live bytes, the most nnz-sized buffers live at any
/// one time, and what was still live when the window closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Peak {
    /// Buffers of exactly `nnz · 4` bytes (`f32` values on the pattern)
    /// live at the byte peak.
    nnz_sized: isize,
    /// Buffers of at least [`MATRIX_BYTES`] (the `N × K` matrices) live at
    /// the byte peak.
    matrices: isize,
    /// The most nnz-sized buffers live at once.
    nnz_sized_max: isize,
    /// `(nnz_sized, matrices)` allocated in the window and live at its end.
    kept: (isize, isize),
}

thread_local! {
    /// Const-initialized and destructor-free, so touching them inside the
    /// allocator never allocates. `NNZ_BYTES == 0` means "not counting".
    static NNZ_BYTES: Cell<usize> = const { Cell::new(0) };
    /// Live (bytes, nnz-sized, matrices), relative to the window's start.
    static NOW: Cell<(isize, isize, isize)> = const { Cell::new((0, 0, 0)) };
    /// `NOW` at the byte high-water mark.
    static PEAK: Cell<(isize, isize, isize)> = const { Cell::new((0, 0, 0)) };
    static NNZ_MAX: Cell<isize> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn note(size: usize, sign: isize) {
        let nnz_bytes = NNZ_BYTES.try_with(Cell::get).unwrap_or(0);
        if nnz_bytes == 0 {
            return;
        }
        let (mut bytes, mut nnz, mut mats) = NOW.with(Cell::get);
        bytes += sign * size as isize;
        nnz += sign * isize::from(size == nnz_bytes);
        mats += sign * isize::from(size >= MATRIX_BYTES);
        NOW.with(|c| c.set((bytes, nnz, mats)));
        if bytes > PEAK.with(Cell::get).0 {
            PEAK.with(|c| c.set((bytes, nnz, mats)));
        }
        NNZ_MAX.with(|c| c.set(c.get().max(nnz)));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size(), 1);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size(), 1);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(layout.size(), -1);
        Self::note(new_size, 1);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::note(layout.size(), -1);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// [`Peak`] of `f`'s allocations on this thread, for a graph of `nnz`
/// stored entries.
fn peak_of<R>(nnz: usize, f: impl FnOnce() -> R) -> Peak {
    NOW.with(|c| c.set((0, 0, 0)));
    PEAK.with(|c| c.set((0, 0, 0)));
    NNZ_MAX.with(|c| c.set(0));
    NNZ_BYTES.with(|c| c.set(nnz * 4));
    let out = f();
    NNZ_BYTES.with(|c| c.set(0));
    drop(out);
    let (_, nnz_sized, matrices) = PEAK.with(Cell::get);
    let (_, nnz_kept, matrices_kept) = NOW.with(Cell::get);
    Peak {
        nnz_sized,
        matrices,
        nnz_sized_max: NNZ_MAX.with(Cell::get),
        kept: (nnz_kept, matrices_kept),
    }
}

struct Step {
    a: atgnn_sparse::Csr<f32>,
    x: atgnn_tensor::Dense<f32>,
    loss: Mse<f32>,
    model: GnnModel<f32>,
    opt: Sgd<f32>,
}

/// A 2-layer fused GAT, one (warm-up) step in: plan resolution, the
/// reordering, the transpose index, the pool's scratch and the step
/// buffers are settled.
fn warm(reorder: ReorderStrategy) -> Step {
    let a = GnnModel::<f32>::prepare_adjacency(
        ModelKind::Gat,
        &kronecker::adjacency::<f32>(N, 8 * N, 3),
    );
    assert!(a.nnz() * 4 < MATRIX_BYTES && a.nnz() != N * K);
    let x = init::features::<f32>(N, K, 5);
    let loss = Mse::new(init::features::<f32>(N, K, 7));
    let model = GnnModel::<f32>::uniform(ModelKind::Gat, &[K, K, K], Activation::Relu, 9)
        .with_plan(ExecPlan::fused().with_reorder(reorder));
    let mut s = Step {
        a,
        x,
        loss,
        model,
        opt: Sgd::new(0.01),
    };
    s.step();
    s
}

impl Step {
    fn step(&mut self) -> f32 {
        self.model
            .train_step(&self.a, &self.x, &self.loss, &mut self.opt)
    }

    /// Drops the step buffers (and the cached reordering) by re-planning.
    fn replan(self) -> Self {
        let plan = self.model.plan();
        Step {
            model: self.model.with_plan(plan),
            ..self
        }
    }
}

#[test]
fn fused_gat_training_allocates_no_value_array() {
    let s = warm(ReorderStrategy::Off);
    let before = csr::value_allocs();
    let _ = s.model.forward_cached(&s.a, &s.x);
    assert_eq!(
        csr::value_allocs() - before,
        0,
        "the training forward keeps Ψ and C virtual"
    );
    // Nor does the fused backward fall back onto the materializing kernels
    // (whose `Ψ`, `C` and `∂C` are `Csr`s), not even on a step that has to
    // allocate its buffers. `∂C` is a plain value array: its reuse is
    // pinned by size, below and in `tests/train_alloc.rs`.
    let mut s = s.replan();
    for step in ["cold", "warm"] {
        let before = csr::value_allocs();
        s.step();
        assert_eq!(csr::value_allocs() - before, 0, "{step} step");
    }
}

/// The step peaks in layer 1's backward, forming `∂L/∂H¹ = ∂H' Wᵀ`. Live
/// then: layer 0's context (`H⁰`, `Z⁰` and `H'⁰`), layer 1's `H¹` and
/// `H'¹` (its `Z¹` went back once `σ'` was chained), the gradient `G¹`,
/// `∂H'` and the `∂L/∂H¹` being formed — 8 matrices — and one nnz-sized
/// buffer, the `∂C` the model keeps. A step on dropped buffers allocates
/// exactly that and keeps it; a warm step allocates nothing. A reordering
/// plan adds no matrix: its permuted output and the restored copy the loss
/// read went back before backward. (Re-planning also drops the cached
/// reordering, so under `Degree` the measured step re-derives it: the
/// permuted graph's indices and values and their transpose index are four
/// more nnz-sized arrays, cached with the graph.)
#[test]
fn the_step_peak_holds_no_dead_output_and_at_most_one_nnz_buffer() {
    for (reorder, graph_arrays) in [(ReorderStrategy::Off, 0), (ReorderStrategy::Degree, 4)] {
        let mut s = warm(reorder).replan();
        let peak = peak_of(s.a.nnz(), || s.step());
        let nnz = 1 + graph_arrays;
        let want = Peak {
            nnz_sized: nnz,
            matrices: 8,
            nnz_sized_max: nnz,
            kept: (nnz, 8),
        };
        assert_eq!(peak, want, "{reorder:?}: step on dropped buffers");
        let peak = peak_of(s.a.nnz(), || s.step());
        let none = Peak {
            nnz_sized: 0,
            matrices: 0,
            nnz_sized_max: 0,
            kept: (0, 0),
        };
        assert_eq!(peak, none, "{reorder:?}: warm step");
    }
}
