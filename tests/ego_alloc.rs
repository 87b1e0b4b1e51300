//! A warm ego extraction allocates a constant number of times — the
//! arrays it returns — whatever the ego size. (The extractor it replaced
//! allocated two `Vec`s per expanded node plus hash-table growth: about
//! 1.1 k allocations for a served batch of 16.)
//!
//! Its own test binary: the counting `#[global_allocator]` is
//! process-wide, and only the thread that asks is counted.

use atgnn::{GnnModel, ModelKind};
use atgnn_graphgen::erdos_renyi;
use atgnn_sparse::EgoScratch;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Const-initialized and destructor-free, so reading it inside the
    /// allocator never allocates.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

impl Counting {
    fn note() {
        if COUNTED.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
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

fn allocations_of<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTED.with(|c| c.set(true));
    let out = f();
    COUNTED.with(|c| c.set(false));
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn warm_extraction_allocates_a_constant_number_of_times() {
    let n = 16384;
    let g = GnnModel::<f32>::prepare_adjacency(
        ModelKind::Gat,
        &erdos_renyi::adjacency::<f32>(n, 8 * n, 3),
    );
    let batches: [Vec<usize>; 3] = [
        vec![17],
        (0..4).map(|i| i * 911 + 5).collect(),
        (0..16).map(|i| i * 251 + 1).collect(),
    ];
    let mut scratch = EgoScratch::new();
    // Warm: the scratch has seen the largest result it will serve.
    let _ = g.ego_union_in(&mut scratch, &batches[2], 2, usize::MAX, 7, true);
    let mut counts = Vec::new();
    for seeds in &batches {
        for fringe_rows in [false, true] {
            let (count, ego) = allocations_of(|| {
                g.ego_union_in(&mut scratch, seeds, 2, usize::MAX, 7, fringe_rows)
            });
            counts.push((count, ego.nodes.len()));
        }
    }
    let (smallest, largest) = (counts[0].1, counts[counts.len() - 1].1);
    assert!(
        largest > 10 * smallest,
        "ego sizes {counts:?} do not spread"
    );
    assert!(
        counts.iter().all(|&(c, _)| c == counts[0].0 && c <= 16),
        "(allocations, ego nodes) per extraction: {counts:?}"
    );
}
