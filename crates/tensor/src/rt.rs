//! Persistent worker-pool runtime shared by every kernel in the workspace.
//!
//! The paper's GPU kernels are grid-stride loops: a fixed grid of thread
//! blocks pulls work items off a global index space until it is drained,
//! so load imbalance between items (power-law CSR rows) is absorbed by the
//! scheduler instead of being baked into a static partition. This module
//! is the CPU analogue:
//!
//! * **One pool, spawned once.** Worker threads are created lazily on the
//!   first parallel dispatch and live for the process lifetime (the
//!   scoped-thread fan-out this replaces paid a spawn/join per kernel
//!   call). The pool size comes from `ATGNN_THREADS`, falling back to the
//!   hardware parallelism; [`set_threads`] rescales the *active* count at
//!   runtime (used by the scaling benches and the determinism tests).
//! * **Work descriptors, not thread partitions.** A job is an index range
//!   `0..n` plus a cost shape ([`Cost`]): uniform items split evenly, CSR
//!   rows split by *stored entries* via their `indptr` prefix sums, so one
//!   heavy hub row no longer serializes the whole kernel. The range is cut
//!   into more chunks than threads and workers self-schedule chunks off an
//!   atomic counter, absorbing residual imbalance.
//! * **Deterministic reductions.** Reduction chunking is derived from the
//!   problem size only — never from the thread count — and partials merge
//!   in fixed order, so floating-point results are bit-identical across
//!   `ATGNN_THREADS` settings (see [`fixed_chunks`]).
//! * **Graceful degradation.** With one active thread, zero work, or a
//!   nested dispatch (a kernel called from inside another parallel region,
//!   e.g. by the simulated cluster's rank threads) the job runs inline on
//!   the caller — same chunks, same order, no locks.
//!
//! The only `unsafe` in the workspace lives here, in two well-scoped
//! idioms every CPU runtime uses: erasing the lifetime of a job closure
//! that provably outlives its execution (the submitter blocks until every
//! participant is done), and handing out disjoint `&mut` sub-slices of an
//! output buffer ([`DisjointSlice`]).

use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;

// ---------------------------------------------------------------------
// Schedule facts
// ---------------------------------------------------------------------

/// How a kernel's floating-point accumulation order is pinned down — the
/// *schedule fact* the plan-time determinism analysis
/// (`atgnn::analyze::determinism`) consumes to prove bit-identity across
/// `ATGNN_THREADS` settings.
///
/// Each kernel in the workspace registers the order it guarantees; the
/// analyzer refuses to certify aggregation nodes whose kernel reports
/// [`ReductionOrder::Unspecified`], because their rounding sequence could
/// depend on thread count or chunk boundaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReductionOrder {
    /// Every output element is produced by exactly one chunk, and the
    /// reduction over its inputs runs in ascending stored order (CSR
    /// entry order). Chunk boundaries only move *between* output
    /// elements, so the rounding sequence of each element is a function
    /// of the data alone.
    RowSequential,
    /// A fixed small-lane accumulator grouping (e.g. the 4-lane blocked
    /// dot product) that is a function of the operand slice alone —
    /// independent of which thread evaluates it.
    FixedLanes,
    /// The SIMD-width schedule: eight lane accumulators filled in stored
    /// order and merged by the fixed binary tree
    /// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, remainder folded
    /// sequentially after the tree. Like [`Self::FixedLanes`] this is a
    /// function of the operand slice alone; it is a distinct fact because
    /// the wide kernels (`ATGNN_SIMD=wide`) re-associate relative to the
    /// 4-lane blocked kernels and carry a documented tolerance instead of
    /// bit-identity against the scalar oracle.
    LaneTree,
    /// The reduction range is cut into blocks at boundaries derived from
    /// the problem size alone, each block folds its inputs in ascending
    /// order into its own partial, and the partials are merged in
    /// ascending block order (`gemm::matmul_tn`). Which thread runs a
    /// block never shows in the result.
    FixedBlocks,
    /// No registered order guarantee: the accumulation order may depend
    /// on scheduling, so bit-identity across thread counts cannot be
    /// proven.
    Unspecified,
}

impl ReductionOrder {
    /// Whether this order is provably invariant of the active thread
    /// count and chunk boundaries (everything but [`Self::Unspecified`]).
    pub fn thread_invariant(self) -> bool {
        !matches!(self, ReductionOrder::Unspecified)
    }

    /// Short name used in analysis reports.
    pub fn name(self) -> &'static str {
        match self {
            ReductionOrder::RowSequential => "row-sequential",
            ReductionOrder::FixedLanes => "fixed-lanes",
            ReductionOrder::LaneTree => "lane-tree",
            ReductionOrder::FixedBlocks => "fixed-blocks",
            ReductionOrder::Unspecified => "unspecified",
        }
    }
}

// ---------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------

/// Chunks handed out per active thread for self-scheduled (non-reduction)
/// jobs: enough slack to absorb imbalance the cost model missed, few
/// enough that the atomic counter stays cold.
const CHUNKS_PER_THREAD: usize = 4;

struct JobState {
    /// Bumped per job; workers use it to detect new work.
    epoch: u64,
    /// The lifetime-erased job body (see safety note in [`Pool::run`]).
    body: Option<&'static (dyn Fn() + Sync)>,
    /// Background workers expected to run the current body.
    participants: usize,
    /// Workers that have picked the current body up.
    started: usize,
    /// Workers that have finished running it.
    finished: usize,
    /// Whether any participant panicked.
    panicked: bool,
}

struct Shared {
    state: Mutex<JobState>,
    work_cv: Condvar,
    done_cv: Condvar,
}

/// The persistent worker pool. One global instance is created on first
/// use; kernels never construct their own.
pub struct Pool {
    shared: Arc<Shared>,
    /// Background workers actually spawned (`max_threads - 1`).
    workers: usize,
    /// Pool capacity: background workers + the submitting thread.
    max_threads: usize,
    /// Currently active thread count (`1..=max_threads`).
    active: AtomicUsize,
    /// At most one parallel job runs at a time; contenders run inline.
    run_lock: Mutex<()>,
}

thread_local! {
    /// Set while this thread executes a pool job (worker side), so nested
    /// dispatches degrade to inline execution instead of deadlocking.
    static IN_POOL_JOB: Cell<bool> = const { Cell::new(false) };
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Worker panics are already tracked through `JobState::panicked`;
    // lock poisoning carries no extra information here.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn worker_loop(shared: Arc<Shared>) {
    let mut seen = 0u64;
    let mut state = lock_ignore_poison(&shared.state);
    loop {
        while state.epoch == seen {
            state = shared
                .work_cv
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        seen = state.epoch;
        if state.started < state.participants {
            state.started += 1;
            let body = state.body.expect("rt: job body missing");
            drop(state);
            IN_POOL_JOB.with(|f| f.set(true));
            let ok = catch_unwind(AssertUnwindSafe(body)).is_ok();
            IN_POOL_JOB.with(|f| f.set(false));
            state = lock_ignore_poison(&shared.state);
            if !ok {
                state.panicked = true;
            }
            state.finished += 1;
            if state.finished >= state.participants {
                shared.done_cv.notify_all();
            }
        }
    }
}

impl Pool {
    fn new() -> Self {
        let max_threads = std::env::var("ATGNN_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            });
        let shared = Arc::new(Shared {
            state: Mutex::new(JobState {
                epoch: 0,
                body: None,
                participants: 0,
                started: 0,
                finished: 0,
                panicked: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = max_threads.saturating_sub(1);
        for w in 0..workers {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("atgnn-rt-{w}"))
                .spawn(move || worker_loop(shared))
                .expect("rt: failed to spawn pool worker");
        }
        Self {
            shared,
            workers,
            max_threads,
            active: AtomicUsize::new(max_threads),
            run_lock: Mutex::new(()),
        }
    }

    /// Runs `body` on `participants` background workers plus the calling
    /// thread, returning once every participant has finished. Panics in
    /// any participant are re-raised on the caller after the barrier (the
    /// pool itself survives).
    fn run(&self, participants: usize, body: &(dyn Fn() + Sync)) {
        debug_assert!(participants <= self.workers);
        // SAFETY: the erased reference is only dereferenced by workers
        // between the `work_cv` broadcast below and the `finished ==
        // participants` barrier we block on before returning, so the
        // borrow of `body` (and everything it captures) is still live for
        // every use.
        let erased: &'static (dyn Fn() + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(body) };
        {
            let mut state = lock_ignore_poison(&self.shared.state);
            state.epoch += 1;
            state.body = Some(erased);
            state.participants = participants;
            state.started = 0;
            state.finished = 0;
            state.panicked = false;
            self.shared.work_cv.notify_all();
        }
        // The caller is a participant too.
        let caller_result = catch_unwind(AssertUnwindSafe(body));
        let worker_panicked = {
            let mut state = lock_ignore_poison(&self.shared.state);
            while state.finished < state.participants {
                state = self
                    .shared
                    .done_cv
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
            state.body = None;
            state.panicked
        };
        if let Err(payload) = caller_result {
            resume_unwind(payload);
        }
        if worker_panicked {
            panic!("rt: a pool worker panicked while running a parallel job");
        }
    }
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// The process-wide pool (spawned on first use).
pub fn pool() -> &'static Pool {
    POOL.get_or_init(Pool::new)
}

/// Pool capacity: the value of `ATGNN_THREADS` (or the hardware thread
/// count), fixed at pool creation.
pub fn max_threads() -> usize {
    pool().max_threads
}

/// Currently active thread count (`set_threads` target, `<= max_threads`).
pub fn num_threads() -> usize {
    pool().active.load(Ordering::Relaxed)
}

/// Rescales the number of threads jobs fan out to, clamped to
/// `1..=max_threads()`; returns the effective value. Results of every
/// kernel are bit-identical across settings (reduction chunking is derived
/// from problem sizes, never from this) — only the wall-clock changes.
/// Used by the scaling benches and the determinism tests.
pub fn set_threads(n: usize) -> usize {
    let p = pool();
    let eff = n.clamp(1, p.max_threads);
    p.active.store(eff, Ordering::Relaxed);
    eff
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

/// Runs `body(chunk)` exactly once for every `chunk in 0..n_chunks`,
/// self-scheduled over the active pool threads off an atomic counter.
///
/// Degrades to an in-order inline loop when there is one active thread,
/// when called from inside another pool job, or when the pool is busy
/// (e.g. several simulated ranks dispatch concurrently) — the set of
/// `body` invocations is identical either way.
pub fn dispatch(n_chunks: usize, body: impl Fn(usize) + Sync) {
    if n_chunks == 0 {
        return;
    }
    let p = pool();
    let active = num_threads().min(n_chunks);
    if n_chunks == 1 || active <= 1 || IN_POOL_JOB.with(|f| f.get()) {
        for c in 0..n_chunks {
            body(c);
        }
        return;
    }
    let Ok(_guard) = p.run_lock.try_lock() else {
        for c in 0..n_chunks {
            body(c);
        }
        return;
    };
    let counter = AtomicUsize::new(0);
    let pull = || loop {
        let c = counter.fetch_add(1, Ordering::Relaxed);
        if c >= n_chunks {
            break;
        }
        body(c);
    };
    p.run((active - 1).min(p.workers), &pull);
}

/// The cost shape of an indexed job: how `0..n` should be cut into
/// balanced chunks.
#[derive(Clone, Copy)]
pub enum Cost<'a> {
    /// Every index carries the same work (dense rows, flat elements).
    Uniform,
    /// Index `i` carries `prefix[i + 1] - prefix[i]` units of work — for
    /// CSR kernels this is the row pointer itself, so chunks hold equal
    /// numbers of *stored entries* instead of equal numbers of rows.
    Prefix(&'a [usize]),
}

/// Cuts `0..n` at the given cost boundaries into at most `target` chunks
/// of roughly equal total weight. Boundaries are strictly increasing and
/// cover `0..n` exactly; empty chunks are skipped (a single row heavier
/// than the ideal chunk gets a chunk of its own).
pub fn balanced_boundaries(n: usize, cost: Cost<'_>, target: usize) -> Vec<usize> {
    let target = target.clamp(1, n.max(1));
    let mut bounds = Vec::with_capacity(target + 1);
    bounds.push(0);
    match cost {
        Cost::Uniform => {
            for c in 1..target {
                let b = (n * c).div_ceil(target);
                if b > *bounds.last().expect("bounds non-empty") && b < n {
                    bounds.push(b);
                }
            }
        }
        Cost::Prefix(prefix) => {
            debug_assert_eq!(prefix.len(), n + 1, "cost prefix must have n+1 entries");
            let total = prefix[n] - prefix[0];
            for c in 1..target {
                let want = prefix[0] + (total * c).div_ceil(target);
                // First index whose prefix exceeds the target weight.
                let b = prefix.partition_point(|&p| p < want).min(n);
                if b > *bounds.last().expect("bounds non-empty") && b < n {
                    bounds.push(b);
                }
            }
        }
    }
    bounds.push(n);
    bounds
}

/// The workhorse entry point every kernel funnels through: runs
/// `body(lo, hi)` over contiguous index ranges covering `0..n` exactly
/// once each.
///
/// When `parallel` is false (the caller's work estimate is under its
/// threshold) or only one thread is active, this is a single inline
/// `body(0, n)` call — the sequential fallback lives *here*, so kernels no
/// longer duplicate their loop bodies across a par/seq `if`. Otherwise
/// the range is cut into [`Cost`]-balanced chunks (a few per active
/// thread) and self-scheduled on the pool.
///
/// `body` invocations write disjoint outputs in all kernels, so results
/// do not depend on the chunking; reductions that need a fixed
/// floating-point order use [`fixed_chunks`] + [`dispatch`] instead.
pub fn parallel_for(n: usize, cost: Cost<'_>, parallel: bool, body: impl Fn(usize, usize) + Sync) {
    if n == 0 {
        return;
    }
    if !parallel || num_threads() <= 1 || IN_POOL_JOB.with(|f| f.get()) {
        body(0, n);
        return;
    }
    let bounds = balanced_boundaries(n, cost, num_threads() * CHUNKS_PER_THREAD);
    dispatch(bounds.len() - 1, |c| body(bounds[c], bounds[c + 1]));
}

/// Chunk boundaries for deterministic reductions: derived from the
/// problem size only (`grain` items per chunk, at most `max_chunks`),
/// **never** from the thread count, so partial results and their fixed
/// merge order — and therefore every floating-point bit — are identical
/// for any `ATGNN_THREADS` setting.
pub fn fixed_chunks(n: usize, grain: usize, max_chunks: usize) -> Vec<usize> {
    let grain = grain.max(1);
    let chunks = n.div_ceil(grain).clamp(1, max_chunks.max(1));
    balanced_boundaries(n, Cost::Uniform, chunks)
}

// ---------------------------------------------------------------------
// Disjoint output access
// ---------------------------------------------------------------------

/// A shared handle to a mutable slice whose parallel writers touch
/// provably disjoint ranges (e.g. per-row output blocks of a CSR kernel).
///
/// This is the standard output-buffer idiom of every data-parallel
/// runtime: the borrow checker cannot see that chunked row ranges are
/// disjoint, so the disjointness contract moves into `unsafe` with the
/// range math kept trivial enough to audit.
pub struct DisjointSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _life: PhantomData<&'a mut [T]>,
}

// SAFETY: access is only through `range_mut`, whose contract requires
// concurrently outstanding ranges to be disjoint; `T: Send` then makes
// handing such ranges to other threads sound.
unsafe impl<T: Send> Send for DisjointSlice<'_, T> {}
unsafe impl<T: Send> Sync for DisjointSlice<'_, T> {}

impl<'a, T> DisjointSlice<'a, T> {
    /// Wraps `slice`, exclusively borrowing it for `'a`.
    pub fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _life: PhantomData,
        }
    }

    /// Total length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sub-slice `[lo, hi)`.
    ///
    /// # Safety
    /// Ranges handed out to concurrently running chunk bodies must not
    /// overlap (each kernel guarantees this by indexing with its chunk's
    /// half-open row/entry range). `lo <= hi <= len` is checked.
    #[allow(clippy::mut_from_ref)] // the unsafe contract *is* the aliasing rule
    pub unsafe fn range_mut(&self, lo: usize, hi: usize) -> &mut [T] {
        assert!(
            lo <= hi && hi <= self.len,
            "DisjointSlice: range out of bounds"
        );
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo) }
    }
}

// ---------------------------------------------------------------------
// Per-thread scratch arenas
// ---------------------------------------------------------------------

thread_local! {
    /// One reusable buffer per element type per thread. Kernels borrow a
    /// `Vec<T>` for the duration of a chunk, so per-row accumulators stop
    /// hitting the allocator once each worker's arena has warmed up.
    static SCRATCH: RefCell<HashMap<TypeId, Box<dyn Any>>> = RefCell::new(HashMap::new());
}

/// Bytes of first-level data cache per core, probed once from sysfs
/// (`/sys/devices/system/cpu/cpu0/cache`) and falling back to 32 KiB when
/// the probe is unavailable or reports a zero size (non-Linux,
/// sandboxes). Kernels use this to derive cache-resident tile sizes —
/// notably the attention sweep's column tile
/// (`atgnn_sparse::attention::auto_col_tile`).
pub fn l1d_cache_bytes() -> usize {
    static BYTES: AtomicUsize = AtomicUsize::new(0);
    let cached = BYTES.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let probed = probe_l1d().unwrap_or(32 * 1024);
    BYTES.store(probed, Ordering::Relaxed);
    probed
}

/// Reads the L1 data-cache size from sysfs, if exposed.
fn probe_l1d() -> Option<usize> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    for idx in 0..4 {
        let dir = base.join(format!("index{idx}"));
        let Ok(level) = std::fs::read_to_string(dir.join("level")) else {
            continue;
        };
        let kind = std::fs::read_to_string(dir.join("type")).unwrap_or_default();
        if level.trim() == "1" && kind.trim() != "Instruction" {
            let size = std::fs::read_to_string(dir.join("size")).ok()?;
            return parse_cache_size(&size);
        }
    }
    None
}

/// Parses a sysfs cache `size` (`"48K"`, `"1M"`, `"49152"`) into bytes.
/// A zero or unparseable size is `None`: `0` is [`l1d_cache_bytes`]'s
/// "not probed yet" sentinel, so storing it would re-probe on every call.
fn parse_cache_size(size: &str) -> Option<usize> {
    let size = size.trim();
    let (digits, mult) = if let Some(d) = size.strip_suffix('K') {
        (d, 1024)
    } else if let Some(d) = size.strip_suffix('M') {
        (d, 1024 * 1024)
    } else {
        (size, 1)
    };
    digits
        .parse::<usize>()
        .ok()
        .and_then(|v| v.checked_mul(mult))
        .filter(|&b| b > 0)
}

/// Lends this thread's scratch `Vec<T>` to `f`. The vector keeps its
/// capacity between calls (contents are whatever the previous borrower
/// left — clear/resize before use). Nested borrows of the same `T` get a
/// fresh temporary vector, so re-entrancy is safe.
pub fn with_scratch<T: 'static, R>(f: impl FnOnce(&mut Vec<T>) -> R) -> R {
    let mut buf: Vec<T> = SCRATCH
        .with(|cell| {
            cell.borrow_mut()
                .remove(&TypeId::of::<Vec<T>>())
                .and_then(|b| b.downcast::<Vec<T>>().ok())
        })
        .map(|b| *b)
        .unwrap_or_default();
    let out = f(&mut buf);
    SCRATCH.with(|cell| {
        cell.borrow_mut()
            .insert(TypeId::of::<Vec<T>>(), Box::new(buf));
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn l1d_probe_returns_sane_size() {
        let b = l1d_cache_bytes();
        assert!((4 * 1024..=4 * 1024 * 1024).contains(&b), "{b}");
        assert_eq!(b, l1d_cache_bytes(), "probe must be stable");
    }

    #[test]
    fn cache_size_parse_treats_zero_and_garbage_as_absent() {
        assert_eq!(parse_cache_size("48K"), Some(48 * 1024));
        assert_eq!(parse_cache_size("48K\n"), Some(48 * 1024));
        assert_eq!(parse_cache_size("1M"), Some(1024 * 1024));
        assert_eq!(parse_cache_size("49152"), Some(49152));
        for bad in ["0K", "", "K"] {
            assert_eq!(parse_cache_size(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn dispatch_runs_every_chunk_once() {
        for n in [0usize, 1, 2, 7, 64, 513] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            dispatch(n, |c| {
                hits[c].fetch_add(1, Ordering::SeqCst);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1), "n={n}");
        }
    }

    #[test]
    fn parallel_for_covers_range_exactly() {
        for n in [1usize, 5, 100, 4096] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            parallel_for(n, Cost::Uniform, true, |lo, hi| {
                for h in &hits[lo..hi] {
                    h.fetch_add(1, Ordering::SeqCst);
                }
            });
            assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1), "n={n}");
        }
    }

    #[test]
    fn prefix_boundaries_balance_stored_entries() {
        // 100 rows: row 37 holds 10_000 entries, the rest hold 10 each.
        let mut prefix = vec![0usize; 101];
        for i in 0..100 {
            prefix[i + 1] = prefix[i] + if i == 37 { 10_000 } else { 10 };
        }
        let bounds = balanced_boundaries(100, Cost::Prefix(&prefix), 8);
        assert_eq!(*bounds.first().expect("bounds"), 0);
        assert_eq!(*bounds.last().expect("bounds"), 100);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        // The heavy row must sit alone-ish: its chunk may not also absorb
        // a large share of the remaining rows.
        let heavy = bounds.windows(2).find(|w| w[0] <= 37 && 37 < w[1]);
        let heavy = heavy.expect("row 37 covered");
        assert!(
            heavy[1] - heavy[0] <= 40,
            "heavy row chunk spans {heavy:?} rows"
        );
    }

    #[test]
    fn uniform_boundaries_cover_and_monotone() {
        for n in [1usize, 3, 17, 1000] {
            for target in [1usize, 2, 8, 64] {
                let b = balanced_boundaries(n, Cost::Uniform, target);
                assert_eq!(b[0], 0);
                assert_eq!(*b.last().expect("bounds"), n);
                assert!(b.windows(2).all(|w| w[0] < w[1]));
                assert!(b.len() - 1 <= target.min(n));
            }
        }
    }

    #[test]
    fn fixed_chunks_ignore_thread_count() {
        let before = num_threads();
        let a = fixed_chunks(10_000, 512, 16);
        set_threads(1);
        let b = fixed_chunks(10_000, 512, 16);
        set_threads(before);
        assert_eq!(a, b);
        assert_eq!(*a.last().expect("bounds"), 10_000);
    }

    #[test]
    fn nested_dispatch_runs_inline_without_deadlock() {
        let outer_hits = AtomicU64::new(0);
        let inner_hits = AtomicU64::new(0);
        dispatch(8, |_| {
            outer_hits.fetch_add(1, Ordering::SeqCst);
            dispatch(4, |_| {
                inner_hits.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(outer_hits.load(Ordering::SeqCst), 8);
        assert_eq!(inner_hits.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn pool_survives_job_panic() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            dispatch(4, |c| {
                if c == 2 {
                    panic!("intentional test panic");
                }
            });
        }));
        assert!(result.is_err());
        // The pool must still schedule work afterwards.
        let hits = AtomicUsize::new(0);
        dispatch(16, |_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn disjoint_slice_ranges_write_through() {
        let mut data = vec![0u32; 100];
        {
            let slots = DisjointSlice::new(&mut data);
            assert_eq!(slots.len(), 100);
            assert!(!slots.is_empty());
            parallel_for(10, Cost::Uniform, true, |lo, hi| {
                // SAFETY: chunk ranges are disjoint.
                let part = unsafe { slots.range_mut(lo * 10, hi * 10) };
                for (off, v) in part.iter_mut().enumerate() {
                    *v = (lo * 10 + off) as u32;
                }
            });
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn scratch_is_reused_and_reentrant() {
        let ptr1 = with_scratch::<f64, _>(|buf| {
            buf.clear();
            buf.resize(64, 1.5);
            buf.as_ptr() as usize
        });
        let ptr2 = with_scratch::<f64, _>(|buf| {
            assert!(buf.capacity() >= 64);
            // A nested borrow of the same type must not alias this one.
            with_scratch::<f64, _>(|inner| {
                inner.push(9.0);
            });
            buf.as_ptr() as usize
        });
        assert_eq!(ptr1, ptr2, "scratch buffer should be reused");
        with_scratch::<u8, _>(|buf| buf.push(1));
    }

    #[test]
    fn set_threads_clamps() {
        let before = num_threads();
        assert_eq!(set_threads(0), 1);
        assert_eq!(set_threads(usize::MAX), max_threads());
        set_threads(before);
    }
}
