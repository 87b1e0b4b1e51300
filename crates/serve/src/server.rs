//! The serving runtime: admission, dynamic batching, deadlines,
//! degradation, and warm restart.
//!
//! One coordinator thread (the *worker*) drains a bounded request queue
//! into dynamic batches: a batch closes at `batch_max` requests, when the
//! (rung-scaled) batch window elapses, or on an empty queue whose arrivals
//! are sparser than what is left of the window, whichever first. Each batch
//! becomes one fused attention sweep per layer over the union ego
//! subgraph of the requested nodes, each layer on the row-prefix block it
//! can still reach a seed from — the actual compute runs on the
//! persistent `atgnn_tensor::rt` pool inside
//! `GnnModel::inference_prefix`; the worker only coordinates.
//!
//! Robustness contract (enforced by `tests/serve_runtime.rs` and the
//! chaos phase of the serve bench):
//!
//! * **no unbounded wait anywhere** — clients block in
//!   [`Ticket::wait`] under `deadline + grace`; the worker parks in
//!   `wait_timeout` slices; worker retirement polls `is_finished()`
//!   under a bound (the `unfenced-wait` lint pins this discipline);
//! * **typed shedding** — a full queue yields `ServeError::Overloaded`
//!   at admission, a missed deadline `ServeError::DeadlineExceeded`;
//!   the serve path never panics outward and never waits forever;
//! * **zero lost accepted requests** — the batch is snapshotted into an
//!   in-flight list *before* any fault can kill the worker, so healing
//!   requeues it; across process death, the write-ahead intent log
//!   replays accepted-but-unsettled requests ([`Server::recover`]).

use crate::config::ServeConfig;
use crate::ladder::Ladder;
use crate::stats::ServeStats;
use crate::wal::{self, IntentLog};
use atgnn::checkpoint;
use atgnn::GnnModel;
use atgnn_net::FaultPlan;
use atgnn_sparse::{Csr, EgoScratch};
use atgnn_tensor::Dense;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Worker/club park slice: every blocking wait in the crate is chopped
/// into slices at most this long so shutdown/abort flags are honoured
/// promptly.
const POLL_SLICE: Duration = Duration::from_millis(1);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Typed serving failures. Admission and deadline misses are ordinary
/// outcomes here — the serve path sheds load with values, not panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Admission refused: the bounded queue is full.
    Overloaded { queued: usize, cap: usize },
    /// The request sat past its deadline without being computed.
    DeadlineExceeded,
    /// The server is shutting down (or shut down mid-request).
    Shutdown,
    /// The requested node is not in the served graph.
    InvalidNode { node: usize, nodes: usize },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { queued, cap } => {
                write!(f, "overloaded: {queued} queued >= cap {cap}")
            }
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::Shutdown => write!(f, "server shut down"),
            ServeError::InvalidNode { node, nodes } => {
                write!(f, "node {node} out of range for {nodes}-node graph")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// A successful answer, with provenance: which ladder rung computed it
/// and in which batch — the degradation tests gate rung>=bf16 answers
/// against the f32 oracle tolerance.
#[derive(Clone, Debug, PartialEq)]
pub struct InferResponse {
    /// Output row for the requested node.
    pub values: Vec<f32>,
    /// Ladder rung that served the request (0 = full service).
    pub rung: usize,
    /// Batch index the request rode in.
    pub batch: u64,
}

type Outcome = Result<InferResponse, ServeError>;

struct Slot {
    state: Mutex<Option<Outcome>>,
    cv: Condvar,
}

impl Slot {
    fn empty() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    /// Sets the outcome if none is present yet; returns whether this
    /// call settled the slot. (A healed worker may recompute a request
    /// that was answered right before the crash — the first outcome
    /// wins, and only it is counted.)
    fn fill(&self, outcome: Outcome) -> bool {
        let mut state = lock(&self.state);
        let fresh = state.is_none();
        if fresh {
            *state = Some(outcome);
        }
        drop(state);
        self.cv.notify_all();
        fresh
    }
}

/// A claim on an accepted request. [`Ticket::wait`] blocks — always
/// under a bound — until the outcome arrives.
pub struct Ticket {
    /// Request id (also the WAL intent id).
    pub id: u64,
    node: usize,
    deadline: Instant,
    hard_bound: Instant,
    slot: Arc<Slot>,
}

impl Ticket {
    pub fn node(&self) -> usize {
        self.node
    }

    /// True once an outcome is available (non-blocking).
    pub fn is_ready(&self) -> bool {
        lock(&self.slot.state).is_some()
    }

    /// Waits for the outcome, bounded by the request deadline plus a
    /// grace period that covers one full heal cycle. If nothing arrives
    /// by the hard bound the wait resolves to `DeadlineExceeded` — the
    /// client is never parked forever.
    pub fn wait(&self) -> Outcome {
        let mut state = lock(&self.slot.state);
        loop {
            if let Some(outcome) = state.as_ref() {
                return outcome.clone();
            }
            let now = Instant::now();
            if now >= self.hard_bound {
                return Err(ServeError::DeadlineExceeded);
            }
            let park = (self.hard_bound - now).min(POLL_SLICE * 4);
            let (guard, _) = self
                .slot
                .cv
                .wait_timeout(state, park)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            state = guard;
        }
    }

    /// Time left until the soft (request) deadline.
    pub fn deadline(&self) -> Instant {
        self.deadline
    }
}

#[derive(Clone)]
struct Pending {
    id: u64,
    node: usize,
    deadline: Instant,
    slot: Arc<Slot>,
}

struct Shared {
    cfg: ServeConfig,
    graph: Arc<Csr<f32>>,
    feats: Arc<Dense<f32>>,
    queue: Mutex<VecDeque<Pending>>,
    queue_cv: Condvar,
    /// Snapshot of the batch being computed: taken before the chaos
    /// gate, cleared after every member is settled. Healing requeues it.
    in_flight: Mutex<Vec<Pending>>,
    wal: Mutex<Option<IntentLog>>,
    stats: Mutex<ServeStats>,
    /// Live fault schedule; healing clears the rank faults so a crash
    /// does not recur on the respawned worker.
    faults: Mutex<FaultPlan>,
    /// Current ladder rung, mirrored out of the worker so a healed
    /// worker resumes where its predecessor degraded to.
    rung: AtomicUsize,
    shutdown: AtomicBool,
    /// Watchdog fence: a hung worker observes this and panics out.
    abort: AtomicBool,
    worker_live: AtomicBool,
    worker_crashed: AtomicBool,
    last_progress: Mutex<Instant>,
}

impl Shared {
    fn touch_progress(&self) {
        *lock(&self.last_progress) = Instant::now();
    }
}

type ModelFactory = dyn Fn() -> GnnModel<f32> + Send + Sync;

/// The serving runtime. See the module docs for the contract.
pub struct Server {
    shared: Arc<Shared>,
    factory: Arc<ModelFactory>,
    worker: Mutex<Option<JoinHandle<()>>>,
    next_id: AtomicU64,
}

impl Server {
    /// Boots a fresh server: writes the checkpoint image (when
    /// configured), truncates the intent log, and spawns the worker.
    ///
    /// `factory` builds the model skeleton (architecture + plan); when a
    /// checkpoint path is configured the skeleton's weights are replaced
    /// by the image, which `start` writes from a fresh factory build.
    pub fn start(
        cfg: ServeConfig,
        factory: impl Fn() -> GnnModel<f32> + Send + Sync + 'static,
        graph: Csr<f32>,
        feats: Dense<f32>,
    ) -> std::io::Result<Self> {
        let factory: Arc<ModelFactory> = Arc::new(factory);
        if let Some(path) = &cfg.checkpoint {
            checkpoint::save(&factory(), path)
                .map_err(|e| std::io::Error::other(format!("{e:?}")))?;
        }
        Self::boot(cfg, factory, graph, feats, 0)
    }

    /// Warm restart: replays the intent log of a dead server process,
    /// rebuilds the model from the checkpoint image, and re-accepts
    /// every accepted-but-unsettled request. Returns the server plus one
    /// ticket per replayed intent, in original admission order.
    pub fn recover(
        cfg: ServeConfig,
        factory: impl Fn() -> GnnModel<f32> + Send + Sync + 'static,
        graph: Csr<f32>,
        feats: Dense<f32>,
    ) -> std::io::Result<(Self, Vec<Ticket>)> {
        let pending = match &cfg.wal {
            Some(path) => wal::replay(path)?,
            None => Vec::new(),
        };
        let factory: Arc<ModelFactory> = Arc::new(factory);
        let server = Self::boot(cfg, factory, graph, feats, pending.len() as u64)?;
        let mut tickets = Vec::with_capacity(pending.len());
        for &(_, node) in &pending {
            // Replayed intents were admitted once already; they bypass
            // the admission bound and restart their deadline clock.
            match server.enqueue(node as usize, true) {
                Ok(t) => tickets.push(t),
                Err(e) => return Err(std::io::Error::other(format!("replay rejected: {e}"))),
            }
        }
        Ok((server, tickets))
    }

    fn boot(
        cfg: ServeConfig,
        factory: Arc<ModelFactory>,
        graph: Csr<f32>,
        feats: Dense<f32>,
        replayed: u64,
    ) -> std::io::Result<Self> {
        assert_eq!(
            graph.rows(),
            feats.rows(),
            "feature rows must match graph nodes"
        );
        let wal_handle = match &cfg.wal {
            Some(path) => Some(IntentLog::create(path)?),
            None => None,
        };
        let faults = cfg.faults.clone();
        let stats = ServeStats {
            wal_replayed: replayed,
            ..ServeStats::default()
        };
        let shared = Arc::new(Shared {
            cfg,
            graph: Arc::new(graph),
            feats: Arc::new(feats),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            in_flight: Mutex::new(Vec::new()),
            wal: Mutex::new(wal_handle),
            stats: Mutex::new(stats),
            faults: Mutex::new(faults),
            rung: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            worker_live: AtomicBool::new(false),
            worker_crashed: AtomicBool::new(false),
            last_progress: Mutex::new(Instant::now()),
        });
        let server = Self {
            shared,
            factory,
            worker: Mutex::new(None),
            next_id: AtomicU64::new(1),
        };
        server.spawn_worker();
        Ok(server)
    }

    fn build_model(factory: &Arc<ModelFactory>, cfg: &ServeConfig) -> GnnModel<f32> {
        let mut model = factory();
        if let Some(path) = &cfg.checkpoint {
            // Restore the image; a missing/corrupt image falls back to
            // the factory weights (the serve path degrades, never dies).
            let _ = checkpoint::load(&mut model, path);
        }
        model
    }

    fn spawn_worker(&self) {
        let shared = Arc::clone(&self.shared);
        let factory = Arc::clone(&self.factory);
        shared.abort.store(false, Ordering::SeqCst);
        shared.worker_crashed.store(false, Ordering::SeqCst);
        shared.worker_live.store(true, Ordering::SeqCst);
        shared.touch_progress();
        let handle = std::thread::Builder::new()
            .name("atgnn-serve-worker".into())
            .spawn(move || {
                let model = Server::build_model(&factory, &shared.cfg);
                let outcome = catch_unwind(AssertUnwindSafe(|| worker_main(&shared, model)));
                if outcome.is_err() {
                    shared.worker_crashed.store(true, Ordering::SeqCst);
                }
                shared.worker_live.store(false, Ordering::SeqCst);
            })
            .expect("spawn serve worker thread");
        *lock(&self.worker) = Some(handle);
    }

    /// Submits a per-node inference request. Returns a [`Ticket`] on
    /// admission, or a typed refusal — never blocks beyond the queue
    /// lock, never panics for load reasons.
    pub fn submit(&self, node: usize) -> Result<Ticket, ServeError> {
        self.heal_if_needed();
        self.enqueue(node, false)
    }

    fn enqueue(&self, node: usize, replayed: bool) -> Result<Ticket, ServeError> {
        let sh = &self.shared;
        if sh.shutdown.load(Ordering::SeqCst) {
            return Err(ServeError::Shutdown);
        }
        let nodes = sh.graph.rows();
        if node >= nodes {
            return Err(ServeError::InvalidNode { node, nodes });
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let now = Instant::now();
        let deadline = now + sh.cfg.deadline;
        // Grace covers one full heal cycle (watchdog fence + respawn +
        // recompute) so a healed answer still lands inside the bound.
        let hard_bound = deadline + sh.cfg.deadline + sh.cfg.watchdog * 8;
        let slot = Slot::empty();
        let pending = Pending {
            id,
            node,
            deadline,
            slot: Arc::clone(&slot),
        };
        {
            let mut queue = lock(&sh.queue);
            if !replayed && queue.len() >= sh.cfg.queue_cap {
                let queued = queue.len();
                drop(queue);
                lock(&sh.stats).shed += 1;
                return Err(ServeError::Overloaded {
                    queued,
                    cap: sh.cfg.queue_cap,
                });
            }
            // The intent becomes durable before the request becomes
            // visible — a crash after this point cannot lose it.
            if let Some(log) = lock(&sh.wal).as_mut() {
                let _ = log.accept(id, node as u64);
            }
            queue.push_back(pending);
            lock(&sh.stats).accepted += 1;
        }
        sh.queue_cv.notify_all();
        Ok(Ticket {
            id,
            node,
            deadline,
            hard_bound,
            slot,
        })
    }

    /// Fences a hung worker and respawns a dead one, requeueing the
    /// in-flight batch. Called transparently by `submit` and `drain`;
    /// public so callers with no traffic can still drive healing.
    /// Returns true if a worker was respawned.
    pub fn heal_if_needed(&self) -> bool {
        let sh = &self.shared;
        if !sh.cfg.auto_heal || sh.shutdown.load(Ordering::SeqCst) {
            return false;
        }
        if sh.worker_live.load(Ordering::SeqCst) {
            let stalled = lock(&sh.last_progress).elapsed() > sh.cfg.watchdog;
            let busy = !lock(&sh.queue).is_empty() || !lock(&sh.in_flight).is_empty();
            if stalled && busy && !sh.abort.load(Ordering::SeqCst) {
                // The worker is live but not progressing while work is
                // queued: fence it. Its bounded waits observe the flag
                // and panic out; the next branch respawns it.
                sh.abort.store(true, Ordering::SeqCst);
                lock(&sh.stats).hangs_fenced += 1;
            }
            if sh.abort.load(Ordering::SeqCst) {
                let fence_start = Instant::now();
                while sh.worker_live.load(Ordering::SeqCst)
                    && fence_start.elapsed() < sh.cfg.watchdog * 8
                {
                    std::thread::sleep(POLL_SLICE);
                }
            }
        }
        if sh.worker_live.load(Ordering::SeqCst) {
            return false;
        }
        // Worker is gone. Requeue its in-flight batch at the front
        // (oldest requests first) — this is what makes an in-process
        // crash lose nothing.
        let crashed = sh.worker_crashed.load(Ordering::SeqCst);
        let stranded: Vec<Pending> = lock(&sh.in_flight).drain(..).collect();
        {
            let mut queue = lock(&sh.queue);
            for pending in stranded.into_iter().rev() {
                queue.push_front(pending);
            }
        }
        {
            // One-shot rank faults must not recur on the healed worker —
            // same protocol as the distributed supervisor.
            let mut faults = lock(&sh.faults);
            *faults = faults.clone().without_rank_faults();
        }
        if crashed {
            lock(&sh.stats).crashes_healed += 1;
        }
        // The old thread has exited; drop its handle (no join — the
        // unfenced-wait lint bans it) and spawn a replacement.
        let _ = lock(&self.worker).take();
        self.spawn_worker();
        true
    }

    /// Waits (bounded) until every accepted request has settled and the
    /// queue is empty, driving healing while it waits. Returns whether
    /// the server fully drained within `timeout`.
    pub fn drain(&self, timeout: Duration) -> bool {
        let start = Instant::now();
        loop {
            self.heal_if_needed();
            let idle = lock(&self.shared.queue).is_empty()
                && lock(&self.shared.in_flight).is_empty()
                && lock(&self.shared.stats).outstanding() == 0;
            if idle {
                return true;
            }
            if start.elapsed() >= timeout {
                return false;
            }
            std::thread::sleep(POLL_SLICE);
        }
    }

    /// Lifetime counters snapshot.
    pub fn stats(&self) -> ServeStats {
        let mut stats = lock(&self.shared.stats).clone();
        stats.current_rung = self.shared.rung.load(Ordering::SeqCst);
        stats
    }

    /// Current degradation rung (0 = full service).
    pub fn rung(&self) -> usize {
        self.shared.rung.load(Ordering::SeqCst)
    }

    /// The served graph.
    pub fn graph(&self) -> &Csr<f32> {
        &self.shared.graph
    }

    /// Simulates process death for warm-restart tests: settles nothing
    /// and writes no `DONE` records, so the intent log keeps its
    /// accepted-but-unsettled entries for [`Server::recover`] to
    /// replay. A still-live worker observes the shutdown flag and
    /// exits; outstanding client tickets resolve through their hard
    /// bound. The server's shared state is deliberately leaked.
    pub fn abandon(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
        std::mem::forget(self);
    }

    /// Stops the worker and settles any still-queued requests with
    /// `ServeError::Shutdown`. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        let sh = &self.shared;
        if sh.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        sh.queue_cv.notify_all();
        let start = Instant::now();
        let bound = sh.cfg.watchdog * 8 + Duration::from_secs(2);
        while sh.worker_live.load(Ordering::SeqCst) && start.elapsed() < bound {
            std::thread::sleep(POLL_SLICE);
        }
        let mut stranded: Vec<Pending> = lock(&sh.queue).drain(..).collect();
        stranded.extend(lock(&sh.in_flight).drain(..));
        let mut cancelled = 0u64;
        for pending in stranded {
            if pending.slot.fill(Err(ServeError::Shutdown)) {
                cancelled += 1;
                if let Some(log) = lock(&sh.wal).as_mut() {
                    let _ = log.done(pending.id);
                }
            }
        }
        if cancelled > 0 {
            lock(&sh.stats).cancelled += cancelled;
        }
        let _ = lock(&self.worker).take();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Parks until a request arrives; `None` means shutdown. Panics out if
/// fenced by the watchdog.
fn wait_first(sh: &Shared) -> Option<Pending> {
    let mut queue = lock(&sh.queue);
    loop {
        if let Some(pending) = queue.pop_front() {
            return Some(pending);
        }
        if sh.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        if sh.abort.load(Ordering::SeqCst) {
            drop(queue);
            panic!("serve worker fenced by watchdog while idle");
        }
        sh.touch_progress();
        let (guard, _) = sh
            .queue_cv
            .wait_timeout(queue, POLL_SLICE * 4)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        queue = guard;
    }
}

/// Why a batch stopped collecting (the `closed_*` counters of [`ServeStats`]).
enum Closed {
    Full,
    Window,
    Idle,
}

/// Tops up an open batch until `batch_max`, until the window closes, or —
/// on an empty queue — until nobody is expected inside it: the latest
/// inter-arrival gap exceeds what is left of the window. A deadline is its
/// arrival plus `cfg.deadline`, so deadline differences are the gaps;
/// `prev` is the deadline of the request admitted before `batch[0]`,
/// unknown for a worker's first request, which waits the window out.
fn collect_batch(
    sh: &Shared,
    batch: &mut Vec<Pending>,
    window: Duration,
    batch_max: usize,
    prev: Option<Instant>,
) -> Closed {
    let opened = Instant::now();
    let mut queue = lock(&sh.queue);
    while batch.len() < batch_max {
        if let Some(pending) = queue.pop_front() {
            batch.push(pending);
            continue;
        }
        let elapsed = opened.elapsed();
        if elapsed >= window {
            return Closed::Window;
        }
        let before = match batch.len() {
            1 => prev,
            len => Some(batch[len - 2].deadline),
        };
        // A requeued or replayed request can be older than its
        // predecessor: that gap saturates to zero and the window stands.
        let gap = before.map(|b| batch[batch.len() - 1].deadline.saturating_duration_since(b));
        if gap.is_some_and(|g| g > window - elapsed) || sh.shutdown.load(Ordering::SeqCst) {
            return Closed::Idle;
        }
        if sh.abort.load(Ordering::SeqCst) {
            drop(queue);
            panic!("serve worker fenced by watchdog while batching");
        }
        let park = (window - elapsed).min(POLL_SLICE);
        let (guard, _) = sh
            .queue_cv
            .wait_timeout(queue, park)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        queue = guard;
    }
    Closed::Full
}

/// The chaos gate: routes the worker through the fault plan's fates at
/// the batch boundary — injected delay, a scheduled hang (fenced by the
/// watchdog or a hard cap), or a scheduled crash. The serve runtime is
/// single-"rank": rank 0 is the worker, supersteps are batch indices,
/// and the message-fate stream for channel 0→1 supplies the delays.
fn chaos_gate(sh: &Shared, batch_idx: u64) {
    let plan = lock(&sh.faults).clone();
    if !plan.is_active() {
        return;
    }
    if let Some(crash) = plan.crash {
        if crash.rank == 0 && batch_idx >= crash.superstep {
            panic!("injected fault: serve worker crash at batch {batch_idx}");
        }
    }
    if let Some(hang) = plan.hang {
        if hang.rank == 0 && batch_idx >= hang.superstep {
            let start = Instant::now();
            let hard_cap = sh.cfg.watchdog * 16 + Duration::from_secs(1);
            loop {
                if sh.abort.load(Ordering::SeqCst) {
                    panic!("injected fault: hung serve worker fenced at batch {batch_idx}");
                }
                if start.elapsed() >= hard_cap {
                    panic!("injected fault: hung serve worker hit the hard cap");
                }
                std::thread::sleep(POLL_SLICE);
            }
        }
    }
    let fate = plan.fate(0, 1, batch_idx);
    if fate.delay_us > 0 {
        lock(&sh.stats).delays_injected += 1;
        std::thread::sleep(Duration::from_micros(fate.delay_us as u64));
    }
}

fn worker_main(sh: &Shared, mut model: GnnModel<f32>) {
    let cfg = &sh.cfg;
    let base_plan = model.plan();
    let mut ladder = Ladder::new(cfg.high_water, cfg.low_water, cfg.patience)
        .at_rung(sh.rung.load(Ordering::SeqCst));
    // The plan actually applied to the model; refreshed lazily when the
    // ladder moves across the bf16 boundary.
    let mut applied_precision = None;
    // Layer `l` of `L` reaches a seed's output from at most `L - l` hops
    // away, so deeper levels than the model has layers are never read;
    // with fewer, the early layers run over the whole ego graph and read
    // the fringe nodes' self-edge rows.
    let hops = cfg.hops.min(model.depth());
    let fringe_rows = cfg.hops < model.depth();
    let mut scratch = EgoScratch::new();
    let mut batch_idx: u64 = 0;
    // Deadline of the newest request this worker has batched: the next
    // batch measures its first inter-arrival gap against it.
    let mut prev_deadline = None;
    loop {
        let Some(first) = wait_first(sh) else {
            return; // shutdown
        };
        let mut batch = vec![first];
        let closed = collect_batch(
            sh,
            &mut batch,
            ladder.window(cfg.batch_window),
            cfg.batch_max,
            prev_deadline,
        );
        prev_deadline = batch.last().map(|p| p.deadline);
        // Publish the batch before the chaos gate: whatever kills the
        // worker from here on, healing finds the full batch in-flight.
        *lock(&sh.in_flight) = batch.clone();
        chaos_gate(sh, batch_idx);

        let rung = ladder.rung();
        let precision = ladder.precision();
        if applied_precision != Some(precision) {
            model = model.with_plan(base_plan.with_precision(precision));
            applied_precision = Some(precision);
        }

        // Requests already past their deadline are settled typed, not
        // computed — a queue that went stale does not poison the batch.
        let now = Instant::now();
        let (live, dead): (Vec<Pending>, Vec<Pending>) =
            batch.into_iter().partition(|p| now < p.deadline);
        let mut expired = 0u64;
        for pending in &dead {
            if pending.slot.fill(Err(ServeError::DeadlineExceeded)) {
                expired += 1;
                if let Some(log) = lock(&sh.wal).as_mut() {
                    let _ = log.done(pending.id);
                }
            }
        }

        let mut answered = 0u64;
        let mut late = 0u64;
        if !live.is_empty() {
            let seeds: Vec<usize> = live.iter().map(|p| p.node).collect();
            let fanout = ladder.fanout(cfg.fanout, cfg.degraded_fanout);
            let ego =
                sh.graph
                    .ego_union_in(&mut scratch, &seeds, hops, fanout, cfg.seed, fringe_rows);
            // Rows `0..levels[0]` of the output: the distinct seeds.
            let out =
                model.inference_prefix(&ego.csr, sh.feats.gather_rows(&ego.nodes), &ego.levels);
            let computed_at = Instant::now();
            for (pending, &center) in live.iter().zip(ego.centers.iter()) {
                let response = InferResponse {
                    values: out.row(center).to_vec(),
                    rung,
                    batch: batch_idx,
                };
                if pending.slot.fill(Ok(response)) {
                    answered += 1;
                    if computed_at >= pending.deadline {
                        late += 1;
                    }
                    if let Some(log) = lock(&sh.wal).as_mut() {
                        let _ = log.done(pending.id);
                    }
                }
            }
        }

        lock(&sh.in_flight).clear();
        batch_idx += 1;
        sh.touch_progress();

        let occupancy = {
            let queue = lock(&sh.queue);
            queue.len() as f64 / cfg.queue_cap.max(1) as f64
        };
        let moved = ladder.observe(occupancy);
        sh.rung.store(ladder.rung(), Ordering::SeqCst);
        {
            let mut stats = lock(&sh.stats);
            stats.batches += 1;
            match closed {
                Closed::Full => stats.closed_full += 1,
                Closed::Window => stats.closed_window += 1,
                Closed::Idle => stats.closed_idle += 1,
            }
            stats.batched_requests += answered;
            stats.answered += answered;
            stats.late += late;
            stats.expired += expired;
            stats.current_rung = ladder.rung();
            match moved {
                Some((from, to)) if to > from => stats.step_down += 1,
                Some(_) => stats.step_up += 1,
                None => {}
            }
        }
    }
}
