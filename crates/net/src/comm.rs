//! The per-rank communicator.
//!
//! [`Comm`] provides MPI-like point-to-point messaging and the collectives
//! the paper's distribution scheme uses — broadcast along grid columns,
//! reduction along grid rows, allreduce of replicated parameter gradients
//! — over arbitrary rank subsets ("groups"), since the 2D process grid
//! communicates within rows and columns.
//!
//! Every transmitted payload is accounted through [`crate::stats`];
//! collectives are built *on top of* point-to-point sends so their cost is
//! measured, not assumed: broadcast and reduce use binomial trees
//! (`O(log g)` supersteps, matching the paper's Section 7.1 analysis),
//! allgather and all-to-all are direct exchanges (one superstep).
//!
//! # Self-healing transport
//!
//! Frames carry a sequence number and a header checksum. When a
//! [`crate::fault::FaultPlan`] injects message faults, [`Comm::recv`]
//! heals them transparently: duplicates are discarded by sequence number,
//! corrupt frames fail checksum verification and are re-fetched from the
//! sender's retained in-flight copy (NACK + retransmission, with the
//! resend's bytes charged to the sender), and dropped frames are
//! recovered the same way after a bounded exponential-backoff schedule.
//! Every `recv` is deadline-bounded (the plan's `timeout_ms`): a frame
//! that never materializes — a crashed or hung peer — surfaces as a
//! rank failure instead of a deadlock. Healing restores the *exact*
//! payload the sender produced and never changes the order in which a
//! receiver consumes sources, so collective reduction order — and
//! therefore every floating-point result — is bit-identical to the
//! fault-free run. With no fault plan the sequence/retransmit machinery
//! is skipped entirely: no extra bytes, no extra supersteps.

use crate::fault::{frame_checksum, FaultState, StoredFrame};
use crate::stats::{Counters, FaultEvent};
use crate::wire::Wire;
use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often a blocked receiver wakes to poll the abort flag and the
/// retransmit schedule.
const POLL_SLICE: Duration = Duration::from_millis(2);

/// First retransmit consultation happens this long after a receiver
/// starts waiting; subsequent consultations back off exponentially.
const RESEND_BASE: Duration = Duration::from_millis(4);

/// Default `recv` deadline when the plan sets no `timeout_ms`.
const DEFAULT_TIMEOUT_MS: u64 = 30_000;

/// Default bounded retransmit attempts when the plan sets no `retries`.
const DEFAULT_RETRIES: u32 = 6;

/// One frame on a simulated channel. `seq` and `checksum` exist for the
/// self-healing protocol; on the fault-free path they are written but
/// never inspected (and they are envelope, not payload, so they cost
/// zero accounted bytes — matching the paper's word-counting
/// convention).
pub(crate) struct Frame {
    tag: u32,
    seq: u64,
    checksum: u64,
    /// Injected network latency the receiver honours before processing.
    delay_us: u32,
    payload: Box<dyn Any + Send>,
}

/// State shared by every rank of one cluster run: the abort flag the
/// supervisor raises when a rank fails, the fault-injection state
/// (plan + retransmit store) when a plan is active, and the plan's
/// resolved communication deadline.
pub(crate) struct RunShared {
    pub abort: AtomicBool,
    pub fault: Option<FaultState>,
    /// Total deadline for one blocked `recv` or `barrier`.
    pub timeout: Duration,
    /// Bounded retransmit consultations per `recv`.
    pub retries: u32,
}

impl RunShared {
    pub fn new(plan: &crate::fault::FaultPlan) -> Self {
        Self {
            abort: AtomicBool::new(false),
            fault: plan.is_active().then(|| FaultState::new(plan.clone())),
            timeout: Duration::from_millis(plan.timeout_ms.unwrap_or(DEFAULT_TIMEOUT_MS)),
            retries: plan.retries.unwrap_or(DEFAULT_RETRIES),
        }
    }
}

/// An abortable, reusable rendezvous barrier. `std::sync::Barrier`
/// blocks forever if a participant dies; this one wakes on the run's
/// abort flag so surviving ranks fail fast instead of deadlocking.
pub(crate) struct AbortableBarrier {
    n: usize,
    state: std::sync::Mutex<(u64, usize)>, // (generation, arrived)
    cv: std::sync::Condvar,
}

impl AbortableBarrier {
    pub fn new(n: usize) -> Self {
        Self {
            n,
            state: std::sync::Mutex::new((0, 0)),
            cv: std::sync::Condvar::new(),
        }
    }

    /// Blocks until all `n` participants arrive; panics if `abort` is
    /// raised while waiting or the deadline elapses (a hung peer must
    /// not deadlock the survivors).
    pub fn wait(&self, abort: &AtomicBool, deadline: Duration) {
        let start = Instant::now();
        let mut guard = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let generation = guard.0;
        guard.1 += 1;
        if guard.1 == self.n {
            guard.0 += 1;
            guard.1 = 0;
            self.cv.notify_all();
            return;
        }
        while guard.0 == generation {
            if abort.load(Ordering::Relaxed) {
                panic!("barrier aborted: a peer rank failed");
            }
            if start.elapsed() >= deadline {
                panic!("barrier timeout after {deadline:?}: a peer rank is not making progress");
            }
            let (g, _timeout) = self
                .cv
                .wait_timeout(guard, POLL_SLICE)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            guard = g;
        }
    }
}

/// The communicator handle owned by one rank.
pub struct Comm {
    rank: usize,
    size: usize,
    senders: Arc<Vec<Vec<Sender<Frame>>>>,
    receivers: Vec<Receiver<Frame>>,
    barrier: Arc<AbortableBarrier>,
    counters: Arc<Counters>,
    shared: Arc<RunShared>,
    phase: RefCell<String>,
    /// Next sequence number per destination (message-fault mode only).
    send_seq: RefCell<Vec<u64>>,
    /// Next expected sequence number per source (message-fault mode).
    recv_seq: RefCell<Vec<u64>>,
    /// Out-of-order frames parked until their sequence gap heals.
    stash: RefCell<Vec<BTreeMap<u64, Frame>>>,
}

fn ceil_log2(g: usize) -> u64 {
    (usize::BITS - g.saturating_sub(1).leading_zeros()) as u64
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        senders: Arc<Vec<Vec<Sender<Frame>>>>,
        receivers: Vec<Receiver<Frame>>,
        barrier: Arc<AbortableBarrier>,
        counters: Arc<Counters>,
        shared: Arc<RunShared>,
    ) -> Self {
        Self {
            rank,
            size,
            senders,
            receivers,
            barrier,
            counters,
            shared,
            phase: RefCell::new(String::from("default")),
            send_seq: RefCell::new(vec![0; size]),
            recv_seq: RefCell::new(vec![0; size]),
            stash: RefCell::new((0..size).map(|_| BTreeMap::new()).collect()),
        }
    }

    /// This rank's id in `[0, size)`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Tags subsequent traffic with a phase label for the per-phase
    /// byte breakdown.
    pub fn set_phase(&self, phase: &str) {
        *self.phase.borrow_mut() = phase.to_string();
    }

    /// Snapshot of the run's retransmit store (resident/high-water
    /// bytes, cap, evictions). `None` when the plan injects no message
    /// faults — the fault-free path keeps no store at all.
    pub fn retransmit_stats(&self) -> Option<crate::fault::RetransmitStats> {
        let fault = self.message_faults()?;
        let store = fault
            .store
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        Some(store.stats())
    }

    /// The message-fault state, when the run's plan injects any.
    fn message_faults(&self) -> Option<&FaultState> {
        self.shared
            .fault
            .as_ref()
            .filter(|f| f.plan.has_message_faults())
    }

    fn record_fault(&self, rank: usize, event: FaultEvent) {
        self.counters
            .record_fault(rank, &self.phase.borrow(), event);
    }

    /// Charges supersteps and fires any scheduled rank fault.
    fn account_steps(&self, steps: u64) {
        self.counters.record_steps(self.rank, steps);
        let Some(fault) = &self.shared.fault else {
            return;
        };
        let cum = self.counters.supersteps[self.rank].load(Ordering::Relaxed);
        if let Some(c) = fault.plan.crash {
            if c.rank == self.rank && cum >= c.superstep {
                panic!(
                    "injected fault: rank {} crash at superstep {cum} (scheduled at {})",
                    self.rank, c.superstep
                );
            }
        }
        if let Some(h) = fault.plan.hang {
            if h.rank == self.rank && cum >= h.superstep {
                // Hang until the supervisor aborts the run (a real hung
                // worker is eventually fenced by its peers' timeouts).
                loop {
                    if self.shared.abort.load(Ordering::Relaxed) {
                        panic!(
                            "injected fault: rank {} hang at superstep {cum} (scheduled at {}), \
                             aborted by supervisor",
                            self.rank, h.superstep
                        );
                    }
                    std::thread::sleep(POLL_SLICE);
                }
            }
        }
    }

    fn push_frame(&self, to: usize, frame: Frame) {
        let seq = frame.seq;
        if self.senders[self.rank][to].send(frame).is_ok() {
            return;
        }
        // A dropped receiver means the peer's thread is gone. Under
        // fault injection that can be benign: the store insert precedes
        // this push, so the peer may have healed this very frame from
        // the retransmit store and returned already — an acked (absent)
        // store entry proves delivery. Anything else is a peer failure;
        // name it so the supervisor's first-failure report stays the
        // root cause.
        if let Some(fault) = self.message_faults() {
            let acked = !fault
                .store
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .contains(&(self.rank, to, seq));
            if acked {
                return;
            }
        }
        panic!("send to rank {to} aborted: the peer rank failed");
    }

    /// Sends `payload` to `to`. Self-sends are delivered but cost zero
    /// bytes (an MPI implementation would not touch the network).
    ///
    /// When a fault plan is active the frame may be dropped, delayed,
    /// duplicated, or corrupted in flight; a clean copy is retained for
    /// retransmission until the receiver acknowledges delivery.
    pub fn send<V: Wire + Clone>(&self, to: usize, tag: u32, payload: V) {
        assert!(to < self.size, "send to rank {to} of {}", self.size);
        let bytes = payload.wire_bytes();
        if to != self.rank {
            self.counters
                .record_send(self.rank, bytes, &self.phase.borrow());
        }
        let Some(fault) = self.message_faults() else {
            // Fault-free hot path: one channel push, no sequencing, no
            // retransmit bookkeeping.
            self.push_frame(
                to,
                Frame {
                    tag,
                    seq: 0,
                    checksum: 0,
                    delay_us: 0,
                    payload: Box::new(payload),
                },
            );
            return;
        };
        let seq = {
            let mut seqs = self.send_seq.borrow_mut();
            let s = seqs[to];
            seqs[to] += 1;
            s
        };
        let checksum = frame_checksum(self.rank, to, seq, tag, bytes);
        if to != self.rank {
            // Retain the clean copy until the receiver acks it — the
            // retransmit path serves drops and corruptions from here.
            fault
                .store
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .insert(
                    (self.rank, to, seq),
                    StoredFrame {
                        tag,
                        bytes,
                        payload: Box::new(payload.clone()),
                    },
                );
        }
        let fate = fault.plan.fate(self.rank, to, seq);
        if fate.drop {
            self.record_fault(self.rank, FaultEvent::DropInjected);
            return; // the network ate it; bytes were already charged
        }
        if fate.corrupt {
            self.record_fault(self.rank, FaultEvent::CorruptInjected);
        }
        if fate.delay_us > 0 {
            self.record_fault(self.rank, FaultEvent::DelayInjected);
        }
        let duplicate = fate.duplicate;
        let make = |payload: Box<dyn Any + Send>| Frame {
            tag,
            seq,
            // A corrupted frame fails verification at the receiver.
            checksum: if fate.corrupt { !checksum } else { checksum },
            delay_us: fate.delay_us,
            payload,
        };
        if duplicate {
            self.record_fault(self.rank, FaultEvent::DupInjected);
            // The duplicate transmission also puts bytes on the wire.
            if to != self.rank {
                self.counters
                    .record_send(self.rank, bytes, &self.phase.borrow());
            }
            self.push_frame(to, make(Box::new(payload.clone())));
        }
        self.push_frame(to, make(Box::new(payload)));
    }

    /// Finishes delivery of a verified in-sequence frame: acks the
    /// retained copy — eagerly draining any stale copies below it on the
    /// same channel — and advances the expected sequence number.
    fn accept(&self, from: usize, seq: u64, fault: &FaultState) {
        if from != self.rank {
            fault
                .store
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .ack(from, self.rank, seq);
        }
        self.recv_seq.borrow_mut()[from] = seq + 1;
    }

    /// Fetches the retained clean copy of `(from → me, seq)` — the
    /// retransmission. Charges the resend's bytes to the sender.
    fn fetch_resend(&self, from: usize, seq: u64, fault: &FaultState) -> Option<StoredFrame> {
        let stored = fault
            .store
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take(&(from, self.rank, seq))?;
        self.record_fault(self.rank, FaultEvent::Resend);
        if from != self.rank {
            self.counters
                .record_send(from, stored.bytes, &self.phase.borrow());
        }
        self.recv_seq.borrow_mut()[from] = seq + 1;
        Some(stored)
    }

    fn downcast<V: Wire>(
        &self,
        from: usize,
        tag: u32,
        got_tag: u32,
        payload: Box<dyn Any + Send>,
    ) -> V {
        assert_eq!(
            got_tag, tag,
            "rank {}: tag mismatch receiving from {from} (got {got_tag}, want {tag})",
            self.rank
        );
        *payload.downcast::<V>().unwrap_or_else(|_| {
            panic!(
                "rank {}: payload type mismatch receiving from {from} (tag {tag})",
                self.rank
            )
        })
    }

    /// Receives the next message from `from`; the tag and payload type
    /// must match what was sent (SPMD programs are deterministic, so FIFO
    /// order per channel pair suffices).
    ///
    /// Deadline-bounded: panics (→ a typed rank failure under
    /// [`crate::Cluster::run_supervised`]) if no frame materializes
    /// within the timeout. Under an active fault plan this is the
    /// self-healing receive described in the module docs.
    pub fn recv<V: Wire>(&self, from: usize, tag: u32) -> V {
        assert!(from < self.size, "recv from rank {from} of {}", self.size);
        let start = Instant::now();
        let Some(fault) = self.message_faults() else {
            // Fault-free path: plain deadline-bounded receive with
            // abort polling.
            loop {
                match self.receivers[from].recv_timeout(POLL_SLICE) {
                    Ok(frame) => return self.downcast(from, tag, frame.tag, frame.payload),
                    Err(RecvTimeoutError::Disconnected) => panic!("sender dropped"),
                    Err(RecvTimeoutError::Timeout) => {
                        self.check_recv_deadline(from, tag, start, 0);
                    }
                }
            }
        };
        let expected = self.recv_seq.borrow()[from];
        // A frame parked by an earlier out-of-order arrival?
        if let Some(frame) = self.stash.borrow_mut()[from].remove(&expected) {
            return self.process_frame(from, tag, expected, frame, fault);
        }
        let mut next_check = RESEND_BASE;
        let mut checks = 0u32;
        loop {
            match self.receivers[from].recv_timeout(POLL_SLICE) {
                Ok(frame) => {
                    if frame.seq < expected {
                        // Duplicate of an already-delivered frame.
                        self.record_fault(self.rank, FaultEvent::DupDiscarded);
                        continue;
                    }
                    if frame.seq > expected {
                        // Sequence gap (an earlier frame was dropped):
                        // park this one and keep waiting for the hole.
                        if self.stash.borrow_mut()[from]
                            .insert(frame.seq, frame)
                            .is_some()
                        {
                            self.record_fault(self.rank, FaultEvent::DupDiscarded);
                        }
                        continue;
                    }
                    return self.process_frame(from, tag, expected, frame, fault);
                }
                Err(RecvTimeoutError::Disconnected) => panic!("sender dropped"),
                Err(RecvTimeoutError::Timeout) => {
                    // Bounded retransmit schedule with exponential
                    // backoff: consult the retained in-flight copy
                    // (models NACK + resend for a dropped frame).
                    if checks < self.shared.retries && start.elapsed() >= next_check {
                        if let Some(stored) = self.fetch_resend(from, expected, fault) {
                            return self.downcast(from, tag, stored.tag, stored.payload);
                        }
                        self.record_fault(self.rank, FaultEvent::RetryWait);
                        checks += 1;
                        next_check *= 2;
                    }
                    self.check_recv_deadline(from, tag, start, checks);
                }
            }
        }
    }

    /// Blocking receive with **no deadline** — the legacy behaviour,
    /// kept only for harness experiments that intentionally wait
    /// forever. It bypasses the self-healing protocol, so it must not
    /// be used under a message-fault plan, and distributed layers must
    /// use the deadline-bounded [`Comm::recv`] instead (ci.sh lints
    /// `crates/dist` for calls to this).
    pub fn recv_unbounded<V: Wire>(&self, from: usize, tag: u32) -> V {
        assert!(from < self.size, "recv from rank {from} of {}", self.size);
        assert!(
            self.message_faults().is_none(),
            "recv_unbounded cannot heal message faults; use recv"
        );
        let frame = self.receivers[from].recv().expect("sender dropped");
        self.downcast(from, tag, frame.tag, frame.payload)
    }

    /// Verifies and delivers an in-sequence frame, healing injected
    /// corruption through the retransmit path.
    fn process_frame<V: Wire>(
        &self,
        from: usize,
        tag: u32,
        seq: u64,
        frame: Frame,
        fault: &FaultState,
    ) -> V {
        if frame.delay_us > 0 {
            // Injected network latency: the frame arrives late.
            std::thread::sleep(Duration::from_micros(frame.delay_us as u64));
        }
        let bytes_hint = fault
            .store
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(&(from, self.rank, seq))
            .map(|s| s.bytes);
        let expect_checksum =
            frame_checksum(from, self.rank, seq, frame.tag, bytes_hint.unwrap_or(0));
        let verified = match bytes_hint {
            // Self-sends (and already-acked frames) retain no copy; they
            // are never corrupted by the injector.
            None => true,
            Some(_) => frame.checksum == expect_checksum,
        };
        if verified {
            self.accept(from, seq, fault);
            return self.downcast(from, tag, frame.tag, frame.payload);
        }
        // Checksum mismatch: discard the damaged frame and recover the
        // retained clean copy.
        self.record_fault(self.rank, FaultEvent::CorruptDetected);
        let stored = self
            .fetch_resend(from, seq, fault)
            .expect("corrupt frame must have a retained clean copy");
        self.downcast(from, tag, stored.tag, stored.payload)
    }

    /// Panics once a blocked `recv` exhausts its deadline, and fails
    /// fast when the supervisor aborts the run.
    fn check_recv_deadline(&self, from: usize, tag: u32, start: Instant, retries_used: u32) {
        if self.shared.abort.load(Ordering::Relaxed) {
            panic!(
                "rank {}: recv from rank {from} aborted: a peer rank failed",
                self.rank
            );
        }
        if start.elapsed() >= self.shared.timeout {
            panic!(
                "rank {}: recv timeout waiting for rank {from} (tag {tag}) after {:?} \
                 ({retries_used} retransmit attempts)",
                self.rank, self.shared.timeout
            );
        }
    }

    /// Charges `steps` BSP supersteps to this rank's accounting — used by
    /// higher-level protocols built on raw send/recv (e.g. the halo
    /// exchange, which is one superstep of point-to-point traffic).
    pub fn charge_supersteps(&self, steps: u64) {
        self.account_steps(steps);
    }

    /// Global barrier over all ranks (one superstep). Aborts (panics)
    /// instead of deadlocking if a peer rank has failed.
    pub fn barrier(&self) {
        self.account_steps(1);
        self.barrier.wait(&self.shared.abort, self.shared.timeout);
    }

    fn index_in(&self, members: &[usize]) -> usize {
        members
            .iter()
            .position(|&m| m == self.rank)
            .unwrap_or_else(|| panic!("rank {} not in group {members:?}", self.rank))
    }

    /// Binomial-tree broadcast within `members` from `members[root_idx]`.
    /// The root passes `Some(data)`, everyone else `None`; all members
    /// return the broadcast value. `O(log g)` supersteps.
    pub fn broadcast_group<V: Wire + Clone>(
        &self,
        members: &[usize],
        root_idx: usize,
        data: Option<V>,
        tag: u32,
    ) -> V {
        let g = members.len();
        let me = self.index_in(members);
        self.account_steps(ceil_log2(g));
        if g == 1 {
            return data.expect("broadcast root must supply data");
        }
        let rel = (me + g - root_idx) % g;
        // Receive phase: a non-root node receives from the parent obtained
        // by clearing the lowest set bit of its relative rank.
        let (value, recv_bit) = if rel == 0 {
            let mut m = 1usize;
            while m < g {
                m <<= 1;
            }
            (data.expect("broadcast root must supply data"), m)
        } else {
            let low = rel & rel.wrapping_neg();
            let src = members[(rel - low + root_idx) % g];
            (self.recv::<V>(src, tag), low)
        };
        // Send phase: forward on every bit below the reception bit
        // (descending), the canonical binomial-tree schedule.
        let mut mask = recv_bit >> 1;
        while mask > 0 {
            let dst_rel = rel + mask;
            if dst_rel < g {
                let dst = members[(dst_rel + root_idx) % g];
                self.send(dst, tag, value.clone());
            }
            mask >>= 1;
        }
        value
    }

    /// Binomial-tree reduction within `members` towards
    /// `members[root_idx]`. Every member passes its contribution; the root
    /// returns `Some(total)`, the rest `None`. `O(log g)` supersteps.
    pub fn reduce_group<V: Wire + Clone>(
        &self,
        members: &[usize],
        root_idx: usize,
        data: V,
        tag: u32,
        combine: impl Fn(V, V) -> V,
    ) -> Option<V> {
        let g = members.len();
        let me = self.index_in(members);
        self.account_steps(ceil_log2(g));
        let rel = (me + g - root_idx) % g;
        let mut val = data;
        let mut mask = 1usize;
        while mask < g {
            if rel & mask == 0 {
                let src_rel = rel | mask;
                if src_rel < g {
                    let src = members[(src_rel + root_idx) % g];
                    let other = self.recv::<V>(src, tag);
                    val = combine(val, other);
                }
            } else {
                let dst_rel = rel & !mask;
                let dst = members[(dst_rel + root_idx) % g];
                self.send(dst, tag, val);
                return None;
            }
            mask <<= 1;
        }
        Some(val)
    }

    /// Allreduce within `members` (reduce to `members[0]`, then
    /// broadcast). All members return the total.
    pub fn allreduce_group<V: Wire + Clone>(
        &self,
        members: &[usize],
        data: V,
        tag: u32,
        combine: impl Fn(V, V) -> V,
    ) -> V {
        let reduced = self.reduce_group(members, 0, data, tag, combine);
        self.broadcast_group(members, 0, reduced, tag.wrapping_add(1))
    }

    /// Direct allgather within `members`: returns every member's
    /// contribution, ordered by group index. One superstep.
    pub fn allgather_group<V: Wire + Clone>(&self, members: &[usize], data: V, tag: u32) -> Vec<V> {
        let g = members.len();
        let me = self.index_in(members);
        self.account_steps(1);
        for (i, &m) in members.iter().enumerate() {
            if i != me {
                self.send(m, tag, data.clone());
            }
        }
        let mut out = Vec::with_capacity(g);
        for (i, &m) in members.iter().enumerate() {
            if i == me {
                out.push(data.clone());
            } else {
                out.push(self.recv::<V>(m, tag));
            }
        }
        out
    }

    // -----------------------------------------------------------------
    // Bandwidth-optimal large-message collectives.
    //
    // The binomial-tree collectives above give the root O(bytes·log g)
    // volume — fine for the O(k²) parameter traffic, but the paper's
    // Section 7.1 bounds assume the standard large-message algorithms
    // (van-de-Geijn scatter+allgather broadcast, Rabenseifner
    // reduce-scatter reductions) whose per-rank volume is O(bytes)
    // regardless of role. These vector variants implement them.
    // -----------------------------------------------------------------

    /// Chunk `m` of `g` balanced chunks of `[0, len)`.
    fn chunk_bounds(len: usize, g: usize, m: usize) -> (usize, usize) {
        (m * len / g, (m + 1) * len / g)
    }

    /// Large-message broadcast: the root scatters balanced chunks, then a
    /// direct allgather reassembles the vector everywhere. Per-rank volume
    /// ≤ 2·bytes; 2 supersteps. `len` must be the (globally known) vector
    /// length.
    pub fn bcast_vec_group<T: Clone + Send + 'static>(
        &self,
        members: &[usize],
        root_idx: usize,
        data: Option<Vec<T>>,
        len: usize,
        tag: u32,
    ) -> Vec<T> {
        let g = members.len();
        let me = self.index_in(members);
        if g == 1 {
            return data.expect("broadcast root must supply data");
        }
        self.account_steps(2);
        // Scatter phase.
        let my_chunk: Vec<T> = if me == root_idx {
            let data = data.expect("broadcast root must supply data");
            assert_eq!(data.len(), len, "broadcast length mismatch at root");
            let mut own = Vec::new();
            for (m, &member) in members.iter().enumerate() {
                let (lo, hi) = Self::chunk_bounds(len, g, m);
                if m == root_idx {
                    own = data[lo..hi].to_vec();
                } else {
                    self.send(member, tag, data[lo..hi].to_vec());
                }
            }
            own
        } else {
            self.recv::<Vec<T>>(members[root_idx], tag)
        };
        // Allgather phase (direct exchange of chunks).
        let chunks = self.allgather_group(members, my_chunk, tag.wrapping_add(1));
        let mut out = Vec::with_capacity(len);
        for c in chunks {
            out.extend(c);
        }
        assert_eq!(out.len(), len, "broadcast reassembly length mismatch");
        out
    }

    /// Reduce-scatter: every member sends chunk `m` of its local vector
    /// to member `m`; each member combines the received chunks
    /// element-wise with its own and returns its reduced chunk. Per-rank
    /// volume ≈ bytes·(g−1)/g; 1 superstep.
    pub fn reduce_scatter_group<T: Clone + Send + 'static>(
        &self,
        members: &[usize],
        data: Vec<T>,
        tag: u32,
        combine: impl Fn(T, T) -> T,
    ) -> Vec<T> {
        let g = members.len();
        let me = self.index_in(members);
        if g == 1 {
            return data;
        }
        self.account_steps(1);
        let len = data.len();
        for (m, &member) in members.iter().enumerate() {
            if m != me {
                let (lo, hi) = Self::chunk_bounds(len, g, m);
                self.send(member, tag, data[lo..hi].to_vec());
            }
        }
        let (lo, hi) = Self::chunk_bounds(len, g, me);
        let mut acc = data[lo..hi].to_vec();
        for (m, &member) in members.iter().enumerate() {
            if m != me {
                let other = self.recv::<Vec<T>>(member, tag);
                for (a, b) in acc.iter_mut().zip(other) {
                    *a = combine(a.clone(), b);
                }
            }
        }
        acc
    }

    /// Bandwidth-optimal allreduce: reduce-scatter + chunk allgather.
    /// Per-rank volume ≈ 2·bytes·(g−1)/g; 2 supersteps.
    pub fn allreduce_vec_group<T: Clone + Send + 'static>(
        &self,
        members: &[usize],
        data: Vec<T>,
        tag: u32,
        combine: impl Fn(T, T) -> T,
    ) -> Vec<T> {
        let g = members.len();
        if g == 1 {
            return data;
        }
        let len = data.len();
        let chunk = self.reduce_scatter_group(members, data, tag, combine);
        let chunks = self.allgather_group(members, chunk, tag.wrapping_add(1));
        let mut out = Vec::with_capacity(len);
        for c in chunks {
            out.extend(c);
        }
        out
    }

    /// Bandwidth-optimal rooted reduce: reduce-scatter + gather of the
    /// reduced chunks to the root. Per-rank volume ≈ bytes·(g−1)/g plus
    /// one chunk; the root returns `Some(total)`.
    pub fn reduce_vec_group<T: Clone + Send + 'static>(
        &self,
        members: &[usize],
        root_idx: usize,
        data: Vec<T>,
        tag: u32,
        combine: impl Fn(T, T) -> T,
    ) -> Option<Vec<T>> {
        let g = members.len();
        let me = self.index_in(members);
        if g == 1 {
            return Some(data);
        }
        let len = data.len();
        let chunk = self.reduce_scatter_group(members, data, tag, combine);
        self.account_steps(1);
        if me == root_idx {
            let mut out = vec![None; g];
            out[me] = Some(chunk);
            for (m, &member) in members.iter().enumerate() {
                if m != root_idx {
                    out[m] = Some(self.recv::<Vec<T>>(member, tag.wrapping_add(2)));
                }
            }
            let mut flat = Vec::with_capacity(len);
            for c in out {
                flat.extend(c.expect("chunk gathered"));
            }
            Some(flat)
        } else {
            self.send(members[root_idx], tag.wrapping_add(2), chunk);
            None
        }
    }

    /// All-to-all personalized exchange within `members`: `data[i]` is
    /// delivered to `members[i]`; returns one payload per member (by group
    /// index). One superstep.
    pub fn alltoall_group<V: Wire + Clone>(
        &self,
        members: &[usize],
        data: Vec<V>,
        tag: u32,
    ) -> Vec<V> {
        let g = members.len();
        assert_eq!(data.len(), g, "alltoall needs one payload per member");
        let me = self.index_in(members);
        self.account_steps(1);
        let mut mine = None;
        for (i, (payload, &m)) in data.into_iter().zip(members).enumerate() {
            if i == me {
                mine = Some(payload);
            } else {
                self.send(m, tag, payload);
            }
        }
        let mut out = Vec::with_capacity(g);
        for (i, &m) in members.iter().enumerate() {
            if i == me {
                out.push(mine.take().expect("own slot present"));
            } else {
                out.push(self.recv::<V>(m, tag));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::{ceil_log2, RunShared};
    use crate::fault::FaultPlan;
    use std::time::Duration;

    #[test]
    fn the_plan_is_the_only_deadline_route() {
        let none = RunShared::new(&FaultPlan::none());
        assert_eq!(none.timeout, Duration::from_secs(30));
        assert_eq!(none.retries, 6);
        let plan = FaultPlan::none().with_timeout_ms(1234).with_retries(3);
        let set = RunShared::new(&plan);
        assert_eq!(set.timeout, Duration::from_millis(1234));
        assert_eq!(set.retries, 3);
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(8), 3);
    }
}
