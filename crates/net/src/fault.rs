//! Deterministic fault injection for the simulated fabric.
//!
//! The paper's distributed engine assumes a perfect Cray/MPI fabric;
//! production GNN training systems (DistDGL and kin) treat worker failure
//! and message loss as routine. [`FaultPlan`] describes, *seeded and
//! reproducibly*, which faults a cluster run experiences:
//!
//! * **message faults**, decided per frame at the wire boundary from a
//!   hash of `(seed, src, dst, seq)` — drop, delay, duplication, payload
//!   corruption (modelled as a checksum mismatch: payloads are typed
//!   in-memory objects here, so corruption is always *detectable*
//!   corruption, which is the case the recovery protocol handles);
//! * **rank faults** — a crash (panic) or a hang at a given BSP
//!   superstep, injected where supersteps are charged.
//!
//! Because each `(src, dst)` channel carries a deterministic SPMD message
//! sequence, the per-frame decisions are identical across runs, thread
//! counts, and platforms — the recovery tests can demand *bit-identical*
//! results against the fault-free run.
//!
//! [`FaultPlan::none`] is inert: the communicator skips the whole
//! injection and recovery bookkeeping (no retransmit store, no sequence
//! checks), so the fault-free hot path is unchanged.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// Default cap on resident unacked retransmit bytes (64 MiB). Overridden
/// per run by [`FaultPlan::store_cap`] / the `store_cap=` field of
/// `ATGNN_FAULTS`.
pub const DEFAULT_STORE_CAP_BYTES: usize = 64 << 20;

/// A rank-level fault: the rank fails once its charged superstep count
/// reaches `superstep`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankFault {
    /// The rank that fails.
    pub rank: usize,
    /// The BSP superstep count at which it fails.
    pub superstep: u64,
}

/// What the injector decided for one frame. Public so non-fabric
/// consumers (the serving runtime's chaos gate) can reuse the same
/// deterministic per-event fate stream at their own boundaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameFate {
    pub drop: bool,
    pub duplicate: bool,
    pub corrupt: bool,
    /// Injected extra latency in microseconds (0 = none).
    pub delay_us: u32,
}

/// A seeded, deterministic fault schedule for one cluster run.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-frame fault decisions.
    pub seed: u64,
    /// Per-frame probability of dropping the frame.
    pub drop: f64,
    /// Per-frame probability of delaying the frame.
    pub delay: f64,
    /// Per-frame probability of duplicating the frame.
    pub dup: f64,
    /// Per-frame probability of corrupting the frame (checksum flip).
    pub corrupt: f64,
    /// Injected latency for delayed frames, microseconds.
    pub delay_us: u32,
    /// Crash (panic) one rank at a superstep.
    pub crash: Option<RankFault>,
    /// Hang one rank at a superstep (it stops making progress until the
    /// run is aborted).
    pub hang: Option<RankFault>,
    /// Deadline of one blocked `recv` or barrier for this run, in
    /// milliseconds (`None` → 30 000).
    pub timeout_ms: Option<u64>,
    /// Bounded retransmit consultations per `recv` for this run
    /// (`None` → 6).
    pub retries: Option<u32>,
    /// Caps the resident unacked bytes of the retransmit store for this
    /// run (`None` → [`DEFAULT_STORE_CAP_BYTES`]).
    pub store_cap: Option<usize>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            drop: 0.0,
            delay: 0.0,
            dup: 0.0,
            corrupt: 0.0,
            delay_us: 500,
            crash: None,
            hang: None,
            timeout_ms: None,
            retries: None,
            store_cap: None,
        }
    }
}

impl FaultPlan {
    /// The inert plan: injects nothing, adds no bookkeeping to the hot
    /// path.
    pub fn none() -> Self {
        Self::default()
    }

    /// A seeded plan with no faults yet; compose with the `with_*`
    /// builders.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Sets the per-frame drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Sets the per-frame delay probability and the injected latency.
    pub fn with_delay(mut self, p: f64, delay_us: u32) -> Self {
        self.delay = p;
        self.delay_us = delay_us;
        self
    }

    /// Sets the per-frame duplication probability.
    pub fn with_dup(mut self, p: f64) -> Self {
        self.dup = p;
        self
    }

    /// Sets the per-frame corruption probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt = p;
        self
    }

    /// Crashes `rank` when its charged supersteps reach `superstep`.
    pub fn with_crash(mut self, rank: usize, superstep: u64) -> Self {
        self.crash = Some(RankFault { rank, superstep });
        self
    }

    /// Hangs `rank` when its charged supersteps reach `superstep`.
    pub fn with_hang(mut self, rank: usize, superstep: u64) -> Self {
        self.hang = Some(RankFault { rank, superstep });
        self
    }

    /// Overrides the recv deadline for this run.
    pub fn with_timeout_ms(mut self, ms: u64) -> Self {
        self.timeout_ms = Some(ms);
        self
    }

    /// Overrides the bounded retry count for this run.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = Some(retries);
        self
    }

    /// Caps the resident unacked bytes of the retransmit store.
    pub fn with_store_cap(mut self, bytes: usize) -> Self {
        self.store_cap = Some(bytes);
        self
    }

    /// The same plan with the rank faults cleared — what a supervisor
    /// runs after respawning a crashed/hung rank (the transient fault
    /// does not recur; the message-level fault environment persists).
    pub fn without_rank_faults(mut self) -> Self {
        self.crash = None;
        self.hang = None;
        self
    }

    /// True if the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.drop > 0.0
            || self.delay > 0.0
            || self.dup > 0.0
            || self.corrupt > 0.0
            || self.crash.is_some()
            || self.hang.is_some()
    }

    /// True if the plan injects message-level faults (and the
    /// communicator therefore needs the sequence/retransmit machinery).
    pub(crate) fn has_message_faults(&self) -> bool {
        self.drop > 0.0 || self.delay > 0.0 || self.dup > 0.0 || self.corrupt > 0.0
    }

    /// Parses `ATGNN_FAULTS` (empty/unset → [`FaultPlan::none`]).
    ///
    /// Syntax: comma-separated `key=value` fields, e.g.
    /// `seed=42,drop=0.01,delay=0.02,dup=0.01,corrupt=0.005,`
    /// `delay_us=500,crash=2@10,hang=1@8,timeout_ms=2000,retries=4`.
    /// Rank faults use `rank@superstep`. Unknown keys or malformed
    /// values panic with a description — a silently ignored chaos knob
    /// is worse than a loud one.
    pub fn from_env() -> Self {
        match std::env::var("ATGNN_FAULTS") {
            Ok(s) if !s.trim().is_empty() => Self::parse(&s),
            _ => Self::none(),
        }
    }

    /// Parses the `ATGNN_FAULTS` syntax from a string.
    pub fn parse(s: &str) -> Self {
        let mut plan = Self::none();
        for field in s.split(',').map(str::trim).filter(|f| !f.is_empty()) {
            let (key, value) = field
                .split_once('=')
                .unwrap_or_else(|| panic!("ATGNN_FAULTS field without '=': {field:?}"));
            let fnum = |v: &str| -> f64 {
                v.parse()
                    .unwrap_or_else(|_| panic!("ATGNN_FAULTS: bad number in {field:?}"))
            };
            let rank_fault = |v: &str| -> RankFault {
                let (r, s) = v
                    .split_once('@')
                    .unwrap_or_else(|| panic!("ATGNN_FAULTS: want rank@superstep in {field:?}"));
                RankFault {
                    rank: r
                        .parse()
                        .unwrap_or_else(|_| panic!("ATGNN_FAULTS: bad rank in {field:?}")),
                    superstep: s
                        .parse()
                        .unwrap_or_else(|_| panic!("ATGNN_FAULTS: bad superstep in {field:?}")),
                }
            };
            match key {
                "seed" => plan.seed = fnum(value) as u64,
                "drop" => plan.drop = fnum(value),
                "delay" => plan.delay = fnum(value),
                "dup" => plan.dup = fnum(value),
                "corrupt" => plan.corrupt = fnum(value),
                "delay_us" => plan.delay_us = fnum(value) as u32,
                "crash" => plan.crash = Some(rank_fault(value)),
                "hang" => plan.hang = Some(rank_fault(value)),
                "timeout_ms" => plan.timeout_ms = Some(fnum(value) as u64),
                "retries" => plan.retries = Some(fnum(value) as u32),
                "store_cap" => plan.store_cap = Some(fnum(value) as usize),
                _ => panic!("ATGNN_FAULTS: unknown key {key:?} in {field:?}"),
            }
        }
        plan
    }

    /// The deterministic fate of frame `seq` on channel `src → dst`.
    /// At most one fault per frame (the unit interval is partitioned),
    /// which keeps the recovery analysis one-dimensional.
    pub fn fate(&self, src: usize, dst: usize, seq: u64) -> FrameFate {
        if !self.has_message_faults() || src == dst {
            return FrameFate::default();
        }
        let u = unit_hash(self.seed, src as u64, dst as u64, seq);
        let mut fate = FrameFate::default();
        let mut lo = 0.0;
        if u < lo + self.corrupt {
            fate.corrupt = true;
            return fate;
        }
        lo += self.corrupt;
        if u < lo + self.drop {
            fate.drop = true;
            return fate;
        }
        lo += self.drop;
        if u < lo + self.dup {
            fate.duplicate = true;
            return fate;
        }
        lo += self.dup;
        if u < lo + self.delay {
            fate.delay_us = self.delay_us;
        }
        fate
    }
}

/// SplitMix64 over the (seed, src, dst, seq) tuple, mapped to [0, 1).
fn unit_hash(seed: u64, a: u64, b: u64, c: u64) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(a.wrapping_mul(0xBF58476D1CE4E5B9))
        .wrapping_add(b.wrapping_mul(0x94D049BB133111EB))
        .wrapping_add(c.wrapping_mul(0xD6E8FEB86659FD93));
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58476D1CE4E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// FNV-1a frame header checksum over the addressing metadata and the
/// payload wire size. A corrupted frame carries a flipped checksum, so
/// verification fails exactly when the injector says the frame was
/// damaged in flight.
pub(crate) fn frame_checksum(src: usize, dst: usize, seq: u64, tag: u32, bytes: usize) -> u64 {
    let mut h: u64 = 0xCBF29CE484222325;
    for word in [src as u64, dst as u64, seq, tag as u64, bytes as u64] {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001B3);
        }
    }
    h
}

/// A retained clean copy of an in-flight frame, fetched by the receiver
/// to model NACK + retransmission when the channel copy was dropped or
/// arrived corrupt. Entries are erased on successful delivery (the ack).
pub(crate) struct StoredFrame {
    pub tag: u32,
    pub bytes: usize,
    pub payload: Box<dyn Any + Send>,
}

/// Point-in-time metrics of a run's retransmit store, for regression
/// tests and capacity planning of serve-style sustained traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetransmitStats {
    /// Bytes of unacked frame copies resident right now.
    pub resident_bytes: usize,
    /// Largest `resident_bytes` ever observed in this run.
    pub high_water_bytes: usize,
    /// Configured cap on resident bytes.
    pub cap_bytes: usize,
    /// Frames evicted (oldest-first) to stay under the cap. An evicted
    /// frame forfeits its retransmit copy; if its channel copy was also
    /// lost, the receiver's bounded retries surface a recv timeout.
    pub evicted_frames: u64,
}

type FrameKey = (usize, usize, u64);

/// Bounded retransmit store: `(src, dst, seq)` → clean frame copy
/// awaiting ack. Acked frames are drained eagerly (cumulatively per
/// channel — in-order delivery means an ack for `seq` retires every
/// retained copy at or below it), and resident bytes are capped with
/// oldest-first eviction, so sustained serve-style traffic against a
/// slow or dead peer cannot grow the store without bound.
pub(crate) struct RetransmitStore {
    map: HashMap<FrameKey, StoredFrame>,
    /// Insertion order for oldest-first eviction; keys removed by ack or
    /// resend-fetch go stale here and are skipped when popped.
    order: VecDeque<FrameKey>,
    resident_bytes: usize,
    high_water: usize,
    cap: usize,
    evicted: u64,
}

impl RetransmitStore {
    fn new(cap: usize) -> Self {
        Self {
            map: HashMap::new(),
            order: VecDeque::new(),
            resident_bytes: 0,
            high_water: 0,
            cap,
            evicted: 0,
        }
    }

    /// Retains a clean copy of an in-flight frame, evicting the oldest
    /// resident copies if the cap is exceeded. The frame just inserted is
    /// never evicted (it is the one most likely to need a resend), so a
    /// single frame larger than the cap stays resident — the high-water
    /// mark records the overshoot.
    pub fn insert(&mut self, key: FrameKey, frame: StoredFrame) {
        self.resident_bytes += frame.bytes;
        if let Some(old) = self.map.insert(key, frame) {
            self.resident_bytes -= old.bytes;
        }
        self.order.push_back(key);
        while self.resident_bytes > self.cap && self.order.len() > 1 {
            let Some(k) = self.order.pop_front() else {
                break;
            };
            if k == key {
                // Reached the newest entry: nothing older left to evict.
                self.order.push_back(k);
                if self.order.len() == 1 {
                    break;
                }
                continue;
            }
            if let Some(old) = self.map.remove(&k) {
                self.resident_bytes -= old.bytes;
                self.evicted += 1;
            }
        }
        // The mark measures post-eviction residency: it can exceed the
        // cap only when a single frame does.
        self.high_water = self.high_water.max(self.resident_bytes);
    }

    /// Removes and returns the stored copy (resend fetch).
    pub fn take(&mut self, key: &FrameKey) -> Option<StoredFrame> {
        let frame = self.map.remove(key)?;
        self.resident_bytes -= frame.bytes;
        Some(frame)
    }

    /// Eagerly drains everything the ack retires: the acked frame itself
    /// plus any retained copies below it on the same channel (in-order
    /// delivery means they were delivered; duplicates and reordered
    /// stash entries can leave them behind).
    pub fn ack(&mut self, src: usize, dst: usize, seq: u64) {
        let _ = self.take(&(src, dst, seq));
        let mut s = seq;
        while s > 0 {
            s -= 1;
            if self.take(&(src, dst, s)).is_none() {
                break;
            }
        }
    }

    pub fn contains(&self, key: &FrameKey) -> bool {
        self.map.contains_key(key)
    }

    pub fn get(&self, key: &FrameKey) -> Option<&StoredFrame> {
        self.map.get(key)
    }

    pub fn stats(&self) -> RetransmitStats {
        RetransmitStats {
            resident_bytes: self.resident_bytes,
            high_water_bytes: self.high_water,
            cap_bytes: self.cap,
            evicted_frames: self.evicted,
        }
    }
}

/// Shared per-run fault state: the plan plus the retransmit store.
pub(crate) struct FaultState {
    pub plan: FaultPlan,
    pub store: Mutex<RetransmitStore>,
}

impl FaultState {
    pub fn new(plan: FaultPlan) -> Self {
        let cap = plan.store_cap.unwrap_or(DEFAULT_STORE_CAP_BYTES);
        Self {
            plan,
            store: Mutex::new(RetransmitStore::new(cap)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive() {
        assert!(!FaultPlan::none().is_active());
        assert!(!FaultPlan::none().has_message_faults());
        assert_eq!(FaultPlan::none().fate(0, 1, 5), FrameFate::default());
    }

    #[test]
    fn fate_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(1).with_drop(0.5);
        let b = FaultPlan::seeded(2).with_drop(0.5);
        let fates_a: Vec<_> = (0..64).map(|s| a.fate(0, 1, s)).collect();
        let fates_a2: Vec<_> = (0..64).map(|s| a.fate(0, 1, s)).collect();
        let fates_b: Vec<_> = (0..64).map(|s| b.fate(0, 1, s)).collect();
        assert_eq!(fates_a, fates_a2, "same seed must give same fates");
        assert_ne!(fates_a, fates_b, "different seeds must diverge");
        let drops = fates_a.iter().filter(|f| f.drop).count();
        assert!(
            (16..=48).contains(&drops),
            "p=0.5 over 64 frames should drop roughly half, got {drops}"
        );
    }

    #[test]
    fn self_sends_are_never_faulted() {
        let plan = FaultPlan::seeded(3)
            .with_drop(1.0)
            .with_corrupt(1.0)
            .with_dup(1.0);
        for seq in 0..16 {
            assert_eq!(plan.fate(2, 2, seq), FrameFate::default());
        }
    }

    #[test]
    fn faults_are_mutually_exclusive_per_frame() {
        let plan = FaultPlan::seeded(7)
            .with_drop(0.25)
            .with_corrupt(0.25)
            .with_dup(0.25)
            .with_delay(0.25, 100);
        for seq in 0..256 {
            let f = plan.fate(0, 1, seq);
            let n = [f.drop, f.duplicate, f.corrupt, f.delay_us > 0]
                .iter()
                .filter(|&&x| x)
                .count();
            assert!(n <= 1, "frame {seq} got {n} simultaneous faults");
        }
    }

    #[test]
    fn parse_round_trips_every_field() {
        let plan = FaultPlan::parse(
            "seed=42, drop=0.01, delay=0.02, dup=0.03, corrupt=0.04, delay_us=250, \
             crash=2@10, hang=1@8, timeout_ms=2000, retries=4, store_cap=1048576",
        );
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.drop, 0.01);
        assert_eq!(plan.delay, 0.02);
        assert_eq!(plan.dup, 0.03);
        assert_eq!(plan.corrupt, 0.04);
        assert_eq!(plan.delay_us, 250);
        assert_eq!(
            plan.crash,
            Some(RankFault {
                rank: 2,
                superstep: 10
            })
        );
        assert_eq!(
            plan.hang,
            Some(RankFault {
                rank: 1,
                superstep: 8
            })
        );
        assert_eq!(plan.timeout_ms, Some(2000));
        assert_eq!(plan.retries, Some(4));
        assert_eq!(plan.store_cap, Some(1048576));
        assert!(plan.is_active());
    }

    #[test]
    fn parse_empty_is_none() {
        assert_eq!(FaultPlan::parse(""), FaultPlan::none());
    }

    #[test]
    #[should_panic(expected = "unknown key")]
    fn parse_rejects_unknown_keys() {
        let _ = FaultPlan::parse("dorp=0.1");
    }

    #[test]
    fn without_rank_faults_keeps_message_faults() {
        let plan = FaultPlan::seeded(5)
            .with_drop(0.1)
            .with_crash(1, 10)
            .with_hang(2, 20)
            .without_rank_faults();
        assert_eq!(plan.crash, None);
        assert_eq!(plan.hang, None);
        assert_eq!(plan.drop, 0.1);
    }

    fn frame(bytes: usize) -> StoredFrame {
        StoredFrame {
            tag: 0,
            bytes,
            payload: Box::new(()),
        }
    }

    #[test]
    fn store_acks_drain_eagerly_and_cumulatively() {
        let mut store = RetransmitStore::new(1 << 20);
        for seq in 0..8u64 {
            store.insert((0, 1, seq), frame(100));
        }
        assert_eq!(store.stats().resident_bytes, 800);
        // Ack seq 5: retires 5 and every retained copy below it.
        store.ack(0, 1, 5);
        let s = store.stats();
        assert_eq!(s.resident_bytes, 200, "only seqs 6,7 remain");
        assert!(!store.contains(&(0, 1, 0)));
        assert!(store.contains(&(0, 1, 7)));
        assert_eq!(s.high_water_bytes, 800);
        assert_eq!(s.evicted_frames, 0);
    }

    #[test]
    fn store_caps_resident_bytes_with_oldest_first_eviction() {
        let mut store = RetransmitStore::new(250);
        for seq in 0..10u64 {
            store.insert((0, 1, seq), frame(100));
        }
        let s = store.stats();
        assert!(
            s.resident_bytes <= 250,
            "resident {} exceeds cap",
            s.resident_bytes
        );
        assert!(
            s.high_water_bytes <= 300,
            "high water within one frame of cap"
        );
        assert_eq!(s.evicted_frames, 8, "oldest 8 frames evicted");
        assert!(!store.contains(&(0, 1, 0)), "oldest evicted first");
        assert!(store.contains(&(0, 1, 9)), "newest always survives");
    }

    #[test]
    fn store_never_evicts_the_newest_frame() {
        let mut store = RetransmitStore::new(10);
        store.insert((0, 1, 0), frame(100));
        let s = store.stats();
        assert!(store.contains(&(0, 1, 0)));
        assert_eq!(s.resident_bytes, 100, "oversized sole frame stays resident");
        assert_eq!(s.high_water_bytes, 100);
        // A second oversized frame evicts the first but survives itself.
        store.insert((0, 1, 1), frame(100));
        assert!(!store.contains(&(0, 1, 0)));
        assert!(store.contains(&(0, 1, 1)));
        assert_eq!(store.stats().evicted_frames, 1);
    }

    #[test]
    fn store_take_is_exact_and_accounts_bytes() {
        let mut store = RetransmitStore::new(1 << 20);
        store.insert((3, 4, 9), frame(42));
        assert!(store.get(&(3, 4, 9)).is_some());
        let got = store.take(&(3, 4, 9));
        assert_eq!(got.map(|f| f.bytes), Some(42));
        assert_eq!(store.stats().resident_bytes, 0);
        assert!(store.take(&(3, 4, 9)).is_none());
    }

    #[test]
    fn checksum_distinguishes_headers() {
        let a = frame_checksum(0, 1, 5, 7, 80);
        assert_eq!(a, frame_checksum(0, 1, 5, 7, 80));
        assert_ne!(a, frame_checksum(0, 1, 6, 7, 80));
        assert_ne!(a, frame_checksum(1, 0, 5, 7, 80));
        assert_ne!(a, frame_checksum(0, 1, 5, 8, 80));
    }
}
