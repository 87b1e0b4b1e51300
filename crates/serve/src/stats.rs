//! Serving counters: every admission decision, answer, ladder move, and
//! heal is counted, so the chaos tests can prove the zero-loss invariant
//! arithmetically instead of by absence of symptoms.

/// Snapshot of a server's lifetime counters.
///
/// The load-shedding contract is arithmetic: once the server is drained
/// (queue empty, no batch in flight),
///
/// ```text
/// accepted == answered + expired + cancelled
/// ```
///
/// — every accepted request got exactly one typed outcome. `shed`
/// requests were refused at admission and are *not* part of `accepted`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted past the queue bound.
    pub accepted: u64,
    /// Requests refused at admission (`ServeError::Overloaded`).
    pub shed: u64,
    /// Requests answered with an inference result.
    pub answered: u64,
    /// Requests answered late with an inference result (their deadline
    /// passed while the batch computed; also counted in `answered`).
    pub late: u64,
    /// Requests answered with `ServeError::DeadlineExceeded` (still
    /// queued past their deadline).
    pub expired: u64,
    /// Requests answered with `ServeError::Shutdown` because the server
    /// stopped while they were queued.
    pub cancelled: u64,
    /// Batches executed: `closed_full + closed_window + closed_idle`.
    pub batches: u64,
    /// Batches closed by reaching `batch_max`.
    pub closed_full: u64,
    /// Batches closed by the (rung-scaled) batch window elapsing.
    pub closed_window: u64,
    /// Batches closed early on an empty queue: the latest inter-arrival
    /// gap exceeded what was left of the window (or the server was
    /// shutting down) — nobody was coming.
    pub closed_idle: u64,
    /// Requests served through batches (sum of live batch sizes).
    pub batched_requests: u64,
    /// Degradation ladder step-downs (toward cheaper service).
    pub step_down: u64,
    /// Degradation ladder step-ups (recovery).
    pub step_up: u64,
    /// Current ladder rung (0 = full service).
    pub current_rung: usize,
    /// Worker crashes healed by respawn (includes fenced hangs, which
    /// end in a deliberate panic).
    pub crashes_healed: u64,
    /// Hung workers fenced by the progress watchdog.
    pub hangs_fenced: u64,
    /// Injected batch-boundary delays served.
    pub delays_injected: u64,
    /// Intents replayed from the write-ahead log by `Server::recover`.
    pub wal_replayed: u64,
}

impl ServeStats {
    /// Requests with a final outcome.
    pub fn settled(&self) -> u64 {
        self.answered + self.expired + self.cancelled
    }

    /// Accepted requests not yet settled. Zero after a full drain — the
    /// zero-loss invariant.
    pub fn outstanding(&self) -> u64 {
        self.accepted.saturating_sub(self.settled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settled_and_outstanding_track_the_invariant() {
        let stats = ServeStats {
            accepted: 10,
            answered: 6,
            expired: 3,
            cancelled: 1,
            ..ServeStats::default()
        };
        assert_eq!(stats.settled(), 10);
        assert_eq!(stats.outstanding(), 0);
        let mid = ServeStats {
            accepted: 10,
            answered: 6,
            ..ServeStats::default()
        };
        assert_eq!(mid.outstanding(), 4);
    }
}
