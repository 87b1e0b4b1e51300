//! The open-loop arrival schedule.
//!
//! Request `i` is *due* at `i / rate` after the phase starts, whatever
//! the system under test is doing. Latency is counted from the due time,
//! not from the moment the generator got round to sending: when the
//! generator (or the system, through a blocking submit) stalls, the
//! requests behind the stall are sent late and the wait the stall imposed
//! on them is charged to them. How late the generator ran is reported
//! beside the latencies.

use std::time::{Duration, Instant};

/// Time as the generator sees it, so the schedule can be tested against a
/// scripted clock.
pub trait Clock {
    /// Time since the phase started.
    fn now(&self) -> Duration;
    /// Blocks until `now() >= t` (returns at once when already past).
    fn sleep_until(&self, t: Duration);
}

/// The wall clock, zeroed at construction.
pub struct WallClock(Instant);

impl WallClock {
    pub fn start() -> Self {
        Self(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        // The OS timer overshoots by tens of microseconds; that lateness
        // is part of every latency (counted from due time) and reported
        // as `gen_late`, so it is neither hidden nor spun away on a core
        // the server needs.
        let left = t.saturating_sub(self.now());
        if !left.is_zero() {
            std::thread::sleep(left);
        }
    }
}

/// Due time of request `i` at `rate` requests per second.
fn due(i: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

/// One request as the generator sent it.
#[derive(Clone, Debug)]
pub struct Sent<T> {
    pub due: Duration,
    /// When `send` was called; `sent - due` is how late the generator ran.
    pub sent: Duration,
    pub item: T,
}

/// Sends every request due inside `window`, in order, each no earlier
/// than its due time; a request whose due time has passed goes out at
/// once (the generator catches up, it never drops or re-times a request).
pub fn generate<T>(
    clock: &impl Clock,
    rate: f64,
    window: Duration,
    mut send: impl FnMut(usize) -> T,
    mut sink: impl FnMut(Sent<T>),
) {
    for i in 0.. {
        let due = due(i, rate);
        if due >= window {
            break;
        }
        clock.sleep_until(due);
        let sent = clock.now();
        sink(Sent {
            due,
            sent,
            item: send(i),
        });
    }
}

/// Latency of a request answered at `done`: counted from its due time.
pub fn latency(due: Duration, done: Duration) -> Duration {
    done.saturating_sub(due)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A scripted clock: sleeping jumps time forward, nothing else moves
    /// it except an explicit `advance`.
    struct FakeClock(Cell<Duration>);

    impl FakeClock {
        fn advance(&self, d: Duration) {
            self.0.set(self.0.get() + d);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, t: Duration) {
            self.0.set(self.0.get().max(t));
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn requests_go_out_on_the_grid_when_nothing_stalls() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let mut sent = Vec::new();
        generate(&clock, 100.0, 50 * MS, |i| i, |s| sent.push(s));
        assert_eq!(sent.len(), 5);
        for (i, s) in sent.iter().enumerate() {
            assert_eq!(s.item, i);
            assert_eq!(s.due, 10 * MS * i as u32);
            assert_eq!(s.sent, s.due);
        }
    }

    #[test]
    fn a_generator_stall_is_charged_to_the_requests_behind_it() {
        // 100 req/s: dues at 0, 10, 20, 30, 40 ms. Sending request 1
        // blocks for 25 ms (a stalled submit). The service itself takes
        // 1 ms per request, measured from the send.
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let mut rows = Vec::new();
        generate(
            &clock,
            100.0,
            50 * MS,
            |i| {
                if i == 1 {
                    clock.advance(25 * MS);
                }
                clock.now() + MS // when the answer arrives
            },
            |s| rows.push(s),
        );
        // Due times stay on the grid; nothing was dropped or re-timed.
        let dues: Vec<_> = rows.iter().map(|s| s.due).collect();
        assert_eq!(dues, [0, 10, 20, 30, 40].map(|m| MS * m));
        // Requests 2 and 3 were due during the stall and went out late.
        let late: Vec<_> = rows.iter().map(|s| s.sent.saturating_sub(s.due)).collect();
        assert_eq!(late, [0, 0, 15, 5, 0].map(|m| MS * m));
        // Latency from the due time carries the stall; latency from the
        // send would have hidden it (1 ms for every request but #1).
        let lat: Vec<_> = rows.iter().map(|s| latency(s.due, s.item)).collect();
        assert_eq!(lat, [1, 26, 16, 6, 1].map(|m| MS * m));
    }
}
