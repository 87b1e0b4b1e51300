//! The graceful-degradation ladder.
//!
//! Under sustained queue pressure the server steps the resolved
//! execution down one rung at a time toward cheaper service, and steps
//! back up one rung at a time when pressure clears:
//!
//! | rung | name            | effect                                    |
//! |------|-----------------|-------------------------------------------|
//! | 0    | full            | configured window, full fanout            |
//! | 1    | narrow window   | batch window ÷ 4 (less batching latency)  |
//! | 2    | reduced fanout  | + ego sampling fanout → `degraded_fanout` |
//!
//! Rungs are cumulative: rung 2 also narrows the window. No rung changes
//! the numeric format — a reduced fanout changes *which* neighbours are
//! aggregated, and a configured `degraded_fanout` at or above every
//! degree leaves the answers equal to full service.
//!
//! Movement is *monotone* (one rung per decision) and *hysteretic*:
//! occupancy must sit at/above the high watermark for `patience`
//! consecutive batch boundaries to step down, and at/below the low
//! watermark for `patience` boundaries to step up — a single burst
//! neither thrashes the service level nor strands the server degraded.

use std::time::Duration;

/// Full service.
pub const RUNG_FULL: usize = 0;
/// Narrowed batch window.
pub const RUNG_NARROW_WINDOW: usize = 1;
/// Reduced ego-sampling fanout.
pub const RUNG_REDUCED_FANOUT: usize = 2;
/// Number of rungs.
pub const RUNG_COUNT: usize = 3;

/// Hysteretic, monotone rung controller. Decisions happen at batch
/// boundaries via [`Ladder::observe`].
#[derive(Clone, Debug)]
pub struct Ladder {
    rung: usize,
    high: f64,
    low: f64,
    patience: u32,
    over: u32,
    under: u32,
}

impl Ladder {
    pub fn new(high: f64, low: f64, patience: u32) -> Self {
        assert!(low <= high, "ladder watermarks inverted");
        Self {
            rung: RUNG_FULL,
            high,
            low,
            patience: patience.max(1),
            over: 0,
            under: 0,
        }
    }

    /// Resumes at a given rung — a healed worker inherits the pressure
    /// state its predecessor had reached instead of restarting at full
    /// service into the same overload.
    pub fn at_rung(mut self, rung: usize) -> Self {
        self.rung = rung.min(RUNG_COUNT - 1);
        self
    }

    pub fn rung(&self) -> usize {
        self.rung
    }

    /// Feeds one queue-occupancy observation (0..=1, queued/cap) taken
    /// at a batch boundary. Returns `Some((from, to))` when the ladder
    /// moves; `to == from + 1` is a step-down (degrade), `to == from -
    /// 1` a step-up (recover).
    pub fn observe(&mut self, occupancy: f64) -> Option<(usize, usize)> {
        if occupancy >= self.high {
            self.over += 1;
            self.under = 0;
        } else if occupancy <= self.low {
            self.under += 1;
            self.over = 0;
        } else {
            self.over = 0;
            self.under = 0;
        }
        if self.over >= self.patience && self.rung + 1 < RUNG_COUNT {
            let from = self.rung;
            self.rung += 1;
            self.over = 0;
            return Some((from, self.rung));
        }
        if self.under >= self.patience && self.rung > RUNG_FULL {
            let from = self.rung;
            self.rung -= 1;
            self.under = 0;
            return Some((from, self.rung));
        }
        None
    }

    /// The batch window at the current rung.
    pub fn window(&self, full: Duration) -> Duration {
        if self.rung >= RUNG_NARROW_WINDOW {
            full / 4
        } else {
            full
        }
    }

    /// The ego-sampling fanout at the current rung.
    pub fn fanout(&self, full: usize, degraded: usize) -> usize {
        if self.rung >= RUNG_REDUCED_FANOUT {
            degraded.min(full)
        } else {
            full
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_are_monotone_and_patience_gated() {
        let mut ladder = Ladder::new(0.8, 0.2, 2);
        assert_eq!(ladder.observe(0.9), None, "first pressure tick waits");
        assert_eq!(ladder.observe(0.9), Some((0, 1)), "patience reached");
        assert_eq!(ladder.observe(0.9), None, "counter reset after a move");
        assert_eq!(ladder.observe(0.9), Some((1, 2)));
        // Saturates at the bottom rung.
        assert_eq!(ladder.observe(0.9), None);
        assert_eq!(ladder.observe(0.9), None);
        assert_eq!(ladder.observe(0.9), None);
        assert_eq!(ladder.rung(), RUNG_REDUCED_FANOUT);
        assert_eq!(RUNG_REDUCED_FANOUT, RUNG_COUNT - 1);
        // Recovery is equally patient and single-stepped.
        assert_eq!(ladder.observe(0.0), None);
        assert_eq!(ladder.observe(0.0), Some((2, 1)));
        assert_eq!(ladder.observe(0.0), None);
        assert_eq!(ladder.observe(0.0), Some((1, 0)));
        assert_eq!(ladder.rung(), RUNG_FULL);
        assert_eq!(ladder.observe(0.0), None, "saturates at full service");
    }

    #[test]
    fn mid_band_occupancy_resets_both_counters() {
        let mut ladder = Ladder::new(0.8, 0.2, 2);
        assert_eq!(ladder.observe(0.9), None);
        assert_eq!(ladder.observe(0.5), None, "mid-band clears pressure");
        assert_eq!(ladder.observe(0.9), None, "patience restarts");
        assert_eq!(ladder.observe(0.9), Some((0, 1)));
    }

    #[test]
    fn rungs_map_to_cumulative_effects() {
        let full = Duration::from_micros(2000);
        let l0 = Ladder::new(0.8, 0.2, 1);
        assert_eq!(l0.window(full), full);
        assert_eq!(l0.fanout(usize::MAX, 4), usize::MAX);
        let l1 = l0.clone().at_rung(RUNG_NARROW_WINDOW);
        assert_eq!(l1.window(full), full / 4);
        assert_eq!(l1.fanout(usize::MAX, 4), usize::MAX);
        let l2 = l0.clone().at_rung(RUNG_REDUCED_FANOUT);
        assert_eq!(l2.window(full), full / 4, "rung 2 keeps the narrow window");
        assert_eq!(l2.fanout(usize::MAX, 4), 4);
        assert_eq!(l2.fanout(3, 4), 3, "never above the configured fanout");
        // A resumed ladder clamps to the bottom rung.
        assert_eq!(l0.at_rung(RUNG_COUNT + 5).rung(), RUNG_REDUCED_FANOUT);
    }
}
