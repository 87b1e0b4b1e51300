//! Serving configuration: the `ATGNN_SERVE_*` knobs plus programmatic
//! builders for tests and benches.

use atgnn_net::FaultPlan;
use std::path::PathBuf;
use std::time::Duration;

fn env_parse<T: std::str::FromStr>(key: &str) -> Option<T> {
    let raw = std::env::var(key).ok()?;
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    match trimmed.parse() {
        Ok(v) => Some(v),
        Err(_) => panic!("{key}: cannot parse {trimmed:?}"),
    }
}

/// Configuration of one serving runtime instance.
///
/// Defaults come from [`ServeConfig::default`]; [`ServeConfig::from_env`]
/// overlays the `ATGNN_SERVE_*` environment knobs (documented in the
/// README) plus `ATGNN_FAULTS` for chaos runs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// A batch closes when it holds this many requests…
    pub batch_max: usize,
    /// …or when this much time has passed since it opened, whichever
    /// comes first — or earlier, when the queue is empty and arrivals are
    /// sparser than what is left of it. The degradation ladder narrows
    /// this under pressure.
    pub batch_window: Duration,
    /// Per-request answer deadline; requests still queued past it are
    /// answered with `ServeError::DeadlineExceeded`.
    pub deadline: Duration,
    /// Admission bound: submissions beyond this queue depth are shed
    /// with `ServeError::Overloaded`.
    pub queue_cap: usize,
    /// Receptive-field depth of the ego extraction (usually the model's
    /// layer count; hops beyond it cannot reach an answer and are not
    /// extracted).
    pub hops: usize,
    /// Neighbour fanout kept per expanded node at full service. The
    /// builders clamp it to at least 1 (the self-edge of a row that
    /// stores one); a literal 0 keeps that self-edge and nothing else.
    pub fanout: usize,
    /// Fanout on the reduced-fanout degradation rung.
    pub degraded_fanout: usize,
    /// Seed for the deterministic ego sampling.
    pub seed: u64,
    /// Queue occupancy (0..1) at or above which pressure is charged
    /// toward a step-down.
    pub high_water: f64,
    /// Queue occupancy at or below which slack is charged toward a
    /// step-up.
    pub low_water: f64,
    /// Consecutive batch-boundary observations over/under the watermark
    /// before the ladder moves one rung.
    pub patience: u32,
    /// A live worker that makes no progress for this long while work is
    /// queued is declared hung and fenced (aborted + respawned).
    pub watchdog: Duration,
    /// Whether `submit`/`drain` transparently heal a dead worker. Warm
    /// restart tests disable this to exercise `Server::recover`.
    pub auto_heal: bool,
    /// Write-ahead intent log path (`None` disables the log).
    pub wal: Option<PathBuf>,
    /// Checkpoint image path for warm restart (`None` disables it).
    pub checkpoint: Option<PathBuf>,
    /// Chaos schedule routed through the worker at batch boundaries.
    pub faults: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            batch_max: 16,
            batch_window: Duration::from_micros(2000),
            deadline: Duration::from_millis(250),
            queue_cap: 256,
            hops: 2,
            fanout: usize::MAX,
            degraded_fanout: 4,
            seed: 0x5EED,
            high_water: 0.75,
            low_water: 0.25,
            patience: 2,
            watchdog: Duration::from_millis(500),
            auto_heal: true,
            wal: None,
            checkpoint: None,
            faults: FaultPlan::none(),
        }
    }
}

impl ServeConfig {
    /// Defaults overlaid with the `ATGNN_SERVE_*` environment knobs and
    /// `ATGNN_FAULTS`.
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Some(v) = env_parse::<usize>("ATGNN_SERVE_BATCH_MAX") {
            cfg.batch_max = v.max(1);
        }
        if let Some(v) = env_parse::<u64>("ATGNN_SERVE_BATCH_WINDOW_US") {
            cfg.batch_window = Duration::from_micros(v);
        }
        if let Some(v) = env_parse::<u64>("ATGNN_SERVE_DEADLINE_MS") {
            cfg.deadline = Duration::from_millis(v);
        }
        if let Some(v) = env_parse::<usize>("ATGNN_SERVE_QUEUE_CAP") {
            cfg.queue_cap = v.max(1);
        }
        if let Some(v) = env_parse::<usize>("ATGNN_SERVE_HOPS") {
            cfg.hops = v;
        }
        if let Some(v) = env_parse::<usize>("ATGNN_SERVE_FANOUT") {
            cfg.fanout = v.max(1);
        }
        if let Some(v) = env_parse::<u64>("ATGNN_SERVE_WATCHDOG_MS") {
            cfg.watchdog = Duration::from_millis(v.max(1));
        }
        cfg.faults = FaultPlan::from_env();
        cfg
    }

    pub fn with_batch_max(mut self, n: usize) -> Self {
        self.batch_max = n.max(1);
        self
    }

    pub fn with_batch_window_us(mut self, us: u64) -> Self {
        self.batch_window = Duration::from_micros(us);
        self
    }

    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline = Duration::from_millis(ms);
        self
    }

    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap.max(1);
        self
    }

    pub fn with_hops(mut self, hops: usize) -> Self {
        self.hops = hops;
        self
    }

    pub fn with_fanout(mut self, fanout: usize) -> Self {
        self.fanout = fanout.max(1);
        self
    }

    pub fn with_degraded_fanout(mut self, fanout: usize) -> Self {
        self.degraded_fanout = fanout.max(1);
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Ladder hysteresis: step down after `patience` consecutive
    /// observations at/above `high`, step up after `patience` at/below
    /// `low`.
    pub fn with_ladder(mut self, high: f64, low: f64, patience: u32) -> Self {
        assert!(
            low <= high,
            "ladder watermarks inverted: low {low} > high {high}"
        );
        self.high_water = high;
        self.low_water = low;
        self.patience = patience.max(1);
        self
    }

    pub fn with_watchdog_ms(mut self, ms: u64) -> Self {
        self.watchdog = Duration::from_millis(ms.max(1));
        self
    }

    pub fn with_auto_heal(mut self, on: bool) -> Self {
        self.auto_heal = on;
        self
    }

    pub fn with_wal(mut self, path: impl Into<PathBuf>) -> Self {
        self.wal = Some(path.into());
        self
    }

    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = ServeConfig::default();
        assert!(cfg.batch_max >= 1);
        assert!(cfg.low_water <= cfg.high_water);
        assert!(cfg.auto_heal);
        assert!(cfg.wal.is_none());
    }

    #[test]
    #[should_panic(expected = "watermarks inverted")]
    fn inverted_watermarks_are_rejected() {
        let _ = ServeConfig::default().with_ladder(0.2, 0.8, 1);
    }
}
