//! The α–β machine cost model.
//!
//! Wall-clock on the paper's 1024-node Cray XC50 cannot be measured here;
//! instead, measured per-rank compute time and measured communication
//! (volume + supersteps) are projected onto an interconnect model:
//!
//! ```text
//! T = T_compute(max over ranks, measured)
//!   + max_rank_bytes / β        (bandwidth term)
//!   + supersteps · α            (latency term)
//! ```
//!
//! This is the standard Hockney/BSP cost decomposition; the constants
//! default to Cray-Aries-like values. Because the paper's comparisons are
//! *shape* comparisons (who wins, how the gap scales with p and ρ), any
//! reasonable α, β preserve them — the harness also reports the raw
//! measured volumes so readers can re-project.

/// Interconnect and node-speed constants for time projection.
#[derive(Clone, Copy, Debug)]
pub struct MachineModel {
    /// Per-message latency α in seconds.
    pub latency: f64,
    /// Bandwidth β in bytes/second.
    pub bandwidth: f64,
    /// Multiplier applied to locally measured compute seconds, to account
    /// for this host being slower/faster than one target node. 1.0 keeps
    /// the measured time.
    pub compute_scale: f64,
}

impl MachineModel {
    /// Cray-Aries-like constants (≈1.3 µs latency, ≈10 GB/s injection
    /// bandwidth per node).
    pub fn aries() -> Self {
        Self {
            latency: 1.3e-6,
            bandwidth: 10.0e9,
            compute_scale: 1.0,
        }
    }

    /// A slow commodity network (25 µs, 1 GB/s) — useful for sensitivity
    /// checks: communication-bound conclusions must survive both models.
    pub fn commodity() -> Self {
        Self {
            latency: 25.0e-6,
            bandwidth: 1.0e9,
            compute_scale: 1.0,
        }
    }

    /// Projected execution time from measured components.
    pub fn time(&self, compute_seconds: f64, max_rank_bytes: u64, supersteps: u64) -> f64 {
        compute_seconds * self.compute_scale
            + max_rank_bytes as f64 / self.bandwidth
            + supersteps as f64 * self.latency
    }

    /// The communication part only.
    pub fn comm_time(&self, max_rank_bytes: u64, supersteps: u64) -> f64 {
        self.time(0.0, max_rank_bytes, supersteps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_is_sum_of_terms() {
        let m = MachineModel {
            latency: 1e-6,
            bandwidth: 1e9,
            compute_scale: 2.0,
        };
        let t = m.time(0.5, 1_000_000_000, 1000);
        assert!((t - (1.0 + 1.0 + 0.001)).abs() < 1e-12);
        assert!((m.comm_time(1_000_000_000, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn presets_are_sane() {
        let a = MachineModel::aries();
        let c = MachineModel::commodity();
        assert!(a.bandwidth > c.bandwidth);
        assert!(a.latency < c.latency);
    }
}
