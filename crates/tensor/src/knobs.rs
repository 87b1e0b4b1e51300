//! Sweepable process-global kernel knobs.
//!
//! The one size-class knob the sparse kernels consult on their hot paths
//! — the attention sweep's aggregation tile width — lives here as a plain
//! atomic with a lazy environment fallback, the same pattern as the
//! kernel-mode switches in [`crate::micro`]. It is programmatic (not
//! `OnceLock`-frozen) for two callers only: the bench sweeps, which try
//! candidate values in one process, and `ExecPlan::apply_kernel_knobs`,
//! by which a caller makes a plan's kernel configuration take effect.
//! The product itself never writes it, and passing the plan to the
//! kernels by value is what will remove it. The environment variable
//! (`ATGNN_COL_TILE`) remains the user-facing override and is read here
//! exactly once, on first access.
//!
//! This module and [`crate::micro`] are the **only** sanctioned readers
//! of plan-knob environment variables inside the kernel crates —
//! `atgnn-lint`'s `plan-knob-env` rule pins that, so `ExecPlan` stays
//! the single entry point for plan decisions.
//!
//! The knob does not change numerical results: the tile width only
//! reorders the aggregation's *outer* column loop.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Sentinel for "not yet initialized from the environment".
const UNSET: usize = usize::MAX;

/// Feature columns per aggregation tile in the one-pass attention sweep
/// (`ATGNN_COL_TILE`); `0` derives the width per call site.
static COL_TILE: AtomicUsize = AtomicUsize::new(UNSET);

/// The active aggregation tile width; `0` means "derive automatically".
pub fn col_tile() -> usize {
    match COL_TILE.load(Ordering::Relaxed) {
        UNSET => {
            let v = std::env::var("ATGNN_COL_TILE")
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0);
            COL_TILE.store(v, Ordering::Relaxed);
            v
        }
        v => v,
    }
}

/// Overrides the aggregation tile width for the rest of the process
/// (plan application / bench sweeps). `0` restores automatic derivation.
pub fn set_col_tile(v: usize) {
    COL_TILE.store(v.min(UNSET - 1), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setters_round_trip_and_zero_restores_auto() {
        // The suite never pins this env, so the lazy default is 0; the
        // setter is process-global, so restore before returning.
        let tile0 = col_tile();
        set_col_tile(24);
        assert_eq!(col_tile(), 24);
        set_col_tile(tile0);
        assert_eq!(col_tile(), tile0);
    }
}
