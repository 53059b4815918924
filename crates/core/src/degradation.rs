//! Process-global graceful-degradation counters.
//!
//! The failure model (DESIGN.md §9) allows exactly two responses to a
//! bad artifact or a diverged training run: reject it and fall back to
//! the runtime baseline, or retry it deterministically. Both are
//! silent by design on the prediction path — a rejected pack simply
//! leaves its PC on the TAGE-SC-L lane — so these counters are the
//! observability layer: every rejection and retry increments a
//! process-wide atomic, and the bench harness surfaces the totals in
//! the `reproduce` summary and the `--json` run manifest.
//!
//! On a healthy (no-fault) run every counter stays zero, which the
//! fidelity CI implicitly checks via the golden summary text.

use std::sync::atomic::{AtomicU64, Ordering};

static PACKS_REJECTED: AtomicU64 = AtomicU64::new(0);
static TRAININGS_RETRIED: AtomicU64 = AtomicU64::new(0);

/// A point-in-time copy of the degradation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationSnapshot {
    /// Model packs rejected at load/attach time (the PC stayed on the
    /// runtime-baseline lane).
    pub packs_rejected: u64,
    /// Training attempts re-run with a reseeded init after divergence.
    pub trainings_retried: u64,
}

impl DegradationSnapshot {
    /// One-line summary for the `reproduce` report.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} packs rejected, {} trainings retried",
            self.packs_rejected, self.trainings_retried
        )
    }
}

/// Records one rejected model pack (bad bytes or invalid config; the
/// branch stays on the runtime baseline).
pub fn record_pack_rejected() {
    PACKS_REJECTED.fetch_add(1, Ordering::Relaxed);
}

/// Records one training retry after a divergence/NaN guard trip.
pub fn record_training_retry() {
    TRAININGS_RETRIED.fetch_add(1, Ordering::Relaxed);
}

/// The current counter values.
#[must_use]
pub fn snapshot() -> DegradationSnapshot {
    DegradationSnapshot {
        packs_rejected: PACKS_REJECTED.load(Ordering::Relaxed),
        trainings_retried: TRAININGS_RETRIED.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic() {
        // Other tests in the process may also increment; assert only
        // the delta this test causes.
        let before = snapshot();
        record_pack_rejected();
        record_training_retry();
        record_training_retry();
        let after = snapshot();
        assert!(after.packs_rejected > before.packs_rejected);
        assert!(after.trainings_retried >= before.trainings_retried + 2);
    }

    #[test]
    fn summary_names_every_counter() {
        let s = DegradationSnapshot { packs_rejected: 3, trainings_retried: 1 }.summary();
        assert_eq!(s, "3 packs rejected, 1 trainings retried");
    }
}
