//! Process-global graceful-degradation counter.
//!
//! The failure model (DESIGN.md §9) answers a diverged training run
//! with a deterministic reseeded retry. Retries are silent by design —
//! a healthy retry yields a usable model, an exhausted one leaves the
//! branch on the runtime baseline — so this counter is the
//! observability layer: every retry increments a process-wide atomic,
//! and the bench harness surfaces the total in the `reproduce` summary
//! and the `--json` run manifest.
//!
//! On a healthy run the counter stays zero, which the fidelity CI
//! implicitly checks via the golden summary text.

use std::sync::atomic::{AtomicU64, Ordering};

static TRAININGS_RETRIED: AtomicU64 = AtomicU64::new(0);

/// A point-in-time copy of the degradation counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradationSnapshot {
    /// Training attempts re-run with a reseeded init after divergence.
    pub trainings_retried: u64,
}

impl DegradationSnapshot {
    /// One-line summary for the `reproduce` report.
    #[must_use]
    pub fn summary(&self) -> String {
        format!("{} trainings retried", self.trainings_retried)
    }
}

/// Records one training retry after a divergence/NaN guard trip.
pub fn record_training_retry() {
    TRAININGS_RETRIED.fetch_add(1, Ordering::Relaxed);
}

/// The current counter value.
#[must_use]
pub fn snapshot() -> DegradationSnapshot {
    DegradationSnapshot { trainings_retried: TRAININGS_RETRIED.load(Ordering::Relaxed) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotonic() {
        // Other tests in the process may also increment; assert only
        // the delta this test causes.
        let before = snapshot();
        record_training_retry();
        record_training_retry();
        let after = snapshot();
        assert!(after.trainings_retried >= before.trainings_retried + 2);
    }

    #[test]
    fn summary_names_the_counter() {
        let s = DegradationSnapshot { trainings_retried: 1 }.summary();
        assert_eq!(s, "1 trainings retried");
    }
}
