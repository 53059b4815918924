//! The [`Predictor`] contract every prediction stack implements.
//!
//! This lives in the trace crate — the lowest layer of the workspace —
//! so runtime baselines (`branchnet-tage`) and CNN hybrids
//! (`branchnet-core`) implement one object-safe trait. Every predictor
//! is a [`Lane`](crate::lane::Lane), which is what the
//! [`Gauntlet`](crate::gauntlet::Gauntlet) and the timing model drive.

use crate::record::BranchRecord;
use crate::trace::Trace;

/// A runtime conditional-branch predictor.
///
/// Predictors are driven in trace order: for every conditional branch,
/// [`predict`](Predictor::predict) is called first, then
/// [`update`](Predictor::update) with the resolved record. Predictors
/// may stash lookup state between the two calls (the usual
/// championship-simulator contract). Non-conditional control flow is
/// reported through [`note_unconditional`](Predictor::note_unconditional)
/// so history registers stay realistic.
pub trait Predictor {
    /// Predicts the direction of the conditional branch at `pc`.
    fn predict(&mut self, pc: u64) -> bool;

    /// Trains on the resolved branch. `predicted` must be the value
    /// this predictor returned from the immediately preceding
    /// [`predict`](Predictor::predict) call for the same branch.
    fn update(&mut self, record: &BranchRecord, predicted: bool);

    /// Observes a non-conditional control-flow instruction (shifts
    /// path/target histories in predictors that keep them).
    fn note_unconditional(&mut self, record: &BranchRecord) {
        let _ = record;
    }

    /// Discards all runtime-learned state, returning the predictor to
    /// exactly its freshly-constructed state (tables, histories,
    /// adaptive thresholds). Offline-derived configuration — profile
    /// tables, frozen CNN weights, sizing — survives. Used between
    /// traces for cold-start (per-SimPoint) evaluation.
    fn flush(&mut self) {}

    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Modeled hardware budget in bits (0 when not meaningful, e.g.
    /// for oracle or unlimited predictors).
    fn storage_bits(&self) -> u64 {
        0
    }
}

impl<P: Predictor + ?Sized> Predictor for &mut P {
    fn predict(&mut self, pc: u64) -> bool {
        (**self).predict(pc)
    }
    fn update(&mut self, record: &BranchRecord, predicted: bool) {
        (**self).update(record, predicted);
    }
    fn note_unconditional(&mut self, record: &BranchRecord) {
        (**self).note_unconditional(record);
    }
    fn flush(&mut self) {
        (**self).flush();
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn storage_bits(&self) -> u64 {
        (**self).storage_bits()
    }
}

/// A trivial predictor that always predicts taken. Useful as a floor
/// in tests and as the "static bias" strawman of Section II-B.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysTaken;

impl Predictor for AlwaysTaken {
    fn predict(&mut self, _pc: u64) -> bool {
        true
    }
    fn update(&mut self, _record: &BranchRecord, _predicted: bool) {}
    fn name(&self) -> &'static str {
        "always-taken"
    }
}

/// A profile-derived static-bias predictor: predicts each static
/// branch's majority direction as measured on a profiling trace
/// (Section II-B's "static branch biases" offline technique). The
/// profile is offline configuration, so [`Predictor::flush`] keeps it.
#[derive(Debug, Clone, Default)]
pub struct StaticBias {
    bias: std::collections::HashMap<u64, bool>,
}

impl StaticBias {
    /// Profiles `trace` and records each branch's majority direction.
    #[must_use]
    pub fn from_profile(trace: &Trace) -> Self {
        let mut counts: std::collections::HashMap<u64, (u64, u64)> =
            std::collections::HashMap::new();
        for r in trace.iter().filter(|r| r.kind.is_conditional()) {
            let e = counts.entry(r.pc).or_default();
            if r.taken {
                e.0 += 1;
            } else {
                e.1 += 1;
            }
        }
        Self { bias: counts.into_iter().map(|(pc, (t, n))| (pc, t >= n)).collect() }
    }
}

impl Predictor for StaticBias {
    fn predict(&mut self, pc: u64) -> bool {
        self.bias.get(&pc).copied().unwrap_or(true)
    }
    fn update(&mut self, _record: &BranchRecord, _predicted: bool) {}
    fn name(&self) -> &'static str {
        "static-bias"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gauntlet::run_one;

    #[test]
    fn static_bias_learns_majority_direction() {
        let mut t = Trace::new();
        for i in 0..100 {
            t.push(BranchRecord::conditional(0x10, i % 10 != 0)); // 90% taken
            t.push(BranchRecord::conditional(0x20, i % 10 == 0)); // 10% taken
        }
        let mut sb = StaticBias::from_profile(&t);
        assert!(sb.predict(0x10));
        assert!(!sb.predict(0x20));
        assert!(sb.predict(0x999), "unseen branches default to taken");
        let stats = run_one(&mut StaticBias::from_profile(&t), &t);
        assert!((stats.accuracy() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn static_bias_profile_survives_flush() {
        let t: Trace = (0..50).map(|_| BranchRecord::conditional(0x10, false)).collect();
        let mut sb = StaticBias::from_profile(&t);
        sb.flush();
        assert!(!sb.predict(0x10), "profile is offline state and must survive flush");
    }

    #[test]
    fn mut_ref_impl_forwards_everything() {
        let mut p = AlwaysTaken;
        let mut by_ref = &mut p;
        assert!(Predictor::predict(&mut by_ref, 0x40));
        assert_eq!(Predictor::name(&by_ref), "always-taken");
        assert_eq!(Predictor::storage_bits(&by_ref), 0);
        Predictor::flush(&mut by_ref);
    }
}
