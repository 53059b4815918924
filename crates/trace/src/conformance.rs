//! The universal lane-conformance suite.
//!
//! Every lane that enters an experiment lineup, direction and target
//! predictors alike, must uphold the same laws regardless of its
//! internals:
//!
//! 1. **Gauntlet == solo** — a lane inside a multi-lane [`Gauntlet`],
//!    between companions of both families, produces bit-identical
//!    statistics to a solo [`run_one`] pass (lanes never interact);
//! 2. **Flush == fresh** — [`Lane::flush`] restores exactly the
//!    freshly-constructed behavior, down to the prediction at every
//!    record of a replay trace;
//! 3. **Determinism** — two fresh instances replaying the same trace
//!    make the same prediction at every record;
//! 4. **Storage honesty** — [`Lane::storage_bits`] is within the
//!    nominal budget and constant at runtime;
//! 5. **Family honesty** — a lane predicts exactly the records of its
//!    [`Family`] and only observes the rest.
//!
//! Each law runs over its family's [`family_trace`]: two thirds
//! conditional branches for direction lanes, one third indirect
//! branches for target lanes. The assertion helpers are plain
//! panicking functions so they compose with any harness; the
//! [`predictor_conformance!`](crate::predictor_conformance) macro
//! wraps them in a ready-made property-test module for one lane. Test
//! crates instantiate the macro once per lineup entry, which is what
//! the dedicated conformance CI step runs.

use crate::gauntlet::{run_one, Gauntlet};
use crate::lane::{Family, Lane, Prediction, Targets};
use crate::predict::AlwaysTaken;
use crate::record::{BranchKind, BranchRecord};
use crate::target::LastTarget;
use crate::trace::Trace;

/// Builds a mixed conditional/unconditional trace from an op stream:
/// each `(slot, taken)` becomes a branch at a slot-derived PC, and
/// every third slot is an unconditional jump (exercising
/// [`Predictor::note_unconditional`](crate::predict::Predictor::note_unconditional)).
#[must_use]
pub fn mixed_trace(ops: &[(u8, bool)]) -> Trace {
    ops.iter()
        .map(|&(slot, taken)| {
            let pc = 0x4000 + u64::from(slot) * 32;
            if slot % 3 == 0 {
                BranchRecord::unconditional(pc, pc + 64, BranchKind::Jump)
            } else {
                BranchRecord::conditional(pc, taken)
            }
        })
        .collect()
}

/// Builds a mixed trace for the target-prediction laws: every third
/// slot is an indirect branch whose target depends on both the slot
/// and the op's bool (so targets are polymorphic), the rest split
/// between conditional branches and direct jumps (exercising
/// [`TargetPredictor::note_branch`](crate::target::TargetPredictor::note_branch)).
#[must_use]
pub fn indirect_mixed_trace(ops: &[(u8, bool)]) -> Trace {
    ops.iter()
        .map(|&(slot, taken)| {
            let pc = 0x6000 + u64::from(slot) * 32;
            match slot % 3 {
                0 => {
                    let target = 0x9000 + (u64::from(slot) * 2 + u64::from(taken)) * 64;
                    BranchRecord::unconditional(pc, target, BranchKind::Indirect)
                }
                1 => BranchRecord::conditional(pc, taken),
                _ => BranchRecord::unconditional(pc, pc + 64, BranchKind::Jump),
            }
        })
        .collect()
}

/// The op alphabet of `family`'s conformance trace: slots `0..6` for
/// [`mixed_trace`], `0..9` for [`indirect_mixed_trace`].
#[must_use]
pub const fn family_slots(family: Family) -> u8 {
    match family {
        Family::Direction => 6,
        Family::Target => 9,
    }
}

/// The conformance trace of `family`: [`mixed_trace`] for direction
/// lanes, [`indirect_mixed_trace`] for target lanes.
#[must_use]
pub fn family_trace(family: Family, ops: &[(u8, bool)]) -> Trace {
    match family {
        Family::Direction => mixed_trace(ops),
        Family::Target => indirect_mixed_trace(ops),
    }
}

/// Replays `trace` through `lane` and returns what it predicted at
/// every record, in order: a per-record transcript, stronger evidence
/// than any statistics for the flush and determinism laws.
#[must_use]
pub fn transcript<L: Lane + ?Sized>(lane: &mut L, trace: &Trace) -> Vec<Prediction> {
    trace.iter().map(|record| lane.step(&record)).collect()
}

/// Law 1: driving the lane in a multi-lane gauntlet, with companion
/// lanes of both families before *and* after it, yields statistics
/// bit-identical to a solo [`run_one`] pass.
pub fn assert_gauntlet_matches_solo(build: &dyn Fn() -> Box<dyn Lane>, trace: &Trace) {
    let solo = run_one(build().as_mut(), trace);

    let mut gauntlet = Gauntlet::new();
    gauntlet.add(AlwaysTaken);
    gauntlet.add(Targets(LastTarget::new()));
    let lane = gauntlet.add_boxed(build());
    let twin = gauntlet.add_boxed(build());
    gauntlet.add(Targets(LastTarget::new()));
    gauntlet.add(AlwaysTaken);
    gauntlet.run(trace);
    let name = build().name();
    assert_eq!(gauntlet.stats(lane), &solo, "{name}: gauntlet lane diverged from solo run");
    assert_eq!(
        gauntlet.stats(twin),
        &solo,
        "{name}: twin lane diverged — lanes are not independent"
    );
}

/// Law 2: after arbitrary warm-up, [`Lane::flush`] restores exactly
/// the freshly-constructed behavior: the replay transcript equals a
/// fresh instance's.
pub fn assert_flush_recovers_cold_start(
    build: &dyn Fn() -> Box<dyn Lane>,
    warmup: &Trace,
    replay: &Trace,
) {
    let mut warmed = build();
    run_one(warmed.as_mut(), warmup);
    warmed.flush();
    let after_flush = transcript(warmed.as_mut(), replay);
    let from_new = transcript(build().as_mut(), replay);
    assert_eq!(after_flush, from_new, "{}: flush must equal fresh construction", warmed.name());
}

/// Law 3: prediction is a deterministic function of the trace — two
/// fresh instances replaying the same records agree at every record.
pub fn assert_deterministic_replay(build: &dyn Fn() -> Box<dyn Lane>, trace: &Trace) {
    let first = transcript(build().as_mut(), trace);
    let second = transcript(build().as_mut(), trace);
    assert_eq!(first, second, "{}: replay must be deterministic", build().name());
}

/// Law 4: `storage_bits` reports a cost within `budget_bits`, and the
/// figure does not drift as the lane predicts and trains over its
/// family's trace (hardware does not grow tables at runtime). Zero is
/// allowed — the trait documents it as "not meaningful" for oracle,
/// static and unbounded predictors.
pub fn assert_storage_within(build: &dyn Fn() -> Box<dyn Lane>, family: Family, budget_bits: u64) {
    let mut lane = build();
    let nominal = lane.storage_bits();
    assert!(
        nominal <= budget_bits,
        "{}: {nominal} bits exceeds the nominal budget of {budget_bits}",
        lane.name()
    );
    let ops: Vec<(u8, bool)> = (0..96u8).map(|i| (i % family_slots(family), i % 5 < 2)).collect();
    let scored = run_one(lane.as_mut(), &family_trace(family, &ops));
    assert!(
        scored.predictions() > 0.0,
        "{}: the storage trace asked for no prediction",
        lane.name()
    );
    assert_eq!(lane.storage_bits(), nominal, "{}: storage drifted at runtime", lane.name());
}

/// Law 5: the lane predicts every record of its `family` and only
/// observes every other record.
pub fn assert_predicts_its_family(
    build: &dyn Fn() -> Box<dyn Lane>,
    family: Family,
    trace: &Trace,
) {
    let mut lane = build();
    for (record, prediction) in trace.iter().zip(transcript(lane.as_mut(), trace)) {
        assert_eq!(
            prediction.family(),
            family.predicts(&record).then_some(family),
            "{}: {prediction:?} for {record:?}",
            lane.name()
        );
    }
}

/// Instantiates the full conformance suite for one lane.
///
/// Expands to a test module named `$mod_name` containing tests for the
/// laws documented at [module level](self), each over the conformance
/// trace of `$family` (`Direction` or `Target`). The caller's crate
/// must have `proptest` as a dev-dependency (the workspace's vendored
/// mini-proptest).
///
/// ```
/// use branchnet_trace::{predictor_conformance, StaticBias, TargetBtb, Targets};
///
/// predictor_conformance!(static_bias, Direction, 128, || Box::new(StaticBias::default()));
/// predictor_conformance!(btb, Target, 400_000, || Box::new(Targets(TargetBtb::default_geometry())));
/// # fn main() {}
/// ```
#[macro_export]
macro_rules! predictor_conformance {
    ($mod_name:ident, $family:ident, $budget_bits:expr, $build:expr) => {
        mod $mod_name {
            #[allow(unused_imports)]
            use super::*;

            const FAMILY: $crate::Family = $crate::Family::$family;
            const SLOTS: u8 = $crate::conformance::family_slots(FAMILY);

            fn build() -> Box<dyn $crate::Lane> {
                ($build)()
            }

            fn trace(ops: &[(u8, bool)]) -> $crate::Trace {
                $crate::conformance::family_trace(FAMILY, ops)
            }

            ::proptest::proptest! {
                #![proptest_config(::proptest::ProptestConfig::with_cases(16))]

                #[test]
                fn gauntlet_pass_matches_solo_run(
                    ops in ::proptest::collection::vec((0u8..SLOTS, ::proptest::any::<bool>()), 1..200)
                ) {
                    $crate::conformance::assert_gauntlet_matches_solo(&build, &trace(&ops));
                }

                #[test]
                fn flush_equals_fresh_construction(
                    warmup in ::proptest::collection::vec((0u8..SLOTS, ::proptest::any::<bool>()), 1..150),
                    replay in ::proptest::collection::vec((0u8..SLOTS, ::proptest::any::<bool>()), 1..150),
                ) {
                    $crate::conformance::assert_flush_recovers_cold_start(
                        &build,
                        &trace(&warmup),
                        &trace(&replay),
                    );
                }

                #[test]
                fn replay_is_deterministic(
                    ops in ::proptest::collection::vec((0u8..SLOTS, ::proptest::any::<bool>()), 1..200)
                ) {
                    $crate::conformance::assert_deterministic_replay(&build, &trace(&ops));
                }

                #[test]
                fn predicts_exactly_its_family(
                    ops in ::proptest::collection::vec((0u8..SLOTS, ::proptest::any::<bool>()), 1..200)
                ) {
                    $crate::conformance::assert_predicts_its_family(&build, FAMILY, &trace(&ops));
                }
            }

            #[test]
            pub fn storage_bits_within_nominal_budget() {
                $crate::conformance::assert_storage_within(&build, FAMILY, $budget_bits);
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::{Predictor, StaticBias};
    use crate::target::{TargetBtb, TargetPredictor};

    #[test]
    fn mixed_trace_interleaves_unconditional_jumps() {
        let ops: Vec<(u8, bool)> = (0..12u8).map(|i| (i % 6, i % 2 == 0)).collect();
        let trace = mixed_trace(&ops);
        assert_eq!(trace.len(), 12);
        assert!(trace.iter().any(|r| !r.kind.is_conditional()));
        assert!(trace.iter().any(|r| r.kind.is_conditional()));
    }

    #[test]
    fn indirect_mixed_trace_interleaves_all_three_kinds() {
        let ops: Vec<(u8, bool)> = (0..18u8).map(|i| (i % 9, i % 2 == 0)).collect();
        let trace = indirect_mixed_trace(&ops);
        assert_eq!(trace.len(), 18);
        assert!(trace.iter().any(|r| r.kind == BranchKind::Indirect));
        assert!(trace.iter().any(|r| r.kind.is_conditional()));
        assert!(trace.iter().any(|r| r.kind == BranchKind::Jump));
        // Indirect targets are polymorphic: the same slot maps to
        // different targets depending on the op's bool.
        let targets: std::collections::HashSet<u64> =
            trace.iter().filter(|r| r.kind == BranchKind::Indirect).map(|r| r.target).collect();
        assert!(targets.len() > 1);
    }

    #[test]
    fn laws_accept_the_simplest_lanes_of_both_families() {
        let direction: &dyn Fn() -> Box<dyn Lane> = &|| Box::new(AlwaysTaken);
        let last: &dyn Fn() -> Box<dyn Lane> = &|| Box::new(Targets(LastTarget::new()));
        let btb: &dyn Fn() -> Box<dyn Lane> = &|| Box::new(Targets(TargetBtb::default_geometry()));
        for (build, family) in
            [(direction, Family::Direction), (last, Family::Target), (btb, Family::Target)]
        {
            let ops: Vec<(u8, bool)> =
                (0..60u8).map(|i| (i % family_slots(family), i % 3 == 0)).collect();
            let trace = family_trace(family, &ops);
            assert!(
                transcript(build().as_mut(), &trace).iter().any(|p| p.family() == Some(family)),
                "{family:?}: the family trace asked for no prediction"
            );
            assert_gauntlet_matches_solo(build, &trace);
            assert_deterministic_replay(build, &trace);
            assert_flush_recovers_cold_start(build, &trace, &trace);
            assert_predicts_its_family(build, family, &trace);
        }
        assert_storage_within(last, Family::Target, 0);
    }

    #[test]
    fn zero_storage_predictors_pass_within_any_budget() {
        assert_storage_within(&|| Box::new(AlwaysTaken), Family::Direction, 0);
        assert_storage_within(&|| Box::new(StaticBias::default()), Family::Direction, 64);
    }

    #[test]
    fn transcript_matches_gauntlet_accounting() {
        let ops: Vec<(u8, bool)> = (0..48u8).map(|i| (i % 9, i % 4 == 0)).collect();
        let trace = indirect_mixed_trace(&ops);
        let log = transcript(&mut Targets(LastTarget::new()), &trace);
        let stats = run_one(&mut Targets(LastTarget::new()), &trace);
        let wrong = trace.iter().zip(&log).filter(|(r, p)| p.correct(r) == Some(false)).count();
        assert_eq!(log.len(), trace.len());
        assert_eq!(wrong as f64, stats.mispredictions());
        assert_eq!(
            log.iter().filter(|p| **p != Prediction::None).count() as f64,
            stats.predictions()
        );
    }

    #[test]
    #[should_panic(expected = "for BranchRecord")]
    fn a_lane_declared_in_the_wrong_family_is_rejected() {
        let trace = indirect_mixed_trace(&[(0, true), (1, true), (2, false)]);
        assert_predicts_its_family(&|| Box::new(AlwaysTaken), Family::Target, &trace);
    }

    /// A deliberately dishonest predictor: claims more storage than
    /// its budget, and grows it as it trains.
    struct Dishonest {
        bits: u64,
    }

    impl Predictor for Dishonest {
        fn predict(&mut self, _pc: u64) -> bool {
            true
        }
        fn update(&mut self, _record: &BranchRecord, _predicted: bool) {
            self.bits += 1;
        }
        fn name(&self) -> &'static str {
            "dishonest"
        }
        fn storage_bits(&self) -> u64 {
            self.bits
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the nominal budget")]
    fn over_budget_storage_is_rejected() {
        assert_storage_within(&|| Box::new(Dishonest { bits: 100 }), Family::Direction, 64);
    }

    #[test]
    #[should_panic(expected = "storage drifted at runtime")]
    fn runtime_storage_drift_is_rejected() {
        assert_storage_within(&|| Box::new(Dishonest { bits: 10 }), Family::Direction, 1 << 40);
    }

    /// A target predictor whose storage grows as it trains: only a
    /// trace that reaches `update_target` exposes the drift.
    struct DishonestTarget {
        bits: u64,
    }

    impl TargetPredictor for DishonestTarget {
        fn predict_target(&mut self, pc: u64) -> u64 {
            pc
        }
        fn update_target(&mut self, _record: &BranchRecord, _predicted: u64) {
            self.bits += 1;
        }
        fn name(&self) -> &'static str {
            "dishonest-target"
        }
        fn storage_bits(&self) -> u64 {
            self.bits
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the nominal budget")]
    fn over_budget_target_storage_is_rejected() {
        assert_storage_within(
            &|| Box::new(Targets(DishonestTarget { bits: 100 })),
            Family::Target,
            64,
        );
    }

    #[test]
    #[should_panic(expected = "storage drifted at runtime")]
    fn runtime_target_storage_drift_is_rejected() {
        assert_storage_within(
            &|| Box::new(Targets(DishonestTarget { bits: 10 })),
            Family::Target,
            1 << 40,
        );
    }
}
