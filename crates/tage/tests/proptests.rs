//! Property-based tests for the runtime predictors and the gauntlet
//! evaluator that drives them.
//!
//! Per-predictor contracts (gauntlet==solo, flush==fresh, determinism,
//! storage ceilings) live in the shared conformance suite
//! (`branchnet_trace::conformance`, instantiated in
//! `tests/conformance.rs`); this file keeps the properties that span
//! the whole lineup at once or are specific to TAGE-SC-L.

use branchnet_tage::{baseline_lineup, Predictor, TageScL, TageSclConfig};
use branchnet_trace::conformance::mixed_trace;
use branchnet_trace::{run_one, BranchKind, BranchRecord, Gauntlet, Trace};
use proptest::prelude::*;

/// Every registered baseline, freshly constructed at its experiment
/// configuration.
fn lineup() -> Vec<Box<dyn branchnet_trace::Lane>> {
    baseline_lineup().into_iter().map(|e| (e.build)()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every predictor is total: arbitrary PC/direction streams never
    /// panic, and the accounting matches the stream length.
    #[test]
    fn predictors_are_total(
        stream in prop::collection::vec((0u64..1 << 20, any::<bool>()), 1..300)
    ) {
        let trace: Trace =
            stream.iter().map(|&(pc, t)| BranchRecord::conditional(pc << 2, t)).collect();
        for p in &mut lineup() {
            let stats = run_one(p.as_mut(), &trace);
            prop_assert!((stats.predictions() - trace.len() as f64).abs() < 1e-9);
            prop_assert!(stats.accuracy() >= 0.0 && stats.accuracy() <= 1.0);
        }
    }

    /// A perfectly biased branch is learned by every registered
    /// baseline to near-perfection once warm.
    #[test]
    fn all_predictors_learn_constant_direction(taken in any::<bool>(), pc in 1u64..1000) {
        let trace: Trace =
            (0..300).map(|_| BranchRecord::conditional(pc << 3, taken)).collect();
        for p in &mut lineup() {
            let stats = run_one(p.as_mut(), &trace);
            prop_assert!(
                stats.mispredictions() <= 8.0,
                "{} mispredicted a constant branch {} times",
                p.name(),
                stats.mispredictions()
            );
        }
    }

    /// The gauntlet's own `flush` (between traces of a serial set)
    /// keeps accumulating statistics while cold-starting the
    /// predictors — equal to summing independent cold runs.
    #[test]
    fn gauntlet_flush_accumulates_cold_runs(
        first in prop::collection::vec((0u8..6, any::<bool>()), 1..150),
        second in prop::collection::vec((0u8..6, any::<bool>()), 1..150),
    ) {
        let traces = [mixed_trace(&first), mixed_trace(&second)];

        let mut gauntlet = Gauntlet::new();
        for p in lineup() {
            gauntlet.add_boxed(p);
        }
        for t in &traces {
            gauntlet.run(t);
            gauntlet.flush();
        }
        let lanes = gauntlet.finish();

        for (i, mut p) in lineup().into_iter().enumerate() {
            let mut expected = branchnet_trace::PredictionStats::new();
            for t in &traces {
                expected.merge(&run_one(p.as_mut(), t));
                p.flush();
            }
            prop_assert_eq!(&lanes[i].stats, &expected, "lane {} diverged", lanes[i].name);
        }
    }

    /// TAGE-SC-L state stays consistent under interleaved conditional
    /// and unconditional control flow.
    #[test]
    fn tage_scl_handles_mixed_control_flow(
        ops in prop::collection::vec((0u8..6, any::<bool>()), 1..300)
    ) {
        let mut p = TageScL::new(&TageSclConfig::tage_sc_l_64kb());
        for (slot, taken) in ops {
            let pc = 0x4000 + u64::from(slot) * 32;
            if slot % 3 == 0 {
                p.note_unconditional(&BranchRecord::unconditional(
                    pc,
                    pc + 64,
                    BranchKind::Jump,
                ));
            } else {
                let pred = p.predict(pc);
                p.update(&BranchRecord::conditional(pc, taken), pred);
            }
        }
        // Storage accounting never changes at runtime.
        prop_assert_eq!(
            p.storage_bits(),
            TageScL::new(&TageSclConfig::tage_sc_l_64kb()).storage_bits()
        );
    }
}

#[test]
fn storage_ordering_across_configs() {
    let bits = |cfg: &TageSclConfig| TageScL::new(cfg).storage_bits();
    let b56 = bits(&TageSclConfig::tage_sc_l_56kb());
    let b64 = bits(&TageSclConfig::tage_sc_l_64kb());
    let unlimited = bits(&TageSclConfig::mtage_sc_unlimited());
    assert!(b56 < b64 && b64 < unlimited);
    assert!(b64 <= 64 * 1024 * 8);
    assert!(b56 <= 56 * 1024 * 8 + 8 * 1024, "56KB config near budget: {b56} bits");
}

/// `storage_bits` sanity against the paper's budgets (Table II /
/// Section VI): every registered baseline must report a plausible,
/// non-zero hardware cost inside its nominal budget class, and the
/// paper's 64 KB TAGE-SC-L flagship must sit inside — but near — its
/// budget.
#[test]
fn storage_bits_match_nominal_budgets() {
    let kb = |bits: u64| bits as f64 / 8.0 / 1024.0;

    for e in baseline_lineup() {
        let p = (e.build)();
        let got = p.storage_bits();
        assert!(got > 0, "{} reports zero storage", e.name);
        assert!(
            got <= e.nominal_budget_bits,
            "{}: {:.2}KB exceeds its {:.2}KB class",
            e.name,
            kb(got),
            kb(e.nominal_budget_bits)
        );
    }

    let full = TageScL::new(&TageSclConfig::tage_sc_l_64kb()).storage_bits();
    assert!(kb(full) <= 64.0, "64KB baseline: {:.2}KB", kb(full));
    assert!(kb(full) >= 48.0, "64KB baseline suspiciously small: {:.2}KB", kb(full));
    let small = TageScL::new(&TageSclConfig::tage_sc_l_56kb()).storage_bits();
    assert!(small < full);
}
