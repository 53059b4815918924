//! Conformance-suite instantiations for every runtime baseline in
//! [`baseline_lineup`] and [`target_lineup`], at the exact
//! configurations the experiments run. A predictor that joins either
//! lineup without a `predictor_conformance!` module here trips
//! [`every_lineup_entry_has_a_conformance_module`] or
//! [`every_target_lineup_entry_has_a_conformance_module`], which is the
//! failure the dedicated conformance CI step exists to surface.

use branchnet_tage::{baseline_lineup, target_lineup, LineupEntry};
use branchnet_trace::conformance::{
    assert_deterministic_replay, assert_flush_recovers_cold_start, assert_gauntlet_matches_solo,
    assert_predicts_its_family, assert_storage_within, family_slots, family_trace,
};
use branchnet_trace::{predictor_conformance, Family};

/// The entry for `name` in either lineup, or a panic naming the
/// missing entry.
fn entry(name: &str) -> LineupEntry {
    baseline_lineup()
        .into_iter()
        .chain(target_lineup())
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} is in neither lineup"))
}

predictor_conformance!(
    bimodal,
    Direction,
    entry("bimodal").nominal_budget_bits,
    entry("bimodal").build
);
predictor_conformance!(
    gshare,
    Direction,
    entry("gshare").nominal_budget_bits,
    entry("gshare").build
);
predictor_conformance!(
    two_level,
    Direction,
    entry("two-level").nominal_budget_bits,
    entry("two-level").build
);
predictor_conformance!(
    loop_only,
    Direction,
    entry("loop-only").nominal_budget_bits,
    entry("loop-only").build
);
predictor_conformance!(
    perceptron,
    Direction,
    entry("perceptron").nominal_budget_bits,
    entry("perceptron").build
);
predictor_conformance!(
    local_perceptron,
    Direction,
    entry("local-perceptron").nominal_budget_bits,
    entry("local-perceptron").build
);
predictor_conformance!(
    hashed_perceptron,
    Direction,
    entry("hashed-perceptron").nominal_budget_bits,
    entry("hashed-perceptron").build
);
predictor_conformance!(
    o_gehl,
    Direction,
    entry("o-gehl").nominal_budget_bits,
    entry("o-gehl").build
);
predictor_conformance!(
    tage_sc_l_64kb,
    Direction,
    entry("tage-sc-l-64kb").nominal_budget_bits,
    entry("tage-sc-l-64kb").build
);

// Target family at the exact target_lineup() configurations. The
// strawmen are also instantiated in crates/trace/tests/conformance.rs
// against their own constructors; here they run under the registry's
// builders so a lineup configuration drift is caught.
predictor_conformance!(
    target_last_target,
    Target,
    entry("last-target").nominal_budget_bits,
    entry("last-target").build
);
predictor_conformance!(target_btb, Target, entry("btb").nominal_budget_bits, entry("btb").build);
predictor_conformance!(
    target_ittage_64kb,
    Target,
    entry("ittage-64kb").nominal_budget_bits,
    entry("ittage-64kb").build
);

/// Pins the direction roster to the instantiations above: growing (or
/// renaming) the lineup without extending this file fails here with an
/// actionable message instead of silently skipping conformance.
#[test]
fn every_lineup_entry_has_a_conformance_module() {
    let covered = [
        "bimodal",
        "gshare",
        "two-level",
        "loop-only",
        "perceptron",
        "local-perceptron",
        "hashed-perceptron",
        "o-gehl",
        "tage-sc-l-64kb",
    ];
    let lineup: Vec<&str> = baseline_lineup().iter().map(|e| e.name).collect();
    assert_eq!(
        lineup, covered,
        "baseline_lineup() and the predictor_conformance! instantiations in \
         crates/tage/tests/conformance.rs are out of sync — add or remove a module"
    );
}

/// Pins the target roster the same way.
#[test]
fn every_target_lineup_entry_has_a_conformance_module() {
    let covered = ["last-target", "btb", "ittage-64kb"];
    let lineup: Vec<&str> = target_lineup().iter().map(|e| e.name).collect();
    assert_eq!(
        lineup, covered,
        "target_lineup() and the predictor_conformance! instantiations in \
         crates/tage/tests/conformance.rs are out of sync — add or remove a module"
    );
}

/// Belt-and-braces sweep driven by the registry itself: even if an
/// instantiation above were deleted, every entry of both lineups still
/// gets one deterministic pass over each law, on its family's trace,
/// and every entry with a budget must model its storage.
#[test]
fn both_lineups_pass_every_law_on_a_deterministic_trace() {
    let direction = baseline_lineup().into_iter().map(|e| (e, Family::Direction));
    let target = target_lineup().into_iter().map(|e| (e, Family::Target));
    for (e, family) in direction.chain(target) {
        let slots = u32::from(family_slots(family));
        let ops: Vec<(u8, bool)> =
            (0..180u32).map(|i| ((i % slots) as u8, i.wrapping_mul(2654435761) % 7 < 3)).collect();
        let warmup = family_trace(family, &ops[..90]);
        let trace = family_trace(family, &ops);
        assert_gauntlet_matches_solo(&e.build, &trace);
        assert_flush_recovers_cold_start(&e.build, &warmup, &trace);
        assert_deterministic_replay(&e.build, &trace);
        assert_predicts_its_family(&e.build, family, &trace);
        assert_storage_within(&e.build, family, e.nominal_budget_bits);
        if e.nominal_budget_bits > 0 {
            let bits = (e.build)().storage_bits();
            assert!(bits > 0, "{}: a budgeted baseline must model storage", e.name);
        }
    }
}
