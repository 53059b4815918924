//! Conformance-suite instantiations for the trace crate's own
//! predictors of both families — the trivial end of the spectrum, which pins down the
//! suite's semantics for stateless and offline-configured predictors
//! (a [`StaticBias`] profile must survive `flush`, and zero storage
//! is legal for predictors without modeled hardware).

use branchnet_trace::{
    predictor_conformance, AlwaysTaken, BranchRecord, LastTarget, StaticBias, TargetBtb, Targets,
    Trace,
};

predictor_conformance!(always_taken, Direction, 0, || Box::new(AlwaysTaken));

predictor_conformance!(static_bias_empty, Direction, 0, || Box::new(StaticBias::default()));

predictor_conformance!(static_bias_profiled, Direction, 0, || {
    // A fixed profile over the conformance suite's PC range: offline
    // configuration that must survive flush bit-for-bit.
    let profile: Trace =
        (0..32u64).map(|i| BranchRecord::conditional(0x4000 + (i % 6) * 32, i % 3 == 0)).collect();
    Box::new(StaticBias::from_profile(&profile))
});

// Target-prediction family: the two strawmen every serious target
// predictor is measured against. LastTarget is idealized (unbounded,
// zero modeled storage); the BTB models 4096 × (1 valid + 12 tag + 64
// target) = 315_392 bits and must stay within a 320 Kbit budget.

predictor_conformance!(target_last_target, Target, 0, || Box::new(Targets(LastTarget::new())));

predictor_conformance!(target_btb, Target, 320_000, || {
    Box::new(Targets(TargetBtb::default_geometry()))
});

predictor_conformance!(target_btb_small, Target, 8_000, || Box::new(Targets(TargetBtb::new(
    6, 10
))));
