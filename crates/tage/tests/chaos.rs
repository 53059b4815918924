//! Chaos suite for the target-prediction lane: corrupted attachable
//! ITTAGE configurations must degrade to the [`LastTarget`] strawman
//! bit-identically with exact rejection counters, and arbitrary
//! configuration bytes must never panic the decoder — DESIGN.md §9's
//! untrusted-bytes contract applied to §8's target family.
//!
//! Counter exactness relies on this binary being the only caller of
//! [`target_lane_or_fallback`] in its process: keep any new test here
//! on [`IttageConfig::from_bytes`] unless it owns its own counter
//! bookkeeping.

use branchnet_tage::{target_config_rejections, target_lane_or_fallback, Ittage, IttageConfig};
use branchnet_trace::{
    run_one, BranchKind, BranchRecord, FaultPlan, Lane, LastTarget, PredictionStats, Targets, Trace,
};
use proptest::prelude::*;

/// A history-correlated interpreter-dispatch trace, dense in
/// [`BranchKind::Indirect`] records. ITTAGE and last-target score very
/// differently on it, so "degraded lane == last-target" is a real
/// distinction, not a coincidence of equal stats.
fn indirect_dense_trace() -> Trace {
    let mut t = Trace::with_label("chaos/indirect-dense", 1.0);
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut op = 0u64;
    for _ in 0..4_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // No-consecutive-repeat dispatch: the next opcode depends on
        // the previous one, which is what gives history its edge.
        op = (op + 1 + (x >> 5) % 7) % 8;
        t.push(BranchRecord::unconditional(0xB000, 0xB400 + op * 0x40, BranchKind::Indirect));
        t.push(BranchRecord::conditional(0xB400 + op * 0x40 + 8, x & 1 == 1));
    }
    t
}

fn stats_of(mut lane: Box<dyn Lane>, trace: &Trace) -> PredictionStats {
    run_one(lane.as_mut(), trace)
}

/// Every seeded corruption of a valid configuration either still
/// parses (and builds a bit-identical ITTAGE lane, counter untouched)
/// or degrades to a lane bit-identical to a directly-constructed
/// [`LastTarget`], bumping the rejection counter exactly once per
/// rejection. This is the single test in this binary allowed to call
/// [`target_lane_or_fallback`], so the process-global counter can be
/// asserted exactly.
#[test]
fn corrupted_config_bytes_degrade_to_last_target_bit_identically() {
    let valid = IttageConfig::budget_64kb().to_bytes();
    let trace = indirect_dense_trace();
    let last_target_stats = stats_of(Box::new(Targets(LastTarget::new())), &trace);
    let ittage_stats =
        stats_of(Box::new(Targets(Ittage::new(&IttageConfig::budget_64kb()))), &trace);
    assert_ne!(last_target_stats, ittage_stats, "trace must separate the two designs");

    let before = target_config_rejections();
    let mut rejected = 0u64;
    for seed in 0..64u64 {
        let corrupted = FaultPlan::generate(seed, valid.len() as u64).corrupt(&valid);
        let (lane, err) = target_lane_or_fallback(&corrupted);
        match err {
            Some(e) => {
                rejected += 1;
                assert_eq!(lane.name(), "last-target", "seed {seed}: {e}");
                assert_eq!(
                    stats_of(lane, &trace),
                    last_target_stats,
                    "seed {seed}: degraded lane must match a fresh LastTarget exactly"
                );
            }
            None => {
                // The plan happened to leave (or reassemble) a valid
                // config; the lane must then be a real ITTAGE for
                // whatever geometry those bytes decode to — not a
                // silent fallback.
                assert_eq!(lane.name(), "ittage-64kb", "seed {seed}");
                let parsed = IttageConfig::from_bytes(&corrupted).expect("fallback said valid");
                assert_eq!(
                    stats_of(lane, &trace),
                    stats_of(Box::new(Targets(Ittage::new(&parsed))), &trace),
                    "seed {seed}"
                );
            }
        }
    }
    assert!(rejected > 0, "no fault plan rejected — the corpus is too gentle");
    assert_eq!(
        target_config_rejections(),
        before + rejected,
        "each rejection must bump the counter exactly once"
    );
}

/// The trailing XOR checksum makes every proper prefix invalid: all
/// truncations are typed errors, and all errors format.
#[test]
fn truncation_at_every_byte_is_a_clean_error() {
    let valid = IttageConfig::budget_64kb().to_bytes();
    for cut in 0..valid.len() {
        let err =
            IttageConfig::from_bytes(&valid[..cut]).expect_err("a truncated config must not parse");
        assert!(!err.to_string().is_empty());
    }
    assert!(IttageConfig::from_bytes(&valid).is_ok());
}

proptest! {
    /// Arbitrary bytes must never panic the config decoder, with or
    /// without a valid magic+version prefix steering them deep into
    /// the field parser.
    #[test]
    fn arbitrary_config_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = IttageConfig::from_bytes(&bytes);
        let mut framed = b"ITCF\x01".to_vec();
        framed.extend_from_slice(&bytes);
        let _ = IttageConfig::from_bytes(&framed);
    }

    /// Single-byte corruption at any position is always caught — the
    /// checksum plus field validation leave no silently-accepted flip
    /// that changes the geometry.
    #[test]
    fn any_single_byte_flip_is_rejected(pos in 0usize..64, flip in 1u8..=255) {
        let mut bytes = IttageConfig::budget_64kb().to_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        prop_assert!(IttageConfig::from_bytes(&bytes).is_err());
    }
}
