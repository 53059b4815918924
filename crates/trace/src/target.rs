//! The [`TargetPredictor`] contract for indirect-branch targets.
//!
//! Direction prediction answers taken/not-taken; a large share of the
//! residual MPKI that motivates BranchNet comes instead from *indirect*
//! branches — interpreter dispatch, virtual calls, switch tables —
//! where the question is *which address* the branch goes to. This
//! module is the target-prediction sibling of
//! [`predict`](crate::predict): an object-safe trait with the same
//! predict-then-update driving contract, implemented here by two
//! strawmen (an idealized last-target table and a finite BTB) and in
//! `branchnet-tage` by ITTAGE. Wrapped in [`Targets`](crate::lane::Targets),
//! a target predictor is a [`Lane`](crate::lane::Lane), so the
//! [`Gauntlet`](crate::gauntlet) drives it alongside direction lanes in
//! the same decode pass.

use crate::record::{BranchKind, BranchRecord};

/// The address a fetch unit falls through to when it has no prediction
/// for the indirect branch at `pc`: the next sequential instruction.
/// Every target predictor in the lineup uses this as its cold-start
/// answer so misses are counted uniformly.
#[must_use]
pub fn fallthrough_target(pc: u64) -> u64 {
    pc.wrapping_add(4)
}

/// A runtime indirect-branch target predictor.
///
/// Target predictors are driven in trace order, mirroring the
/// [`Predictor`](crate::predict::Predictor) contract: for every
/// [`BranchKind::Indirect`] record,
/// [`predict_target`](TargetPredictor::predict_target) is called
/// first, then [`update_target`](TargetPredictor::update_target) with
/// the resolved record. All *other* records (conditional branches,
/// direct jumps, calls, returns) are reported through
/// [`note_branch`](TargetPredictor::note_branch) so history registers
/// stay realistic — ITTAGE's whole edge over a BTB is that its tables
/// are indexed by that surrounding control-flow history.
pub trait TargetPredictor {
    /// Predicts the target address of the indirect branch at `pc`.
    fn predict_target(&mut self, pc: u64) -> u64;

    /// Trains on the resolved indirect branch. `predicted` must be the
    /// value this predictor returned from the immediately preceding
    /// [`predict_target`](TargetPredictor::predict_target) call for
    /// the same branch.
    fn update_target(&mut self, record: &BranchRecord, predicted: u64);

    /// Observes a non-indirect control-flow record (shifts
    /// direction/path/target histories in predictors that keep them).
    fn note_branch(&mut self, record: &BranchRecord) {
        let _ = record;
    }

    /// Discards all runtime-learned state, returning the predictor to
    /// exactly its freshly-constructed state. Offline-derived
    /// configuration survives, matching
    /// [`Predictor::flush`](crate::predict::Predictor::flush).
    fn flush(&mut self) {}

    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Modeled hardware budget in bits (0 when not meaningful, e.g.
    /// for idealized unbounded predictors).
    fn storage_bits(&self) -> u64 {
        0
    }
}

/// The idealized last-target strawman: an unbounded per-PC table that
/// always predicts the target the branch most recently went to. This
/// is the floor every serious target predictor must beat — it is
/// perfect on monomorphic call sites and hopeless on interpreter
/// dispatch, where consecutive targets almost always differ. Storage
/// is reported as 0 (unbounded, "not meaningful"), like the direction
/// lineup's oracle strawmen.
#[derive(Debug, Clone, Default)]
pub struct LastTarget {
    last: std::collections::HashMap<u64, u64>,
}

impl LastTarget {
    /// Creates an empty last-target table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl TargetPredictor for LastTarget {
    fn predict_target(&mut self, pc: u64) -> u64 {
        self.last.get(&pc).copied().unwrap_or_else(|| fallthrough_target(pc))
    }
    fn update_target(&mut self, record: &BranchRecord, _predicted: u64) {
        debug_assert_eq!(record.kind, BranchKind::Indirect);
        self.last.insert(record.pc, record.target);
    }
    fn flush(&mut self) {
        self.last.clear();
    }
    fn name(&self) -> &'static str {
        "last-target"
    }
}

/// A finite branch-target-buffer strawman: a direct-mapped tagged
/// table of last-seen targets. Same prediction policy as
/// [`LastTarget`] but with realistic capacity pressure — aliasing
/// sites evict each other, and a tag miss falls through to
/// [`fallthrough_target`]. This is the hardware-honest baseline the
/// target-MPKI experiment reports alongside ITTAGE.
#[derive(Debug, Clone)]
pub struct TargetBtb {
    log2_entries: u32,
    tag_bits: u32,
    entries: Vec<BtbEntry>,
}

#[derive(Debug, Clone, Copy, Default)]
struct BtbEntry {
    valid: bool,
    tag: u32,
    target: u64,
}

impl TargetBtb {
    /// Creates a direct-mapped BTB with `2^log2_entries` entries, each
    /// holding a `tag_bits`-bit tag and a full 64-bit target.
    ///
    /// # Panics
    ///
    /// Panics when `log2_entries` exceeds 24 or `tag_bits` exceeds 32
    /// (the geometry would be silly, not merely expensive).
    #[must_use]
    pub fn new(log2_entries: u32, tag_bits: u32) -> Self {
        assert!(log2_entries <= 24, "BTB log2_entries {log2_entries} exceeds 24");
        assert!(tag_bits <= 32, "BTB tag_bits {tag_bits} exceeds 32");
        Self { log2_entries, tag_bits, entries: vec![BtbEntry::default(); 1 << log2_entries] }
    }

    /// The default experiment geometry: 4096 entries × 12-bit tags
    /// (≈38 KB of modeled storage).
    #[must_use]
    pub fn default_geometry() -> Self {
        Self::new(12, 12)
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & ((1u64 << self.log2_entries) - 1)) as usize
    }

    fn tag(&self, pc: u64) -> u32 {
        ((pc >> (2 + self.log2_entries)) & ((1u64 << self.tag_bits) - 1)) as u32
    }
}

impl TargetPredictor for TargetBtb {
    fn predict_target(&mut self, pc: u64) -> u64 {
        let e = self.entries[self.index(pc)];
        if e.valid && e.tag == self.tag(pc) {
            e.target
        } else {
            fallthrough_target(pc)
        }
    }
    fn update_target(&mut self, record: &BranchRecord, _predicted: u64) {
        debug_assert_eq!(record.kind, BranchKind::Indirect);
        let idx = self.index(record.pc);
        self.entries[idx] =
            BtbEntry { valid: true, tag: self.tag(record.pc), target: record.target };
    }
    fn flush(&mut self) {
        for e in &mut self.entries {
            *e = BtbEntry::default();
        }
    }
    fn name(&self) -> &'static str {
        "btb"
    }
    fn storage_bits(&self) -> u64 {
        // valid bit + tag + full 64-bit target per entry.
        (1u64 << self.log2_entries) * (1 + u64::from(self.tag_bits) + 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gauntlet::run_one;
    use crate::lane::Targets;
    use crate::trace::Trace;

    fn indirect(pc: u64, target: u64) -> BranchRecord {
        BranchRecord::unconditional(pc, target, BranchKind::Indirect)
    }

    #[test]
    fn last_target_is_perfect_on_monomorphic_sites() {
        let t: Trace = (0..100).map(|_| indirect(0x40, 0x9000)).collect();
        let stats = run_one(&mut Targets(LastTarget::new()), &t);
        // Only the cold-start prediction misses.
        assert!((stats.mispredictions() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn last_target_fails_on_alternating_targets() {
        let t: Trace = (0..100).map(|i| indirect(0x40, 0x9000 + (i % 2) * 64)).collect();
        let stats = run_one(&mut Targets(LastTarget::new()), &t);
        assert!((stats.accuracy() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn btb_matches_last_target_without_aliasing() {
        let t: Trace =
            (0..200).map(|i| indirect(0x40 + (i % 4) * 8, 0x9000 + (i % 4) * 64)).collect();
        let ideal = run_one(&mut Targets(LastTarget::new()), &t);
        let btb = run_one(&mut Targets(TargetBtb::default_geometry()), &t);
        assert_eq!(ideal, btb);
    }

    #[test]
    fn btb_aliasing_evicts_and_last_target_does_not() {
        // Two PCs 2^(2+log2) apart share a BTB set but differ in tag.
        let mut b = TargetBtb::new(4, 8);
        let pc_a = 0x40;
        let pc_b = 0x40 + (1u64 << (2 + 4));
        b.update_target(&indirect(pc_a, 0x9000), 0);
        assert_eq!(b.predict_target(pc_a), 0x9000);
        b.update_target(&indirect(pc_b, 0xA000), 0);
        // pc_a was evicted by the aliasing pc_b.
        assert_eq!(b.predict_target(pc_a), fallthrough_target(pc_a));
        let mut lt = LastTarget::new();
        lt.update_target(&indirect(pc_a, 0x9000), 0);
        lt.update_target(&indirect(pc_b, 0xA000), 0);
        assert_eq!(lt.predict_target(pc_a), 0x9000);
    }

    #[test]
    fn btb_storage_bits_match_geometry() {
        let b = TargetBtb::new(12, 12);
        assert_eq!(b.storage_bits(), 4096 * (1 + 12 + 64));
    }
}
