//! The [`Lane`] contract: what every trace replay drives, record by record.
//!
//! The [`Gauntlet`](crate::gauntlet::Gauntlet), the timing model's
//! `simulate_many` and the [`conformance`](crate::conformance) laws
//! all replay a trace record by record through lanes. A lane consumes
//! one record at a time and says what it predicted for it: a
//! direction, a target, or nothing for a record it only observes.
//! Scoring that prediction against the record's outcome happens in
//! one place, [`Lane::score_block`].
//!
//! The two predictor families keep their own traits, [`Predictor`]
//! for directions and [`TargetPredictor`] for indirect targets. Their
//! `predict(pc)` / `predict_target(pc)` take the PC alone, so a
//! family predictor cannot see the outcome before it predicts; a lane
//! is handed the whole record because it resolves its own
//! prediction. Every direction predictor is a lane through one
//! blanket impl and every target predictor through the [`Targets`]
//! adapter, so only an oracle implements `Lane` by hand.
//!
//! ```
//! use branchnet_trace::{run_one, AlwaysTaken, BranchKind, BranchRecord, LastTarget, Targets, Trace};
//!
//! let trace: Trace = (0..10u64)
//!     .map(|i| BranchRecord::unconditional(0x40, 0x9000 + (i % 2) * 64, BranchKind::Indirect))
//!     .collect();
//! // Direction lanes only observe indirect branches ...
//! assert_eq!(run_one(&mut AlwaysTaken, &trace).predictions(), 0.0);
//! // ... which target lanes predict.
//! assert_eq!(run_one(&mut Targets(LastTarget::new()), &trace).predictions(), 10.0);
//! ```

use crate::predict::Predictor;
use crate::record::{BranchKind, BranchRecord};
use crate::stats::{BranchStats, PredictionStats};
use crate::target::TargetPredictor;

/// Which outcome a lane predicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Taken or not taken, for every conditional branch.
    Direction,
    /// The target address, for every indirect branch.
    Target,
}

impl Family {
    /// Whether a lane of this family predicts `record` (rather than
    /// only observing it).
    #[must_use]
    pub fn predicts(self, record: &BranchRecord) -> bool {
        match self {
            Self::Direction => record.kind.is_conditional(),
            Self::Target => record.kind == BranchKind::Indirect,
        }
    }
}

/// What a lane predicted for one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prediction {
    /// The lane only observed the record.
    None,
    /// The predicted direction of a conditional branch.
    Direction(bool),
    /// The predicted target of an indirect branch.
    Target(u64),
}

impl Prediction {
    /// Whether the prediction matches `record`'s outcome; `None` for a
    /// record the lane only observed.
    #[must_use]
    pub fn correct(self, record: &BranchRecord) -> Option<bool> {
        match self {
            Self::None => None,
            Self::Direction(taken) => Some(taken == record.taken),
            Self::Target(target) => Some(target == record.target),
        }
    }

    /// The family this prediction belongs to; `None` when nothing was
    /// predicted.
    #[must_use]
    pub fn family(self) -> Option<Family> {
        match self {
            Self::None => None,
            Self::Direction(_) => Some(Family::Direction),
            Self::Target(_) => Some(Family::Target),
        }
    }
}

/// One predictor as the trace replays see it.
pub trait Lane {
    /// Consumes the next record in trace order: predicts it if it is a
    /// record this lane predicts, trains on the resolved outcome (or
    /// notes the record in its histories), and returns what it
    /// predicted before training.
    fn step(&mut self, record: &BranchRecord) -> Prediction;

    /// Returns the lane to its freshly-constructed state (see
    /// [`Predictor::flush`]).
    fn flush(&mut self) {}

    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Modeled hardware budget in bits (0 when not meaningful).
    fn storage_bits(&self) -> u64 {
        0
    }

    /// Steps through `records` and scores every prediction: a
    /// predicted record counts as one prediction, right or wrong, plus
    /// its instruction gap, and also per static branch into
    /// `branch_stats` when given; an observed record is instruction
    /// credit only.
    fn score_block(
        &mut self,
        records: &[BranchRecord],
        stats: &mut PredictionStats,
        mut branch_stats: Option<&mut BranchStats>,
    ) {
        for record in records {
            match self.step(record).correct(record) {
                Some(correct) => {
                    stats.record(correct, record.inst_gap);
                    if let Some(bs) = branch_stats.as_deref_mut() {
                        bs.record(record.pc, correct, record.inst_gap);
                    }
                }
                None => stats.record_instructions(1 + u64::from(record.inst_gap)),
            }
        }
    }
}

impl<P: Predictor + ?Sized> Lane for P {
    #[inline]
    fn step(&mut self, record: &BranchRecord) -> Prediction {
        if record.kind.is_conditional() {
            let taken = self.predict(record.pc);
            self.update(record, taken);
            Prediction::Direction(taken)
        } else {
            self.note_unconditional(record);
            Prediction::None
        }
    }
    fn flush(&mut self) {
        Predictor::flush(self);
    }
    fn name(&self) -> &'static str {
        Predictor::name(self)
    }
    fn storage_bits(&self) -> u64 {
        Predictor::storage_bits(self)
    }
}

/// A [`TargetPredictor`] as a [`Lane`]: it predicts every
/// [`BranchKind::Indirect`] record and notes every other one.
#[derive(Debug, Clone, Default)]
pub struct Targets<P>(pub P);

impl<P: TargetPredictor> Lane for Targets<P> {
    #[inline]
    fn step(&mut self, record: &BranchRecord) -> Prediction {
        if record.kind == BranchKind::Indirect {
            let target = self.0.predict_target(record.pc);
            self.0.update_target(record, target);
            Prediction::Target(target)
        } else {
            self.0.note_branch(record);
            Prediction::None
        }
    }
    fn flush(&mut self) {
        TargetPredictor::flush(&mut self.0);
    }
    fn name(&self) -> &'static str {
        TargetPredictor::name(&self.0)
    }
    fn storage_bits(&self) -> u64 {
        TargetPredictor::storage_bits(&self.0)
    }
}
