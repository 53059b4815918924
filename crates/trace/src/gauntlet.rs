//! The [`Gauntlet`]: single-pass, multi-predictor trace evaluation.
//!
//! The paper's evaluation (Figs. 9–13) runs the *same* test traces
//! through every predictor under study. Driving each predictor in its
//! own pass decodes and re-walks the trace once per variant; the
//! gauntlet instead decodes each block of records once and feeds it to
//! N independent *lanes*, collecting per-lane
//! [`PredictionStats`] (and optionally per-static-branch
//! [`BranchStats`]) simultaneously.
//!
//! Evaluation is block-at-a-time over a reused decode buffer of at
//! most [`BLOCK_RECORDS`](crate::trace::BLOCK_RECORDS) records: within
//! a block the inner loop is *lane-major*, so each predictor's tables
//! stay cache-resident while it consumes the whole block. Blocks come
//! either from a resident [`Trace`] ([`Gauntlet::run`]) or straight
//! from a [`TraceReader`] ([`Gauntlet::run_stream`]), which replays
//! traces far larger than RAM with one block of decode memory.
//!
//! Lanes never interact: each lane's predictor sees exactly the
//! predict/update/note sequence it would see when driven alone, and
//! its statistics counters are integer-valued `f64` accumulated in the
//! same order, so per-lane results are bit-identical to a sequential
//! per-predictor run — lane-major block order changes nothing a lane
//! can observe.
//!
//! # Example
//!
//! ```
//! use branchnet_trace::{AlwaysTaken, BranchRecord, Gauntlet, StaticBias, Trace};
//!
//! let trace: Trace = (0..100).map(|i| BranchRecord::conditional(0x40, i % 2 == 0)).collect();
//! let mut gauntlet = Gauntlet::new();
//! let taken = gauntlet.add(AlwaysTaken);
//! let bias = gauntlet.add(StaticBias::from_profile(&trace));
//! gauntlet.run(&trace);
//! assert!((gauntlet.stats(taken).accuracy() - 0.5).abs() < 1e-9);
//! assert!((gauntlet.stats(bias).accuracy() - 0.5).abs() < 1e-9);
//! ```

use crate::io::ReadTraceError;
use crate::predict::Predictor;
use crate::record::{BranchKind, BranchRecord};
use crate::stats::{BranchStats, PredictionStats};
use crate::stream::TraceReader;
use crate::target::TargetPredictor;
use crate::trace::Trace;

/// One predictor being driven through the gauntlet, with its
/// accumulated statistics.
struct Lane<'a> {
    predictor: Box<dyn Predictor + 'a>,
    stats: PredictionStats,
    branch_stats: Option<BranchStats>,
}

/// One *target* predictor being driven through the gauntlet. Target
/// lanes ride the same single decode pass as direction lanes: each
/// [`BranchKind::Indirect`] record is a predict/update pair, every
/// other record is instruction credit plus a history note, so the
/// lane's [`PredictionStats`] read directly as target-MPKI and target
/// accuracy.
struct TargetLane<'a> {
    predictor: Box<dyn TargetPredictor + 'a>,
    stats: PredictionStats,
}

/// A finished lane's results, as returned by [`Gauntlet::finish`].
pub struct LaneResult {
    /// The predictor's [`Predictor::name`].
    pub name: &'static str,
    /// Aggregate statistics over every record the lane saw.
    pub stats: PredictionStats,
    /// Per-static-branch statistics, for lanes added with
    /// [`Gauntlet::add_tracked`]. Matches the historical
    /// per-branch-evaluation convention: only conditional branches are
    /// counted (no unconditional instruction credit).
    pub branch_stats: Option<BranchStats>,
}

/// A finished target lane's results, as returned by
/// [`Gauntlet::target_results`].
#[derive(Debug, Clone)]
pub struct TargetLaneResult {
    /// The predictor's [`TargetPredictor::name`].
    pub name: &'static str,
    /// Aggregate target statistics: predictions count indirect
    /// branches only, instructions count every record, so
    /// [`PredictionStats::mpki`] is target-MPKI.
    pub stats: PredictionStats,
}

/// Drives N independent predictors over traces in one pass per trace.
#[derive(Default)]
pub struct Gauntlet<'a> {
    lanes: Vec<Lane<'a>>,
    target_lanes: Vec<TargetLane<'a>>,
    /// Reused block decode buffer (at most one block of records).
    decode_buf: Vec<BranchRecord>,
}

impl<'a> Gauntlet<'a> {
    /// Creates an empty gauntlet.
    #[must_use]
    pub fn new() -> Self {
        Self { lanes: Vec::new(), target_lanes: Vec::new(), decode_buf: Vec::new() }
    }

    /// Adds a lane and returns its index.
    pub fn add(&mut self, predictor: impl Predictor + 'a) -> usize {
        self.add_boxed(Box::new(predictor))
    }

    /// Adds an already-boxed lane and returns its index.
    pub fn add_boxed(&mut self, predictor: Box<dyn Predictor + 'a>) -> usize {
        self.lanes.push(Lane { predictor, stats: PredictionStats::new(), branch_stats: None });
        self.lanes.len() - 1
    }

    /// Adds a lane that additionally collects per-static-branch
    /// statistics, and returns its index.
    pub fn add_tracked(&mut self, predictor: impl Predictor + 'a) -> usize {
        let lane = self.add_boxed(Box::new(predictor));
        self.lanes[lane].branch_stats = Some(BranchStats::new());
        lane
    }

    /// Adds a target-prediction lane and returns its index (indices
    /// are a separate space from direction-lane indices).
    pub fn add_target(&mut self, predictor: impl TargetPredictor + 'a) -> usize {
        self.add_target_boxed(Box::new(predictor))
    }

    /// Adds an already-boxed target lane and returns its index.
    pub fn add_target_boxed(&mut self, predictor: Box<dyn TargetPredictor + 'a>) -> usize {
        self.target_lanes.push(TargetLane { predictor, stats: PredictionStats::new() });
        self.target_lanes.len() - 1
    }

    /// Number of lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Number of target lanes.
    #[must_use]
    pub fn target_len(&self) -> usize {
        self.target_lanes.len()
    }

    /// Whether the gauntlet has no lanes of either kind.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty() && self.target_lanes.is_empty()
    }

    /// Drives every lane over `trace` in one pass, accumulating each
    /// lane's statistics. Decodes the trace block-at-a-time into the
    /// reused internal buffer and replays each block lane-major. May be
    /// called repeatedly; pair with [`flush`](Gauntlet::flush) between
    /// traces for cold-start (per-SimPoint) evaluation.
    pub fn run(&mut self, trace: &Trace) {
        let mut buf = std::mem::take(&mut self.decode_buf);
        let mut blocks = trace.blocks();
        while blocks.next_into(&mut buf) > 0 {
            self.run_block(&buf);
        }
        self.decode_buf = buf;
    }

    /// Drives every lane over a trace streamed from `reader`,
    /// block-at-a-time: peak decode memory is one block regardless of
    /// trace length. Per-lane statistics are identical to running the
    /// fully-resident trace through [`Gauntlet::run`].
    ///
    /// # Errors
    ///
    /// Returns the reader's [`ReadTraceError`] on I/O failure or
    /// malformed content; blocks decoded before the error have already
    /// been replayed into the lanes.
    pub fn run_stream<R: std::io::Read>(
        &mut self,
        reader: &mut TraceReader<R>,
    ) -> Result<(), ReadTraceError> {
        let mut buf = std::mem::take(&mut self.decode_buf);
        let result = loop {
            match reader.next_block(&mut buf) {
                Ok(0) => break Ok(()),
                Ok(_) => self.run_block(&buf),
                Err(e) => break Err(e),
            }
        };
        self.decode_buf = buf;
        result
    }

    /// Replays one decoded block through every lane, lane-major: each
    /// predictor consumes the whole block while its tables are hot.
    /// Lanes are independent, so this is observably identical to
    /// record-major interleaving.
    pub fn run_block(&mut self, records: &[BranchRecord]) {
        for lane in &mut self.lanes {
            for record in records {
                if record.kind.is_conditional() {
                    let predicted = lane.predictor.predict(record.pc);
                    let correct = predicted == record.taken;
                    lane.stats.record(correct, record.inst_gap);
                    if let Some(bs) = &mut lane.branch_stats {
                        bs.record(record.pc, correct, record.inst_gap);
                    }
                    lane.predictor.update(record, predicted);
                } else {
                    lane.stats.record_instructions(1 + u64::from(record.inst_gap));
                    lane.predictor.note_unconditional(record);
                }
            }
        }
        for lane in &mut self.target_lanes {
            for record in records {
                if record.kind == BranchKind::Indirect {
                    let predicted = lane.predictor.predict_target(record.pc);
                    let correct = predicted == record.target;
                    lane.stats.record(correct, record.inst_gap);
                    lane.predictor.update_target(record, predicted);
                } else {
                    lane.stats.record_instructions(1 + u64::from(record.inst_gap));
                    lane.predictor.note_branch(record);
                }
            }
        }
    }

    /// Flushes every lane's predictor back to its freshly-constructed
    /// state. Accumulated statistics are kept — this is the seam for
    /// serial cold-start accumulation across a trace set.
    pub fn flush(&mut self) {
        for lane in &mut self.lanes {
            lane.predictor.flush();
        }
        for lane in &mut self.target_lanes {
            lane.predictor.flush();
        }
    }

    /// A lane's aggregate statistics so far.
    #[must_use]
    pub fn stats(&self, lane: usize) -> &PredictionStats {
        &self.lanes[lane].stats
    }

    /// A tracked lane's per-branch statistics so far.
    #[must_use]
    pub fn branch_stats(&self, lane: usize) -> Option<&BranchStats> {
        self.lanes[lane].branch_stats.as_ref()
    }

    /// A target lane's aggregate statistics so far.
    #[must_use]
    pub fn target_stats(&self, lane: usize) -> &PredictionStats {
        &self.target_lanes[lane].stats
    }

    /// Every target lane's results so far, in lane order. Unlike
    /// [`Gauntlet::finish`] this does not consume the gauntlet, so
    /// direction results and target results can both be collected from
    /// one pass.
    #[must_use]
    pub fn target_results(&self) -> Vec<TargetLaneResult> {
        self.target_lanes
            .iter()
            .map(|lane| TargetLaneResult { name: lane.predictor.name(), stats: lane.stats })
            .collect()
    }

    /// Consumes the gauntlet and returns every lane's results in lane
    /// order.
    #[must_use]
    pub fn finish(self) -> Vec<LaneResult> {
        self.lanes
            .into_iter()
            .map(|lane| LaneResult {
                name: lane.predictor.name(),
                stats: lane.stats,
                branch_stats: lane.branch_stats,
            })
            .collect()
    }
}

/// Runs one predictor over `trace` and returns aggregate statistics —
/// a single-lane [`Gauntlet`] pass.
///
/// ```
/// use branchnet_trace::{run_one, AlwaysTaken, BranchRecord, Trace};
///
/// let trace: Trace = (0..10).map(|i| BranchRecord::conditional(4, i % 2 == 0)).collect();
/// let stats = run_one(&mut AlwaysTaken, &trace);
/// assert!((stats.accuracy() - 0.5).abs() < 1e-9);
/// ```
pub fn run_one<P: Predictor + ?Sized>(predictor: &mut P, trace: &Trace) -> PredictionStats {
    let mut gauntlet = Gauntlet::new();
    gauntlet.add(&mut *predictor);
    gauntlet.run(trace);
    gauntlet.finish().pop().expect("single lane").stats
}

/// Like [`run_one`] but returns per-static-branch statistics, which
/// the offline pipeline uses to rank hard-to-predict branches. Only
/// conditional branches are counted (no unconditional instruction
/// credit), matching the per-branch ranking convention.
pub fn run_one_per_branch<P: Predictor + ?Sized>(predictor: &mut P, trace: &Trace) -> BranchStats {
    let mut gauntlet = Gauntlet::new();
    gauntlet.add_tracked(&mut *predictor);
    gauntlet.run(trace);
    gauntlet.finish().pop().expect("single lane").branch_stats.expect("tracked lane")
}

/// Runs one target predictor over `trace` and returns aggregate
/// statistics — a single-target-lane [`Gauntlet`] pass. Predictions
/// count [`BranchKind::Indirect`] records only; instructions count
/// every record, so [`PredictionStats::mpki`] reads as target-MPKI.
pub fn run_one_target<P: TargetPredictor + ?Sized>(
    predictor: &mut P,
    trace: &Trace,
) -> PredictionStats {
    let mut gauntlet = Gauntlet::new();
    gauntlet.add_target(&mut *predictor);
    gauntlet.run(trace);
    *gauntlet.target_stats(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::{AlwaysTaken, StaticBias};
    use crate::record::{BranchKind, BranchRecord};

    fn alternating(n: usize) -> Trace {
        (0..n).map(|i| BranchRecord::conditional(0x10, i % 2 == 0)).collect()
    }

    #[test]
    fn always_taken_gets_half_of_alternating() {
        let stats = run_one(&mut AlwaysTaken, &alternating(100));
        assert!((stats.accuracy() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn run_one_counts_unconditional_instructions() {
        let mut t = Trace::new();
        t.push(BranchRecord::conditional(0x10, true));
        t.push(BranchRecord::unconditional(0x20, 0x80, BranchKind::Jump));
        let stats = run_one(&mut AlwaysTaken, &t);
        assert!((stats.predictions() - 1.0).abs() < f64::EPSILON);
        assert!((stats.instructions() - 10.0).abs() < f64::EPSILON);
    }

    #[test]
    fn per_branch_separates_pcs_and_skips_unconditional_credit() {
        let mut t = Trace::new();
        for i in 0..10 {
            t.push(BranchRecord::conditional(0x10, true));
            t.push(BranchRecord::conditional(0x20, i % 2 == 0));
        }
        t.push(BranchRecord::unconditional(0x30, 0x80, BranchKind::Jump));
        let bs = run_one_per_branch(&mut AlwaysTaken, &t);
        assert!((bs.get(0x10).unwrap().accuracy() - 1.0).abs() < 1e-9);
        assert!((bs.get(0x20).unwrap().accuracy() - 0.5).abs() < 1e-9);
        // Historical convention: only conditional records count.
        assert!((bs.totals().instructions() - 100.0).abs() < f64::EPSILON);
    }

    #[test]
    fn multi_lane_matches_individual_runs() {
        let trace = alternating(200);
        let solo_taken = run_one(&mut AlwaysTaken, &trace);
        let solo_bias = run_one(&mut StaticBias::from_profile(&trace), &trace);

        let mut g = Gauntlet::new();
        let a = g.add(AlwaysTaken);
        let b = g.add(StaticBias::from_profile(&trace));
        g.run(&trace);
        assert_eq!(*g.stats(a), solo_taken);
        assert_eq!(*g.stats(b), solo_bias);
        let results = g.finish();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].name, "always-taken");
        assert!(results[0].branch_stats.is_none());
    }

    #[test]
    fn streamed_run_matches_resident_run() {
        let trace = alternating(500);
        let mut bytes = Vec::new();
        crate::io::write_trace(&mut bytes, &trace).unwrap();
        let mut resident = Gauntlet::new();
        let r = resident.add(AlwaysTaken);
        resident.run(&trace);
        let mut streamed = Gauntlet::new();
        let s = streamed.add(AlwaysTaken);
        let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
        streamed.run_stream(&mut reader).unwrap();
        assert_eq!(resident.stats(r), streamed.stats(s));
    }

    #[test]
    fn run_block_equals_run_over_the_same_records() {
        let trace = alternating(100);
        let records: Vec<BranchRecord> = trace.iter().collect();
        let mut whole = Gauntlet::new();
        let w = whole.add(AlwaysTaken);
        whole.run(&trace);
        let mut blocked = Gauntlet::new();
        let b = blocked.add(AlwaysTaken);
        blocked.run_block(&records[..40]);
        blocked.run_block(&records[40..]);
        assert_eq!(whole.stats(w), blocked.stats(b));
    }

    #[test]
    fn target_lane_rides_the_same_pass_as_direction_lanes() {
        use crate::target::LastTarget;
        let mut t = Trace::new();
        for i in 0..50u64 {
            t.push(BranchRecord::conditional(0x10, i % 2 == 0));
            t.push(BranchRecord::unconditional(0x40, 0x9000 + (i % 2) * 64, BranchKind::Indirect));
        }
        let mut g = Gauntlet::new();
        let dir = g.add(AlwaysTaken);
        let tgt = g.add_target(LastTarget::new());
        assert_eq!(g.len(), 1);
        assert_eq!(g.target_len(), 1);
        g.run(&t);
        // Direction lane: 50 conditional predictions, indirect records
        // are instruction credit.
        assert!((g.stats(dir).predictions() - 50.0).abs() < f64::EPSILON);
        // Target lane: 50 indirect predictions, all wrong after the
        // cold start because the target alternates.
        assert!((g.target_stats(tgt).predictions() - 50.0).abs() < f64::EPSILON);
        assert!((g.target_stats(tgt).accuracy() - 0.0).abs() < f64::EPSILON);
        // Both lanes credit the same instruction count.
        assert!(
            (g.stats(dir).instructions() - g.target_stats(tgt).instructions()).abs() < f64::EPSILON
        );
        let results = g.target_results();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].name, "last-target");
        assert_eq!(results[0].stats, *g.target_stats(tgt));
    }

    #[test]
    fn run_one_target_matches_gauntlet_target_lane() {
        use crate::target::{LastTarget, TargetBtb};
        let mut t = Trace::new();
        for i in 0..120u64 {
            t.push(BranchRecord::unconditional(
                0x40 + (i % 3) * 8,
                0x9000 + (i % 5) * 64,
                BranchKind::Indirect,
            ));
            t.push(BranchRecord::conditional(0x10, i % 3 == 0));
        }
        let solo = run_one_target(&mut TargetBtb::default_geometry(), &t);
        let mut g = Gauntlet::new();
        g.add(AlwaysTaken);
        g.add_target(LastTarget::new());
        let lane = g.add_target(TargetBtb::default_geometry());
        g.run(&t);
        assert_eq!(*g.target_stats(lane), solo);
    }

    #[test]
    fn flush_resets_target_lanes_too() {
        use crate::target::LastTarget;
        let t: Trace = (0..20)
            .map(|_| BranchRecord::unconditional(0x40, 0x9000, BranchKind::Indirect))
            .collect();
        let mut g = Gauntlet::new();
        let lane = g.add_target(LastTarget::new());
        g.run(&t);
        g.flush();
        g.run(&t);
        // Two cold starts: exactly two mispredictions across 40
        // predictions of a monomorphic site.
        assert!((g.target_stats(lane).mispredictions() - 2.0).abs() < f64::EPSILON);
    }

    #[test]
    fn flush_keeps_stats_and_resets_predictors() {
        let trace = alternating(100);
        let mut g = Gauntlet::new();
        let lane = g.add(AlwaysTaken);
        g.run(&trace);
        let after_one = *g.stats(lane);
        g.flush();
        assert_eq!(*g.stats(lane), after_one, "flush must not clear statistics");
        g.run(&trace);
        assert!((g.stats(lane).predictions() - 200.0).abs() < f64::EPSILON);
    }
}
