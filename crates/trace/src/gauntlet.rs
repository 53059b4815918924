//! The [`Gauntlet`]: single-pass, multi-predictor trace evaluation.
//!
//! The paper's evaluation (Figs. 9–13) runs the *same* test traces
//! through every predictor under study. Driving each predictor in its
//! own pass decodes and re-walks the trace once per variant; the
//! gauntlet instead decodes each block of records once and feeds it to
//! N independent [`Lane`]s, direction and target predictors alike,
//! collecting per-lane
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
//! Lanes never interact: each lane sees exactly the record sequence
//! it would see when driven alone by [`run_one`], and
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
use crate::lane::Lane;
use crate::record::BranchRecord;
use crate::stats::{BranchStats, PredictionStats};
use crate::stream::TraceReader;
use crate::trace::Trace;

/// One lane being driven through the gauntlet, with its accumulated
/// statistics.
struct Slot<'a> {
    lane: Box<dyn Lane + 'a>,
    stats: PredictionStats,
    branch_stats: Option<BranchStats>,
}

/// A finished lane's results, as returned by [`Gauntlet::finish`].
pub struct LaneResult {
    /// The lane's [`Lane::name`].
    pub name: &'static str,
    /// Aggregate statistics over every record the lane saw: its
    /// predictions, and instructions of every record, so
    /// [`PredictionStats::mpki`] is direction-MPKI for a direction
    /// lane and target-MPKI for a target lane.
    pub stats: PredictionStats,
    /// Per-static-branch statistics, for lanes added with
    /// [`Gauntlet::add_tracked`]. Matches the historical
    /// per-branch-evaluation convention: only predicted branches are
    /// counted (no instruction credit for observed records).
    pub branch_stats: Option<BranchStats>,
}

/// Drives N independent lanes over traces in one pass per trace.
#[derive(Default)]
pub struct Gauntlet<'a> {
    slots: Vec<Slot<'a>>,
    /// Reused block decode buffer (at most one block of records).
    decode_buf: Vec<BranchRecord>,
}

impl<'a> Gauntlet<'a> {
    /// Creates an empty gauntlet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a lane and returns its index.
    pub fn add(&mut self, lane: impl Lane + 'a) -> usize {
        self.add_boxed(Box::new(lane))
    }

    /// Adds an already-boxed lane and returns its index.
    pub fn add_boxed(&mut self, lane: Box<dyn Lane + 'a>) -> usize {
        self.slots.push(Slot { lane, stats: PredictionStats::new(), branch_stats: None });
        self.slots.len() - 1
    }

    /// Adds a lane that additionally collects per-static-branch
    /// statistics, and returns its index.
    pub fn add_tracked(&mut self, lane: impl Lane + 'a) -> usize {
        let index = self.add(lane);
        self.slots[index].branch_stats = Some(BranchStats::new());
        index
    }

    /// Number of lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the gauntlet has no lanes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
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
    /// lane consumes the whole block while its tables are hot. Lanes
    /// are independent, so this is observably identical to
    /// record-major interleaving.
    pub fn run_block(&mut self, records: &[BranchRecord]) {
        for slot in &mut self.slots {
            slot.lane.score_block(records, &mut slot.stats, slot.branch_stats.as_mut());
        }
    }

    /// Flushes every lane back to its freshly-constructed state.
    /// Accumulated statistics are kept — this is the seam for serial
    /// cold-start accumulation across a trace set.
    pub fn flush(&mut self) {
        for slot in &mut self.slots {
            slot.lane.flush();
        }
    }

    /// A lane's aggregate statistics so far.
    #[must_use]
    pub fn stats(&self, lane: usize) -> &PredictionStats {
        &self.slots[lane].stats
    }

    /// A tracked lane's per-branch statistics so far.
    #[must_use]
    pub fn branch_stats(&self, lane: usize) -> Option<&BranchStats> {
        self.slots[lane].branch_stats.as_ref()
    }

    /// Consumes the gauntlet and returns every lane's results in lane
    /// order.
    #[must_use]
    pub fn finish(self) -> Vec<LaneResult> {
        self.slots
            .into_iter()
            .map(|slot| LaneResult {
                name: slot.lane.name(),
                stats: slot.stats,
                branch_stats: slot.branch_stats,
            })
            .collect()
    }

    /// [`add_boxed`](Gauntlet::add_boxed), kept for perfbench.
    pub fn add_target_boxed(&mut self, lane: Box<dyn Lane + 'a>) -> usize {
        self.add_boxed(lane)
    }

    /// [`stats`](Gauntlet::stats), kept for perfbench.
    #[must_use]
    pub fn target_stats(&self, lane: usize) -> &PredictionStats {
        self.stats(lane)
    }

    /// [`finish`](Gauntlet::finish), kept for perfbench.
    #[must_use]
    pub fn target_results(self) -> Vec<LaneResult> {
        self.finish()
    }
}

/// Runs one lane over `trace` and returns its aggregate statistics,
/// scored exactly as a [`Gauntlet`] lane.
///
/// ```
/// use branchnet_trace::{run_one, AlwaysTaken, BranchRecord, Trace};
///
/// let trace: Trace = (0..10).map(|i| BranchRecord::conditional(4, i % 2 == 0)).collect();
/// let stats = run_one(&mut AlwaysTaken, &trace);
/// assert!((stats.accuracy() - 0.5).abs() < 1e-9);
/// ```
pub fn run_one<L: Lane + ?Sized>(lane: &mut L, trace: &Trace) -> PredictionStats {
    score(lane, trace, None)
}

/// Like [`run_one`] but returns per-static-branch statistics, which
/// the offline pipeline uses to rank hard-to-predict branches. Only
/// predicted branches are counted (no instruction credit for observed
/// records), matching the per-branch ranking convention.
pub fn run_one_per_branch<L: Lane + ?Sized>(lane: &mut L, trace: &Trace) -> BranchStats {
    let mut branch_stats = BranchStats::new();
    score(lane, trace, Some(&mut branch_stats));
    branch_stats
}

/// [`run_one`], kept for perfbench.
pub fn run_one_target<L: Lane + ?Sized>(lane: &mut L, trace: &Trace) -> PredictionStats {
    run_one(lane, trace)
}

fn score<L: Lane + ?Sized>(
    lane: &mut L,
    trace: &Trace,
    mut branch_stats: Option<&mut BranchStats>,
) -> PredictionStats {
    let mut stats = PredictionStats::new();
    let mut buf = Vec::new();
    let mut blocks = trace.blocks();
    while blocks.next_into(&mut buf) > 0 {
        lane.score_block(&buf, &mut stats, branch_stats.as_deref_mut());
    }
    stats
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
        use crate::lane::Targets;
        use crate::target::{LastTarget, TargetBtb};
        let mut t = Trace::new();
        for i in 0..60u64 {
            t.push(BranchRecord::conditional(0x10, i % 2 == 0));
            t.push(BranchRecord::unconditional(
                0x40 + (i % 3) * 8,
                0x9000 + (i % 2) * 64,
                BranchKind::Indirect,
            ));
        }
        let mut g = Gauntlet::new();
        let dir = g.add(AlwaysTaken);
        let last = g.add(Targets(LastTarget::new()));
        let btb = g.add(Targets(TargetBtb::default_geometry()));
        g.run(&t);
        // Each lane predicts its own family's 60 records; the other
        // family's records are instruction credit.
        assert!((g.stats(dir).predictions() - 60.0).abs() < f64::EPSILON);
        assert!((g.stats(last).predictions() - 60.0).abs() < f64::EPSILON);
        assert_eq!(g.stats(dir).instructions(), g.stats(last).instructions());
        assert_eq!(*g.stats(btb), run_one(&mut Targets(TargetBtb::default_geometry()), &t));
        let results = g.finish();
        assert_eq!(results[last].name, "last-target");
        // Each site alternates its target: last-target is always
        // one step behind.
        assert!((results[last].stats.accuracy() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn flush_resets_target_lanes_too() {
        use crate::lane::Targets;
        use crate::target::LastTarget;
        let t: Trace = (0..20)
            .map(|_| BranchRecord::unconditional(0x40, 0x9000, BranchKind::Indirect))
            .collect();
        let mut g = Gauntlet::new();
        let lane = g.add(Targets(LastTarget::new()));
        g.run(&t);
        g.flush();
        g.run(&t);
        // Two cold starts: exactly two mispredictions across 40
        // predictions of a monomorphic site.
        assert!((g.stats(lane).mispredictions() - 2.0).abs() < f64::EPSILON);
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
