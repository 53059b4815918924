//! Shared experiment plumbing.

use crate::cache::ArtifactCache;
use crate::metrics;
use branchnet_core::config::BranchNetConfig;
use branchnet_core::hybrid::{AttachedModel, HybridPredictor};
use branchnet_core::parallel::parallel_map;
use branchnet_core::selection::{offline_train, CandidateResult, PipelineOptions};
use branchnet_core::trainer::TrainOptions;
use branchnet_tage::{TageScL, TageSclConfig};
use branchnet_trace::{Gauntlet, Lane, PredictionStats, Trace, TraceSet};
use branchnet_workloads::spec::{Benchmark, SpecSuite};
use std::sync::Arc;

/// Experiment sizing profile. `quick` (the default) runs in minutes on
/// a laptop; `full` uses longer traces and more candidates/epochs.
/// Selected via the `BRANCHNET_SCALE` environment variable
/// (`quick`/`full`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scale {
    /// Branches generated per trace (per input).
    pub branches_per_trace: usize,
    /// Hard-branch candidates considered per benchmark.
    pub candidates: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Training-example cap per branch.
    pub max_examples: usize,
}

impl Scale {
    /// The fast profile.
    #[must_use]
    pub fn quick() -> Self {
        Self { branches_per_trace: 40_000, candidates: 6, epochs: 10, max_examples: 1_500 }
    }

    /// The thorough profile.
    #[must_use]
    pub fn full() -> Self {
        Self { branches_per_trace: 200_000, candidates: 16, epochs: 24, max_examples: 4_000 }
    }

    /// Resolves a `BRANCHNET_SCALE`-style value (case-insensitive;
    /// `None` means unset and selects `quick`).
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized value: silently falling back to
    /// `quick` would make a typo like `BRANCHNET_SCALE=ful` run the
    /// wrong experiment for hours.
    #[must_use]
    pub fn from_value(value: Option<&str>) -> Self {
        match value.map(str::to_ascii_lowercase).as_deref() {
            None | Some("quick") => Self::quick(),
            Some("full") => Self::full(),
            Some(other) => panic!(
                "unrecognized BRANCHNET_SCALE value {other:?}: expected \"quick\" or \"full\""
            ),
        }
    }

    /// Reads `BRANCHNET_SCALE` (default `quick`).
    #[must_use]
    pub fn from_env() -> Self {
        Self::from_value(std::env::var("BRANCHNET_SCALE").ok().as_deref())
    }

    /// Whether this is the thorough profile.
    #[must_use]
    pub fn is_full(&self) -> bool {
        *self == Self::full()
    }

    /// Training options derived from this scale.
    #[must_use]
    pub fn train_options(&self) -> TrainOptions {
        TrainOptions {
            epochs: self.epochs,
            lr: 0.02,
            max_examples: self.max_examples,
            ..TrainOptions::default()
        }
    }

    /// Pipeline options derived from this scale.
    #[must_use]
    pub fn pipeline_options(&self) -> PipelineOptions {
        PipelineOptions {
            candidates: self.candidates,
            train: self.train_options(),
            ..PipelineOptions::default()
        }
    }
}

/// Whether a cached trace set is usable: every partition non-empty and
/// every trace weight finite and positive. A set failing this check
/// (e.g. a stale cache entry from a torn load) is evicted and
/// regenerated.
#[must_use]
pub fn valid_trace_set(ts: &TraceSet) -> bool {
    let partitions = [&ts.train, &ts.valid, &ts.test];
    partitions.iter().all(|p| !p.is_empty())
        && partitions
            .iter()
            .flat_map(|p| p.iter())
            .all(|t| t.weight().is_finite() && t.weight() > 0.0)
}

/// Whether a trained pack is usable: every candidate score finite. A
/// diverged score would silently poison knapsack assignment and every
/// downstream MPKI.
#[must_use]
pub fn valid_pack(pack: &TrainedPack) -> bool {
    pack.models.iter().all(|(r, _)| {
        r.baseline_accuracy.is_finite()
            && r.model_accuracy.is_finite()
            && r.occurrences.is_finite()
            && r.mispredictions_avoided.is_finite()
    })
}

/// The Table III trace set for one benchmark at this scale, generated
/// once per process and shared via the [`ArtifactCache`].
#[must_use]
pub fn trace_set(bench: Benchmark, scale: &Scale) -> Arc<TraceSet> {
    ArtifactCache::global().trace_set(
        bench,
        scale.branches_per_trace,
        || {
            let ts = SpecSuite::benchmark(bench).trace_set(scale.branches_per_trace);
            // Record v2 encoding stats once per distinct trace set (the
            // cache guarantees this closure runs at most once per
            // (bench, scale) pair per process, keeping the counters
            // deterministic).
            for t in ts.train.iter().chain(&ts.valid).chain(&ts.test) {
                metrics::record_trace_encoding(&branchnet_trace::encoding_stats(t));
            }
            ts
        },
        valid_trace_set,
    )
}

/// A factory for one gauntlet lane: called once per test trace to
/// produce the cold predictor that lane evaluates on that trace
/// (per-SimPoint cold-start evaluation, as in the paper).
///
/// Any custom baseline can join an experiment by boxing a builder —
/// it rides the same single-pass gauntlet as the stock lanes:
///
/// ```
/// use branchnet_bench::harness::{gauntlet_test_stats, LaneBuilder};
/// use branchnet_tage::Gshare;
/// use branchnet_trace::{BranchRecord, Trace, TraceSet};
///
/// // A custom baseline: gshare at a deliberately tiny budget.
/// let tiny_gshare: LaneBuilder = Box::new(|| Box::new(Gshare::new(6, 4)));
///
/// let trace = |taken: bool| -> Trace {
///     (0..200u64).map(|i| BranchRecord::conditional(0x40 + (i % 3) * 8, taken)).collect()
/// };
/// let traces = TraceSet {
///     train: vec![trace(true)],
///     valid: vec![trace(true)],
///     test: vec![trace(true), trace(false)],
/// };
/// let stats = gauntlet_test_stats(&traces, &[tiny_gshare]);
/// assert_eq!(stats.len(), 1);
/// assert!(stats[0].accuracy() > 0.9);
/// ```
pub type LaneBuilder<'a> = Box<dyn Fn() -> Box<dyn Lane + 'a> + Sync + 'a>;

/// A lane evaluating a fresh TAGE-SC-L built from `cfg`. (The lane
/// owns a clone of the config; `'a` is free so it can sit in one slice
/// with borrowing lanes like [`hybrid_lane`].)
#[must_use]
pub fn baseline_lane<'a>(cfg: &TageSclConfig) -> LaneBuilder<'a> {
    let cfg = cfg.clone();
    Box::new(move || -> Box<dyn Lane + 'a> { Box::new(TageScL::new(&cfg)) })
}

/// A lane evaluating a cold
/// [`HybridPredictor::fresh_runtime_clone`] of `hybrid` per trace: the
/// runtime state resets, the frozen CNN weights are shared, exactly
/// like deployed BranchNet models (Section V-E).
#[must_use]
pub fn hybrid_lane<'a>(hybrid: &'a HybridPredictor) -> LaneBuilder<'a> {
    Box::new(move || Box::new(hybrid.fresh_runtime_clone()))
}

/// A lane evaluating a registered baseline from
/// [`branchnet_tage::baseline_lineup`], built cold per trace at its
/// lineup configuration.
#[must_use]
pub fn lineup_lane<'a>(entry: &branchnet_tage::LineupEntry) -> LaneBuilder<'a> {
    let build = entry.build;
    Box::new(move || -> Box<dyn Lane + 'a> { build() })
}

/// Weighted test-set statistics for every lane at once, in lane order.
///
/// Each test trace is decoded exactly once: a [`Gauntlet`] drives all
/// lanes' cold predictors over it in a single pass. Traces run in
/// parallel and per-lane results merge in trace order, so each lane's
/// numbers are byte-identical to a serial one-predictor-at-a-time
/// loop.
pub fn gauntlet_test_stats(traces: &TraceSet, lanes: &[LaneBuilder<'_>]) -> Vec<PredictionStats> {
    let per_trace = parallel_map(&traces.test, |t: &Trace| {
        let start = std::time::Instant::now();
        let mut gauntlet = Gauntlet::new();
        for lane in lanes {
            gauntlet.add_boxed(lane());
        }
        gauntlet.run(t);
        metrics::record_pass(lanes.len(), start.elapsed());
        gauntlet.finish().into_iter().map(|r| r.stats).collect::<Vec<_>>()
    });
    let mut agg = vec![PredictionStats::new(); lanes.len()];
    for (per_lane, t) in per_trace.iter().zip(&traces.test) {
        for (lane_agg, stats) in agg.iter_mut().zip(per_lane) {
            lane_agg.merge_weighted(stats, t.weight());
        }
    }
    agg
}

/// MPKI of a TAGE-SC-L configuration on the test traces.
#[must_use]
pub fn baseline_mpki(cfg: &TageSclConfig, traces: &TraceSet) -> f64 {
    gauntlet_test_stats(traces, &[baseline_lane(cfg)])[0].mpki()
}

/// A trained model pack for one benchmark: the per-branch float models
/// kept by the offline pipeline.
pub struct TrainedPack {
    /// Candidate scores and trained models, best first.
    pub models: Vec<(CandidateResult, branchnet_core::model::BranchNetModel)>,
}

/// Runs the offline pipeline for `bench` with `config` models.
#[must_use]
pub fn train_pack(
    config: &BranchNetConfig,
    baseline: &TageSclConfig,
    traces: &TraceSet,
    scale: &Scale,
) -> TrainedPack {
    TrainedPack { models: offline_train(config, baseline, traces, &scale.pipeline_options()) }
}

/// The trained pack for `(config, baseline, bench, scale)`, trained
/// once per process and shared via the [`ArtifactCache`] (so e.g.
/// Fig. 9 and Fig. 10 train the Big pack for a benchmark exactly
/// once).
#[must_use]
pub fn cached_pack(
    config: &BranchNetConfig,
    baseline: &TageSclConfig,
    bench: Benchmark,
    scale: &Scale,
) -> Arc<TrainedPack> {
    ArtifactCache::global().pack(
        config,
        baseline,
        bench,
        scale,
        || {
            let traces = trace_set(bench, scale);
            train_pack(config, baseline, &traces, scale)
        },
        valid_pack,
    )
}

/// Assembles a hybrid from a pack's top `limit` float models (cloning
/// the frozen weights, so the shared pack stays reusable).
#[must_use]
pub fn float_hybrid(pack: &TrainedPack, baseline: &TageSclConfig, limit: usize) -> HybridPredictor {
    let mut hybrid = HybridPredictor::new(baseline);
    for (r, m) in pack.models.iter().take(limit) {
        hybrid.attach(r.pc, AttachedModel::Float(m.clone())).expect("float models always attach");
    }
    hybrid
}

/// Weighted test MPKI of a pack's top `limit` models attached as float
/// CNNs. The baseline and engine runtime state reset per trace
/// (cold-start per SimPoint); the frozen CNN weights are shared,
/// exactly like deployed BranchNet models (Section V-E).
#[must_use]
pub fn hybrid_mpki_float(
    pack: &TrainedPack,
    baseline: &TageSclConfig,
    traces: &TraceSet,
    limit: usize,
) -> f64 {
    hybrid_test_mpki(&float_hybrid(pack, baseline, limit), traces)
}

/// Weighted test MPKI of an already-assembled hybrid: a single
/// [`hybrid_lane`] through [`gauntlet_test_stats`].
#[must_use]
pub fn hybrid_test_mpki(hybrid: &HybridPredictor, traces: &TraceSet) -> f64 {
    gauntlet_test_stats(traces, &[hybrid_lane(hybrid)])[0].mpki()
}

/// Formats an MPKI pair as the paper's "reduction" percentage.
#[must_use]
pub fn reduction_pct(baseline: f64, improved: f64) -> f64 {
    if baseline <= 0.0 {
        0.0
    } else {
        100.0 * (baseline - improved) / baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `Scale::from_value` is pure, so these tests never touch the
    // process environment (env mutation races with the multithreaded
    // test runner).
    #[test]
    fn scale_from_value_defaults_to_quick() {
        assert_eq!(Scale::from_value(None), Scale::quick());
    }

    #[test]
    fn scale_from_value_is_case_insensitive() {
        assert_eq!(Scale::from_value(Some("quick")), Scale::quick());
        assert_eq!(Scale::from_value(Some("FULL")), Scale::full());
        assert_eq!(Scale::from_value(Some("Full")), Scale::full());
    }

    #[test]
    #[should_panic(expected = "unrecognized BRANCHNET_SCALE")]
    fn scale_from_value_rejects_unknown() {
        let _ = Scale::from_value(Some("ful"));
    }

    #[test]
    fn is_full_distinguishes_profiles() {
        assert!(Scale::full().is_full());
        assert!(!Scale::quick().is_full());
    }

    #[test]
    fn reduction_pct_basics() {
        assert!((reduction_pct(4.0, 3.0) - 25.0).abs() < 1e-9);
        assert_eq!(reduction_pct(0.0, 1.0), 0.0);
    }

    #[test]
    fn trace_set_has_table3_shape() {
        let ts = trace_set(
            Benchmark::Xz,
            &Scale { branches_per_trace: 2_000, candidates: 2, epochs: 1, max_examples: 100 },
        );
        assert_eq!((ts.train.len(), ts.valid.len(), ts.test.len()), (3, 2, 3));
    }

    #[test]
    fn trace_set_is_shared_across_lookups() {
        let scale =
            Scale { branches_per_trace: 2_000, candidates: 2, epochs: 1, max_examples: 100 };
        let a = trace_set(Benchmark::Xz, &scale);
        let b = trace_set(Benchmark::Xz, &scale);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
