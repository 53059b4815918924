//! Shared experiment plumbing.

use crate::cache::{ArtifactCache, ModelKey};
use crate::metrics;
use branchnet_core::config::BranchNetConfig;
use branchnet_core::engine::InferenceEngine;
use branchnet_core::hybrid::{AttachedModel, HybridPredictor};
use branchnet_core::model::BranchNetModel;
use branchnet_core::parallel::parallel_map;
use branchnet_core::quantize::QuantizedMini;
use branchnet_core::selection::{
    offline_train_with, train_branch, CandidateResult, PipelineOptions,
};
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

/// The Table III trace set for one benchmark at this scale, generated
/// once per process and shared via the [`ArtifactCache`].
#[must_use]
pub fn trace_set(bench: Benchmark, scale: &Scale) -> Arc<TraceSet> {
    ArtifactCache::global().trace_set(bench, scale.branches_per_trace, || {
        let ts = SpecSuite::benchmark(bench).trace_set(scale.branches_per_trace);
        // Record v2 encoding stats once per distinct trace set (the
        // cache guarantees this closure runs at most once per
        // (bench, scale) pair per process, keeping the counters
        // deterministic).
        for t in ts.train.iter().chain(&ts.valid).chain(&ts.test) {
            metrics::record_trace_encoding(&branchnet_trace::encoding_stats(t));
        }
        ts
    })
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

/// `config`'s model for branch `pc` of `bench`, trained on its
/// training traces at `scale` with the final options `train`, or
/// `None` when the branch has fewer than `min_occurrences` examples or
/// every attempt diverged. Each model (and each `None`) is trained
/// once per process and shared via the [`ArtifactCache`], whichever
/// baseline ranked the branch.
#[must_use]
pub fn trained_model(
    bench: Benchmark,
    scale: &Scale,
    config: &BranchNetConfig,
    pc: u64,
    train: &TrainOptions,
    min_occurrences: usize,
) -> Option<Arc<BranchNetModel>> {
    let key = ModelKey {
        bench,
        branches_per_trace: scale.branches_per_trace,
        config: format!("{config:?}"),
        pc,
        train: format!("{train:?}"),
        min_occurrences,
    };
    ArtifactCache::global().model(key, || {
        train_branch(config, &trace_set(bench, scale).train, pc, train, min_occurrences)
    })
}

/// The offline pipeline for `bench` with `config` models: candidates
/// ranked under `baseline`, models from [`trained_model`] (cloned, so
/// scoring never touches a stored model), scored on validation, best
/// first. Equal to `offline_train` on the benchmark's trace set.
#[must_use]
pub fn pack(
    config: &BranchNetConfig,
    baseline: &TageSclConfig,
    bench: Benchmark,
    scale: &Scale,
) -> Vec<(CandidateResult, BranchNetModel)> {
    let traces = trace_set(bench, scale);
    let opts = scale.pipeline_options();
    offline_train_with(config, baseline, &traces, &opts, |pc, train| {
        trained_model(bench, scale, config, pc, train, opts.min_occurrences)
            .map(|m| BranchNetModel::clone(&m))
    })
}

/// Assembles a hybrid from a pack's float models (cloning the frozen
/// weights).
#[must_use]
pub fn float_hybrid(
    pack: &[(CandidateResult, BranchNetModel)],
    baseline: &TageSclConfig,
) -> HybridPredictor {
    let mut hybrid = HybridPredictor::new(baseline);
    for (r, m) in pack {
        hybrid.attach(r.pc, AttachedModel::Float(m.clone())).expect("float models always attach");
    }
    hybrid
}

/// Assembles a hybrid from quantized Mini models, each attached as an
/// inference engine.
#[must_use]
pub fn engine_hybrid(models: &[(u64, QuantizedMini)], baseline: &TageSclConfig) -> HybridPredictor {
    let mut hybrid = HybridPredictor::new(baseline);
    for (pc, q) in models {
        hybrid
            .attach(
                *pc,
                AttachedModel::Engine(InferenceEngine::new(q.clone()).expect("hashed config")),
            )
            .expect("hashed config");
    }
    hybrid
}

/// Formats an MPKI pair as the paper's "reduction" percentage.
#[must_use]
pub fn reduction_pct(baseline: f64, improved: f64) -> f64 {
    if baseline > 0.0 {
        100.0 * (baseline - improved) / baseline
    } else {
        0.0
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
