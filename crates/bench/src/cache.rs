//! Memoized experiment artifacts.
//!
//! Several figures need the same expensive intermediates: a
//! benchmark's [`TraceSet`], and the CNN trained for one of its hard
//! branches. [`ArtifactCache`] memoizes both behind a process-wide
//! thread-safe map, so each is computed **exactly once** per run and
//! shared by `Arc`:
//!
//! * trace sets are keyed by `(benchmark, branches_per_trace)`, the
//!   only [`Scale`](crate::harness::Scale) field generation depends
//!   on, so Fig. 12's per-point scale tweaks still share one trace set;
//! * trained models are keyed by a `ModelKey`: exactly what training
//!   reads (the benchmark's training traces, the config, the PC, the
//!   final `TrainOptions` and the example-count gate), not the
//!   baseline that ranked the branch. A branch that several baselines
//!   rank, or that two Mini menus share, trains once.
//!
//! Packs and menus are not memoized: each ranks its candidates under
//! its own baseline, fetches every model from the store, and scores it
//! afresh (`harness::pack`, `mini_pack::train_menu`).
//!
//! Config keys use the configs' `Debug` fingerprint: two configs
//! collide only if every knob matches, in which case the artifacts
//! are interchangeable. Per-key [`OnceLock`] cells guarantee
//! compute-once semantics even when parallel experiment threads race
//! on the same key (losers block until the winner's value is ready).
//! Hit/miss counters feed the `reproduce` summary.
//!
//! A stored value is never re-validated: both computes are
//! deterministic in their key, so a recompute would return the same
//! bits. A trained model's health is checked where a reseeded retry
//! can still act on it, inside `train_model_resilient` (DESIGN.md §9).

use branchnet_core::model::BranchNetModel;
use branchnet_trace::TraceSet;
use branchnet_workloads::spec::Benchmark;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A compute-once map: per-key [`OnceLock`] cells under one lock.
type Memo<K, V> = Mutex<HashMap<K, Arc<OnceLock<V>>>>;

/// Everything training one branch's model reads, built only by
/// [`harness::trained_model`](crate::harness::trained_model).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ModelKey {
    /// The benchmark, whose training traces the model learns from.
    pub(crate) bench: Benchmark,
    /// The trace length, which with `bench` fixes the training traces.
    pub(crate) branches_per_trace: usize,
    /// The model config's `Debug` fingerprint.
    pub(crate) config: String,
    /// The branch.
    pub(crate) pc: u64,
    /// The final training options' `Debug` fingerprint, seed included.
    pub(crate) train: String,
    /// The example count below which the branch gets no model.
    pub(crate) min_occurrences: usize,
}

/// Snapshot of the cache's hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Trace-set lookups served from the cache.
    pub trace_hits: u64,
    /// Trace-set generations performed.
    pub trace_misses: u64,
    /// Model lookups served from the cache.
    pub model_hits: u64,
    /// Model trainings performed (an outcome of "no model" included).
    pub model_misses: u64,
}

impl CacheStats {
    /// One-line summary for the `reproduce` report.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "trace sets: {} generated, {} reused | models: {} trained, {} reused",
            self.trace_misses, self.trace_hits, self.model_misses, self.model_hits
        )
    }
}

/// Process-wide memo of trace sets and trained models.
#[derive(Default)]
pub struct ArtifactCache {
    traces: Memo<(Benchmark, usize), Arc<TraceSet>>,
    models: Memo<ModelKey, Option<Arc<BranchNetModel>>>,
    trace_hits: AtomicU64,
    trace_misses: AtomicU64,
    model_hits: AtomicU64,
    model_misses: AtomicU64,
}

/// Looks up `key`, computing the value at most once per key across
/// all threads. The map lock is held only to fetch the per-key cell,
/// never during `compute`, so distinct keys build concurrently while
/// racing lookups of one key block on its [`OnceLock`].
fn get_or_compute<K, V>(
    map: &Memo<K, V>,
    hits: &AtomicU64,
    misses: &AtomicU64,
    key: K,
    compute: impl FnOnce() -> V,
) -> V
where
    K: Eq + Hash,
    V: Clone,
{
    let cell = Arc::clone(map.lock().expect("cache map poisoned").entry(key).or_default());
    let mut computed = false;
    let value = cell
        .get_or_init(|| {
            computed = true;
            compute()
        })
        .clone();
    let counter = if computed { misses } else { hits };
    counter.fetch_add(1, Ordering::Relaxed);
    value
}

impl ArtifactCache {
    /// The process-wide cache instance.
    #[must_use]
    pub fn global() -> &'static ArtifactCache {
        static GLOBAL: OnceLock<ArtifactCache> = OnceLock::new();
        GLOBAL.get_or_init(ArtifactCache::default)
    }

    /// The trace set for `bench` at `branches_per_trace` branches per
    /// trace, generating it on first use.
    pub fn trace_set(
        &self,
        bench: Benchmark,
        branches_per_trace: usize,
        compute: impl FnOnce() -> TraceSet,
    ) -> Arc<TraceSet> {
        get_or_compute(
            &self.traces,
            &self.trace_hits,
            &self.trace_misses,
            (bench, branches_per_trace),
            || Arc::new(compute()),
        )
    }

    /// The model for `key`, training it on first use. `compute`
    /// returns `None` when the branch gets no model; that outcome is
    /// memoized too.
    pub(crate) fn model(
        &self,
        key: ModelKey,
        compute: impl FnOnce() -> Option<BranchNetModel>,
    ) -> Option<Arc<BranchNetModel>> {
        get_or_compute(&self.models, &self.model_hits, &self.model_misses, key, || {
            compute().map(Arc::new)
        })
    }

    /// Current hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            trace_hits: self.trace_hits.load(Ordering::Relaxed),
            trace_misses: self.trace_misses.load(Ordering::Relaxed),
            model_hits: self.model_hits.load(Ordering::Relaxed),
            model_misses: self.model_misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use branchnet_core::config::{BranchNetConfig, SliceConfig};
    use branchnet_core::trainer::TrainOptions;
    use branchnet_trace::Trace;
    use std::sync::Barrier;

    fn tiny_trace_set() -> TraceSet {
        TraceSet { train: vec![Trace::new()], valid: vec![Trace::new()], test: vec![Trace::new()] }
    }

    #[test]
    fn trace_set_computed_once_and_shared() {
        let cache = ArtifactCache::default();
        let calls = AtomicU64::new(0);
        let lookup = || {
            cache.trace_set(Benchmark::Xz, 123, || {
                calls.fetch_add(1, Ordering::Relaxed);
                tiny_trace_set()
            })
        };
        let a = lookup();
        let b = lookup();
        assert_eq!(calls.load(Ordering::Relaxed), 1, "second lookup must hit the cache");
        assert!(Arc::ptr_eq(&a, &b), "hits share one allocation");
        let s = cache.stats();
        assert_eq!((s.trace_misses, s.trace_hits), (1, 1));
    }

    #[test]
    fn distinct_keys_compute_separately() {
        let cache = ArtifactCache::default();
        cache.trace_set(Benchmark::Xz, 10, tiny_trace_set);
        cache.trace_set(Benchmark::Xz, 20, tiny_trace_set);
        cache.trace_set(Benchmark::Leela, 10, tiny_trace_set);
        let s = cache.stats();
        assert_eq!((s.trace_misses, s.trace_hits), (3, 0));
    }

    #[test]
    fn racing_lookups_compute_exactly_once() {
        let cache = ArtifactCache::default();
        let computes = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    cache.trace_set(Benchmark::Mcf, 7, || {
                        computes.fetch_add(1, Ordering::Relaxed);
                        tiny_trace_set()
                    });
                });
            }
        });
        assert_eq!(computes.load(Ordering::Relaxed), 1);
        let s = cache.stats();
        assert_eq!(s.trace_misses, 1);
        assert_eq!(s.trace_hits, 7);
    }

    fn tiny_config() -> BranchNetConfig {
        BranchNetConfig {
            name: "store".into(),
            slices: vec![SliceConfig {
                history: 8,
                channels: 2,
                pool_width: 4,
                precise_pooling: true,
            }],
            pc_bits: 4,
            conv_hash_bits: Some(5),
            embedding_dim: 0,
            conv_width: 3,
            hidden: vec![4],
            fc_quant_bits: Some(4),
            tanh_activations: true,
        }
    }

    fn model_key(seed: u64, max_examples: usize) -> ModelKey {
        let train = TrainOptions { seed, max_examples, ..TrainOptions::default() };
        ModelKey {
            bench: Benchmark::Xz,
            branches_per_trace: 2_000,
            config: format!("{:?}", tiny_config()),
            pc: 0x40,
            train: format!("{train:?}"),
            min_occurrences: 100,
        }
    }

    /// An untrained model standing in for a trained one; the store
    /// never looks inside.
    fn model() -> Option<BranchNetModel> {
        Some(BranchNetModel::new(&tiny_config(), 1))
    }

    fn models(misses: u64, hits: u64) -> CacheStats {
        CacheStats { model_misses: misses, model_hits: hits, ..CacheStats::default() }
    }

    #[test]
    fn one_model_key_trains_once_under_racing_threads() {
        const THREADS: usize = 8;
        let cache = ArtifactCache::default();
        let trainings = AtomicU64::new(0);
        let barrier = Barrier::new(THREADS);
        let got: Vec<Option<Arc<BranchNetModel>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        cache.model(model_key(1, 100), || {
                            trainings.fetch_add(1, Ordering::SeqCst);
                            model()
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("lookup thread")).collect()
        });
        assert_eq!(trainings.load(Ordering::SeqCst), 1);
        let first = got[0].as_ref().expect("a model");
        assert!(got.iter().all(|m| Arc::ptr_eq(m.as_ref().expect("a model"), first)));
        assert_eq!(cache.stats(), models(1, THREADS as u64 - 1));
    }

    #[test]
    fn a_different_seed_or_max_examples_trains_separately() {
        let cache = ArtifactCache::default();
        let trainings = AtomicU64::new(0);
        let lookup = |key: ModelKey| {
            cache.model(key, || {
                trainings.fetch_add(1, Ordering::SeqCst);
                model()
            })
        };
        let base = lookup(model_key(1, 100)).expect("a model");
        let reseeded = lookup(model_key(2, 100)).expect("a model");
        let capped = lookup(model_key(1, 200)).expect("a model");
        let again = lookup(model_key(1, 100)).expect("a model");
        assert_eq!(trainings.load(Ordering::SeqCst), 3);
        assert!(!Arc::ptr_eq(&base, &reseeded) && !Arc::ptr_eq(&base, &capped));
        assert!(Arc::ptr_eq(&base, &again));
        assert_eq!(cache.stats(), models(3, 1));
    }

    #[test]
    fn a_none_outcome_is_memoized() {
        let cache = ArtifactCache::default();
        let trainings = AtomicU64::new(0);
        for _ in 0..3 {
            let got = cache.model(model_key(1, 100), || {
                trainings.fetch_add(1, Ordering::SeqCst);
                None
            });
            assert!(got.is_none());
        }
        assert_eq!(trainings.load(Ordering::SeqCst), 1);
        assert_eq!(cache.stats(), models(1, 2));
    }
}
