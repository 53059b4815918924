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
//! Every lookup also carries a caller-supplied *validator*
//! (DESIGN.md §9): a cached artifact that fails validation is evicted
//! (guarded by `Arc::ptr_eq`, so a racing thread's fresh replacement
//! is never clobbered) and recomputed exactly once per lookup.
//! Evictions are counted in [`CacheStats::evictions`] and surfaced in
//! the degradation report.

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
    /// Entries evicted after failing validation (each one triggered a
    /// recompute).
    pub evictions: u64,
}

impl CacheStats {
    /// One-line summary for the `reproduce` report.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "trace sets: {} generated, {} reused | models: {} trained, {} reused | {} evicted",
            self.trace_misses, self.trace_hits, self.model_misses, self.model_hits, self.evictions
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
    evictions: AtomicU64,
}

/// Looks up `key`, computing the value at most once per key across
/// all threads. The map lock is held only to fetch the per-key cell,
/// never during `compute`, so distinct keys build concurrently while
/// racing lookups of one key block on its [`OnceLock`].
///
/// A value that fails `validate` is evicted and recomputed **once**:
/// the eviction is guarded by `Arc::ptr_eq` against the fetched cell,
/// so if another thread already evicted and replaced the entry, its
/// fresh value is reused instead of being clobbered. If the recomputed
/// value fails validation too it is returned as-is (callers see their
/// own inputs' brokenness rather than looping).
fn get_or_compute<K, V>(
    map: &Memo<K, V>,
    hits: &AtomicU64,
    misses: &AtomicU64,
    evictions: &AtomicU64,
    key: K,
    compute: impl Fn() -> V,
    validate: impl Fn(&V) -> bool,
) -> V
where
    K: Eq + Hash + Clone,
    V: Clone,
{
    let cell = {
        let mut m = map.lock().expect("cache map poisoned");
        Arc::clone(m.entry(key.clone()).or_insert_with(|| Arc::new(OnceLock::new())))
    };
    let mut computed = false;
    let value = cell
        .get_or_init(|| {
            computed = true;
            compute()
        })
        .clone();
    if computed {
        misses.fetch_add(1, Ordering::Relaxed);
    } else {
        hits.fetch_add(1, Ordering::Relaxed);
    }
    if validate(&value) {
        return value;
    }
    evictions.fetch_add(1, Ordering::Relaxed);
    // Swap in a fresh cell unless another thread already did.
    let fresh_cell = {
        let mut m = map.lock().expect("cache map poisoned");
        let entry = m.entry(key).or_insert_with(|| Arc::new(OnceLock::new()));
        if Arc::ptr_eq(entry, &cell) {
            *entry = Arc::new(OnceLock::new());
        }
        Arc::clone(entry)
    };
    let mut recomputed = false;
    let value = fresh_cell
        .get_or_init(|| {
            recomputed = true;
            compute()
        })
        .clone();
    if recomputed {
        misses.fetch_add(1, Ordering::Relaxed);
    } else {
        hits.fetch_add(1, Ordering::Relaxed);
    }
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
    /// trace, generating it on first use. A cached set that fails
    /// `validate` is evicted and regenerated once.
    pub fn trace_set(
        &self,
        bench: Benchmark,
        branches_per_trace: usize,
        compute: impl Fn() -> TraceSet,
        validate: impl Fn(&TraceSet) -> bool,
    ) -> Arc<TraceSet> {
        get_or_compute(
            &self.traces,
            &self.trace_hits,
            &self.trace_misses,
            &self.evictions,
            (bench, branches_per_trace),
            || Arc::new(compute()),
            |v| validate(v),
        )
    }

    /// The model for `key`, training it on first use. `compute`
    /// returns `None` when the branch gets no model; that outcome is
    /// memoized too. A cached model that fails `validate` is evicted
    /// and retrained once.
    pub(crate) fn model(
        &self,
        key: ModelKey,
        compute: impl Fn() -> Option<BranchNetModel>,
        validate: impl Fn(&BranchNetModel) -> bool,
    ) -> Option<Arc<BranchNetModel>> {
        get_or_compute(
            &self.models,
            &self.model_hits,
            &self.model_misses,
            &self.evictions,
            key,
            || compute().map(Arc::new),
            |v| v.as_deref().is_none_or(&validate),
        )
    }

    /// Current hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            trace_hits: self.trace_hits.load(Ordering::Relaxed),
            trace_misses: self.trace_misses.load(Ordering::Relaxed),
            model_hits: self.model_hits.load(Ordering::Relaxed),
            model_misses: self.model_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::valid_model;
    use branchnet_core::config::{BranchNetConfig, SliceConfig};
    use branchnet_core::trainer::TrainOptions;
    use branchnet_nn::optim::ParamVisitor;
    use branchnet_trace::Trace;
    use std::sync::Barrier;

    fn tiny_trace_set() -> TraceSet {
        TraceSet { train: vec![Trace::new()], valid: vec![Trace::new()], test: vec![Trace::new()] }
    }

    fn always_valid(_: &TraceSet) -> bool {
        true
    }

    #[test]
    fn trace_set_computed_once_and_shared() {
        let cache = ArtifactCache::default();
        let calls = AtomicU64::new(0);
        let a = cache.trace_set(
            Benchmark::Xz,
            123,
            || {
                calls.fetch_add(1, Ordering::Relaxed);
                tiny_trace_set()
            },
            always_valid,
        );
        let b = cache.trace_set(
            Benchmark::Xz,
            123,
            || {
                calls.fetch_add(1, Ordering::Relaxed);
                tiny_trace_set()
            },
            always_valid,
        );
        assert_eq!(calls.load(Ordering::Relaxed), 1, "second lookup must hit the cache");
        assert!(Arc::ptr_eq(&a, &b), "hits share one allocation");
        let s = cache.stats();
        assert_eq!((s.trace_misses, s.trace_hits, s.evictions), (1, 1, 0));
    }

    #[test]
    fn distinct_keys_compute_separately() {
        let cache = ArtifactCache::default();
        cache.trace_set(Benchmark::Xz, 10, tiny_trace_set, always_valid);
        cache.trace_set(Benchmark::Xz, 20, tiny_trace_set, always_valid);
        cache.trace_set(Benchmark::Leela, 10, tiny_trace_set, always_valid);
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
                    cache.trace_set(
                        Benchmark::Mcf,
                        7,
                        || {
                            computes.fetch_add(1, Ordering::Relaxed);
                            tiny_trace_set()
                        },
                        always_valid,
                    );
                });
            }
        });
        assert_eq!(computes.load(Ordering::Relaxed), 1);
        let s = cache.stats();
        assert_eq!(s.trace_misses, 1);
        assert_eq!(s.trace_hits, 7);
    }

    #[test]
    fn invalid_entry_is_evicted_and_recomputed_once() {
        let cache = ArtifactCache::default();
        let computes = AtomicU64::new(0);
        // First build produces an "empty" (invalid) set; the validator
        // rejects it, forcing one eviction and one recompute.
        let got = cache.trace_set(
            Benchmark::Xz,
            5,
            || {
                let n = computes.fetch_add(1, Ordering::Relaxed);
                if n == 0 {
                    TraceSet { train: vec![], valid: vec![], test: vec![] }
                } else {
                    tiny_trace_set()
                }
            },
            |ts| !ts.train.is_empty(),
        );
        assert_eq!(computes.load(Ordering::Relaxed), 2);
        assert!(!got.train.is_empty(), "caller receives the recomputed value");
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.trace_misses, 2);

        // The healthy replacement stays cached: the next lookup hits.
        let again = cache.trace_set(
            Benchmark::Xz,
            5,
            || {
                computes.fetch_add(1, Ordering::Relaxed);
                tiny_trace_set()
            },
            |ts| !ts.train.is_empty(),
        );
        assert_eq!(computes.load(Ordering::Relaxed), 2);
        assert!(Arc::ptr_eq(&got, &again));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn persistently_invalid_entry_is_returned_after_one_retry() {
        // An artifact whose recompute is also invalid must not loop:
        // the caller gets the (still-invalid) value back and each
        // subsequent lookup pays exactly one more eviction + rebuild.
        let cache = ArtifactCache::default();
        let computes = AtomicU64::new(0);
        let build = || {
            computes.fetch_add(1, Ordering::Relaxed);
            TraceSet { train: vec![], valid: vec![], test: vec![] }
        };
        let got = cache.trace_set(Benchmark::Mcf, 9, build, |ts| !ts.train.is_empty());
        assert!(got.train.is_empty());
        assert_eq!(computes.load(Ordering::Relaxed), 2, "exactly one retry per lookup");
        assert_eq!(cache.stats().evictions, 1);
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
    /// never looks inside beyond the validator.
    fn model() -> Option<BranchNetModel> {
        Some(BranchNetModel::new(&tiny_config(), 1))
    }

    fn models(misses: u64, hits: u64, evictions: u64) -> CacheStats {
        CacheStats { model_misses: misses, model_hits: hits, evictions, ..CacheStats::default() }
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
                        cache.model(
                            model_key(1, 100),
                            || {
                                trainings.fetch_add(1, Ordering::SeqCst);
                                model()
                            },
                            valid_model,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("lookup thread")).collect()
        });
        assert_eq!(trainings.load(Ordering::SeqCst), 1);
        let first = got[0].as_ref().expect("a model");
        assert!(got.iter().all(|m| Arc::ptr_eq(m.as_ref().expect("a model"), first)));
        assert_eq!(cache.stats(), models(1, THREADS as u64 - 1, 0));
    }

    #[test]
    fn a_different_seed_or_max_examples_trains_separately() {
        let cache = ArtifactCache::default();
        let trainings = AtomicU64::new(0);
        let lookup = |key: ModelKey| {
            cache.model(
                key,
                || {
                    trainings.fetch_add(1, Ordering::SeqCst);
                    model()
                },
                valid_model,
            )
        };
        let base = lookup(model_key(1, 100)).expect("a model");
        let reseeded = lookup(model_key(2, 100)).expect("a model");
        let capped = lookup(model_key(1, 200)).expect("a model");
        let again = lookup(model_key(1, 100)).expect("a model");
        assert_eq!(trainings.load(Ordering::SeqCst), 3);
        assert!(!Arc::ptr_eq(&base, &reseeded) && !Arc::ptr_eq(&base, &capped));
        assert!(Arc::ptr_eq(&base, &again));
        assert_eq!(cache.stats(), models(3, 1, 0));
    }

    #[test]
    fn a_none_outcome_is_memoized() {
        let cache = ArtifactCache::default();
        let trainings = AtomicU64::new(0);
        for _ in 0..3 {
            let got = cache.model(
                model_key(1, 100),
                || {
                    trainings.fetch_add(1, Ordering::SeqCst);
                    None
                },
                valid_model,
            );
            assert!(got.is_none());
        }
        assert_eq!(trainings.load(Ordering::SeqCst), 1);
        assert_eq!(cache.stats(), models(1, 2, 0));
    }

    #[test]
    fn a_model_failing_validation_is_evicted_and_retrained_once() {
        let cache = ArtifactCache::default();
        let trainings = AtomicU64::new(0);
        // The first training yields a NaN weight, the retraining a
        // healthy model.
        let train = || {
            let mut m = model()?;
            if trainings.fetch_add(1, Ordering::SeqCst) == 0 {
                m.visit_params(&mut |w, _| w.data_mut()[0] = f32::NAN);
                assert!(!valid_model(&m));
            }
            Some(m)
        };
        let got = cache.model(model_key(1, 100), train, valid_model).expect("a model");
        assert!(valid_model(&got), "the caller receives the retrained model");
        assert_eq!(trainings.load(Ordering::SeqCst), 2);
        assert_eq!(cache.stats(), models(2, 0, 1));

        // The healthy replacement stays cached.
        let again = cache.model(model_key(1, 100), train, valid_model).expect("a model");
        assert!(Arc::ptr_eq(&got, &again));
        assert_eq!(trainings.load(Ordering::SeqCst), 2);
        assert_eq!(cache.stats(), models(2, 1, 1));
    }
}
