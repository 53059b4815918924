//! Concurrency contract of [`ArtifactCache`]: racing lookups of one
//! key compute exactly once and share one value, and distinct keys
//! compute independently. The experiment harness leans on this: every
//! `parallel_map` worker funnels through the process-wide cache, so a
//! race here would surface as nondeterministic cache counters in the
//! run manifest.

use branchnet_bench::cache::ArtifactCache;
use branchnet_trace::{Trace, TraceSet};
use branchnet_workloads::spec::Benchmark;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// A trace set whose SimPoint weight tags which `compute` call built
/// it, so tests can tell generations apart.
fn generation_set(generation: u64) -> TraceSet {
    let train = vec![Trace::with_label("cache/concurrency", generation as f64)];
    TraceSet { train, valid: Vec::new(), test: Vec::new() }
}

fn generation_of(set: &TraceSet) -> u64 {
    set.train[0].weight() as u64
}

#[test]
fn barrier_synchronized_same_key_lookups_compute_exactly_once() {
    const THREADS: usize = 16;
    let cache = ArtifactCache::default();
    let computes = AtomicU64::new(0);
    let barrier = Barrier::new(THREADS);

    let sets: Vec<Arc<TraceSet>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (cache, computes, barrier) = (&cache, &computes, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    cache.trace_set(Benchmark::Leela, 777, || {
                        generation_set(computes.fetch_add(1, Ordering::SeqCst) + 1)
                    })
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("lookup thread")).collect()
    });

    assert_eq!(computes.load(Ordering::SeqCst), 1, "racing lookups must compute once");
    for set in &sets {
        assert!(Arc::ptr_eq(set, &sets[0]), "all threads must share one Arc");
    }
    let stats = cache.stats();
    assert_eq!(stats.trace_misses, 1);
    assert_eq!(stats.trace_hits, THREADS as u64 - 1);
}

/// Lookups of distinct keys must not serialize on each other's
/// compute: each key computes its own value, and the counters land as
/// all-miss with no cross-key interference.
#[test]
fn distinct_keys_compute_independently() {
    const THREADS: usize = 8;
    let cache = ArtifactCache::default();
    let barrier = Barrier::new(THREADS);

    let sets: Vec<Arc<TraceSet>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let (cache, barrier) = (&cache, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    // Generations are 1-based: trace weights must be positive.
                    let generation = i as u64 + 1;
                    cache.trace_set(Benchmark::Xz, 1000 + i, || generation_set(generation))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("lookup thread")).collect()
    });

    for (i, set) in sets.iter().enumerate() {
        assert_eq!(generation_of(set), i as u64 + 1, "key {i} must get its own value");
    }
    let stats = cache.stats();
    assert_eq!(stats.trace_misses, THREADS as u64);
    assert_eq!(stats.trace_hits, 0);
}
