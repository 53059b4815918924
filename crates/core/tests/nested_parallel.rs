//! A `parallel_map` called from inside another call's worker runs
//! inline, so `BRANCHNET_THREADS` bounds the threads of the whole
//! process. The test sets that variable for the whole process, so it
//! lives in a test binary of its own where no other test can race it.

#![cfg(target_os = "linux")]

use branchnet_core::parallel::parallel_map;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// Threads of this process right now.
fn task_count() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

/// A 4×4 nested map whose items sleep long enough for every worker
/// that will ever exist to be alive at once.
fn nested(outer: &[u64]) -> Vec<Vec<u64>> {
    parallel_map(outer, |&i| {
        let inner: Vec<u64> = (0..4).map(|j| i * 10 + j).collect();
        parallel_map(&inner, |&v| {
            std::thread::sleep(Duration::from_millis(20));
            v * v
        })
    })
}

/// Runs `f` while a sampler thread records the peak thread count.
/// Returns the count just before `f` (the sampler already included),
/// that peak, and `f`'s result.
fn peak_tasks_during<R>(f: impl FnOnce() -> R) -> (usize, usize, R) {
    let stop = AtomicBool::new(false);
    let peak = AtomicUsize::new(0);
    let (before, r) = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(task_count(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        let before = task_count();
        let r = f();
        stop.store(true, Ordering::Relaxed);
        (before, r)
    });
    (before, peak.into_inner(), r)
}

#[test]
fn nested_calls_run_inline_on_the_outer_workers() {
    let outer = [1u64, 2, 3, 4];
    let serial: Vec<Vec<u64>> =
        outer.iter().map(|&i| (0..4).map(|j| (i * 10 + j) * (i * 10 + j)).collect()).collect();
    std::env::set_var("BRANCHNET_THREADS", "2");

    let (before, peak, got) = peak_tasks_during(|| nested(&outer));
    assert_eq!(got, serial);
    assert!(
        before < peak && peak <= before + 2,
        "BRANCHNET_THREADS=2 allows 2 workers, the nested calls included: {peak} tasks during \
         the call, {before} before it"
    );

    // An outer call that runs inline (one item) is no worker, so its
    // inner call still fans out.
    let (before, peak, got) = peak_tasks_during(|| nested(&outer[..1]));
    std::env::remove_var("BRANCHNET_THREADS");
    assert_eq!(got, serial[..1]);
    assert!(
        before < peak && peak <= before + 2,
        "the inner call of an inline outer call fans out to at most 2 workers: {peak} tasks \
         during the call, {before} before it"
    );
}
