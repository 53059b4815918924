//! Ordered parallel fan-out for candidate training and experiment
//! loops.
//!
//! [`parallel_map`] distributes independent work items over a scoped
//! worker pool and collects the results **in input order**, so any
//! loop rewritten from `items.iter().map(..)` to
//! `parallel_map(&items, ..)` produces byte-identical output. The
//! worker count comes from the `BRANCHNET_THREADS` environment
//! variable (default: all available cores); `BRANCHNET_THREADS=1`
//! degenerates to a plain serial loop on the calling thread.
//!
//! `BRANCHNET_THREADS` bounds the whole process, not each call: a
//! `parallel_map` called from inside a worker (candidate training under
//! a per-benchmark fan-out, say) runs serially on that worker.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// Set on the threads [`parallel_map`] spawns, so that a call made
    /// from inside one of them runs inline instead of starting a pool
    /// of its own.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Worker threads to use for [`parallel_map`].
///
/// Reads `BRANCHNET_THREADS`; unset means all available cores.
///
/// # Panics
///
/// Panics on a `BRANCHNET_THREADS` value that is not a positive
/// integer — a typo silently falling back to some default is exactly
/// the kind of bug this knob exists to avoid.
#[must_use]
pub fn thread_count() -> usize {
    match std::env::var("BRANCHNET_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => panic!(
                "BRANCHNET_THREADS must be a positive integer, got {v:?} \
                 (unset it to use all available cores)"
            ),
        },
        Err(_) => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    }
}

/// Applies `f` to every item on a scoped worker pool, returning
/// results in input order.
///
/// Work is claimed dynamically (an atomic cursor), so uneven item
/// costs balance across workers; results land in per-index slots, so
/// scheduling cannot reorder them. With one worker (or one item) this
/// is exactly a serial `map`, and so is a call made from inside another
/// call's worker. An outer call that ran inline leaves its inner calls
/// free to fan out.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = if IN_WORKER.get() { 1 } else { thread_count().min(items.len()) };
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                IN_WORKER.set(true);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = f(&items[i]);
                    *slots[i].lock().expect("result slot poisoned") = Some(r);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("result slot poisoned").expect("worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, |&i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u8> = Vec::new();
        assert!(parallel_map(&items, |&b| b).is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        assert_eq!(parallel_map(&[41], |&x| x + 1), vec![42]);
    }
}
