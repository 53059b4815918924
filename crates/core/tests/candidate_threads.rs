//! `train_candidates` trains on the `BRANCHNET_THREADS` worker pool
//! rather than on one OS thread per candidate. The test sets that
//! variable for the whole process, so it lives in a test binary of its
//! own where no other test can race it.

#![cfg(target_os = "linux")]

use branchnet_core::config::{BranchNetConfig, SliceConfig};
use branchnet_core::model::BranchNetModel;
use branchnet_core::selection::{train_candidates, CandidateResult, PipelineOptions};
use branchnet_core::trainer::TrainOptions;
use branchnet_trace::{BranchRecord, Trace, TraceSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

fn tiny_config() -> BranchNetConfig {
    BranchNetConfig {
        name: "threads".into(),
        slices: vec![
            SliceConfig { history: 8, channels: 2, pool_width: 4, precise_pooling: true },
            SliceConfig { history: 16, channels: 2, pool_width: 8, precise_pooling: true },
        ],
        pc_bits: 5,
        conv_hash_bits: Some(5),
        embedding_dim: 0,
        conv_width: 3,
        hidden: vec![4],
        fc_quant_bits: Some(4),
        tanh_activations: true,
    }
}

/// Three conditional branches, each correlated with the others'
/// recent outcomes, interleaved over `n` iterations.
fn trace(n: u64, phase: u64) -> Trace {
    let mut t = Trace::with_label("threads", 1.0);
    for i in 0..n {
        let a = (i + phase).is_multiple_of(3);
        t.push(BranchRecord::conditional(0x100, a));
        t.push(BranchRecord::conditional(0x200, a ^ i.is_multiple_of(2)));
        t.push(BranchRecord::conditional(0x300, (i / 2 + phase).is_multiple_of(2)));
    }
    t
}

/// Threads of this process right now.
fn task_count() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

#[test]
fn candidates_train_on_the_bounded_worker_pool() {
    let traces = TraceSet {
        train: vec![trace(400, 0), trace(400, 1)],
        valid: vec![trace(200, 2)],
        test: Vec::new(),
    };
    let candidates = [(0x100, 0.6, 200.0), (0x200, 0.5, 200.0), (0x300, 0.5, 200.0)];
    let opts = PipelineOptions {
        min_occurrences: 10,
        train: TrainOptions { epochs: 2, batch_size: 32, max_examples: 256, ..Default::default() },
        ..Default::default()
    };
    let cfg = tiny_config();

    std::env::set_var("BRANCHNET_THREADS", "1");
    let stop = AtomicBool::new(false);
    let peak = AtomicUsize::new(0);
    let (before, serial) = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(task_count(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        // The sampler already counts itself.
        let before = task_count();
        let trained = train_candidates(&cfg, &traces, &candidates, &opts);
        stop.store(true, Ordering::Relaxed);
        (before, trained)
    });
    assert_eq!(serial.len(), candidates.len(), "every candidate has enough examples");
    assert!(
        peak.load(Ordering::Relaxed) <= before,
        "BRANCHNET_THREADS=1 must not start training threads: {} tasks during the call, {before} \
         before it",
        peak.load(Ordering::Relaxed)
    );

    // Each candidate's seed depends only on its PC, so the worker count
    // cannot change any result.
    std::env::set_var("BRANCHNET_THREADS", "3");
    let parallel = train_candidates(&cfg, &traces, &candidates, &opts);
    std::env::remove_var("BRANCHNET_THREADS");
    let results = |trained: &[(CandidateResult, BranchNetModel)]| -> Vec<CandidateResult> {
        trained.iter().map(|(r, _)| *r).collect()
    };
    assert_eq!(results(&serial), results(&parallel));
}
