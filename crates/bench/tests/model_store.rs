//! Packs and menus built under two baselines whose candidates overlap
//! train each shared (benchmark, PC, config, training options) model
//! once, and each pack equals what `offline_train` builds without the
//! store.
//!
//! The store is process-global, so this binary holds a single test:
//! nothing else in the process touches the cache, and counts are exact.

use branchnet_bench::cache::ArtifactCache;
use branchnet_bench::experiments::mini_pack::train_menu;
use branchnet_bench::harness::{pack, trace_set, Scale};
use branchnet_core::config::BranchNetConfig;
use branchnet_core::dataset::extract;
use branchnet_core::model::BranchNetModel;
use branchnet_core::selection::{offline_train, rank_hard_branches, CandidateResult};
use branchnet_tage::TageSclConfig;
use branchnet_trace::TraceSet;
use branchnet_workloads::spec::Benchmark;
use std::collections::BTreeSet;

fn result_bits(r: &CandidateResult) -> [u64; 5] {
    [
        r.pc,
        r.baseline_accuracy.to_bits(),
        r.model_accuracy.to_bits(),
        r.occurrences.to_bits(),
        r.mispredictions_avoided.to_bits(),
    ]
}

/// The same `CandidateResult` bits, and every model's logits bit for
/// bit on the test traces.
fn assert_same_pack(
    stored: Vec<(CandidateResult, BranchNetModel)>,
    direct: Vec<(CandidateResult, BranchNetModel)>,
    config: &BranchNetConfig,
    traces: &TraceSet,
) {
    assert!(!direct.is_empty(), "xz has branches a CNN improves");
    assert_eq!(
        stored.iter().map(|(r, _)| result_bits(r)).collect::<Vec<_>>(),
        direct.iter().map(|(r, _)| result_bits(r)).collect::<Vec<_>>()
    );
    for ((r, mut a), (_, mut b)) in stored.into_iter().zip(direct) {
        let test = extract(&traces.test, r.pc, config.window_len(), config.pc_bits);
        assert!(!test.is_empty());
        let logits = |m: &mut BranchNetModel| -> Vec<u32> {
            test.examples.iter().map(|e| m.predict_logit(&e.window).to_bits()).collect()
        };
        assert_eq!(logits(&mut a), logits(&mut b), "pc {:#x}", r.pc);
    }
}

/// `(model misses, model hits, trace misses)` so far.
fn counts() -> (usize, usize, u64) {
    let s = ArtifactCache::global().stats();
    (s.model_misses as usize, s.model_hits as usize, s.trace_misses)
}

#[test]
fn overlapping_packs_and_menus_train_each_model_once_and_match_offline_train() {
    let scale = Scale { branches_per_trace: 8_000, candidates: 4, epochs: 2, max_examples: 300 };
    let bench = Benchmark::Xz;
    let big = BranchNetConfig::big_scaled();
    let baselines =
        [TageSclConfig::tage_sc_l_64kb(), TageSclConfig::tage_sc_l_64kb().without_sc_local()];
    let traces = trace_set(bench, &scale);
    let opts = scale.pipeline_options();

    let ranked: Vec<Vec<u64>> = baselines
        .iter()
        .map(|b| rank_hard_branches(b, &traces.valid, scale.candidates).0)
        .collect();
    let distinct = ranked.iter().flatten().collect::<BTreeSet<_>>().len();
    let lookups: usize = ranked.iter().map(Vec::len).sum();
    assert!(distinct < lookups, "the two rankings must share a candidate: {ranked:x?}");

    // Big packs: one training per distinct PC, whichever baseline
    // ranked it.
    let packs: Vec<_> = baselines.iter().map(|b| pack(&big, b, bench, &scale)).collect();
    assert_eq!(counts(), (distinct, lookups - distinct, 1));
    for (baseline, stored) in baselines.iter().zip(packs) {
        assert_same_pack(stored, offline_train(&big, baseline, &traces, &opts), &big, &traces);
    }

    // Mini menus: one training per distinct (PC, config), shared by
    // the two menus.
    let menu = BranchNetConfig::mini_menu();
    for baseline in &baselines {
        let _ = train_menu(bench, baseline, &scale, &menu);
    }
    let n = menu.len();
    assert_eq!(counts(), ((1 + n) * distinct, (1 + n) * (lookups - distinct), 1));

    // A mini-2kb pack seeds each branch with its PC, the menus with the
    // base seed: it shares no model with them.
    let mini = BranchNetConfig::mini_2kb();
    let stored = pack(&mini, &baselines[0], bench, &scale);
    assert_eq!(counts(), ((1 + n) * distinct + ranked[0].len(), (1 + n) * (lookups - distinct), 1));
    assert_same_pack(stored, offline_train(&mini, &baselines[0], &traces, &opts), &mini, &traces);
}
