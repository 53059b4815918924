//! The offline training pipeline (paper Section V-E).
//!
//! Three steps, exactly as the paper describes:
//!
//! 1. **Rank** — run the baseline predictor over the *validation*
//!    traces and select the most-mispredicting static branches.
//! 2. **Train** — fit one CNN per hard branch on the *training*
//!    traces (candidates fan out over the `BRANCHNET_THREADS` worker
//!    pool; models are independent).
//! 3. **Select / assign** — keep the branches whose validation
//!    misprediction count actually improves, and for the practical
//!    Mini settings solve the per-branch model-size assignment under a
//!    total storage budget ("we try all possible assignments of top
//!    hard-to-predict branches to configurations" — here an exact
//!    knapsack over the menu).
//!
//! All reported numbers are then measured on the *test* traces by the
//! caller (e.g. via [`HybridPredictor`](crate::hybrid::HybridPredictor)).

use crate::config::BranchNetConfig;
use crate::dataset::extract;
use crate::model::BranchNetModel;
use crate::parallel::parallel_map;
use crate::trainer::{evaluate_accuracy, train_model_resilient, TrainOptions};
use branchnet_tage::{TageScL, TageSclConfig};
use branchnet_trace::{BranchStats, Gauntlet, Trace, TraceSet};
use serde::{Deserialize, Serialize};

/// Pipeline knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineOptions {
    /// How many top-MPKI validation branches to consider (the paper
    /// uses 100; synthetic workloads have far fewer hot branches).
    pub candidates: usize,
    /// Cap on attached models (41 for iso-latency Mini-BranchNet).
    pub max_models: usize,
    /// Skip branches with fewer validation occurrences than this.
    pub min_occurrences: usize,
    /// Required validation-accuracy margin over the baseline before a
    /// model is considered an improvement. Guards against validation
    /// noise promoting useless models (the paper's much larger
    /// validation sets achieve the same implicitly).
    pub selection_margin: f64,
    /// Training hyperparameters.
    pub train: TrainOptions,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        Self {
            candidates: 12,
            max_models: 41,
            min_occurrences: 100,
            selection_margin: 0.02,
            train: TrainOptions::default(),
        }
    }
}

/// Validation outcome for one candidate branch/model pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CandidateResult {
    /// The static branch.
    pub pc: u64,
    /// Baseline accuracy on the validation traces.
    pub baseline_accuracy: f64,
    /// CNN accuracy on the validation traces.
    pub model_accuracy: f64,
    /// Dynamic occurrences in the validation traces.
    pub occurrences: f64,
    /// Estimated validation mispredictions avoided by attaching the
    /// model (can be negative; such models are dropped).
    pub mispredictions_avoided: f64,
}

/// Ranks static branches by misprediction count under `baseline_cfg`
/// over `traces` and returns per-branch stats for the top `k`.
#[must_use]
pub fn rank_hard_branches(
    baseline_cfg: &TageSclConfig,
    traces: &[Trace],
    k: usize,
) -> (Vec<u64>, BranchStats) {
    let mut gauntlet = Gauntlet::new();
    let lane = gauntlet.add_tracked(TageScL::new(baseline_cfg));
    for t in traces {
        gauntlet.run(t);
        // Each trace gets a cold predictor, like per-SimPoint
        // evaluation in the paper's methodology.
        gauntlet.flush();
    }
    let stats = gauntlet
        .finish()
        .swap_remove(lane)
        .branch_stats
        .expect("ranking lane collects per-branch stats");
    (stats.rank_by_mispredictions().top_pcs(k), stats)
}

/// Trains `config`'s model for branch `pc` on the `train` traces: the
/// per-branch step every pack and menu shares. `None` when the branch
/// has fewer than `min_occurrences` examples, or when every training
/// attempt diverges (DESIGN.md §9); either way the branch stays on the
/// runtime baseline.
#[must_use]
pub fn train_branch(
    config: &BranchNetConfig,
    train: &[Trace],
    pc: u64,
    opts: &TrainOptions,
    min_occurrences: usize,
) -> Option<BranchNetModel> {
    let ds = extract(train, pc, config.window_len(), config.pc_bits);
    if ds.len() < min_occurrences {
        return None;
    }
    // Resilient training: a diverged run is retried with a reseeded
    // init, and a branch whose every attempt diverges gets no model.
    train_model_resilient(config, &ds, opts).map(|(model, _report)| model)
}

/// Trains one model per candidate branch (on the
/// [`parallel_map`] worker pool) and scores each on the validation
/// traces. `train(pc, options)` produces the model, given the
/// candidate's final training options: [`offline_train`] calls
/// [`train_branch`] on `traces.train`, and a caller may instead fetch
/// it from a store of trained models.
///
/// Returns `(result, model)` pairs in candidate order; candidates
/// `train` returns `None` for are skipped.
#[must_use]
pub fn train_candidates(
    config: &BranchNetConfig,
    traces: &TraceSet,
    candidates: &[(u64, f64, f64)], // (pc, baseline_accuracy, valid_occurrences)
    opts: &PipelineOptions,
    train: impl Fn(u64, &TrainOptions) -> Option<BranchNetModel> + Sync,
) -> Vec<(CandidateResult, BranchNetModel)> {
    let window = config.window_len();
    parallel_map(candidates, |&(pc, baseline_accuracy, occurrences)| {
        // Deterministic per-candidate seeding: each branch's training
        // stream is a pure function of (base seed, pc), so neither
        // scheduling nor the number of worker threads can perturb any
        // result. The odd multiplier (golden-ratio constant)
        // decorrelates nearby PCs.
        let mut topts = opts.train;
        topts.seed = opts.train.seed ^ pc.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut model = train(pc, &topts)?;
        let mut valid_ds = extract(&traces.valid, pc, window, config.pc_bits);
        valid_ds.subsample(topts.max_examples);
        let model_accuracy = evaluate_accuracy(&mut model, &valid_ds);
        let avoided = occurrences * (model_accuracy - baseline_accuracy - opts.selection_margin);
        Some((
            CandidateResult {
                pc,
                baseline_accuracy,
                model_accuracy,
                occurrences,
                mispredictions_avoided: avoided,
            },
            model,
        ))
    })
    .into_iter()
    .flatten()
    .collect()
}

/// The end-to-end Big-BranchNet-style pipeline: rank on validation,
/// train `config` per branch, keep improved models up to
/// `opts.max_models`, best first.
#[must_use]
pub fn offline_train(
    config: &BranchNetConfig,
    baseline_cfg: &TageSclConfig,
    traces: &TraceSet,
    opts: &PipelineOptions,
) -> Vec<(CandidateResult, BranchNetModel)> {
    offline_train_with(config, baseline_cfg, traces, opts, |pc, topts| {
        train_branch(config, &traces.train, pc, topts, opts.min_occurrences)
    })
}

/// [`offline_train`] with the per-branch training step supplied by the
/// caller, as in [`train_candidates`].
#[must_use]
pub fn offline_train_with(
    config: &BranchNetConfig,
    baseline_cfg: &TageSclConfig,
    traces: &TraceSet,
    opts: &PipelineOptions,
    train: impl Fn(u64, &TrainOptions) -> Option<BranchNetModel> + Sync,
) -> Vec<(CandidateResult, BranchNetModel)> {
    let (pcs, stats) = rank_hard_branches(baseline_cfg, &traces.valid, opts.candidates);
    let candidates: Vec<(u64, f64, f64)> = pcs
        .iter()
        .filter_map(|pc| stats.get(*pc).map(|s| (*pc, s.accuracy(), s.predictions())))
        .collect();
    let mut trained = train_candidates(config, traces, &candidates, opts, train);
    trained.retain(|(r, _)| r.mispredictions_avoided > 0.0);
    trained.sort_by(|a, b| {
        b.0.mispredictions_avoided
            .partial_cmp(&a.0.mispredictions_avoided)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    trained.truncate(opts.max_models);
    trained
}

/// One branch's menu of trained models: `(bytes, avoided)` per config
/// choice (same order as the menu used to train them).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BudgetItem {
    /// The static branch.
    pub pc: u64,
    /// `(storage bytes, validation mispredictions avoided)` per menu
    /// entry.
    pub choices: Vec<(usize, f64)>,
}

/// Exact knapsack assignment of per-branch model sizes under a total
/// byte budget (the paper's "best combination of models"). Returns,
/// per item, `Some(choice index)` or `None` (branch gets no model).
///
/// Runs in `O(items × budget/granularity × choices)` with a 64-byte
/// granularity.
#[must_use]
pub fn assign_budget(items: &[BudgetItem], budget_bytes: usize) -> Vec<Option<usize>> {
    const GRAIN: usize = 64;
    let cap = budget_bytes / GRAIN;
    let n = items.len();
    // value[i][w]: best avoided-count using items[..i] within w grains;
    // choice[i][w]: the menu index item i picked on the optimal path.
    let mut value: Vec<Vec<f64>> = vec![vec![0.0; cap + 1]];
    let mut choice: Vec<Vec<Option<usize>>> = Vec::with_capacity(n);
    for item in items {
        let prev = value.last().expect("seeded").clone();
        let mut cur = prev.clone();
        let mut ch = vec![None; cap + 1];
        for (ci, &(bytes, avoided)) in item.choices.iter().enumerate() {
            if avoided <= 0.0 {
                continue;
            }
            let grains = bytes.div_ceil(GRAIN);
            for w in grains..=cap {
                let cand = prev[w - grains] + avoided;
                if cand > cur[w] + 1e-12 {
                    cur[w] = cand;
                    ch[w] = Some(ci);
                }
            }
        }
        value.push(cur);
        choice.push(ch);
    }
    let mut picks = vec![None; n];
    let mut w = cap;
    for i in (0..n).rev() {
        if let Some(ci) = choice[i][w] {
            picks[i] = Some(ci);
            w -= items[i].choices[ci].0.div_ceil(GRAIN);
        }
    }
    picks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(pc: u64, choices: &[(usize, f64)]) -> BudgetItem {
        BudgetItem { pc, choices: choices.to_vec() }
    }

    #[test]
    fn knapsack_prefers_high_value_per_byte() {
        // Two branches, budget fits only one large or two small.
        let items =
            vec![item(1, &[(2048, 100.0), (1024, 90.0)]), item(2, &[(2048, 100.0), (1024, 90.0)])];
        let picks = assign_budget(&items, 2048);
        // Two 1KB models (180) beat one 2KB model (100).
        assert_eq!(picks, vec![Some(1), Some(1)]);
    }

    #[test]
    fn knapsack_respects_budget() {
        let items =
            vec![item(1, &[(2048, 10.0)]), item(2, &[(2048, 9.0)]), item(3, &[(2048, 8.0)])];
        let picks = assign_budget(&items, 4096);
        let taken = picks.iter().filter(|p| p.is_some()).count();
        assert_eq!(taken, 2, "only two 2KB models fit in 4KB");
        assert_eq!(picks[0], Some(0));
        assert_eq!(picks[1], Some(0));
        assert_eq!(picks[2], None);
    }

    #[test]
    fn knapsack_skips_useless_models() {
        let items = vec![item(1, &[(256, -5.0), (128, 0.0)])];
        let picks = assign_budget(&items, 10_000);
        assert_eq!(picks, vec![None]);
    }

    #[test]
    fn knapsack_empty_budget_takes_nothing() {
        let items = vec![item(1, &[(256, 5.0)])];
        assert_eq!(assign_budget(&items, 0), vec![None]);
    }

    #[test]
    fn knapsack_picks_best_single_choice() {
        let items = vec![item(1, &[(2048, 50.0), (1024, 49.0), (512, 20.0)])];
        // 2KB fits: its 50 beats the 1KB's 49.
        assert_eq!(assign_budget(&items, 2048), vec![Some(0)]);
        // Only 1KB fits.
        assert_eq!(assign_budget(&items, 1024), vec![Some(1)]);
    }
}
