//! The Section V-E offline pipeline, driven call by call from outside
//! the program so that every step can carry a span: rank hard branches
//! on validation traces, extract per-branch datasets, train each
//! candidate, score it on validation, quantize the Minis and solve the
//! storage knapsack. Training and scoring are separate steps, so that a
//! workload can train once and score in every round.
//!
//! Each candidate is trained on the calling thread with the same
//! per-branch seed `selection::train_candidates` derives, so the
//! program's work runs on one thread at a time.

use crate::span::Tracer;
use branchnet_core::config::BranchNetConfig;
use branchnet_core::dataset::{extract, BranchDataset};
use branchnet_core::degradation;
use branchnet_core::model::BranchNetModel;
use branchnet_core::quantize::{QuantMode, QuantizedMini};
use branchnet_core::selection::{assign_budget, rank_hard_branches, BudgetItem, PipelineOptions};
use branchnet_core::storage::storage_breakdown;
use branchnet_core::trainer::{evaluate_accuracy, train_model_resilient, TrainOptions};
use branchnet_tage::TageSclConfig;
use branchnet_trace::Trace;

/// How long one model trains.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub epochs: usize,
    /// Cap on training and validation examples per branch.
    pub max_examples: usize,
}

impl Budget {
    fn train_options(&self, pc: u64) -> TrainOptions {
        let base = TrainOptions {
            epochs: self.epochs,
            // The learning rate of the `reproduce` harness's scales.
            lr: 0.02,
            max_examples: self.max_examples,
            ..TrainOptions::default()
        };
        TrainOptions { seed: base.seed ^ pc.wrapping_mul(0x9E37_79B9_7F4A_7C15), ..base }
    }
}

/// Operations attempted and failed: one candidate training, one model
/// attach or one trace pass each.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn count<T, E>(&mut self, outcome: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        outcome.map_err(|_| self.failed += 1).ok()
    }

    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A hard branch picked on the validation traces.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    pub pc: u64,
    pub baseline_accuracy: f64,
    pub occurrences: f64,
}

/// Ranks the static branches of `valid` under `baseline` and returns
/// the `k` that mispredict most.
pub fn rank(t: &mut Tracer, baseline: &TageSclConfig, valid: &[Trace], k: usize) -> Vec<Candidate> {
    let records = valid.iter().map(|tr| tr.len() as u64).sum();
    let (pcs, stats) =
        t.timed("core.rank_hard_branches", |_| (rank_hard_branches(baseline, valid, k), records));
    pcs.into_iter()
        .filter_map(|pc| {
            stats.get(pc).map(|s| Candidate {
                pc,
                baseline_accuracy: s.accuracy(),
                occurrences: s.predictions(),
            })
        })
        .collect()
}

fn extract_spanned(
    t: &mut Tracer,
    traces: &[Trace],
    pc: u64,
    cfg: &BranchNetConfig,
) -> BranchDataset {
    t.timed("core.extract", |_| {
        let ds = extract(traces, pc, cfg.window_len(), cfg.pc_bits);
        let n = ds.len() as u64;
        (ds, n)
    })
}

/// Counters of the training layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrainCounts {
    pub trained: u64,
    pub kept: u64,
    pub epochs_run: u64,
    /// Growth of `core::degradation`'s retry counter across the trainings.
    pub retried: u64,
}

impl TrainCounts {
    /// Records the counts as zero-length spans.
    pub fn note(&self, t: &mut Tracer) {
        t.note("core.models_trained", self.trained);
        t.note("core.models_kept", self.kept);
        t.note("core.train_epochs_run", self.epochs_run);
        t.note("core.trainings_retried", self.retried);
    }
}

/// Trains `cfg` for `cand` on `train`. `None` when the branch has too
/// few examples (not an operation) or when every training attempt
/// diverged (a failed operation).
pub fn train(
    t: &mut Tracer,
    cfg: &BranchNetConfig,
    train: &[Trace],
    cand: &Candidate,
    budget: &Budget,
    ops: &mut Ops,
    counts: &mut TrainCounts,
) -> Option<BranchNetModel> {
    let ds = extract_spanned(t, train, cand.pc, cfg);
    if ds.len() < PipelineOptions::default().min_occurrences {
        return None;
    }
    let opts = budget.train_options(cand.pc);
    let used = ds.len().min(opts.max_examples) as u64;
    let retried = degradation::snapshot().trainings_retried;
    let trained = t.timed(format!("core.train.{}", cfg.name), |_| {
        let out = train_model_resilient(cfg, &ds, &opts);
        let epochs = out.as_ref().map_or(opts.epochs, |(_, r)| r.epochs_run) as u64;
        (out, used * epochs)
    });
    counts.retried += degradation::snapshot().trainings_retried - retried;
    let (model, report) = ops.count(trained.ok_or(()))?;
    counts.trained += 1;
    counts.epochs_run += report.epochs_run as u64;
    Some(model)
}

/// Validation mispredictions `accuracy` avoids for `cand` beyond the
/// selection margin (negative: the model does not pay).
pub fn avoided(cand: &Candidate, accuracy: f64) -> f64 {
    let margin = PipelineOptions::default().selection_margin;
    cand.occurrences * (accuracy - cand.baseline_accuracy - margin)
}

/// Float-model accuracy on the validation examples of `cand`.
pub fn validate_float(
    t: &mut Tracer,
    model: &mut BranchNetModel,
    valid: &[Trace],
    cand: &Candidate,
    budget: &Budget,
) -> f64 {
    let mut ds = extract_spanned(t, valid, cand.pc, model.config());
    ds.subsample(budget.max_examples);
    t.timed("core.validate", |_| (evaluate_accuracy(model, &ds), ds.len() as u64))
}

/// Quantized-model accuracy on the validation examples of `cand`.
pub fn validate_quant(
    t: &mut Tracer,
    quant: &QuantizedMini,
    valid: &[Trace],
    cand: &Candidate,
    budget: &Budget,
) -> f64 {
    let mut ds = extract_spanned(t, valid, cand.pc, quant.config());
    ds.subsample(budget.max_examples);
    t.timed("core.validate", |_| {
        let correct = ds
            .examples
            .iter()
            .filter(|e| quant.predict(&e.window, QuantMode::Full) == (e.label >= 0.5))
            .count();
        let acc = if ds.is_empty() { 0.0 } else { correct as f64 / ds.len() as f64 };
        (acc, ds.len() as u64)
    })
}

pub fn quantize(t: &mut Tracer, model: &BranchNetModel) -> QuantizedMini {
    t.timed("core.quantize", |_| (QuantizedMini::from_model(model), 1))
}

/// Every Mini of the menu trained for each candidate: one row per
/// candidate, one entry per `mini_menu()` config (`None` where the
/// candidate was not trained).
pub struct TrainedMinis {
    cands: Vec<Candidate>,
    models: Vec<Vec<Option<BranchNetModel>>>,
}

pub fn train_mini_menu(
    t: &mut Tracer,
    train_traces: &[Trace],
    cands: &[Candidate],
    budget: &Budget,
    ops: &mut Ops,
    counts: &mut TrainCounts,
) -> TrainedMinis {
    let models = cands
        .iter()
        .map(|cand| {
            BranchNetConfig::mini_menu()
                .into_iter()
                .map(|(cfg, _nominal)| train(t, &cfg, train_traces, cand, budget, ops, counts))
                .collect()
        })
        .collect();
    TrainedMinis { cands: cands.to_vec(), models }
}

impl TrainedMinis {
    /// Quantizes every trained Mini and scores it on the validation
    /// examples of its candidate.
    pub fn score(&self, t: &mut Tracer, valid: &[Trace], budget: &Budget) -> MiniMenu {
        let mut menu = MiniMenu { items: Vec::new(), models: Vec::new() };
        for (cand, row) in self.cands.iter().zip(&self.models) {
            let mut choices = Vec::new();
            let mut quants = Vec::new();
            for model in row {
                let Some(model) = model else {
                    choices.push((usize::MAX / 4, f64::NEG_INFINITY));
                    quants.push(None);
                    continue;
                };
                let quant = quantize(t, model);
                let acc = validate_quant(t, &quant, valid, cand, budget);
                let bytes = (storage_breakdown(model.config()).total_bits() / 8) as usize;
                choices.push((bytes, avoided(cand, acc)));
                quants.push(Some(quant));
            }
            menu.items.push(BudgetItem { pc: cand.pc, choices });
            menu.models.push(quants);
        }
        menu
    }
}

/// Every trained Mini of the menu, quantized and scored on validation
/// for each candidate.
pub struct MiniMenu {
    items: Vec<BudgetItem>,
    models: Vec<Vec<Option<QuantizedMini>>>,
}

impl MiniMenu {
    pub fn models(&self) -> impl Iterator<Item = &QuantizedMini> {
        self.models.iter().flatten().flatten()
    }

    /// The models the knapsack picks for at most `knapsack_bytes` of
    /// engine storage.
    pub fn pick(
        mut self,
        t: &mut Tracer,
        knapsack_bytes: usize,
        counts: &mut TrainCounts,
    ) -> Vec<(u64, QuantizedMini)> {
        let picks =
            t.timed("core.assign_budget", |_| (assign_budget(&self.items, knapsack_bytes), 1));
        let mut pack = Vec::new();
        for ((item, pick), row) in self.items.iter().zip(picks).zip(&mut self.models) {
            if let Some(quant) = pick.and_then(|ci| row[ci].take()) {
                counts.kept += 1;
                pack.push((item.pc, quant));
            }
        }
        pack
    }
}

/// Trains `cfg` (a float model) for each candidate that has enough
/// training examples.
pub fn train_float(
    t: &mut Tracer,
    cfg: &BranchNetConfig,
    train_traces: &[Trace],
    cands: &[Candidate],
    budget: &Budget,
    ops: &mut Ops,
    counts: &mut TrainCounts,
) -> Vec<(Candidate, BranchNetModel)> {
    cands
        .iter()
        .filter_map(|cand| {
            train(t, cfg, train_traces, cand, budget, ops, counts).map(|model| (*cand, model))
        })
        .collect()
}

/// Scores each trained float model on validation and keeps the best
/// `max_models` of those that beat the baseline, best first
/// (`PipelineOptions::max_models`).
pub fn float_pack(
    t: &mut Tracer,
    trained: &[(Candidate, BranchNetModel)],
    valid: &[Trace],
    budget: &Budget,
    max_models: usize,
    counts: &mut TrainCounts,
) -> Vec<(u64, BranchNetModel)> {
    let mut kept: Vec<(f64, u64, BranchNetModel)> = Vec::new();
    for (cand, model) in trained {
        let mut model = model.clone();
        let gain = avoided(cand, validate_float(t, &mut model, valid, cand, budget));
        if gain > 0.0 {
            kept.push((gain, cand.pc, model));
        }
    }
    kept.sort_by(|a, b| b.0.total_cmp(&a.0));
    kept.truncate(max_models);
    counts.kept += kept.len() as u64;
    kept.into_iter().map(|(_, pc, m)| (pc, m)).collect()
}
