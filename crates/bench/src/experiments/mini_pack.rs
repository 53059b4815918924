//! Building budgeted Mini-BranchNet packs (paper Section V-B "Optimal
//! Architecture Knobs" + Section VI-D's iso-storage / iso-latency
//! settings).
//!
//! For every hard-branch candidate, one model per Mini preset is
//! fetched from the model store (trained on first use); each model is
//! *quantized* and re-scored on the validation traces (selection must
//! see the accuracy the hardware will actually deliver); then an exact
//! knapsack picks the best per-branch model sizes under the total
//! storage budget.
//!
//! Training (the expensive part) is memoized per model in the
//! [`ArtifactCache`](crate::cache::ArtifactCache), keyed by what
//! training reads and not by the baseline that ranks the branch, so
//! the iso-storage and iso-latency menus train a branch they share
//! once. Scoring a menu and solving the knapsack are cheap: a budget
//! sweep like Fig. 13's scores one menu and re-solves only the
//! knapsack per budget. Candidates fan out in parallel (ordered
//! fan-out, so results are identical to the serial loop).

use crate::harness::{trace_set, trained_model, Scale};
use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::report::{bench_from_json, bench_to_json};
use branchnet_core::config::BranchNetConfig;
use branchnet_core::dataset::extract;
use branchnet_core::parallel::parallel_map;
use branchnet_core::quantize::{QuantMode, QuantizedMini};
use branchnet_core::selection::{assign_budget, rank_hard_branches, BudgetItem, PipelineOptions};
use branchnet_core::storage::storage_breakdown;
use branchnet_tage::TageSclConfig;
use branchnet_workloads::spec::Benchmark;

/// One branch's trained menu entry.
#[derive(Debug, Clone)]
pub struct MenuEntry {
    /// The quantized model for this (branch, config) cell.
    pub quant: QuantizedMini,
    /// Its engine storage in bytes.
    pub bytes: usize,
}

/// The trained, quantized, validation-scored menu for one benchmark:
/// everything the knapsack needs, for any budget.
#[derive(Debug, Clone)]
pub struct TrainedMenu {
    /// Per-candidate `(bytes, value)` choices for [`assign_budget`].
    pub items: Vec<BudgetItem>,
    /// Per-candidate trained entries, parallel to `items` (an entry is
    /// `None` when the branch had too few training examples for that
    /// config).
    pub entries: Vec<Vec<Option<MenuEntry>>>,
}

/// A budgeted pack of quantized models ready to attach as engines.
pub struct MiniPack {
    /// `(pc, quantized model)` selected under the budget.
    pub models: Vec<(u64, QuantizedMini)>,
    /// Total storage of the selected models in bytes.
    pub total_bytes: usize,
}

/// The report-layer view of a [`MiniPack`]: which branches were
/// covered under which budget (the quantized weights themselves live
/// in the binary model format, not in reports).
#[derive(Debug, Clone, PartialEq)]
pub struct MiniPackReport {
    /// The benchmark the pack was built for.
    pub bench: Benchmark,
    /// The storage budget the knapsack solved for, in bytes.
    pub budget_bytes: usize,
    /// Storage actually selected, in bytes.
    pub total_bytes: usize,
    /// Covered branch addresses, in selection order.
    pub model_pcs: Vec<u64>,
}

impl MiniPackReport {
    /// Summarizes a solved pack.
    #[must_use]
    pub fn from_pack(bench: Benchmark, budget_bytes: usize, pack: &MiniPack) -> Self {
        Self {
            bench,
            budget_bytes,
            total_bytes: pack.total_bytes,
            model_pcs: pack.models.iter().map(|(pc, _)| *pc).collect(),
        }
    }
}

impl ToJson for MiniPackReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("bench", bench_to_json(self.bench)),
            ("budget_bytes", Json::Num(self.budget_bytes as f64)),
            ("total_bytes", Json::Num(self.total_bytes as f64)),
            ("model_pcs", Json::Arr(self.model_pcs.iter().map(|&pc| Json::hex(pc)).collect())),
        ])
    }
}

impl FromJson for MiniPackReport {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            bench: bench_from_json(json.field("bench")?)?,
            budget_bytes: json.field("budget_bytes")?.as_usize()?,
            total_bytes: json.field("total_bytes")?.as_usize()?,
            model_pcs: json
                .field("model_pcs")?
                .as_arr()?
                .iter()
                .map(Json::as_hex_u64)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Paper-style rendering of pack compositions (the text twin of the
/// `mini_pack` report artifact).
#[must_use]
pub fn render_packs(packs: &[MiniPackReport]) -> String {
    let mut out = String::from(
        "Mini-BranchNet pack composition (iso-latency budget)\n\
         benchmark    budget   selected  models\n",
    );
    for p in packs {
        out.push_str(&format!(
            "{:<12} {:>5}KB  {:>6}B   {:>4}\n",
            p.bench.name(),
            p.budget_bytes / 1024,
            p.total_bytes,
            p.model_pcs.len()
        ));
    }
    out
}

/// Ranks `bench`'s hard branches under `baseline`, fetches every
/// candidate's model for each menu config from the store, and scores
/// it quantized on validation (the budget-independent part of pack
/// building).
#[must_use]
pub fn train_menu(
    bench: Benchmark,
    baseline: &TageSclConfig,
    scale: &Scale,
    menu: &[(BranchNetConfig, usize)],
) -> TrainedMenu {
    let traces = trace_set(bench, scale);
    let opts: PipelineOptions = scale.pipeline_options();
    let (pcs, stats) = rank_hard_branches(baseline, &traces.valid, opts.candidates);

    // Fetch the full menu per candidate and score quantized accuracy.
    // Candidates fan out in parallel; each model is seeded by its own
    // (config, dataset, options), so order cannot affect results.
    let per_candidate = parallel_map(&pcs, |&pc| {
        let base_stats = stats.get(pc)?;
        let base_acc = base_stats.accuracy();
        let occurrences = base_stats.predictions();
        let mut entries: Vec<Option<MenuEntry>> = Vec::new();
        let mut choices: Vec<(usize, f64)> = Vec::new();
        for (config, _nominal) in menu {
            // Menus train with the base seed, where packs mix in the PC
            // (DESIGN.md §9). A branch with too few examples, or whose
            // every training attempt diverged, gets no entry.
            let Some(model) =
                trained_model(bench, scale, config, pc, &opts.train, opts.min_occurrences)
            else {
                entries.push(None);
                choices.push((usize::MAX / 4, f64::NEG_INFINITY));
                continue;
            };
            let quant = QuantizedMini::from_model(&model);
            let mut valid_ds = extract(&traces.valid, pc, config.window_len(), config.pc_bits);
            valid_ds.subsample(opts.train.max_examples);
            let correct = valid_ds
                .examples
                .iter()
                .filter(|e| quant.predict(&e.window, QuantMode::Full) == (e.label >= 0.5))
                .count();
            let acc =
                if valid_ds.is_empty() { 0.0 } else { correct as f64 / valid_ds.len() as f64 };
            let avoided = occurrences * (acc - base_acc - opts.selection_margin);
            let bytes = (storage_breakdown(config).total_bits() / 8) as usize;
            entries.push(Some(MenuEntry { quant, bytes }));
            choices.push((bytes, avoided));
        }
        Some((BudgetItem { pc, choices }, entries))
    });

    let mut items = Vec::new();
    let mut entries = Vec::new();
    for (item, menu_row) in per_candidate.into_iter().flatten() {
        items.push(item);
        entries.push(menu_row);
    }
    TrainedMenu { items, entries }
}

/// Solves the `budget_bytes` assignment over an already-trained menu
/// (the cheap, per-budget part of pack building).
#[must_use]
pub fn pack_from_menu(menu: &TrainedMenu, budget_bytes: usize) -> MiniPack {
    let picks = assign_budget(&menu.items, budget_bytes);
    let mut models = Vec::new();
    let mut total_bytes = 0usize;
    for ((item, pick), entries) in menu.items.iter().zip(&picks).zip(&menu.entries) {
        if let Some(ci) = pick {
            if let Some(entry) = entries.get(*ci).and_then(Option::as_ref) {
                total_bytes += entry.bytes;
                models.push((item.pc, entry.quant.clone()));
            }
        }
    }
    MiniPack { models, total_bytes }
}

/// Builds the Mini menu for the top validation hard branches of
/// `bench` and solves the `budget_bytes` assignment.
#[must_use]
pub fn build_mini_pack(
    bench: Benchmark,
    baseline: &TageSclConfig,
    scale: &Scale,
    budget_bytes: usize,
) -> MiniPack {
    pack_from_menu(&train_menu(bench, baseline, scale, &BranchNetConfig::mini_menu()), budget_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_respects_budget_and_finds_models() {
        let scale =
            Scale { branches_per_trace: 20_000, candidates: 4, epochs: 6, max_examples: 800 };
        let baseline = TageSclConfig::tage_sc_l_64kb();
        let budget = 8 * 1024;
        let pack = build_mini_pack(Benchmark::Xz, &baseline, &scale, budget);
        assert!(pack.total_bytes <= budget + 64 * pack.models.len(), "budget exceeded");
        assert!(!pack.models.is_empty(), "xz has count-correlated branches a pack must find");
    }

    #[test]
    fn budget_sweep_reuses_one_trained_menu() {
        let scale =
            Scale { branches_per_trace: 20_000, candidates: 4, epochs: 6, max_examples: 800 };
        let baseline = TageSclConfig::tage_sc_l_64kb();
        let menu = train_menu(Benchmark::Xz, &baseline, &scale, &BranchNetConfig::mini_menu());
        // Re-solving different budgets over the shared menu must be
        // monotone in selected storage without retraining anything.
        let small = pack_from_menu(&menu, 4 * 1024);
        let large = pack_from_menu(&menu, 32 * 1024);
        assert!(large.models.len() >= small.models.len());
        assert!(large.total_bytes >= small.total_bytes);
    }
}
