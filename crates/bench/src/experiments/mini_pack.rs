//! Building budgeted Mini-BranchNet packs (paper Section V-B "Optimal
//! Architecture Knobs" + Section VI-D's iso-storage / iso-latency
//! settings).
//!
//! For every hard-branch candidate, one model per Mini preset is
//! trained; each trained model is *quantized* and re-scored on the
//! validation traces (selection must see the accuracy the hardware
//! will actually deliver); then an exact knapsack picks the best
//! per-branch model sizes under the total storage budget.
//!
//! Menu training (the expensive part) is separated from the knapsack
//! (cheap) and memoized in the [`ArtifactCache`], so a budget sweep
//! like Fig. 13's trains each benchmark's menu exactly once. Candidate
//! menus train in parallel (ordered fan-out, so results are identical
//! to the serial loop).

use crate::cache::ArtifactCache;
use crate::harness::{trace_set, Scale};
use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::report::{bench_from_json, bench_to_json};
use branchnet_core::config::BranchNetConfig;
use branchnet_core::dataset::extract;
use branchnet_core::parallel::parallel_map;
use branchnet_core::quantize::{QuantMode, QuantizedMini};
use branchnet_core::selection::{assign_budget, rank_hard_branches, BudgetItem, PipelineOptions};
use branchnet_core::storage::storage_breakdown;
use branchnet_core::trainer::train_model_resilient;
use branchnet_tage::TageSclConfig;
use branchnet_trace::TraceSet;
use branchnet_workloads::spec::Benchmark;
use std::sync::Arc;

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

/// Trains and scores the full menu for every candidate branch (the
/// budget-independent part of pack building).
#[must_use]
pub fn train_menu(
    traces: &TraceSet,
    baseline: &TageSclConfig,
    scale: &Scale,
    menu: &[(BranchNetConfig, usize)],
) -> TrainedMenu {
    let opts: PipelineOptions = scale.pipeline_options();
    let (pcs, stats) = rank_hard_branches(baseline, &traces.valid, opts.candidates);

    // Train the full menu per candidate and score quantized accuracy.
    // Candidates fan out in parallel; each is seeded by its own
    // (config, dataset, options), so order cannot affect results.
    let per_candidate = parallel_map(&pcs, |&pc| {
        let base_stats = stats.get(pc)?;
        let base_acc = base_stats.accuracy();
        let occurrences = base_stats.predictions();
        let mut entries: Vec<Option<MenuEntry>> = Vec::new();
        let mut choices: Vec<(usize, f64)> = Vec::new();
        for (config, _nominal) in menu {
            let train_ds = extract(&traces.train, pc, config.window_len(), config.pc_bits);
            if train_ds.len() < opts.min_occurrences {
                entries.push(None);
                choices.push((usize::MAX / 4, f64::NEG_INFINITY));
                continue;
            }
            // Resilient training (DESIGN.md §9): a diverged run retries
            // with a reseeded init; a candidate whose every attempt
            // diverges gets no menu entry for this config, exactly like
            // one with too few examples.
            let Some((model, _)) = train_model_resilient(config, &train_ds, &opts.train) else {
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

/// The trained menu for `(menu, baseline, bench, scale)`, trained once
/// per process and shared via the [`ArtifactCache`].
#[must_use]
pub fn cached_menu(
    bench: Benchmark,
    baseline: &TageSclConfig,
    scale: &Scale,
    menu: &[(BranchNetConfig, usize)],
) -> Arc<TrainedMenu> {
    ArtifactCache::global().menu(
        menu,
        baseline,
        bench,
        scale,
        || {
            let traces = trace_set(bench, scale);
            train_menu(&traces, baseline, scale, menu)
        },
        valid_menu,
    )
}

/// Whether a cached menu is usable: every knapsack choice value finite
/// or the `NEG_INFINITY` no-entry sentinel (a NaN would silently
/// corrupt every budget assignment solved from the menu).
#[must_use]
pub fn valid_menu(menu: &TrainedMenu) -> bool {
    menu.items
        .iter()
        .flat_map(|item| item.choices.iter())
        .all(|&(_, avoided)| avoided.is_finite() || avoided == f64::NEG_INFINITY)
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

/// Trains the Mini menu for the top validation hard branches of
/// `bench` (memoized) and solves the `budget_bytes` assignment.
#[must_use]
pub fn build_mini_pack(
    bench: Benchmark,
    baseline: &TageSclConfig,
    scale: &Scale,
    budget_bytes: usize,
) -> MiniPack {
    build_pack_with_menu(bench, baseline, scale, budget_bytes, &BranchNetConfig::mini_menu())
}

/// Like [`build_mini_pack`] but with an explicit config menu (used for
/// Tarsa-Ternary, whose "menu" is a single config).
#[must_use]
pub fn build_pack_with_menu(
    bench: Benchmark,
    baseline: &TageSclConfig,
    scale: &Scale,
    budget_bytes: usize,
    menu: &[(BranchNetConfig, usize)],
) -> MiniPack {
    pack_from_menu(&cached_menu(bench, baseline, scale, menu), budget_bytes)
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
        let menu = cached_menu(Benchmark::Xz, &baseline, &scale, &BranchNetConfig::mini_menu());
        // Re-solving different budgets over the shared menu must be
        // monotone in selected storage without retraining anything.
        let small = pack_from_menu(&menu, 4 * 1024);
        let large = pack_from_menu(&menu, 32 * 1024);
        assert!(large.models.len() >= small.models.len());
        assert!(large.total_bytes >= small.total_bytes);
    }
}
