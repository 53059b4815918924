//! Fig. 13: sensitivity of iso-latency Mini-BranchNet to its total
//! storage budget (8 / 16 / 32 / 64 KB packs on the 64 KB baseline),
//! with runtime-only reference lanes (loop-only, local perceptron,
//! O-GEHL) at their own fixed budgets for context.

use crate::experiments::mini_pack::{pack_from_menu, train_menu};
use crate::harness::{
    baseline_lane, engine_hybrid, gauntlet_test_stats, hybrid_lane, lineup_lane, reduction_pct,
    trace_set, Scale,
};
use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::report::{bench_from_json, bench_to_json};
use branchnet_core::config::BranchNetConfig;
use branchnet_core::parallel::parallel_map;
use branchnet_tage::TageSclConfig;
use branchnet_workloads::spec::Benchmark;

/// The lane name of the paper's own sweep points (Mini-BranchNet packs
/// attached to the TAGE base). Reference points carry a lineup name
/// instead.
pub const MINI_PACK_LANE: &str = "mini-pack";

/// The runtime-only baselines measured as fig13 reference points, by
/// lineup name.
pub const FIG13_REFERENCE_BASELINES: [&str; 3] = ["loop-only", "local-perceptron", "o-gehl"];

/// One budget point for one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig13Point {
    /// The benchmark.
    pub bench: Benchmark,
    /// Which lane produced the point: [`MINI_PACK_LANE`] for the
    /// paper's budget sweep, or a [`branchnet_tage::baseline_lineup`]
    /// name for a runtime-only reference.
    pub lane: &'static str,
    /// Total storage budget in KB: the Mini-BranchNet pack budget, or
    /// the reference predictor's own storage rounded up.
    pub budget_kb: usize,
    /// MPKI reduction vs the 64 KB baseline (%).
    pub mpki_reduction_pct: f64,
    /// Models actually attached (0 for reference lanes).
    pub models: usize,
}

/// Resolves a serialized lane name to its static identity, failing
/// closed on names no current lane produces.
fn lane_from_json(json: &Json) -> Result<&'static str, JsonError> {
    let name = json.as_str()?;
    if name == MINI_PACK_LANE {
        return Ok(MINI_PACK_LANE);
    }
    branchnet_tage::lineup_entry(name)
        .map(|e| e.name)
        .ok_or_else(|| format!("unknown fig13 lane {name:?}"))
}

impl ToJson for Fig13Point {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("bench", bench_to_json(self.bench)),
            ("lane", Json::Str(self.lane.to_string())),
            ("budget_kb", Json::Num(self.budget_kb as f64)),
            ("mpki_reduction_pct", Json::Num(self.mpki_reduction_pct)),
            ("models", Json::Num(self.models as f64)),
        ])
    }
}

impl FromJson for Fig13Point {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            bench: bench_from_json(json.field("bench")?)?,
            // Absent in artifacts written before reference lanes
            // existed (schema v1): every point was a mini-pack point.
            lane: json.get("lane").map_or(Ok(MINI_PACK_LANE), lane_from_json)?,
            budget_kb: json.field("budget_kb")?.as_usize()?,
            mpki_reduction_pct: json.field("mpki_reduction_pct")?.as_f64()?,
            models: json.field("models")?.as_usize()?,
        })
    }
}

/// Sweeps budgets over the given benchmarks; every benchmark also gets
/// one reference point per [`FIG13_REFERENCE_BASELINES`] entry.
#[must_use]
pub fn run(scale: &Scale, benchmarks: &[Benchmark], budgets_kb: &[usize]) -> Vec<Fig13Point> {
    let baseline = TageSclConfig::tage_sc_l_64kb().without_sc_local();
    let references = FIG13_REFERENCE_BASELINES.map(|name| {
        branchnet_tage::lineup_entry(name)
            .unwrap_or_else(|| panic!("{name} missing from baseline_lineup()"))
    });
    let per_bench = parallel_map(benchmarks, |&bench| {
        let traces = trace_set(bench, scale);
        // One scored menu serves every budget point: only the cheap
        // knapsack re-runs per budget.
        let menu = train_menu(bench, &baseline, scale, &BranchNetConfig::mini_menu());
        let hybrids: Vec<_> = budgets_kb
            .iter()
            .map(|&kb| {
                let pack = pack_from_menu(&menu, kb * 1024);
                (kb, pack.models.len(), engine_hybrid(&pack.models, &baseline))
            })
            .collect();
        // The baseline, every budget point, and the reference lanes
        // share one gauntlet pass per test trace.
        let mut lanes = vec![baseline_lane(&baseline)];
        lanes.extend(hybrids.iter().map(|(_, _, h)| hybrid_lane(h)));
        lanes.extend(references.iter().map(lineup_lane));
        let stats = gauntlet_test_stats(&traces, &lanes);
        let base = stats[0].mpki();
        let mut points: Vec<Fig13Point> = hybrids
            .iter()
            .zip(&stats[1..])
            .map(|(&(kb, models, _), s)| Fig13Point {
                bench,
                lane: MINI_PACK_LANE,
                budget_kb: kb,
                mpki_reduction_pct: reduction_pct(base, s.mpki()),
                models,
            })
            .collect();
        points.extend(references.iter().zip(&stats[1 + hybrids.len()..]).map(|(e, s)| {
            Fig13Point {
                bench,
                lane: e.name,
                budget_kb: ((e.build)().storage_bits() as usize).div_ceil(8 * 1024),
                mpki_reduction_pct: reduction_pct(base, s.mpki()),
                models: 0,
            }
        }));
        points
    });
    per_bench.into_iter().flatten().collect()
}

/// Paper-style rendering.
#[must_use]
pub fn render(points: &[Fig13Point]) -> String {
    let mut out = String::from(
        "Fig. 13 — iso-latency Mini-BranchNet MPKI reduction vs storage budget\n\
         benchmark    lane              budget  models  MPKI reduction\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:<12} {:<16} {:>4}KB  {:>4}    {:>6.1}%\n",
            p.bench.name(),
            p.lane,
            p.budget_kb,
            p.models,
            p.mpki_reduction_pct
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_budgets_attach_at_least_as_many_models() {
        let scale =
            Scale { branches_per_trace: 20_000, candidates: 4, epochs: 6, max_examples: 1_000 };
        let points = run(&scale, &[Benchmark::Xz], &[8, 32]);
        let minis: Vec<&Fig13Point> = points.iter().filter(|p| p.lane == MINI_PACK_LANE).collect();
        assert_eq!(minis.len(), 2);
        assert!(minis[1].models >= minis[0].models);
        // Bigger budget should not do meaningfully worse.
        assert!(minis[1].mpki_reduction_pct >= minis[0].mpki_reduction_pct - 2.0);
        // One reference point per registered reference baseline, each
        // with a real storage figure and no attached models.
        let refs: Vec<&Fig13Point> = points.iter().filter(|p| p.lane != MINI_PACK_LANE).collect();
        assert_eq!(refs.len(), FIG13_REFERENCE_BASELINES.len());
        for r in &refs {
            assert!(FIG13_REFERENCE_BASELINES.contains(&r.lane));
            assert!(r.budget_kb > 0);
            assert_eq!(r.models, 0);
        }
    }

    #[test]
    fn lane_round_trips_and_fails_closed() {
        assert_eq!(lane_from_json(&Json::Str(MINI_PACK_LANE.into())).unwrap(), MINI_PACK_LANE);
        assert_eq!(lane_from_json(&Json::Str("o-gehl".into())).unwrap(), "o-gehl");
        assert!(lane_from_json(&Json::Str("not-a-lane".into())).is_err());
        // Target lanes share the lineup entry type but are no fig13 lane.
        assert!(lane_from_json(&Json::Str("ittage-64kb".into())).is_err());
    }
}
