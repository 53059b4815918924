//! Fig. 1: how much of each benchmark's TAGE-SC-L MPKI is
//! concentrated in its top 8 / 25 / 50 static branches.
//!
//! The paper measures the mispredictions its Big CNNs avoid when
//! covering the top-k branches; this module reports the oracle
//! decomposition (mispredictions attributable to the top-k
//! most-mispredicted branches), which is the headroom those CNNs chase.
//! Fig. 9/11 then measure how much of it the CNNs actually capture.

use crate::harness::{trace_set, Scale};
use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::report::{bench_from_json, bench_to_json};
use branchnet_core::parallel::parallel_map;
use branchnet_tage::{TageScL, TageSclConfig};
use branchnet_trace::Gauntlet;
use branchnet_workloads::spec::Benchmark;

/// One benchmark's bar in Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig01Row {
    /// Which benchmark.
    pub bench: Benchmark,
    /// Baseline 64 KB TAGE-SC-L MPKI on the test traces.
    pub mpki: f64,
    /// MPKI attributable to the 8 most-mispredicted branches.
    pub top8: f64,
    /// … the top 25.
    pub top25: f64,
    /// … the top 50.
    pub top50: f64,
}

impl ToJson for Fig01Row {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("bench", bench_to_json(self.bench)),
            ("mpki", Json::Num(self.mpki)),
            ("top8", Json::Num(self.top8)),
            ("top25", Json::Num(self.top25)),
            ("top50", Json::Num(self.top50)),
        ])
    }
}

impl FromJson for Fig01Row {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            bench: bench_from_json(json.field("bench")?)?,
            mpki: json.field("mpki")?.as_f64()?,
            top8: json.field("top8")?.as_f64()?,
            top25: json.field("top25")?.as_f64()?,
            top50: json.field("top50")?.as_f64()?,
        })
    }
}

/// Runs the experiment for every benchmark.
#[must_use]
pub fn run(scale: &Scale) -> Vec<Fig01Row> {
    let baseline = TageSclConfig::tage_sc_l_64kb();
    parallel_map(&Benchmark::all(), |&bench| {
        let traces = trace_set(bench, scale);
        let mut gauntlet = Gauntlet::new();
        let lane = gauntlet.add_tracked(TageScL::new(&baseline));
        for t in &traces.test {
            gauntlet.run(t);
            // Cold predictor per trace, as per-SimPoint evaluation.
            gauntlet.flush();
        }
        let stats = gauntlet
            .finish()
            .swap_remove(lane)
            .branch_stats
            .expect("tracked lane collects per-branch stats");
        let ranking = stats.rank_by_mispredictions();
        Fig01Row {
            bench,
            mpki: stats.totals().mpki(),
            top8: ranking.mpki_of_top(8),
            top25: ranking.mpki_of_top(25),
            top50: ranking.mpki_of_top(50),
        }
    })
}

/// Paper-style rendering.
#[must_use]
pub fn render(rows: &[Fig01Row]) -> String {
    let mut out = String::from(
        "Fig. 1 — 64KB TAGE-SC-L MPKI decomposed by top mispredicting branches\n\
         benchmark    MPKI   top-8   top-25  top-50  (MPKI avoidable by covering k branches)\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>5.2}  {:>5.2}   {:>5.2}   {:>5.2}\n",
            r.bench.name(),
            r.mpki,
            r.top8,
            r.top25,
            r.top50
        ));
    }
    let avg = |f: fn(&Fig01Row) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
    out.push_str(&format!(
        "{:<12} {:>5.2}  {:>5.2}   {:>5.2}   {:>5.2}\n",
        "mean",
        avg(|r| r.mpki),
        avg(|r| r.top8),
        avg(|r| r.top25),
        avg(|r| r.top50)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale { branches_per_trace: 8_000, candidates: 4, epochs: 1, max_examples: 200 }
    }

    #[test]
    fn decomposition_is_monotone_and_bounded() {
        for r in run(&tiny_scale()) {
            assert!(r.top8 <= r.top25 + 1e-9, "{:?}", r);
            assert!(r.top25 <= r.top50 + 1e-9, "{:?}", r);
            assert!(r.top50 <= r.mpki + 1e-9, "{:?}", r);
            assert!(r.mpki >= 0.0);
        }
    }

    #[test]
    fn friendly_benchmarks_concentrate_mispredictions() {
        // The paper's Fig. 1 point: a few branches carry most of the
        // MPKI for the BranchNet-friendly benchmarks.
        let rows = run(&tiny_scale());
        // Truly-easy benchmarks (gcc/omnetpp are high-MPKI but diffuse
        // or data-dependent, so they are excluded from "easy").
        let easy_total: f64 = rows
            .iter()
            .filter(|r| {
                matches!(
                    r.bench,
                    Benchmark::X264
                        | Benchmark::Exchange2
                        | Benchmark::Perlbench
                        | Benchmark::Xalancbmk
                )
            })
            .map(|r| r.mpki)
            .fold(0.0, f64::max);
        for r in rows.iter().filter(|r| r.bench.is_branchnet_friendly()) {
            // A handful of static branches must carry a large share of
            // the misprediction budget (the remainder is diffuse
            // noise, as in real leela/mcf)...
            assert!(
                r.top8 > 0.3 * r.mpki,
                "{}: top-8 should carry a large share ({} of {})",
                r.bench.name(),
                r.top8,
                r.mpki
            );
            // ...and the top-8 headroom alone should rival the *total*
            // MPKI of the easy benchmarks.
            assert!(
                r.top8 > 0.5 * easy_total,
                "{}: top-8 ({}) should rival easy benchmarks' total ({})",
                r.bench.name(),
                r.top8,
                easy_total
            );
        }
    }
}
