//! Fig. 9: headroom study — MPKI of MTAGE-SC (the unlimited-storage
//! CBP2016 winner stand-in), MTAGE-SC + Big-BranchNet, and MTAGE-SC
//! component ablations, per benchmark.

use crate::harness::{
    baseline_lane, cached_pack, float_hybrid, gauntlet_test_stats, hybrid_lane, trace_set, Scale,
};
use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::report::{bench_from_json, bench_to_json};
use branchnet_core::config::BranchNetConfig;
use branchnet_core::parallel::parallel_map;
use branchnet_tage::TageSclConfig;
use branchnet_workloads::spec::Benchmark;

/// One benchmark's Fig. 9 bars.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig09Row {
    /// Which benchmark.
    pub bench: Benchmark,
    /// 64 KB TAGE-SC-L (context bar).
    pub tage_sc_l_64kb: f64,
    /// MTAGE-SC (unlimited stand-in).
    pub mtage_sc: f64,
    /// MTAGE-SC + Big-BranchNet.
    pub mtage_plus_big: f64,
    /// GTAGE alone (no SC, no loop).
    pub gtage_only: f64,
    /// MTAGE-SC without the SC's local-history component.
    pub no_sc_local: f64,
    /// Number of static branches Big-BranchNet improved.
    pub improved_branches: usize,
}

impl ToJson for Fig09Row {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("bench", bench_to_json(self.bench)),
            ("tage_sc_l_64kb", Json::Num(self.tage_sc_l_64kb)),
            ("mtage_sc", Json::Num(self.mtage_sc)),
            ("mtage_plus_big", Json::Num(self.mtage_plus_big)),
            ("gtage_only", Json::Num(self.gtage_only)),
            ("no_sc_local", Json::Num(self.no_sc_local)),
            ("improved_branches", Json::Num(self.improved_branches as f64)),
        ])
    }
}

impl FromJson for Fig09Row {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            bench: bench_from_json(json.field("bench")?)?,
            tage_sc_l_64kb: json.field("tage_sc_l_64kb")?.as_f64()?,
            mtage_sc: json.field("mtage_sc")?.as_f64()?,
            mtage_plus_big: json.field("mtage_plus_big")?.as_f64()?,
            gtage_only: json.field("gtage_only")?.as_f64()?,
            no_sc_local: json.field("no_sc_local")?.as_f64()?,
            improved_branches: json.field("improved_branches")?.as_usize()?,
        })
    }
}

/// The Big model used for headroom (compute-scaled; see DESIGN.md).
#[must_use]
pub fn big_config() -> BranchNetConfig {
    BranchNetConfig::big_scaled()
}

/// Runs the experiment for the given benchmarks (all ten in the
/// binaries; subsets in tests).
#[must_use]
pub fn run(scale: &Scale, benchmarks: &[Benchmark]) -> Vec<Fig09Row> {
    let mtage = TageSclConfig::mtage_sc_unlimited();
    parallel_map(benchmarks, |&bench| {
        let traces = trace_set(bench, scale);
        // Big-BranchNet on top of MTAGE-SC (trained once per process;
        // Fig. 10 reuses the same pack).
        let pack = cached_pack(&big_config(), &mtage, bench, scale);
        let improved = pack.models.len();
        let hybrid = float_hybrid(&pack, &mtage, usize::MAX);

        // All five bars ride one gauntlet: each test trace is decoded
        // once and scores every configuration simultaneously.
        let lanes = [
            baseline_lane(&TageSclConfig::tage_sc_l_64kb()),
            baseline_lane(&mtage),
            baseline_lane(&mtage.clone().gtage_only()),
            baseline_lane(&mtage.clone().without_sc_local()),
            hybrid_lane(&hybrid),
        ];
        let stats = gauntlet_test_stats(&traces, &lanes);

        Fig09Row {
            bench,
            tage_sc_l_64kb: stats[0].mpki(),
            mtage_sc: stats[1].mpki(),
            mtage_plus_big: stats[4].mpki(),
            gtage_only: stats[2].mpki(),
            no_sc_local: stats[3].mpki(),
            improved_branches: improved,
        }
    })
}

/// Paper-style rendering.
#[must_use]
pub fn render(rows: &[Fig09Row]) -> String {
    let mut out = String::from(
        "Fig. 9 — MPKI of MTAGE-SC and Big-BranchNet (plus ablations)\n\
         benchmark    TAGE64  GTAGE   MTAGE-noLocal  MTAGE-SC  +BigBranchNet  improved-branches\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>6.3} {:>6.3}  {:>9.3}      {:>6.3}    {:>9.3}      {:>5}\n",
            r.bench.name(),
            r.tage_sc_l_64kb,
            r.gtage_only,
            r.no_sc_local,
            r.mtage_sc,
            r.mtage_plus_big,
            r.improved_branches
        ));
    }
    let mean = |f: fn(&Fig09Row) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
    let base = mean(|r| r.mtage_sc);
    let plus = mean(|r| r.mtage_plus_big);
    out.push_str(&format!(
        "mean MTAGE-SC {base:.3} -> +Big {plus:.3} ({:.1}% MPKI reduction; paper: 7.6%)\n",
        100.0 * (base - plus) / base.max(1e-9)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_improves_mtage_on_a_friendly_benchmark() {
        let scale =
            Scale { branches_per_trace: 25_000, candidates: 4, epochs: 8, max_examples: 1_200 };
        let rows = run(&scale, &[Benchmark::Xz]);
        let r = &rows[0];
        // MTAGE-SC beats 64KB TAGE-SC-L (more storage).
        assert!(r.mtage_sc <= r.tage_sc_l_64kb * 1.05, "{r:?}");
        // Big-BranchNet finds headroom beyond unlimited TAGE.
        assert!(r.mtage_plus_big < r.mtage_sc, "{r:?}");
        assert!(r.improved_branches > 0);
        // Ablations hurt (GTAGE-only is the weakest variant).
        assert!(r.gtage_only >= r.mtage_sc * 0.99, "{r:?}");
    }
}
