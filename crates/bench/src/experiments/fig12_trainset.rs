//! Fig. 12: sensitivity of Big-BranchNet's MPKI reduction to the
//! amount of training data.
//!
//! The paper varies the number of profiled training traces; this
//! reproduction sweeps the per-branch training-example budget, which
//! is the same lever (examples scale linearly with trace count).

use crate::harness::{
    baseline_lane, cached_pack, float_hybrid, gauntlet_test_stats, hybrid_lane, trace_set, Scale,
};
use crate::json::{arr_from_json, arr_to_json, FromJson, Json, JsonError, ToJson};
use crate::report::{bench_from_json, bench_to_json};
use branchnet_core::config::BranchNetConfig;
use branchnet_core::parallel::parallel_map;
use branchnet_tage::TageSclConfig;
use branchnet_workloads::spec::Benchmark;

/// MPKI reduction at one training-set size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig12Point {
    /// Examples per branch used for training.
    pub examples: usize,
    /// Big-BranchNet hybrid MPKI reduction vs the baseline (%).
    pub mpki_reduction_pct: f64,
}

/// One benchmark's full sweep (the unit the report layer stores, so
/// one artifact can carry several benchmarks' sweeps).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Sweep {
    /// The benchmark swept.
    pub bench: Benchmark,
    /// Points in ascending training-set size.
    pub points: Vec<Fig12Point>,
}

impl ToJson for Fig12Point {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("examples", Json::Num(self.examples as f64)),
            ("mpki_reduction_pct", Json::Num(self.mpki_reduction_pct)),
        ])
    }
}

impl FromJson for Fig12Point {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            examples: json.field("examples")?.as_usize()?,
            mpki_reduction_pct: json.field("mpki_reduction_pct")?.as_f64()?,
        })
    }
}

impl ToJson for Fig12Sweep {
    fn to_json(&self) -> Json {
        Json::obj(vec![("bench", bench_to_json(self.bench)), ("points", arr_to_json(&self.points))])
    }
}

impl FromJson for Fig12Sweep {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            bench: bench_from_json(json.field("bench")?)?,
            points: arr_from_json(json.field("points")?)?,
        })
    }
}

/// Runs the sweep on one benchmark.
#[must_use]
pub fn run(scale: &Scale, bench: Benchmark) -> Vec<Fig12Point> {
    let baseline = TageSclConfig::tage_sc_l_64kb();
    let traces = trace_set(bench, scale);
    // Each point trains a distinct pack (the per-point scale differs
    // in `max_examples`, so the cache keys differ), but all points
    // share the one trace set because the trace cache keys on
    // `branches_per_trace` alone. Training fans out in parallel...
    let packs = parallel_map(
        &[
            scale.max_examples / 8,
            scale.max_examples / 4,
            scale.max_examples / 2,
            scale.max_examples,
        ],
        |&examples| {
            let mut s = *scale;
            s.max_examples = examples.max(50);
            (s.max_examples, cached_pack(&BranchNetConfig::big_scaled(), &baseline, bench, &s))
        },
    );
    // ...and then the baseline plus all four hybrids ride one gauntlet
    // pass over the test traces.
    let hybrids: Vec<_> =
        packs.iter().map(|(_, pack)| float_hybrid(pack, &baseline, usize::MAX)).collect();
    let mut lanes = vec![baseline_lane(&baseline)];
    lanes.extend(hybrids.iter().map(hybrid_lane));
    let stats = gauntlet_test_stats(&traces, &lanes);
    let base = stats[0].mpki();
    packs
        .iter()
        .zip(&stats[1..])
        .map(|(&(examples, _), s)| {
            let mpki = s.mpki();
            Fig12Point {
                examples,
                mpki_reduction_pct: if base > 0.0 { 100.0 * (base - mpki) / base } else { 0.0 },
            }
        })
        .collect()
}

/// Paper-style rendering.
#[must_use]
pub fn render(bench: Benchmark, points: &[Fig12Point]) -> String {
    let mut out = format!(
        "Fig. 12 — Big-BranchNet MPKI reduction vs training-set size ({})\n\
         examples/branch   MPKI reduction\n",
        bench.name()
    );
    for p in points {
        out.push_str(&format!("{:>12}        {:>6.1}%\n", p.examples, p.mpki_reduction_pct));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_data_does_not_hurt_much() {
        let scale =
            Scale { branches_per_trace: 20_000, candidates: 3, epochs: 6, max_examples: 1_600 };
        let points = run(&scale, Benchmark::Xz);
        assert_eq!(points.len(), 4);
        let first = points.first().expect("has points");
        let last = points.last().expect("has points");
        // The paper's Fig. 12 shape: reductions grow (or at least do
        // not collapse) with more training data.
        assert!(
            last.mpki_reduction_pct >= first.mpki_reduction_pct - 3.0,
            "full data {:.1}% vs smallest {:.1}%",
            last.mpki_reduction_pct,
            first.mpki_reduction_pct
        );
        assert!(last.mpki_reduction_pct > 0.0);
    }
}
