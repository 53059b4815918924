//! Tables I–IV.
//!
//! * Table I — architecture knobs of every configuration (static).
//! * Table II — inference-engine storage breakdown (computed).
//! * Table III — workload input partitioning (static).
//! * Table IV — leela's MPKI-reduction ladder from Big-BranchNet down
//!   to fully-quantized Mini-BranchNet (measured).

use crate::harness::{
    baseline_lane, float_hybrid, gauntlet_test_stats, hybrid_lane, lineup_lane, pack,
    reduction_pct, trace_set, Scale,
};
use crate::json::{arr_from_json, arr_to_json, FromJson, Json, JsonError, ToJson};
use crate::report::{bench_from_json, bench_to_json};
use branchnet_core::config::BranchNetConfig;
use branchnet_core::engine::InferenceEngine;
use branchnet_core::hybrid::{AttachedModel, HybridPredictor};
use branchnet_core::quantize::QuantizedMini;
use branchnet_core::storage::storage_breakdown;
use branchnet_tage::TageSclConfig;
use branchnet_workloads::spec::{Benchmark, SpecSuite};

/// Renders Table I: every preset's knobs.
#[must_use]
pub fn table1() -> String {
    let configs = [
        BranchNetConfig::big(),
        BranchNetConfig::big_scaled(),
        BranchNetConfig::mini_2kb(),
        BranchNetConfig::mini_1kb(),
        BranchNetConfig::mini_05kb(),
        BranchNetConfig::mini_025kb(),
        BranchNetConfig::tarsa_float(),
        BranchNetConfig::tarsa_ternary(),
    ];
    let mut out = String::from("Table I — architecture knobs\n");
    for c in &configs {
        let hist: Vec<usize> = c.slices.iter().map(|s| s.history).collect();
        let chans: Vec<usize> = c.slices.iter().map(|s| s.channels).collect();
        let pools: Vec<usize> = c.slices.iter().map(|s| s.pool_width).collect();
        let precise: Vec<&str> =
            c.slices.iter().map(|s| if s.precise_pooling { "Y" } else { "N" }).collect();
        out.push_str(&format!(
            "{:<12} H={:?} C={:?} P={:?} precise={:?} p={} h={:?} E={} K={} N={:?} q={:?}\n",
            c.name,
            hist,
            chans,
            pools,
            precise,
            c.pc_bits,
            c.conv_hash_bits,
            c.embedding_dim,
            c.conv_width,
            c.hidden,
            c.fc_quant_bits
        ));
    }
    out
}

/// Renders Table II: storage breakdown per Mini preset.
#[must_use]
pub fn table2() -> String {
    let mut out = String::from(
        "Table II — Mini-BranchNet inference-engine storage per static branch\n\
         config        conv-tables  precise-pool  sliding-pool  fully-connected  total\n",
    );
    for (cfg, _) in BranchNetConfig::mini_menu() {
        let b = storage_breakdown(&cfg);
        out.push_str(&format!(
            "{:<12}  {:>8.3}KB   {:>8.3}KB    {:>8.3}KB    {:>8.3}KB     {:>6.3}KB\n",
            cfg.name,
            b.conv_tables_bits as f64 / 8192.0,
            b.precise_pooling_bits as f64 / 8192.0,
            b.sliding_pooling_bits as f64 / 8192.0,
            b.fully_connected_bits as f64 / 8192.0,
            b.total_kb()
        ));
    }
    out
}

/// Renders Table III: the input partition of every workload.
#[must_use]
pub fn table3() -> String {
    let mut out = String::from("Table III — workload input partitioning (train / valid / test)\n");
    for w in SpecSuite::all() {
        let parts = w.inputs();
        let fmt = |v: &[branchnet_workloads::program::ProgramInput]| {
            v.iter()
                .map(|i| format!("{}(p={},s={})", i.label, i.knob(0, 0.0), i.knob(1, 0.0)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        out.push_str(&format!(
            "{:<12} train: {} | valid: {} | test: {}\n",
            w.name(),
            fmt(&parts.train),
            fmt(&parts.valid),
            fmt(&parts.test)
        ));
    }
    out
}

/// One rung of the Table IV quantization ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Rung label.
    pub label: String,
    /// MPKI reduction over the baseline (%).
    pub mpki_reduction_pct: f64,
}

impl ToJson for Table4Row {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("label", Json::Str(self.label.clone())),
            ("mpki_reduction_pct", Json::Num(self.mpki_reduction_pct)),
        ])
    }
}

impl FromJson for Table4Row {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            label: json.field("label")?.as_str()?.to_string(),
            mpki_reduction_pct: json.field("mpki_reduction_pct")?.as_f64()?,
        })
    }
}

/// Table IV as stored in a report artifact: the benchmark the ladder
/// was measured on plus its rungs.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Report {
    /// The measured benchmark (the paper uses leela).
    pub bench: Benchmark,
    /// Ladder rungs, Big first.
    pub rows: Vec<Table4Row>,
}

impl ToJson for Table4Report {
    fn to_json(&self) -> Json {
        Json::obj(vec![("bench", bench_to_json(self.bench)), ("rows", arr_to_json(&self.rows))])
    }
}

impl FromJson for Table4Report {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            bench: bench_from_json(json.field("bench")?)?,
            rows: arr_from_json(json.field("rows")?)?,
        })
    }
}

/// Measures the Table IV ladder on one benchmark (the paper uses
/// leela).
#[must_use]
pub fn table4(scale: &Scale, bench: Benchmark) -> Vec<Table4Row> {
    let baseline = TageSclConfig::tage_sc_l_64kb().without_sc_local();
    let traces = trace_set(bench, scale);

    // Rung 1: Big-BranchNet, no capacity limit. Rung 2 uses the same
    // pack.
    let big_pack = pack(&BranchNetConfig::big_scaled(), &baseline, bench, scale);
    let big_hybrid = float_hybrid(&big_pack, &baseline);

    // Mini models (2 KB config) for the same branches.
    let mini_pack = pack(&BranchNetConfig::mini_2kb(), &baseline, bench, scale);
    let mini_pcs: Vec<u64> = mini_pack.iter().map(|(r, _)| r.pc).collect();

    // Rung 2: Big restricted to the branches Mini covers.
    let mut big_same_hybrid = HybridPredictor::new(&baseline);
    for (r, m) in &big_pack {
        if mini_pcs.contains(&r.pc) {
            big_same_hybrid.attach(r.pc, AttachedModel::Float(m.clone())).expect("float attach");
        }
    }

    // Rungs 3–5 share the same trained Mini float models.
    let mini_float_hybrid = float_hybrid(&mini_pack, &baseline);
    let mut conv_hybrid = HybridPredictor::new(&baseline);
    let mut full_hybrid = HybridPredictor::new(&baseline);
    for (r, m) in &mini_pack {
        let quant = QuantizedMini::from_model(m);
        conv_hybrid.attach(r.pc, AttachedModel::ConvQuant(quant.clone())).expect("hashed config");
        full_hybrid
            .attach(
                r.pc,
                AttachedModel::Engine(InferenceEngine::new(quant).expect("hashed config")),
            )
            .expect("hashed config");
    }

    // The baseline, all five rungs, and the runtime-baseline reference
    // lanes share one gauntlet pass per test trace. Reference lanes
    // extend the paper's ladder downward: how the best conventional
    // runtime-only designs fare against the same TAGE base (usually a
    // negative "reduction" — they are weaker than TAGE-SC-L).
    let references = TABLE4_REFERENCE_BASELINES.map(|name| {
        branchnet_tage::lineup_entry(name)
            .unwrap_or_else(|| panic!("{name} missing from baseline_lineup()"))
    });
    let mut lanes = vec![
        baseline_lane(&baseline),
        hybrid_lane(&big_hybrid),
        hybrid_lane(&big_same_hybrid),
        hybrid_lane(&mini_float_hybrid),
        hybrid_lane(&conv_hybrid),
        hybrid_lane(&full_hybrid),
    ];
    lanes.extend(references.iter().map(lineup_lane));
    let stats = gauntlet_test_stats(&traces, &lanes);
    let base = stats[0].mpki();

    let labels = [
        "Big-BranchNet: no branch capacity limit".to_string(),
        "Big-BranchNet: same branches as Mini".to_string(),
        "Mini-BranchNet: floating-point".to_string(),
        "Mini-BranchNet: quantized convolution".to_string(),
        "Mini-BranchNet: fully-quantized".to_string(),
    ]
    .into_iter()
    .chain(references.iter().map(|e| format!("Runtime baseline: {}", e.name)));
    labels
        .zip(&stats[1..])
        .map(|(label, s)| Table4Row { label, mpki_reduction_pct: reduction_pct(base, s.mpki()) })
        .collect()
}

/// The runtime-only baselines appended to the Table IV ladder as
/// reference rungs, by lineup name.
pub const TABLE4_REFERENCE_BASELINES: [&str; 3] = ["loop-only", "local-perceptron", "o-gehl"];

/// Paper-style rendering of Table IV.
#[must_use]
pub fn render_table4(bench: Benchmark, rows: &[Table4Row]) -> String {
    let mut out = format!("Table IV — MPKI-reduction progression on {}\n", bench.name());
    for r in rows {
        out.push_str(&format!("{:<45} {:>6.1}%\n", r.label, r.mpki_reduction_pct));
    }
    out.push_str("(paper, leela: 35.8 / 25.1 / 20.0 / 18.7 / 15.7%)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_presets() {
        let t = table1();
        for name in ["big", "mini-2kb", "mini-1kb", "mini-0.5kb", "mini-0.25kb", "tarsa-ternary"] {
            assert!(t.contains(name), "missing {name} in table I");
        }
    }

    #[test]
    fn table2_totals_near_nominal() {
        let t = table2();
        assert!(t.contains("mini-1kb"));
        assert!(t.lines().count() >= 6);
    }

    #[test]
    fn table3_covers_all_benchmarks() {
        let t = table3();
        for b in Benchmark::all() {
            assert!(t.contains(b.name()));
        }
    }

    #[test]
    fn table4_ladder_decreases_from_big_to_quantized() {
        let scale =
            Scale { branches_per_trace: 20_000, candidates: 4, epochs: 8, max_examples: 1_200 };
        let rows = table4(&scale, Benchmark::Xz);
        assert_eq!(rows.len(), 8);
        // Shape: Big (no cap) is the ceiling; fully-quantized is below
        // Mini float (quantization costs accuracy); everything stays
        // positive on a friendly benchmark.
        assert!(rows[0].mpki_reduction_pct > 0.0, "{rows:?}");
        assert!(
            rows[4].mpki_reduction_pct <= rows[2].mpki_reduction_pct + 2.0,
            "fully-quantized should not beat float Mini by more than noise: {rows:?}"
        );
        // The reference rungs: runtime-only baselines, labeled by
        // lineup name. No ordering vs the CNN rungs is asserted — at
        // this tiny training scale O-GEHL can legitimately edge out
        // the starved Big-BranchNet — only that each measured against
        // the same base and landed in the representable range.
        for (row, name) in rows[5..].iter().zip(TABLE4_REFERENCE_BASELINES) {
            assert_eq!(row.label, format!("Runtime baseline: {name}"));
            assert!(
                row.mpki_reduction_pct.is_finite() && row.mpki_reduction_pct < 100.0,
                "a reference rung left the representable range: {rows:?}"
            );
        }
    }
}
