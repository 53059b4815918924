//! Fig. 11: the practical settings — MPKI and IPC improvement over a
//! 64 KB TAGE-SC-L (SC local-history components disabled, as in the
//! paper) for:
//!
//! * **iso-storage**: 56 KB TAGE-SC-L + 8 KB of Mini-BranchNet engines,
//! * **iso-latency**: 64 KB TAGE-SC-L + 32 KB of Mini-BranchNet engines,
//! * **Big-BranchNet** (float software model, headroom),
//! * **Tarsa-Float** and **Tarsa-Ternary** (prior-work CNNs).
//!
//! The iso-latency packs are also the `reproduce` run's Mini-pack
//! compositions, so [`run`] returns them alongside the rows.

use crate::experiments::mini_pack::{build_mini_pack, pack_from_menu, train_menu, MiniPackReport};
use crate::harness::{engine_hybrid, float_hybrid, pack, reduction_pct, trace_set, Scale};
use crate::json::{FromJson, Json, JsonError, ToJson};
use crate::metrics;
use crate::report::{bench_from_json, bench_to_json};
use branchnet_core::config::BranchNetConfig;
use branchnet_core::hybrid::HybridPredictor;
use branchnet_core::parallel::parallel_map;
use branchnet_core::storage::storage_breakdown;
use branchnet_sim::{simulate_many, CpuConfig, SimResult};
use branchnet_tage::{TageScL, TageSclConfig};
use branchnet_trace::{Lane, PredictionStats, Trace, TraceSet};
use branchnet_workloads::spec::Benchmark;

/// MPKI and IPC for one setting on one benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Setting {
    /// Weighted test MPKI.
    pub mpki: f64,
    /// Aggregate test IPC.
    pub ipc: f64,
}

/// One benchmark's Fig. 11 numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig11Row {
    /// Which benchmark.
    pub bench: Benchmark,
    /// The 64 KB TAGE-SC-L baseline.
    pub base: Setting,
    /// 56 KB TAGE-SC-L + 8 KB Mini-BranchNet.
    pub iso_storage: Setting,
    /// 64 KB TAGE-SC-L + 32 KB Mini-BranchNet.
    pub iso_latency: Setting,
    /// 64 KB TAGE-SC-L + Big-BranchNet (float).
    pub big: Setting,
    /// 64 KB TAGE-SC-L + Tarsa-Float.
    pub tarsa_float: Setting,
    /// 64 KB TAGE-SC-L + Tarsa-Ternary.
    pub tarsa_ternary: Setting,
}

impl ToJson for Setting {
    fn to_json(&self) -> Json {
        Json::obj(vec![("mpki", Json::Num(self.mpki)), ("ipc", Json::Num(self.ipc))])
    }
}

impl FromJson for Setting {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Self { mpki: json.field("mpki")?.as_f64()?, ipc: json.field("ipc")?.as_f64()? })
    }
}

impl ToJson for Fig11Row {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("bench", bench_to_json(self.bench)),
            ("base", self.base.to_json()),
            ("iso_storage", self.iso_storage.to_json()),
            ("iso_latency", self.iso_latency.to_json()),
            ("big", self.big.to_json()),
            ("tarsa_float", self.tarsa_float.to_json()),
            ("tarsa_ternary", self.tarsa_ternary.to_json()),
        ])
    }
}

impl FromJson for Fig11Row {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let setting = |k: &str| json.field(k).and_then(Setting::from_json);
        Ok(Self {
            bench: bench_from_json(json.field("bench")?)?,
            base: setting("base")?,
            iso_storage: setting("iso_storage")?,
            iso_latency: setting("iso_latency")?,
            big: setting("big")?,
            tarsa_float: setting("tarsa_float")?,
            tarsa_ternary: setting("tarsa_ternary")?,
        })
    }
}

/// One lane's [`Setting`] out of the per-trace multi-lane sim results.
///
/// The timing model drives its late predictor through exactly the
/// prediction/update sequence of a trace evaluation, so MPKI is
/// derived from each trace's `SimResult` counters
/// (via [`PredictionStats::from_counts`], merged weighted in trace
/// order) — byte-identical to a separate gauntlet walk of the lane,
/// without paying for one. IPC stays an exact integer aggregate.
fn lane_setting(results: &[Vec<SimResult>], traces: &TraceSet, lane: usize) -> Setting {
    let mut agg = PredictionStats::new();
    for (per_lane, t) in results.iter().zip(&traces.test) {
        let r = &per_lane[lane];
        agg.merge_weighted(
            &PredictionStats::from_counts(
                r.branches as f64,
                r.mispredictions as f64,
                r.instructions as f64,
            ),
            t.weight(),
        );
    }
    let cycles: u64 = results.iter().map(|p| p[lane].cycles).sum();
    let insts: u64 = results.iter().map(|p| p[lane].instructions).sum();
    Setting { mpki: agg.mpki(), ipc: insts as f64 / cycles.max(1) as f64 }
}

/// Budget of the iso-latency Mini packs, in bytes.
const ISO_LATENCY_BUDGET: usize = 32 * 1024;

/// Runs Fig. 11 for the given benchmarks: one row per benchmark, and
/// the composition of each benchmark's iso-latency pack.
#[must_use]
pub fn run(scale: &Scale, benchmarks: &[Benchmark]) -> (Vec<Fig11Row>, Vec<MiniPackReport>) {
    let cpu = CpuConfig::skylake_like();
    // Paper: local SC components disabled in the practical setting.
    let base64 = TageSclConfig::tage_sc_l_64kb().without_sc_local();
    let base56 = TageSclConfig::tage_sc_l_56kb().without_sc_local();

    parallel_map(benchmarks, |&bench| {
        let traces = trace_set(bench, scale);

        // iso-storage: 8 KB of engines on a 56 KB baseline.
        let pack8 = build_mini_pack(bench, &base56, scale, 8 * 1024);
        let iso_storage_h = engine_hybrid(&pack8.models, &base56);

        // iso-latency: 32 KB of engines on the 64 KB baseline. Its menu
        // ranks under its own baseline but fetches the models it shares
        // with the iso-storage menu from the store.
        let pack32 = build_mini_pack(bench, &base64, scale, ISO_LATENCY_BUDGET);
        let iso_latency_h = engine_hybrid(&pack32.models, &base64);

        // Big-BranchNet float headroom.
        let big_h =
            float_hybrid(&pack(&BranchNetConfig::big_scaled(), &base64, bench, scale), &base64);

        // Tarsa-Float.
        let tf_h =
            float_hybrid(&pack(&BranchNetConfig::tarsa_float(), &base64, bench, scale), &base64);

        // Tarsa-Ternary: one config, up to 29 branches at
        // 5.125 KB/branch in the paper; we budget accordingly.
        let ternary_cfg = BranchNetConfig::tarsa_ternary();
        let ternary_bytes = (storage_breakdown(&ternary_cfg).total_bits() / 8) as usize;
        let menu = vec![(ternary_cfg, ternary_bytes)];
        let packt = pack_from_menu(&train_menu(bench, &base64, scale, &menu), 29 * ternary_bytes);
        let tt_h = engine_hybrid(&packt.models, &base64);

        // All six settings share one timing pass per test trace: the
        // baseline and five cold hybrid clones ride the same decode
        // behind one shared early predictor.
        let hybrids = [&iso_storage_h, &iso_latency_h, &big_h, &tf_h, &tt_h];
        let results: Vec<Vec<SimResult>> = parallel_map(&traces.test, |t: &Trace| {
            let start = std::time::Instant::now();
            let mut base = TageScL::new(&base64);
            let mut clones: Vec<HybridPredictor> =
                hybrids.iter().map(|h| h.fresh_runtime_clone()).collect();
            let mut lanes: Vec<&mut dyn Lane> = Vec::with_capacity(1 + clones.len());
            lanes.push(&mut base);
            for h in &mut clones {
                lanes.push(h);
            }
            let out = simulate_many(t, &mut lanes, &cpu);
            metrics::record_pass(out.len(), start.elapsed());
            out
        });

        let row = Fig11Row {
            bench,
            base: lane_setting(&results, &traces, 0),
            iso_storage: lane_setting(&results, &traces, 1),
            iso_latency: lane_setting(&results, &traces, 2),
            big: lane_setting(&results, &traces, 3),
            tarsa_float: lane_setting(&results, &traces, 4),
            tarsa_ternary: lane_setting(&results, &traces, 5),
        };
        (row, MiniPackReport::from_pack(bench, ISO_LATENCY_BUDGET, &pack32))
    })
    .into_iter()
    .unzip()
}

/// Percentage improvements of a setting over the per-row baseline.
#[must_use]
pub fn improvements(row: &Fig11Row, s: &Setting) -> (f64, f64) {
    let mpki = reduction_pct(row.base.mpki, s.mpki);
    let ipc = if row.base.ipc > 0.0 { 100.0 * (s.ipc / row.base.ipc - 1.0) } else { 0.0 };
    (mpki, ipc)
}

/// Paper-style rendering.
#[must_use]
pub fn render(rows: &[Fig11Row]) -> String {
    let mut out = String::from(
        "Fig. 11 — MPKI / IPC improvement over 64KB TAGE-SC-L (SC local disabled)\n\
         benchmark    base-MPKI  isoStor(dMPKI%,dIPC%)  isoLat(dMPKI%,dIPC%)  Big(dMPKI%,dIPC%)  TarsaF(dMPKI%)  TarsaT(dMPKI%)\n",
    );
    for r in rows {
        let (s_m, s_i) = improvements(r, &r.iso_storage);
        let (l_m, l_i) = improvements(r, &r.iso_latency);
        let (b_m, b_i) = improvements(r, &r.big);
        let (tf_m, _) = improvements(r, &r.tarsa_float);
        let (tt_m, _) = improvements(r, &r.tarsa_ternary);
        out.push_str(&format!(
            "{:<12} {:>8.3}   {:>6.1}%, {:>5.2}%        {:>6.1}%, {:>5.2}%       {:>6.1}%, {:>5.2}%    {:>6.1}%        {:>6.1}%\n",
            r.bench.name(),
            r.base.mpki,
            s_m,
            s_i,
            l_m,
            l_i,
            b_m,
            b_i,
            tf_m,
            tt_m
        ));
    }
    if !rows.is_empty() {
        let mean =
            |f: &dyn Fn(&Fig11Row) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
        out.push_str(&format!(
            "mean dMPKI: isoStorage {:.1}% (paper 5.5%), isoLatency {:.1}% (paper 9.6%), Big {:.1}%\n",
            mean(&|r| improvements(r, &r.iso_storage).0),
            mean(&|r| improvements(r, &r.iso_latency).0),
            mean(&|r| improvements(r, &r.big).0),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iso_latency_beats_baseline_on_friendly_benchmark() {
        let scale =
            Scale { branches_per_trace: 20_000, candidates: 4, epochs: 6, max_examples: 1_000 };
        let (rows, packs) = run(&scale, &[Benchmark::Xz]);
        let r = &rows[0];
        assert_eq!((packs[0].bench, packs[0].budget_bytes), (Benchmark::Xz, ISO_LATENCY_BUDGET));
        let (mpki_gain, _) = improvements(r, &r.iso_latency);
        assert!(mpki_gain > 0.0, "iso-latency must reduce MPKI on xz: {r:?}");
        // More budget should never lose to less budget by much.
        assert!(r.iso_latency.mpki <= r.iso_storage.mpki * 1.15, "{r:?}");
        // IPC should move the same direction as MPKI.
        assert!(r.iso_latency.ipc >= r.base.ipc * 0.99, "{r:?}");
    }
}
