//! The direction part of `replay`: the six CNN benchmarks' test
//! traces, streamed from v2 bytes. Each trace gets one
//! gauntlet pass carrying the nine `baseline_lineup()` lanes plus the
//! benchmark's Mini-engine hybrid, and one `simulate_many` pass with
//! TAGE-SC-L 64 KB and that hybrid as late predictors.

use crate::checks::{self, Check};
use crate::inputs::{self, Program};
use crate::pipeline::{self, Budget, Ops, TrainCounts};
use crate::span::Tracer;
use branchnet_core::engine::InferenceEngine;
use branchnet_core::hybrid::{AttachedModel, HybridPredictor};
use branchnet_sim::{simulate_many, CpuConfig, DirectionSource, SimResult};
use branchnet_tage::{baseline_lineup, TageScL, TageSclConfig};
use branchnet_trace::{Gauntlet, PredictionStats, Trace, TraceReader};
use branchnet_workloads::spec::{Benchmark, SpecSuite};

pub const BENCHMARKS: [Benchmark; 6] = [
    Benchmark::Leela,
    Benchmark::Mcf,
    Benchmark::Deepsjeng,
    Benchmark::Xz,
    Benchmark::Gcc,
    Benchmark::Omnetpp,
];
/// Records per test trace.
pub const TEST_RECORDS: usize = 12_000;
/// Records per training and validation trace the Mini pack learns from.
pub const TRAIN_RECORDS: usize = 40_000;
/// Top validation-mispredicting branches trained per benchmark.
pub const CANDIDATES: usize = 2;
pub const MINI: Budget = Budget { epochs: 3, max_examples: 300 };
/// Storage of each benchmark's Mini pack (Fig. 11 iso-latency).
pub const KNAPSACK_BYTES: usize = 32 * 1024;

pub struct Bench {
    pub program: Program,
    pub train: Vec<Trace>,
    pub valid: Vec<Trace>,
    pub test: Vec<Trace>,
    pub test_bytes: Vec<Vec<u8>>,
    /// TAGE-SC-L 64 KB carrying this benchmark's Mini pack.
    pub hybrid: HybridPredictor,
}

pub struct Setup {
    pub benches: Vec<Bench>,
    pub counts: TrainCounts,
    pub ops: Ops,
}

pub fn setup(t: &mut Tracer, seed: u64) -> Setup {
    let base = TageSclConfig::tage_sc_l_64kb();
    let mut ops = Ops::default();
    let mut counts = TrainCounts::default();
    let mut benches = Vec::new();
    for b in BENCHMARKS {
        let program = Program::Spec(SpecSuite::benchmark(b));
        let parts = program.inputs(seed, 1);
        let train = program.generate(t, &parts.train, TRAIN_RECORDS);
        let valid = program.generate(t, &parts.valid, TRAIN_RECORDS);
        let test = program.generate(t, &parts.test, TEST_RECORDS);
        let test_bytes = inputs::encode(t, &test);
        let cands = pipeline::rank(t, &base, &valid, CANDIDATES);
        let pack = pipeline::train_mini_menu(t, &train, &cands, &MINI, &mut ops, &mut counts)
            .score(t, &valid, &MINI)
            .pick(t, KNAPSACK_BYTES, &mut counts);
        let mut hybrid = HybridPredictor::new(&base);
        for (pc, quant) in pack {
            let attached = InferenceEngine::new(quant)
                .map_err(drop)
                .and_then(|e| hybrid.attach(pc, AttachedModel::Engine(e)).map_err(drop));
            ops.count(attached);
        }
        benches.push(Bench { program, train, valid, test, test_bytes, hybrid });
    }
    Setup { benches, counts, ops }
}

/// One test trace's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOut {
    /// The nine lineup lanes, then the hybrid.
    pub lanes: Vec<PredictionStats>,
    /// TAGE-SC-L, then the hybrid, as late predictors.
    pub sim: Vec<SimResult>,
    pub cnn_predictions: u64,
}

pub type Out = Vec<Vec<TraceOut>>;

pub fn round(t: &mut Tracer, setup: &Setup, ops: &mut Ops) -> Out {
    let cpu = CpuConfig::skylake_like();
    let lineup = baseline_lineup();
    let mut out = Vec::new();
    for bench in &setup.benches {
        let mut per_trace = Vec::new();
        for bytes in &bench.test_bytes {
            let mut hybrid = bench.hybrid.fresh_runtime_clone();
            let lanes = {
                let mut g = Gauntlet::new();
                for entry in &lineup {
                    g.add_boxed((entry.build)());
                }
                g.add(&mut hybrid);
                let streamed = TraceReader::new(&bytes[..]).and_then(|mut reader| {
                    let records = reader.record_count();
                    t.timed("trace.run_stream", |_| (g.run_stream(&mut reader), records))
                });
                if ops.count(streamed).is_none() {
                    continue;
                }
                (0..=lineup.len()).map(|lane| *g.stats(lane)).collect()
            };
            let decoded = t.timed("trace.read_to_trace", |_| {
                let trace = TraceReader::new(&bytes[..]).and_then(TraceReader::read_to_trace);
                let n = trace.as_ref().map_or(0, |tr| tr.len() as u64);
                (trace, n)
            });
            let Some(resident) = ops.count(decoded) else { continue };
            let sim = t.timed("sim.simulate_many", |_| {
                let mut tage = TageScL::new(&TageSclConfig::tage_sc_l_64kb());
                let mut late_hybrid = bench.hybrid.fresh_runtime_clone();
                let mut lates: [&mut dyn DirectionSource; 2] = [&mut tage, &mut late_hybrid];
                (simulate_many(&resident, &mut lates, &cpu), resident.len() as u64)
            });
            per_trace.push(TraceOut {
                lanes,
                sim,
                cnn_predictions: hybrid.stats().cnn_predictions,
            });
        }
        out.push(per_trace);
    }
    out
}

/// TAGE-SC-L 64 KB + Mini engines, from the timing model's counters.
pub fn headline_mpki(out: &Out) -> f64 {
    let mut agg = PredictionStats::new();
    for r in out.iter().flatten() {
        let s = &r.sim[1];
        agg.merge(&PredictionStats::from_counts(
            s.branches as f64,
            s.mispredictions as f64,
            s.instructions as f64,
        ));
    }
    agg.mpki()
}

pub fn check(setup: &Setup, first: &Out) -> Vec<Check> {
    let mut results = Vec::new();
    let cpu = CpuConfig::skylake_like();
    let lineup = baseline_lineup();
    let lane_name = |i: usize| lineup.get(i).map_or("hybrid", |e| e.name);
    let bimodal =
        lineup.iter().position(|e| e.name == "bimodal").expect("bimodal is in the lineup");
    let tage =
        lineup.iter().position(|e| e.name == "tage-sc-l-64kb").expect("TAGE-SC-L is in the lineup");
    let hybrid = lineup.len();
    for (bench, outs) in setup.benches.iter().zip(first) {
        if outs.len() != bench.test.len() {
            results.push(Err(format!(
                "{}: {} of {} test traces replayed",
                bench.program.name(),
                outs.len(),
                bench.test.len()
            )));
            continue;
        }
        let pcs = bench.hybrid.covered_pcs();
        for (i, (trace, o)) in bench.test.iter().zip(outs).enumerate() {
            let what = |s: &str| format!("{} test {i} {s}", bench.program.name());
            let c = checks::count(trace);
            results.push(checks::same_stats(
                &what("bimodal lane"),
                &o.lanes[bimodal],
                &checks::bimodal_reference(trace),
            ));
            for (lane, stats) in o.lanes.iter().enumerate() {
                results.push(checks::lane_counts(
                    &what(lane_name(lane)),
                    stats,
                    c.conditionals,
                    c.instructions,
                ));
            }
            for (late, lane) in [(0, tage), (1, hybrid)] {
                let s = &o.sim[late];
                let w = what(&format!("simulated {}", lane_name(lane)));
                results.push(checks::equal(
                    &w,
                    s.mispredictions,
                    o.lanes[lane].mispredictions() as u64,
                ));
                results.push(checks::equal(&w, s.instructions, c.instructions));
                results.push(checks::sim_bounds(&w, s, &cpu));
            }
            let occurrences =
                trace.iter().filter(|r| r.kind.is_conditional() && pcs.contains(&r.pc)).count();
            results.push(checks::equal(
                &what("hybrid cnn_predictions"),
                o.cnn_predictions,
                occurrences as u64,
            ));
        }
    }
    results
}
