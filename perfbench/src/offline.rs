//! `offline-train`: the Section V-E pipeline on leela and mcf. The
//! set-up ranks the hard branches on the validation traces and trains
//! Big-scaled and the Mini menu per candidate; each round scores the
//! trained models on validation, quantizes the Minis, solves the
//! knapsack and replays the Big float hybrid and the Mini-pack hybrid
//! over the test traces.

use crate::checks::{self, Check};
use crate::inputs::Program;
use crate::pipeline::{self, Budget, Candidate, Ops, TrainCounts, TrainedMinis};
use crate::span::Tracer;
use branchnet_core::config::BranchNetConfig;
use branchnet_core::engine::InferenceEngine;
use branchnet_core::hybrid::{AttachedModel, HybridPredictor};
use branchnet_core::model::BranchNetModel;
use branchnet_core::quantize::QuantizedMini;
use branchnet_tage::{Predictor, TageScL, TageSclConfig};
use branchnet_trace::{Gauntlet, PredictionStats, Trace, TraceSet};
use branchnet_workloads::spec::{Benchmark, SpecSuite};

pub const BENCHMARKS: [Benchmark; 2] = [Benchmark::Leela, Benchmark::Mcf];
/// Records per synthesized training and validation trace.
pub const RECORDS: usize = 20_000;
/// Records per test trace. Each float prediction costs hundreds of
/// microseconds, so the test traces set most of a round's length.
pub const TEST_RECORDS: usize = 5_000;
/// Top validation-mispredicting branches trained per benchmark.
pub const CANDIDATES: usize = 2;
pub const BIG: Budget = Budget { epochs: 5, max_examples: 320 };
pub const MINI: Budget = Budget { epochs: 8, max_examples: 400 };
/// Float models attached per benchmark: the best one. Each float
/// prediction costs hundreds of microseconds, so a second model would
/// make a round's length depend on the seed.
pub const BIG_MODELS: usize = 1;
/// Storage of the Mini pack (Fig. 11 iso-latency).
pub const KNAPSACK_BYTES: usize = 32 * 1024;

pub struct Bench {
    pub program: Program,
    pub set: TraceSet,
    /// Big-scaled trained for each candidate with enough examples.
    pub big: Vec<(Candidate, BranchNetModel)>,
    pub minis: TrainedMinis,
}

pub struct Setup {
    pub benches: Vec<Bench>,
    pub counts: TrainCounts,
    pub ops: Ops,
}

/// Synthesizes each benchmark's traces, ranks its hard branches under
/// TAGE-SC-L 64 KB over the validation traces and trains Big-scaled
/// and the Mini menu for each candidate.
pub fn setup(t: &mut Tracer, seed: u64) -> Setup {
    let base = TageSclConfig::tage_sc_l_64kb();
    let mut ops = Ops::default();
    let mut counts = TrainCounts::default();
    let benches = BENCHMARKS
        .iter()
        .map(|&b| {
            let program = Program::Spec(SpecSuite::benchmark(b));
            let inputs = program.inputs(seed, 1);
            let set = TraceSet {
                train: program.generate(t, &inputs.train, RECORDS),
                valid: program.generate(t, &inputs.valid, RECORDS),
                test: program.generate(t, &inputs.test, TEST_RECORDS),
            };
            let cands = pipeline::rank(t, &base, &set.valid, CANDIDATES);
            let big = pipeline::train_float(
                t,
                &BranchNetConfig::big_scaled(),
                &set.train,
                &cands,
                &BIG,
                &mut ops,
                &mut counts,
            );
            let minis =
                pipeline::train_mini_menu(t, &set.train, &cands, &MINI, &mut ops, &mut counts);
            Bench { program, set, big, minis }
        })
        .collect();
    Setup { benches, counts, ops }
}

/// One benchmark's outcome in one round.
pub struct BenchOut {
    pub tage: PredictionStats,
    pub big: PredictionStats,
    pub mini: PredictionStats,
    pub big_pcs: Vec<u64>,
    pub cnn_predictions: u64,
    pub minis: Vec<(u64, QuantizedMini)>,
}

pub struct Out {
    pub benches: Vec<BenchOut>,
    pub counts: TrainCounts,
}

/// Per benchmark: Big PCs, Mini PCs, the replay counters and
/// `cnn_predictions`.
type Digest = Vec<(Vec<u64>, Vec<u64>, [f64; 6], u64)>;

/// Two rounds produced the same models and counts.
pub fn same(a: &Out, b: &Out) -> bool {
    a.digest() == b.digest()
}

impl Out {
    /// Everything a repeated round must reproduce exactly.
    fn digest(&self) -> Digest {
        self.benches
            .iter()
            .map(|b| {
                (
                    b.big_pcs.clone(),
                    b.minis.iter().map(|(pc, _)| *pc).collect(),
                    [
                        b.tage.mispredictions(),
                        b.big.mispredictions(),
                        b.mini.mispredictions(),
                        b.tage.instructions(),
                        b.big.predictions(),
                        b.mini.predictions(),
                    ],
                    b.cnn_predictions,
                )
            })
            .collect()
    }
}

pub fn round(t: &mut Tracer, setup: &Setup, ops: &mut Ops) -> Out {
    let base = TageSclConfig::tage_sc_l_64kb();
    let mut counts = TrainCounts::default();
    let mut benches = Vec::new();
    for Bench { set, big, minis, .. } in &setup.benches {
        let big = pipeline::float_pack(t, big, &set.valid, &BIG, BIG_MODELS, &mut counts);
        let minis = minis.score(t, &set.valid, &MINI).pick(t, KNAPSACK_BYTES, &mut counts);

        let mut big_h = HybridPredictor::new(&base);
        for (pc, model) in &big {
            ops.count(big_h.attach(*pc, AttachedModel::Float(model.clone())));
        }
        let mut mini_h = HybridPredictor::new(&base);
        for (pc, quant) in &minis {
            let attached = InferenceEngine::new(quant.clone())
                .map_err(drop)
                .and_then(|e| mini_h.attach(*pc, AttachedModel::Engine(e)).map_err(drop));
            ops.count(attached);
        }

        let mut out = BenchOut {
            tage: PredictionStats::new(),
            big: PredictionStats::new(),
            mini: PredictionStats::new(),
            big_pcs: big.iter().map(|(pc, _)| *pc).collect(),
            cnn_predictions: 0,
            minis,
        };
        for trace in &set.test {
            // A fresh baseline and flushed hybrids per trace: cold
            // predictors, as in the paper's per-SimPoint method.
            let stats = t.timed("core.replay", |_| {
                let mut g = Gauntlet::new();
                g.add(TageScL::new(&base));
                g.add(&mut big_h);
                g.add(&mut mini_h);
                g.run(trace);
                let stats: Vec<PredictionStats> = (0..3).map(|lane| *g.stats(lane)).collect();
                (stats, trace.len() as u64)
            });
            // A resident replay cannot fail.
            ops.attempted += 1;
            out.tage.merge_weighted(&stats[0], trace.weight());
            out.big.merge_weighted(&stats[1], trace.weight());
            out.mini.merge_weighted(&stats[2], trace.weight());
            out.cnn_predictions += big_h.stats().cnn_predictions;
            big_h.flush();
            mini_h.flush();
        }
        benches.push(out);
    }
    Out { benches, counts }
}

/// Weighted test MPKI of TAGE-SC-L 64 KB plus the Big float models,
/// over both benchmarks.
pub fn headline_mpki(out: &Out) -> f64 {
    let mut agg = PredictionStats::new();
    for b in &out.benches {
        agg.merge(&b.big);
    }
    agg.mpki()
}

pub fn check(setup: &Setup, first: &Out) -> Vec<Check> {
    let mut results = Vec::new();
    for (Bench { program, set, .. }, b) in setup.benches.iter().zip(&first.benches) {
        let name = program.name();
        results.push(checks::lower_mpki(
            &format!("{name} Big hybrid vs TAGE-SC-L"),
            b.big.mpki(),
            b.tage.mpki(),
        ));
        results.push(checks::lower_mpki(
            &format!("{name} Mini hybrid vs TAGE-SC-L"),
            b.mini.mpki(),
            b.tage.mpki(),
        ));
        let occurrences: u64 = set
            .test
            .iter()
            .map(|tr: &Trace| {
                tr.iter().filter(|r| r.kind.is_conditional() && b.big_pcs.contains(&r.pc)).count()
                    as u64
            })
            .sum();
        results.push(checks::equal(
            &format!("{name} float hybrid cnn_predictions"),
            b.cnn_predictions,
            occurrences,
        ));
        let mut compared = 0;
        for (pc, quant) in &b.minis {
            for (i, tr) in set.test.iter().enumerate() {
                let c = checks::compare_engine(quant, *pc, tr);
                compared += c.engine.len();
                results
                    .push(checks::engine_agrees(&format!("{name} engine {pc:#x} on test {i}"), &c));
            }
        }
        if !b.minis.is_empty() && compared == 0 {
            results
                .push(Err(format!("{name}: no test occurrence lined up for an engine comparison")));
        }
    }
    results
}
