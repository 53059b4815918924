//! Work only the traced run does, after the measured rounds: solo lane
//! passes, and a small pass through every layer on the workload's own
//! traces, so that each per-layer metric has spans on every workload.
//! A layer the set-up or the rounds already exercised is measured
//! there instead (see `Tracer::layer`).

use crate::inputs;
use crate::pipeline::{self, Budget, Ops, TrainCounts};
use crate::span::Tracer;
use branchnet_core::config::BranchNetConfig;
use branchnet_core::dataset::extract;
use branchnet_core::engine::InferenceEngine;
use branchnet_core::hybrid::{AttachedModel, HybridPredictor};
use branchnet_core::model::BranchNetModel;
use branchnet_core::quantize::QuantizedMini;
use branchnet_nn::{bce_with_logits, Adam, ParamVisitor};
use branchnet_sim::{simulate_many, CpuConfig, DirectionSource, Oracle};
use branchnet_tage::{baseline_lineup, target_lineup, TageSclConfig};
use branchnet_trace::{run_one, run_one_target, Gauntlet, Trace, TraceReader};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Training budget of the probe's single candidate, picked from the
/// top `CANDIDATES` of the validation ranking.
const BUDGET: Budget = Budget { epochs: 2, max_examples: 150 };
const CANDIDATES: usize = 3;
const KNAPSACK_BYTES: usize = 32 * 1024;
/// Float predictions timed one by one.
const FLOAT_PREDICTIONS: usize = 200;
/// Training steps replayed per config, and their batch size.
const NN_STEPS: usize = 4;
const NN_BATCH: usize = 64;
/// Configs whose training step is replayed layer by layer.
pub fn nn_configs() -> [BranchNetConfig; 2] {
    [BranchNetConfig::big_scaled(), BranchNetConfig::mini_2kb()]
}

/// Runs every `baseline_lineup()` entry alone over `direction` and every
/// `target_lineup()` entry alone over `target`, each cold per trace.
pub fn solo_lanes(t: &mut Tracer, direction: &[&Trace], target: &[&Trace]) {
    for entry in baseline_lineup() {
        for trace in direction {
            let mut p = (entry.build)();
            t.timed(format!("tage.{}", entry.name), |_| {
                (run_one(&mut *p, trace), trace.len() as u64)
            });
        }
    }
    for entry in target_lineup() {
        for trace in target {
            let mut p = (entry.build)();
            t.timed(format!("tage.{}", entry.name), |_| {
                (run_one_target(&mut *p, trace), trace.len() as u64)
            });
        }
    }
}

/// Small traces of the workload's own programs for the layer pass.
pub struct ProbeSet<'a> {
    pub train: &'a [Trace],
    pub valid: &'a [Trace],
    pub test: &'a [Trace],
}

/// One pass through every layer on `set`: v2 encode, block decode,
/// resident decode and a multi-lane streamed gauntlet pass of each
/// family (direction lanes, target lanes); the timing
/// model with an oracle late lane; rank, extract, train, validate,
/// quantize and knapsack for the best candidate; float predictions,
/// engine updates and predictions, a solo Mini-hybrid pass; and one
/// training step per `nn_configs()` entry, layer by layer.
///
/// # Errors
///
/// When no candidate of `set` has enough training examples.
pub fn layers(t: &mut Tracer, set: &ProbeSet<'_>) -> Result<(), String> {
    trace_layers(t, set.test);
    let cpu = CpuConfig::skylake_like();
    for trace in set.test {
        t.timed("sim.oracle", |_| {
            let mut lates: [&mut dyn DirectionSource; 1] = [&mut Oracle];
            (simulate_many(trace, &mut lates, &cpu), trace.len() as u64)
        });
    }

    let base = TageSclConfig::tage_sc_l_64kb();
    let mut ops = Ops::default();
    let mut counts = TrainCounts::default();
    let cands = pipeline::rank(t, &base, set.valid, CANDIDATES);
    let big_cfg = BranchNetConfig::big_scaled();
    let (cand, mut big) = cands
        .iter()
        .find_map(|c| {
            pipeline::train(t, &big_cfg, set.train, c, &BUDGET, &mut ops, &mut counts)
                .map(|m| (*c, m))
        })
        .ok_or("no probe candidate has enough training examples")?;
    if pipeline::avoided(&cand, pipeline::validate_float(t, &mut big, set.valid, &cand, &BUDGET))
        > 0.0
    {
        counts.kept += 1;
    }
    let menu = pipeline::train_mini_menu(t, set.train, &[cand], &BUDGET, &mut ops, &mut counts)
        .score(t, set.valid, &BUDGET);
    let minis: Vec<QuantizedMini> = menu.models().cloned().collect();
    menu.pick(t, KNAPSACK_BYTES, &mut counts);
    counts.note(t);

    float_predictions(t, &mut big, set.test, cand.pc);
    let first_mini = minis.first().ok_or("no Mini of the menu trained")?;
    for quant in &minis {
        engine(t, quant, cand.pc, set.test);
    }
    let mut hybrid = HybridPredictor::new(&base);
    hybrid
        .attach(
            cand.pc,
            AttachedModel::Engine(
                InferenceEngine::new(first_mini.clone()).map_err(|e| e.to_string())?,
            ),
        )
        .map_err(|e| e.to_string())?;
    let mut cnn = 0;
    for trace in set.test {
        t.timed("core.hybrid", |_| (run_one(&mut hybrid, trace), trace.len() as u64));
        cnn += hybrid.stats().cnn_predictions;
        branchnet_tage::Predictor::flush(&mut hybrid);
    }
    t.note("core.cnn_predictions", cnn);

    for cfg in nn_configs() {
        nn_step(t, &cfg, set.train, cand.pc);
    }
    Ok(())
}

fn trace_layers(t: &mut Tracer, test: &[Trace]) {
    let bytes = inputs::encode(t, test);
    let mut buf = Vec::new();
    for b in &bytes {
        let mut reader = TraceReader::new(&b[..]).expect("bytes encoded just above");
        loop {
            let n = t.timed("trace.next_block", |_| {
                let n = reader.next_block(&mut buf).expect("bytes encoded just above");
                (n, n as u64)
            });
            if n == 0 {
                break;
            }
        }
        t.timed("trace.read_to_trace", |_| {
            let trace = TraceReader::new(&b[..])
                .and_then(TraceReader::read_to_trace)
                .expect("bytes encoded just above");
            let n = trace.len() as u64;
            (trace, n)
        });
        let mut reader = TraceReader::new(&b[..]).expect("bytes encoded just above");
        let mut g = Gauntlet::new();
        for entry in baseline_lineup() {
            g.add_boxed((entry.build)());
        }
        let records = reader.record_count();
        t.timed("trace.run_stream", |_| (g.run_stream(&mut reader), records))
            .expect("bytes encoded just above");
        let mut reader = TraceReader::new(&b[..]).expect("bytes encoded just above");
        let mut g = Gauntlet::new();
        for entry in target_lineup() {
            g.add_target_boxed((entry.build)());
        }
        t.timed("trace.run_stream_target", |_| (g.run_stream(&mut reader), records))
            .expect("bytes encoded just above");
    }
}

fn float_predictions(t: &mut Tracer, model: &mut BranchNetModel, test: &[Trace], pc: u64) {
    let cfg = model.config().clone();
    let ds = extract(test, pc, cfg.window_len(), cfg.pc_bits);
    for e in ds.examples.iter().take(FLOAT_PREDICTIONS) {
        t.timed("core.float_predict", |_| (model.predict(&e.window), 1));
    }
}

fn engine(t: &mut Tracer, quant: &QuantizedMini, pc: u64, test: &[Trace]) {
    let bits = quant.config().pc_bits;
    for trace in test {
        let encoded: Vec<(u64, u32)> = trace
            .iter()
            .filter(|r| r.kind.is_conditional())
            .map(|r| (r.pc, r.encode(bits)))
            .collect();
        let mut e = InferenceEngine::new(quant.clone()).expect("Mini configs are hashed");
        t.timed("core.engine_update", |_| {
            for &(_, x) in &encoded {
                e.update(std::hint::black_box(x));
            }
            ((), encoded.len() as u64)
        });
        e.reset();
        for &(branch, x) in &encoded {
            if branch == pc {
                std::hint::black_box(t.timed("core.engine_predict", |_| (e.predict(), 1)));
            }
            e.update(x);
        }
    }
}

fn nn_step(t: &mut Tracer, cfg: &BranchNetConfig, train: &[Trace], pc: u64) {
    let ds = extract(train, pc, cfg.window_len(), cfg.pc_bits);
    let batch: Vec<_> = ds.examples.iter().take(NN_BATCH).collect();
    if batch.is_empty() {
        return;
    }
    let windows: Vec<&[u32]> = batch.iter().map(|e| e.window.as_slice()).collect();
    let labels: Vec<f32> = batch.iter().map(|e| e.label).collect();
    let mut model = BranchNetModel::new(cfg, 0xB5A9);
    let mut opt = Adam::new(0.02);
    let mut rng = SmallRng::seed_from_u64(0xDA7A);
    let n = windows.len() as u64;
    for _ in 0..NN_STEPS {
        let logits = t.timed(format!("nn.forward.{}", cfg.name), |_| {
            (model.forward(&windows, true, &mut rng), n)
        });
        let (_, grad) = bce_with_logits(&logits, &labels);
        t.timed(format!("nn.backward.{}", cfg.name), |_| (model.backward(&grad), n));
        t.timed(format!("nn.adam_step.{}", cfg.name), |_| (opt.step(&mut model), 1));
        model.zero_grad();
    }
}
