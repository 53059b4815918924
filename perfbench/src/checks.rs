//! Output checks: small reference implementations written here, from
//! the trace alone, and exact comparisons of the program's outputs
//! against them. Every check returns `Err` with a one-line reason.

use branchnet_core::engine::InferenceEngine;
use branchnet_core::quantize::{QuantMode, QuantizedMini};
use branchnet_sim::{CpuConfig, SimResult};
use branchnet_trace::{BranchKind, PredictionStats, Trace};
use std::collections::HashMap;

pub type Check = Result<(), String>;

/// What the benchmark counts in a trace by itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounts {
    pub records: u64,
    pub conditionals: u64,
    pub indirects: u64,
    /// Σ (1 + `inst_gap`) over every record.
    pub instructions: u64,
}

pub fn count(trace: &Trace) -> TraceCounts {
    let mut c = TraceCounts::default();
    for r in trace.iter() {
        c.records += 1;
        c.instructions += 1 + u64::from(r.inst_gap);
        match r.kind {
            BranchKind::Conditional => c.conditionals += 1,
            BranchKind::Indirect => c.indirects += 1,
            _ => {}
        }
    }
    c
}

/// A 2-bit bimodal predictor: 2^15 counters indexed by `pc >> 2`,
/// each starting weakly taken, scored over `trace`.
pub fn bimodal_reference(trace: &Trace) -> PredictionStats {
    const LOG_SIZE: u32 = 15;
    let mask = (1u64 << LOG_SIZE) - 1;
    // Counter values -2..=1; taken when non-negative; 0 is weakly taken.
    let mut table = vec![0i8; 1 << LOG_SIZE];
    let mut stats = PredictionStats::new();
    for r in trace.iter() {
        if r.kind != BranchKind::Conditional {
            stats.record_instructions(1 + u64::from(r.inst_gap));
            continue;
        }
        let c = &mut table[((r.pc >> 2) & mask) as usize];
        stats.record((*c >= 0) == r.taken, r.inst_gap);
        *c = if r.taken { (*c + 1).min(1) } else { (*c - 1).max(-2) };
    }
    stats
}

/// An unbounded last-target table scored over the indirect branches of
/// `trace`; a branch seen for the first time is predicted to fall
/// through to `pc + 4`.
pub fn last_target_reference(trace: &Trace) -> PredictionStats {
    let mut last: HashMap<u64, u64> = HashMap::new();
    let mut stats = PredictionStats::new();
    for r in trace.iter() {
        if r.kind != BranchKind::Indirect {
            stats.record_instructions(1 + u64::from(r.inst_gap));
            continue;
        }
        let predicted = last.get(&r.pc).copied().unwrap_or(r.pc.wrapping_add(4));
        stats.record(predicted == r.target, r.inst_gap);
        last.insert(r.pc, r.target);
    }
    stats
}

/// `got` and `want` count exactly the same predictions, mispredictions
/// and instructions.
pub fn same_stats(what: &str, got: &PredictionStats, want: &PredictionStats) -> Check {
    let g = (got.predictions(), got.mispredictions(), got.instructions());
    let w = (want.predictions(), want.mispredictions(), want.instructions());
    if g == w {
        Ok(())
    } else {
        Err(format!("{what}: (predictions, mispredictions, instructions) {g:?}, expected {w:?}"))
    }
}

/// A lane predicted exactly `predictions` branches over exactly
/// `instructions` instructions.
pub fn lane_counts(
    what: &str,
    lane: &PredictionStats,
    predictions: u64,
    instructions: u64,
) -> Check {
    let got = (lane.predictions(), lane.instructions());
    if got == (predictions as f64, instructions as f64) {
        Ok(())
    } else {
        Err(format!(
            "{what}: (predictions, instructions) {got:?}, counted ({predictions}, {instructions})"
        ))
    }
}

pub fn equal(what: &str, got: u64, want: u64) -> Check {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: {got}, expected {want}"))
    }
}

/// Every repeated round of a run reproduced the first round's outputs.
pub fn repeated(repeats: usize, differing: usize) -> Check {
    if differing == 0 {
        Ok(())
    } else {
        Err(format!("{differing} of {repeats} repeated rounds differ from the first"))
    }
}

/// `better` has strictly lower MPKI than `worse`.
pub fn lower_mpki(what: &str, better: f64, worse: f64) -> Check {
    if better < worse {
        Ok(())
    } else {
        Err(format!("{what}: {better:.4} MPKI is not below {worse:.4}"))
    }
}

/// Cycles ≥ ⌈instructions / width⌉ + mispredictions × flush penalty,
/// and IPC ≤ width.
pub fn sim_bounds(what: &str, r: &SimResult, cpu: &CpuConfig) -> Check {
    let width = cpu.fetch_width.min(cpu.issue_width) as u64;
    let floor = r.instructions.div_ceil(width) + r.mispredictions * cpu.flush_penalty();
    if r.cycles < floor {
        return Err(format!("{what}: {} cycles, below the floor of {floor}", r.cycles));
    }
    if r.ipc() > width as f64 {
        return Err(format!("{what}: IPC {} above the width {width}", r.ipc()));
    }
    Ok(())
}

/// Streaming-engine and batch-datapath predictions of one Mini model
/// over one trace, at the occurrences of its branch where the two are
/// defined to agree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineComparison {
    pub engine: Vec<bool>,
    pub batch: Vec<bool>,
}

/// Replays `trace` through a cold [`InferenceEngine`] for `quant` and,
/// at each occurrence of `pc`, compares its prediction with
/// `QuantizedMini::predict(window, QuantMode::Full)` on the window
/// assembled here from the trace's conditional branches.
///
/// The two datapaths agree where the engine's pooling windows line up
/// with the batch path's: once a full window of history has streamed
/// in (the engine zero-fills missing history sums, the batch path
/// hashes zero-padded entries) and when the number of branches so far
/// is a multiple of every sliding slice's pool width (sliding pools
/// hold only completed windows, so between boundaries they lag by the
/// pool phase, by design). Only those occurrences are compared.
pub fn compare_engine(quant: &QuantizedMini, pc: u64, trace: &Trace) -> EngineComparison {
    let cfg = quant.config();
    let len = cfg.window_len();
    let period = cfg
        .slices
        .iter()
        .filter(|s| !s.precise_pooling)
        .fold(1usize, |acc, s| lcm(acc, s.pool_width));
    let mut engine = InferenceEngine::new(quant.clone()).expect("Mini configs are hashed");
    let mut history: Vec<u32> = Vec::new();
    let mut out = EngineComparison::default();
    for r in trace.iter().filter(|r| r.kind == BranchKind::Conditional) {
        let n = history.len();
        if r.pc == pc && n >= len && n.is_multiple_of(period) {
            out.engine.push(engine.predict());
            out.batch.push(quant.predict(&history[n - len..], QuantMode::Full));
        }
        let encoded = r.encode(cfg.pc_bits);
        engine.update(encoded);
        history.push(encoded);
    }
    out
}

fn lcm(a: usize, b: usize) -> usize {
    let (mut x, mut y) = (a, b);
    while y != 0 {
        (x, y) = (y, x % y);
    }
    a / x * b
}

pub fn engine_agrees(what: &str, c: &EngineComparison) -> Check {
    match c.engine.iter().zip(&c.batch).position(|(e, b)| e != b) {
        None if c.engine.len() == c.batch.len() => Ok(()),
        None => {
            Err(format!("{what}: {} engine vs {} batch predictions", c.engine.len(), c.batch.len()))
        }
        Some(i) => Err(format!(
            "{what}: compared occurrence {i} of {}: engine predicts {}, batch datapath {}",
            c.engine.len(),
            c.engine[i],
            c.batch[i]
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use branchnet_core::config::BranchNetConfig;
    use branchnet_core::dataset::extract;
    use branchnet_core::trainer::{train_model, TrainOptions};
    use branchnet_tage::{lineup_entry, target_lineup};
    use branchnet_trace::{write_trace, Gauntlet, TraceReader};
    use branchnet_workloads::spec::{Benchmark, SpecSuite};
    use branchnet_workloads::{IndirectBenchmark, IndirectSuite};

    fn spec_trace(bench: Benchmark, records: usize) -> Trace {
        let w = SpecSuite::benchmark(bench);
        w.generate(&w.inputs().test[0], records)
    }

    fn bimodal_lane(trace: &Trace) -> PredictionStats {
        let mut g = Gauntlet::new();
        g.add_boxed((lineup_entry("bimodal").expect("in the lineup").build)());
        g.run(trace);
        *g.stats(0)
    }

    #[test]
    fn bimodal_check_passes_on_the_lane_and_fails_on_one_extra_misprediction() {
        let trace = spec_trace(Benchmark::Mcf, 20_000);
        let lane = bimodal_lane(&trace);
        let reference = bimodal_reference(&trace);
        assert_eq!(same_stats("bimodal", &lane, &reference), Ok(()));
        let corrupted = PredictionStats::from_counts(
            lane.predictions(),
            lane.mispredictions() + 1.0,
            lane.instructions(),
        );
        assert!(same_stats("bimodal", &corrupted, &reference).is_err());
    }

    #[test]
    fn lane_count_check_fails_when_a_decoded_record_is_dropped() {
        let trace = spec_trace(Benchmark::Leela, 20_000);
        let counts = count(&trace);
        let mut bytes = Vec::new();
        write_trace(&mut bytes, &trace).unwrap();
        let replay = |drop_one: bool| {
            let mut reader = TraceReader::new(&bytes[..]).unwrap();
            let mut g = Gauntlet::new();
            g.add_boxed((lineup_entry("gshare").expect("in the lineup").build)());
            let mut buf = Vec::new();
            let mut first = true;
            while reader.next_block(&mut buf).unwrap() > 0 {
                if drop_one && first {
                    let i = buf.iter().position(|r| r.kind == BranchKind::Conditional).unwrap();
                    buf.remove(i);
                }
                first = false;
                g.run_block(&buf);
            }
            *g.stats(0)
        };
        let real = replay(false);
        assert_eq!(lane_counts("gshare", &real, counts.conditionals, counts.instructions), Ok(()));
        let dropped = replay(true);
        assert!(lane_counts("gshare", &dropped, counts.conditionals, counts.instructions).is_err());
    }

    #[test]
    fn engine_check_passes_on_the_engine_and_fails_on_one_flipped_prediction() {
        let w = SpecSuite::benchmark(Benchmark::Leela);
        let train = w.generate(&w.inputs().train[0], 20_000);
        let test = w.generate(&w.inputs().test[0], 30_000);
        let cfg = BranchNetConfig::mini_1kb();
        let pc = (0..)
            .map(|i| test.get(i).unwrap())
            .find(|r| r.kind == BranchKind::Conditional && r.pc != 0x1020)
            .unwrap()
            .pc;
        let ds = extract(std::slice::from_ref(&train), pc, cfg.window_len(), cfg.pc_bits);
        let opts = TrainOptions { epochs: 1, max_examples: 200, ..TrainOptions::default() };
        let (model, _) = train_model(&cfg, &ds, &opts);
        let quant = QuantizedMini::from_model(&model);
        let mut real = compare_engine(&quant, pc, &test);
        assert!(!real.engine.is_empty(), "no aligned occurrence of {pc:#x}");
        assert_eq!(engine_agrees("engine", &real), Ok(()));
        real.engine[0] = !real.engine[0];
        assert!(engine_agrees("engine", &real).is_err());
    }

    #[test]
    fn mpki_order_check_fails_when_the_order_is_inverted() {
        let w = IndirectSuite::benchmark(IndirectBenchmark::Interpreter);
        let trace = w.generate(&w.inputs().test[0], 100_000);
        let mut g = Gauntlet::new();
        for e in target_lineup() {
            g.add_target_boxed((e.build)());
        }
        g.run(&trace);
        let r = g.target_results();
        let (last, ittage) = (r[0].stats.mpki(), r[2].stats.mpki());
        assert_eq!(lower_mpki("ittage", ittage, last), Ok(()));
        assert!(lower_mpki("ittage", last, ittage).is_err());
    }

    #[test]
    fn last_target_reference_matches_the_lane() {
        let w = IndirectSuite::benchmark(IndirectBenchmark::Vcalls);
        let trace = w.generate(&w.inputs().test[0], 50_000);
        let mut g = Gauntlet::new();
        g.add_target_boxed((target_lineup()[0].build)());
        g.run(&trace);
        assert_eq!(
            same_stats("last-target", g.target_stats(0), &last_target_reference(&trace)),
            Ok(())
        );
    }

    #[test]
    fn sim_bounds_reject_too_few_cycles() {
        let cpu = CpuConfig::skylake_like();
        let ok = SimResult {
            cycles: 1000,
            instructions: 600,
            branches: 100,
            mispredictions: 10,
            resteers: 0,
        };
        assert_eq!(sim_bounds("sim", &ok, &cpu), Ok(()));
        let bad = SimResult { cycles: 100 + 10 * cpu.flush_penalty() - 1, ..ok };
        assert!(sim_bounds("sim", &bad, &cpu).is_err());
    }
}
