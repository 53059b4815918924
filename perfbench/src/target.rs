//! The target part of `replay`: the three indirect-heavy programs'
//! test traces, 96 inputs each, streamed from v2 bytes through the three
//! `target_lineup()` lanes.

use crate::checks::{self, Check};
use crate::inputs::{self, Program};
use crate::pipeline::Ops;
use crate::span::Tracer;
use branchnet_tage::target_lineup;
use branchnet_trace::{Gauntlet, PredictionStats, Trace, TraceReader};
use branchnet_workloads::{IndirectBenchmark, IndirectSuite};

/// Records per test trace.
pub const TEST_RECORDS: usize = 25_000;
/// Copies of each Table III test input, each with its own seed. How
/// hard an interpreter's bytecode program is for ITTAGE varies twenty
/// times over from seed to seed (0.2 to 3.7 target-MPKI at a million
/// records), so the headline needs many inputs per program to repeat
/// from seed to seed: 96 per program, 7.2 million records in all.
pub const REPLICAS: usize = 32;

pub struct Setup {
    pub programs: Vec<(Program, Vec<Trace>, Vec<Vec<u8>>)>,
}

pub fn setup(t: &mut Tracer, seed: u64) -> Setup {
    let programs = IndirectBenchmark::all()
        .into_iter()
        .map(|b| {
            let program = Program::Indirect(IndirectSuite::benchmark(b));
            let test = program.generate(t, &program.inputs(seed, REPLICAS).test, TEST_RECORDS);
            let bytes = inputs::encode(t, &test);
            (program, test, bytes)
        })
        .collect();
    Setup { programs }
}

/// Per program, per test trace, the lanes' statistics in lineup order.
pub type Out = Vec<Vec<Vec<PredictionStats>>>;

pub fn round(t: &mut Tracer, setup: &Setup, ops: &mut Ops) -> Out {
    let lineup = target_lineup();
    let mut out = Vec::new();
    for (_, _, all_bytes) in &setup.programs {
        let mut per_trace = Vec::new();
        for bytes in all_bytes {
            let mut g = Gauntlet::new();
            for entry in &lineup {
                g.add_target_boxed((entry.build)());
            }
            let streamed = TraceReader::new(&bytes[..]).and_then(|mut reader| {
                let records = reader.record_count();
                t.timed("trace.run_stream_target", |_| (g.run_stream(&mut reader), records))
            });
            if ops.count(streamed).is_some() {
                per_trace.push(g.target_results().into_iter().map(|r| r.stats).collect());
            }
        }
        out.push(per_trace);
    }
    out
}

fn merged(per_trace: &[Vec<PredictionStats>], lane: usize) -> PredictionStats {
    let mut agg = PredictionStats::new();
    for lanes in per_trace {
        agg.merge(&lanes[lane]);
    }
    agg
}

fn lane_index(name: &str) -> usize {
    target_lineup().iter().position(|e| e.name == name).expect("lane is in the target lineup")
}

/// ITTAGE-64KB target-MPKI over every test trace.
pub fn headline_mpki(out: &Out) -> f64 {
    let ittage = lane_index("ittage-64kb");
    let mut agg = PredictionStats::new();
    for per_trace in out {
        agg.merge(&merged(per_trace, ittage));
    }
    agg.mpki()
}

pub fn check(setup: &Setup, first: &Out) -> Vec<Check> {
    let mut results = Vec::new();
    let lineup = target_lineup();
    let last = lane_index("last-target");
    let ittage = lane_index("ittage-64kb");
    for ((program, test, _), outs) in setup.programs.iter().zip(first) {
        let name = program.name();
        if outs.len() != test.len() {
            results.push(Err(format!(
                "{name}: {} of {} test traces replayed",
                outs.len(),
                test.len()
            )));
            continue;
        }
        for (i, (trace, lanes)) in test.iter().zip(outs).enumerate() {
            let c = checks::count(trace);
            results.push(checks::same_stats(
                &format!("{name} test {i} last-target lane"),
                &lanes[last],
                &checks::last_target_reference(trace),
            ));
            for (entry, stats) in lineup.iter().zip(lanes) {
                let what = format!("{name} test {i} {}", entry.name);
                results.push(checks::lane_counts(&what, stats, c.indirects, c.instructions));
            }
        }
        let ittage_mpki = merged(outs, ittage).mpki();
        for (lane, entry) in lineup.iter().enumerate().filter(|(lane, _)| *lane != ittage) {
            results.push(checks::lower_mpki(
                &format!("{name} ittage-64kb vs {}", entry.name),
                ittage_mpki,
                merged(outs, lane).mpki(),
            ));
        }
    }
    results
}
