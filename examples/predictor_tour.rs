//! A tour of the runtime predictors: run every classic predictor over
//! the same workload in ONE pass — a multi-lane [`Gauntlet`] for the
//! accuracy numbers, a multi-lane `simulate_many` for the IPC the
//! pipeline model assigns them.
//!
//! ```text
//! cargo run --release --example predictor_tour
//! ```
//!
//! [`Gauntlet`]: branchnet::trace::Gauntlet

use branchnet::sim::{simulate_many, CpuConfig};
use branchnet::tage::{
    Bimodal, Gshare, HashedPerceptron, Perceptron, TageScL, TageSclConfig, TwoLevel,
};
use branchnet::trace::{Gauntlet, Lane};
use branchnet::workloads::spec::{Benchmark, SpecSuite};

fn contenders() -> Vec<(&'static str, Box<dyn Lane>)> {
    vec![
        ("bimodal (8KB)", Box::new(Bimodal::new(15, 2))),
        ("gshare (4KB)", Box::new(Gshare::new(14, 12))),
        ("2-level GAg (16b hist)", Box::new(TwoLevel::new(16, true))),
        ("perceptron", Box::new(Perceptron::new(10, 32))),
        ("hashed perceptron", Box::new(HashedPerceptron::default_config())),
        ("TAGE-SC-L 64KB", Box::new(TageScL::new(&TageSclConfig::tage_sc_l_64kb()))),
        ("MTAGE-SC (unlimited)", Box::new(TageScL::new(&TageSclConfig::mtage_sc_unlimited()))),
    ]
}

fn main() {
    let bench = SpecSuite::benchmark(Benchmark::Leela);
    let input = &bench.inputs().test[0];
    let trace = bench.generate(input, 60_000);
    println!("workload: {} / {} ({} branches)\n", bench.name(), input.label, trace.len());
    println!("{:<22} {:>9} {:>8} {:>10} {:>6}", "predictor", "accuracy", "MPKI", "storage", "IPC");

    // Accuracy/MPKI/storage: every predictor rides one decode of the
    // trace as a gauntlet lane.
    let mut gauntlet = Gauntlet::new();
    let names: Vec<&str> = contenders()
        .into_iter()
        .map(|(name, predictor)| {
            gauntlet.add_boxed(predictor);
            name
        })
        .collect();
    let storage_kb: Vec<f64> =
        contenders().iter().map(|(_, p)| p.storage_bits() as f64 / 8.0 / 1024.0).collect();
    gauntlet.run(&trace);
    let lanes = gauntlet.finish();

    // IPC: fresh predictors (cold start), all behind one shared early
    // predictor in a single timing pass.
    let cpu = CpuConfig::skylake_like();
    let mut fresh = contenders();
    let mut late: Vec<&mut dyn Lane> =
        fresh.iter_mut().map(|(_, p)| p.as_mut() as &mut dyn Lane).collect();
    let sims = simulate_many(&trace, &mut late, &cpu);

    for (((name, lane), kb), sim) in names.iter().zip(&lanes).zip(&storage_kb).zip(&sims) {
        println!(
            "{name:<22} {:>9.4} {:>8.2} {kb:>8.1}KB {:>6.2}",
            lane.stats.accuracy(),
            lane.stats.mpki(),
            sim.ipc()
        );
    }
}
