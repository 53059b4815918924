//! Trace tooling: generate, inspect, and rank branch traces.
//!
//! ```text
//! trace_tool gen <benchmark> <input-idx> <branches> <out.bntr>
//! trace_tool stats <trace.bntr>
//! trace_tool rank <trace.bntr> [k]
//! ```
//!
//! `gen` accepts both the spec benchmarks and the indirect-heavy
//! families (`interp-dispatch`, `vcall-soup`, `switch-machine`), whose
//! indirect density `stats` reports per-`BranchKind`.
//!
//! Traces use the compact `branchnet-trace` binary format, so profiling
//! runs can be captured once and re-analyzed offline — the workflow
//! the paper's training infrastructure is built around.

use branchnet_tage::{TageScL, TageSclConfig};
use branchnet_trace::{encoding_stats, load_trace, run_one_per_branch, save_trace, BranchKind};
use branchnet_workloads::spec::{Benchmark, SpecSuite};
use branchnet_workloads::{IndirectBenchmark, IndirectSuite};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  trace_tool gen <benchmark> <input-idx 0..7> <branches> <out.bntr>\n  \
         trace_tool stats <trace.bntr>\n  trace_tool rank <trace.bntr> [k]"
    );
    ExitCode::FAILURE
}

fn find_benchmark(name: &str) -> Option<Benchmark> {
    Benchmark::all().into_iter().find(|b| b.name() == name)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") if args.len() == 5 => {
            // Spec benchmarks and the indirect-heavy families share
            // one namespace here; their name sets are disjoint.
            #[allow(clippy::type_complexity)]
            let (parts, gen): (_, Box<dyn Fn(&_, usize) -> _>) =
                if let Some(bench) = find_benchmark(&args[1]) {
                    let w = SpecSuite::benchmark(bench);
                    (w.inputs(), Box::new(move |input: &_, n| w.generate(input, n)))
                } else if let Some(bench) = IndirectBenchmark::from_name(&args[1]) {
                    let w = IndirectSuite::benchmark(bench);
                    (w.inputs(), Box::new(move |input: &_, n| w.generate(input, n)))
                } else {
                    eprintln!("unknown benchmark {:?}; one of:", args[1]);
                    for b in Benchmark::all() {
                        eprintln!("  {}", b.name());
                    }
                    for b in IndirectBenchmark::all() {
                        eprintln!("  {}", b.name());
                    }
                    return ExitCode::FAILURE;
                };
            let (Ok(idx), Ok(branches)) = (args[2].parse::<usize>(), args[3].parse::<usize>())
            else {
                return usage();
            };
            let inputs: Vec<_> =
                parts.train.iter().chain(&parts.valid).chain(&parts.test).collect();
            let Some(input) = inputs.get(idx) else {
                eprintln!("input index {idx} out of range (0..{})", inputs.len());
                return ExitCode::FAILURE;
            };
            let trace = gen(input, branches);
            if let Err(e) = save_trace(Path::new(&args[4]), &trace) {
                eprintln!("failed to write {}: {e}", args[4]);
                return ExitCode::FAILURE;
            }
            println!(
                "wrote {} branches ({} / {}) to {}",
                trace.len(),
                args[1],
                input.label,
                args[4]
            );
            ExitCode::SUCCESS
        }
        Some("stats") if args.len() == 2 => {
            let trace = match load_trace(Path::new(&args[1])) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let conditional = trace.iter().filter(|r| r.kind.is_conditional()).count();
            let taken = trace.iter().filter(|r| r.kind.is_conditional() && r.taken).count();
            let pcs: std::collections::HashSet<u64> = trace.iter().map(|r| r.pc).collect();
            println!("label:         {}", trace.label());
            println!("weight:        {}", trace.weight());
            println!("records:       {}", trace.len());
            println!("instructions:  {}", trace.instruction_count());
            println!(
                "conditional:   {conditional} ({:.1}% taken)",
                100.0 * taken as f64 / conditional.max(1) as f64
            );
            let by_kind = |k: BranchKind| trace.iter().filter(|r| r.kind == k).count();
            println!(
                "kinds:         cond {} | jump {} | call {} | ret {} | indirect {}",
                by_kind(BranchKind::Conditional),
                by_kind(BranchKind::Jump),
                by_kind(BranchKind::Call),
                by_kind(BranchKind::Return),
                by_kind(BranchKind::Indirect)
            );
            println!("static PCs:    {}", pcs.len());
            let enc = encoding_stats(&trace);
            println!("side table:    {} sites", enc.sites);
            println!("v2 blocks:     {}", enc.blocks);
            println!(
                "v2 encoded:    {} bytes ({:.3} B/record)",
                enc.encoded_bytes,
                enc.bytes_per_record()
            );
            ExitCode::SUCCESS
        }
        Some("rank") if args.len() >= 2 => {
            let trace = match load_trace(Path::new(&args[1])) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let k = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(10);
            let mut p = TageScL::new(&TageSclConfig::tage_sc_l_64kb());
            let stats = run_one_per_branch(&mut p, &trace);
            println!("top {k} mispredicting branches under 64KB TAGE-SC-L:");
            println!("{:<14} {:>12} {:>10} {:>12}", "pc", "occurrences", "accuracy", "mispredicts");
            for (pc, s) in stats.rank_by_mispredictions().entries().iter().take(k) {
                println!(
                    "{:#012x} {:>12.0} {:>10.3} {:>12.0}",
                    pc,
                    s.predictions(),
                    s.accuracy(),
                    s.mispredictions()
                );
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
