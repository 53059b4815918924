//! Layer-by-layer benchmark of the BranchNet reproduction.
//!
//! `branchnet-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! makes the workload's inputs from the seed (the set-up), runs a
//! warm-up round, then repeats whole rounds of the workload until
//! `--seconds` have passed (at least one more), checks the program's
//! outputs, and prints one JSON object as the last line of standard
//! output. Untraced runs print the end-to-end metrics; traced runs
//! record spans around every call into the program's crates, make the
//! solo passes and layer probe only they make, write the spans to
//! `perfbench/spans/`, and print the per-layer metrics. See README.md
//! for what each workload and metric means.

mod checks;
mod direction;
mod host;
mod inputs;
mod offline;
mod pipeline;
mod probe;
mod replay;
mod span;
mod target;

use pipeline::{Ops, TrainCounts};
use span::{Phase, Tracer};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The measured phase of a run: what the warm-up round produced, the
/// wall-clock of every round after it, and how many of those produced
/// something else.
pub struct Measured<T> {
    pub first: T,
    pub seconds: Vec<f64>,
    pub differing: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    OfflineTrain,
    Replay,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::OfflineTrain, Workload::Replay];

    fn name(self) -> &'static str {
        match self {
            Workload::OfflineTrain => "offline-train",
            Workload::Replay => "replay",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, inputs::DEFAULT_SEED, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = value.parse().map_err(|_| format!("--seed {value:?} is not a u64"))?
            }
            "--seconds" => {
                let s: f64 =
                    value.parse().map_err(|_| format!("--seconds {value:?} is not a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Everything one run found, before it is printed.
struct Outcome {
    setup_s: f64,
    /// Wall-clock of each round after the warm-up.
    timed: Vec<f64>,
    mpki: f64,
    ops: Ops,
    checks: Vec<checks::Check>,
}

impl Outcome {
    fn new<O>(
        setup_s: f64,
        m: &Measured<O>,
        mpki: f64,
        ops: Ops,
        mut checks: Vec<checks::Check>,
    ) -> Self {
        checks.push(checks::repeated(m.seconds.len(), m.differing));
        Outcome { setup_s, timed: m.seconds.clone(), mpki, ops, checks }
    }
}

/// Runs one warm-up round, then repeats `round` until `seconds` have
/// passed since the warm-up began (at least one timed round), timing
/// each round and comparing its outcome with the first one's by `same`.
fn measure<S, O>(
    t: &mut Tracer,
    setup: &S,
    seconds: f64,
    ops: &mut Ops,
    mut round: impl FnMut(&mut Tracer, &S, &mut Ops) -> O,
    same: impl Fn(&O, &O) -> bool,
) -> Measured<O> {
    t.set_phase(Phase::Run);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let first = t.timed("round", |t| (round(t, setup, ops), 1));
    let mut m = Measured { first, seconds: Vec::new(), differing: 0 };
    loop {
        let r0 = Instant::now();
        let out = t.timed("round", |t| (round(t, setup, ops), 1));
        m.seconds.push(r0.elapsed().as_secs_f64());
        if !same(&m.first, &out) {
            m.differing += 1;
        }
        if start.elapsed() >= budget {
            return m;
        }
    }
}

fn run(args: &Args, t: &mut Tracer, started: Instant) -> Result<Outcome, String> {
    let mut ops = Ops::default();
    let outcome = match args.workload {
        Workload::OfflineTrain => {
            let setup = offline::setup(t, args.seed);
            let setup_s = started.elapsed().as_secs_f64();
            ops.add(setup.ops);
            let m = measure(t, &setup, args.seconds, &mut ops, offline::round, offline::same);
            TrainCounts { kept: m.first.counts.kept, ..setup.counts }.note(t);
            t.note("core.cnn_predictions", m.first.benches.iter().map(|b| b.cnn_predictions).sum());
            let checks = offline::check(&setup, &m.first);
            if t.enabled() {
                t.set_phase(Phase::Probe);
                let tests: Vec<_> = setup.benches.iter().flat_map(|b| &b.set.test).collect();
                probe::solo_lanes(t, &tests, &tests);
                let leela = &setup.benches[0].set;
                probe::layers(
                    t,
                    &probe::ProbeSet {
                        train: &leela.train,
                        valid: &leela.valid,
                        test: &leela.test,
                    },
                )?;
            }
            Outcome::new(setup_s, &m, offline::headline_mpki(&m.first), ops, checks)
        }
        Workload::Replay => {
            let setup = replay::setup(t, args.seed);
            let setup_s = started.elapsed().as_secs_f64();
            ops.add(setup.direction.ops);
            setup.direction.counts.note(t);
            let m = measure(t, &setup, args.seconds, &mut ops, replay::round, PartialEq::eq);
            t.note(
                "core.cnn_predictions",
                m.first.direction.iter().flatten().map(|o| o.cnn_predictions).sum(),
            );
            let checks = replay::check(&setup, &m.first);
            eprintln!(
                "perfbench: ittage-64kb target-MPKI {:.4}",
                target::headline_mpki(&m.first.target)
            );
            if t.enabled() {
                t.set_phase(Phase::Probe);
                let direction: Vec<_> =
                    setup.direction.benches.iter().flat_map(|b| &b.test).collect();
                let target: Vec<_> =
                    setup.target.programs.iter().flat_map(|(_, test, _)| test).collect();
                probe::solo_lanes(t, &direction, &target);
                let leela = &setup.direction.benches[0];
                probe::layers(
                    t,
                    &probe::ProbeSet {
                        train: &leela.train,
                        valid: &leela.valid,
                        test: &leela.test,
                    },
                )?;
            }
            Outcome::new(setup_s, &m, direction::headline_mpki(&m.first.direction), ops, checks)
        }
    };
    Ok(outcome)
}

/// A metric as printed: name, value and unit.
type Metric = (String, f64, &'static str);

fn per_layer(t: &Tracer, steal_s: f64) -> Result<Vec<Metric>, String> {
    let layer = |span: &str| t.layer(span).ok_or_else(|| format!("no span named {span}"));
    let per = |span: &str, scale: f64| -> Result<f64, String> {
        let (ns, work) = layer(span)?;
        if work == 0 {
            return Err(format!("spans named {span} did no work"));
        }
        Ok(ns as f64 / work as f64 / scale)
    };
    let mut m: Vec<Metric> = Vec::new();
    let mut push =
        |name: String, value: Result<f64, String>, unit: &'static str| -> Result<(), String> {
            m.push((name, value?, unit));
            Ok(())
        };
    push("workloads.synth_ns_per_record".into(), per("workloads.generate", 1.0), "ns")?;
    push("trace.encode_ns_per_record".into(), per("trace.write_trace", 1.0), "ns")?;
    let decode = [layer("trace.next_block"), layer("trace.read_to_trace")]
        .into_iter()
        .flatten()
        .fold((0u64, 0u64), |(a, b), (ns, w)| (a + ns, b + w));
    push("trace.decode_ns_per_record".into(), Ok(decode.0 as f64 / decode.1.max(1) as f64), "ns")?;
    push("trace.gauntlet_pass_ns_per_record".into(), per("trace.run_stream", 1.0), "ns")?;
    push("trace.target_pass_ns_per_record".into(), per("trace.run_stream_target", 1.0), "ns")?;
    for name in branchnet_tage::baseline_lineup()
        .iter()
        .map(|e| e.name)
        .chain(branchnet_tage::target_lineup().iter().map(|e| e.name))
    {
        push(format!("tage.{name}.ns_per_record"), per(&format!("tage.{name}"), 1.0), "ns")?;
    }
    push("core.rank_ns_per_record".into(), per("core.rank_hard_branches", 1.0), "ns")?;
    push("core.extract_us_per_example".into(), per("core.extract", 1e3), "us")?;
    push("core.validate_us_per_example".into(), per("core.validate", 1e3), "us")?;
    push("core.quantize_us_per_model".into(), per("core.quantize", 1e3), "us")?;
    push("core.knapsack_us".into(), per("core.assign_budget", 1e3), "us")?;
    let mut configs = vec![branchnet_core::config::BranchNetConfig::big_scaled()];
    configs
        .extend(branchnet_core::config::BranchNetConfig::mini_menu().into_iter().map(|(c, _)| c));
    for cfg in &configs {
        push(
            format!("core.train_us_per_example_epoch.{}", cfg.name),
            per(&format!("core.train.{}", cfg.name), 1e3),
            "us",
        )?;
    }
    let count = |span: &str| layer(span).map(|(_, work)| work as f64);
    push("core.train_epochs_run".into(), count("core.train_epochs_run"), "count")?;
    push("core.trainings_retried".into(), count("core.trainings_retried"), "count")?;
    let (kept, trained) = (count("core.models_kept")?, count("core.models_trained")?);
    push("core.models_kept_per_trained".into(), Ok(kept / trained.max(1.0)), "ratio")?;
    push("core.float_predict_us".into(), per("core.float_predict", 1e3), "us")?;
    push("core.cnn_predictions".into(), count("core.cnn_predictions"), "count")?;
    push("core.engine_update_ns".into(), per("core.engine_update", 1.0), "ns")?;
    push("core.engine_predict_ns".into(), per("core.engine_predict", 1.0), "ns")?;
    push("core.hybrid_ns_per_record".into(), per("core.hybrid", 1.0), "ns")?;
    for cfg in probe::nn_configs() {
        let c = &cfg.name;
        push(format!("nn.forward_us_per_example.{c}"), per(&format!("nn.forward.{c}"), 1e3), "us")?;
        push(
            format!("nn.backward_us_per_example.{c}"),
            per(&format!("nn.backward.{c}"), 1e3),
            "us",
        )?;
        push(format!("nn.adam_step_us.{c}"), per(&format!("nn.adam_step.{c}"), 1e3), "us")?;
    }
    push("sim.ns_per_record".into(), per("sim.oracle", 1.0), "ns")?;
    push("host.steal_s".into(), Ok(steal_s), "s")?;
    Ok(m)
}

fn json_line(correct: bool, ops: Ops, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted,
        ops.failed,
        body.join(", ")
    )
}

fn write_spans(t: &Tracer, args: &Args) -> Result<String, String> {
    let dir = std::path::Path::new("perfbench").join("spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.tsv", args.workload.name(), args.seed));
    let file = std::fs::File::create(&path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    t.write_tsv(std::io::BufWriter::new(file))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let steal0 = host::steal_s();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut t = Tracer::new(args.trace);
    let outcome = match run(&args, &mut t, started) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let steal_s = host::steal_s() - steal0;
    // Seconds per round over the timed rounds: the inverse of the
    // throughput. The host's load on this guest's vCPUs drifts over
    // seconds to minutes, and a mean follows that drift smoothly where
    // a median of bimodal round times jumps.
    let run_s = outcome.timed.iter().sum::<f64>() / outcome.timed.len() as f64;
    eprintln!(
        "perfbench: {} seed {}: set-up {:.3} s, warm-up and {} timed round(s) of mean {run_s:.3} s ({}), mpki {:.4}, steal {steal_s:.2} s",
        args.workload.name(),
        args.seed,
        outcome.setup_s,
        outcome.timed.len(),
        outcome.timed.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>().join(" "),
        outcome.mpki,
    );
    let failures: Vec<&String> = outcome.checks.iter().filter_map(|c| c.as_ref().err()).collect();
    for f in &failures {
        eprintln!("perfbench: check failed: {f}");
    }
    eprintln!("perfbench: {} checks, {} failed", outcome.checks.len(), failures.len());
    let correct = failures.is_empty();
    let metrics = if args.trace {
        match write_spans(&t, &args).and_then(|path| {
            eprintln!("perfbench: spans written to {path}");
            per_layer(&t, steal_s)
        }) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let rss = match host::peak_rss_mib() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        vec![
            ("setup_s".to_string(), outcome.setup_s, "s"),
            ("run_s".to_string(), run_s, "s"),
            ("peak_rss_mib".to_string(), rss, "MiB"),
            ("mpki".to_string(), outcome.mpki, "MPKI"),
        ]
    };
    println!("{}", json_line(correct, outcome.ops, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
