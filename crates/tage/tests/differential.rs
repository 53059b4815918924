//! Differential tests: each new baseline pinned against a transparent
//! reference model on a crafted micro-trace that isolates exactly the
//! mechanism the baseline adds.
//!
//! * [`LoopOnly`] must reach 100% on a fixed-trip-count loop once the
//!   loop table is warm — the mechanism is trip-count capture, and on
//!   this trace nothing else is needed.
//! * [`LocalPerceptron`] must learn a periodic *local* pattern whose
//!   global-history image is destroyed by interleaved noise branches,
//!   which caps [`Gshare`] near the pattern's base rate.
//! * [`OGehl`] must learn a correlation 120 branches back — inside
//!   its longest geometric history, far beyond the 32 bits the
//!   classic [`Perceptron`] sees.

//! * [`Ittage`] must resolve a history-correlated interpreter
//!   dispatch loop — targets follow the bytecode program, so the
//!   previous dispatches' targets determine the next — where the
//!   last-target and BTB strawmen are structurally stuck at the
//!   consecutive-repeat rate.

use branchnet_tage::{
    Gshare, Ittage, IttageConfig, LocalPerceptron, LoopOnly, OGehl, Perceptron, Predictor,
};
use branchnet_trace::conformance::transcript;
use branchnet_trace::{
    run_one_per_branch, BranchKind, BranchRecord, Lane, LastTarget, TargetBtb, Targets, Trace,
};

/// Accuracy of `predictor` on the single static branch `pc` in
/// `trace`.
fn accuracy_on(predictor: &mut dyn Predictor, trace: &Trace, pc: u64) -> f64 {
    run_one_per_branch(predictor, trace)
        .get(pc)
        .unwrap_or_else(|| panic!("branch {pc:#x} missing from trace"))
        .accuracy()
}

/// A deterministic pseudo-random bit stream (LCG high bits).
fn lcg_bits(seed: u64) -> impl FnMut() -> bool {
    let mut state = seed;
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 60 > 7
    }
}

/// LoopOnly vs the ground truth: a fixed-trip-count loop is perfectly
/// predictable, and once the loop table is confident LoopOnly must
/// not miss a single branch — body or exit — ever again.
#[test]
fn loop_only_is_perfect_on_fixed_trip_loops_after_warmup() {
    const TRIP: usize = 20;
    const WARMUP_ROUNDS: usize = 8;
    let mut p = LoopOnly::default_config();
    let mut post_warmup_misses = 0u64;
    let mut post_warmup_total = 0u64;
    for round in 0..60 {
        for i in 0..TRIP {
            let record = BranchRecord::conditional(0x1040, i + 1 < TRIP);
            let predicted = p.predict(record.pc);
            if round >= WARMUP_ROUNDS {
                post_warmup_total += 1;
                post_warmup_misses += u64::from(predicted != record.taken);
            }
            p.update(&record, predicted);
        }
    }
    assert_eq!(post_warmup_total, ((60 - WARMUP_ROUNDS) * TRIP) as u64);
    assert_eq!(post_warmup_misses, 0, "a warm loop predictor must be exact on a fixed trip count");
}

/// The same trace through Gshare never reaches 100% after warm-up:
/// its 2-bit counters structurally mispredict each loop exit (the
/// differential half of the loop test).
#[test]
fn gshare_keeps_missing_the_loop_exits_loop_only_captures() {
    const TRIP: usize = 20;
    let trace: Trace = (0..60)
        .flat_map(|_| (0..TRIP).map(|i| BranchRecord::conditional(0x1040, i + 1 < TRIP)))
        .collect();
    // Gshare at the lineup configuration: 12 history bits cannot span
    // a 20-iteration trip, so exits stay surprises.
    let gshare = accuracy_on(&mut Gshare::new(14, 12), &trace, 0x1040);
    let loop_only = accuracy_on(&mut LoopOnly::default_config(), &trace, 0x1040);
    assert!(gshare < 0.99, "gshare unexpectedly solved the loop: {gshare}");
    assert!(loop_only > 0.99, "loop-only must capture the trip count: {loop_only}");
}

/// Builds the local-vs-global workload: branch A at `0x400` follows a
/// period-3 taken/taken/not pattern, with 7 pseudo-random noise
/// branches between consecutive A occurrences wiping the global
/// history window.
fn local_pattern_trace(iterations: usize) -> Trace {
    let mut noise = lcg_bits(0xDECAF);
    let mut trace = Trace::new();
    for i in 0..iterations {
        trace.push(BranchRecord::conditional(0x400, i % 3 != 2));
        for j in 0..7u64 {
            trace.push(BranchRecord::conditional(0x800 + j * 16, noise()));
        }
    }
    trace
}

/// LocalPerceptron vs Gshare on a pattern only local history can see:
/// the per-branch register replays the period-3 pattern exactly, while
/// gshare's global index is dominated by the 7 random bits in between.
#[test]
fn local_perceptron_learns_the_local_pattern_gshare_cannot() {
    let trace = local_pattern_trace(2000);
    let local = accuracy_on(&mut LocalPerceptron::new(10, 16), &trace, 0x400);
    let gshare = accuracy_on(&mut Gshare::new(14, 12), &trace, 0x400);
    assert!(local > 0.95, "local perceptron must learn the period-3 pattern: {local}");
    assert!(
        gshare < 0.8,
        "gshare should stay near the 2/3 base rate under history noise: {gshare}"
    );
    assert!(
        local - gshare > 0.15,
        "the differential must be decisive: local {local} vs gshare {gshare}"
    );
}

/// Builds the long-history workload: branch A at `0x100` flips a
/// pseudo-random coin, 120 fixed-pattern filler branches roll the
/// global history past any short window, then branch B at `0x900`
/// repeats A's outcome — the determining bit sits ~120 positions back.
fn long_history_trace(iterations: usize) -> Trace {
    let mut coin = lcg_bits(0xC0FFEE);
    let mut trace = Trace::new();
    for _ in 0..iterations {
        let k = coin();
        trace.push(BranchRecord::conditional(0x100, k));
        for j in 0..120u64 {
            trace.push(BranchRecord::conditional(0x200 + j * 8, j % 3 == 0));
        }
        trace.push(BranchRecord::conditional(0x900, k));
    }
    trace
}

/// OGehl vs the classic Perceptron on a correlation 120 branches back:
/// O-GEHL's 200-bit geometric table reaches it, the perceptron's
/// 32-bit window cannot.
#[test]
fn ogehl_beats_perceptron_on_long_geometric_history() {
    let trace = long_history_trace(3000);
    let ogehl = accuracy_on(&mut OGehl::default_config(), &trace, 0x900);
    // The lineup perceptron: 32 history bits, far short of 120.
    let perceptron = accuracy_on(&mut Perceptron::new(10, 32), &trace, 0x900);
    assert!(ogehl > 0.8, "o-gehl must reach the bit 120 branches back: {ogehl}");
    assert!(
        perceptron < 0.7,
        "a 32-bit-history perceptron cannot see the correlated bit: {perceptron}"
    );
    assert!(
        ogehl - perceptron > 0.15,
        "the differential must be decisive: o-gehl {ogehl} vs perceptron {perceptron}"
    );
}

/// A 16-opcode bytecode "program" with no consecutive repeats (the
/// wraparound pair 7→0 included), so a last-target table is wrong on
/// every post-warmup dispatch.
const PROGRAM: [u64; 16] = [0, 3, 1, 4, 2, 5, 0, 6, 3, 7, 1, 5, 2, 6, 4, 7];

/// Builds the threaded-interpreter dispatch micro-trace: one shared
/// indirect dispatch site at `0xB00` whose target cycles through the
/// program's handlers, each followed by a handler-body conditional
/// branch. The *history* (previous targets + handler outcomes)
/// uniquely determines the next target; the last target alone never
/// does.
fn interpreter_dispatch_trace(steps: usize) -> Trace {
    let mut trace = Trace::new();
    for i in 0..steps {
        let op = PROGRAM[i % PROGRAM.len()];
        let handler = 0x4000 + op * 0x40;
        trace.push(BranchRecord::unconditional(0xB00, handler, BranchKind::Indirect));
        trace.push(BranchRecord::conditional(handler + 8, op.is_multiple_of(2)));
    }
    trace
}

/// Accuracy over the predictions `lane` makes at record index
/// `warmup_records` and beyond, from its per-record transcript.
fn post_warmup_accuracy(lane: &mut dyn Lane, trace: &Trace, warmup_records: usize) -> f64 {
    let scored: Vec<bool> = trace
        .iter()
        .zip(transcript(lane, trace))
        .skip(warmup_records)
        .filter_map(|(record, prediction)| prediction.correct(&record))
        .collect();
    assert!(!scored.is_empty(), "no post-warmup predictions in the trace");
    scored.iter().filter(|&&correct| correct).count() as f64 / scored.len() as f64
}

/// ITTAGE vs the target strawmen on interpreter dispatch: the tagged
/// geometric-history tables recognize *where in the program* the
/// interpreter is and lock onto the dispatch cycle; last-target and
/// the BTB only ever replay the previous target, which by construction
/// is always wrong here.
#[test]
fn ittage_resolves_interpreter_dispatch_target_strawmen_cannot() {
    let trace = interpreter_dispatch_trace(6000);
    let warmup = 4000; // records: 2000 interpreter steps
    let ittage = post_warmup_accuracy(
        &mut Targets(Ittage::new(&IttageConfig::budget_64kb())),
        &trace,
        warmup,
    );
    let last_target = post_warmup_accuracy(&mut Targets(LastTarget::new()), &trace, warmup);
    let btb = post_warmup_accuracy(&mut Targets(TargetBtb::default_geometry()), &trace, warmup);
    assert!(ittage > 0.95, "ittage must resolve the dispatch pattern: {ittage}");
    assert!(last_target < 0.6, "last-target cannot follow a no-repeat cycle: {last_target}");
    assert!(btb < 0.6, "a BTB is last-target with eviction; it cannot either: {btb}");
    assert!(
        ittage - last_target.max(btb) > 0.35,
        "the differential must be decisive: ittage {ittage} vs last-target {last_target} / btb {btb}"
    );
}

/// The polymorphic-but-history-free control: when the dispatch target
/// is genuinely unpredictable from history (a pseudo-random opcode
/// stream), ITTAGE must not hallucinate an advantage — both families
/// sit near the repeat rate, and ITTAGE stays at least as good as the
/// strawman floor.
#[test]
fn ittage_degrades_gracefully_on_random_dispatch() {
    let mut coin = lcg_bits(0xD15BA7C4);
    let mut trace = Trace::new();
    let mut op = 0u64;
    for _ in 0..4000 {
        // Random walk over 8 handlers; repeats allowed.
        op = (op + 1 + u64::from(coin()) * 3) % 8;
        let handler = 0x4000 + op * 0x40;
        trace.push(BranchRecord::unconditional(0xB00, handler, BranchKind::Indirect));
    }
    let ittage =
        post_warmup_accuracy(&mut Targets(Ittage::new(&IttageConfig::budget_64kb())), &trace, 2000);
    let last_target = post_warmup_accuracy(&mut Targets(LastTarget::new()), &trace, 2000);
    assert!(
        ittage + 0.05 >= last_target,
        "ittage must not fall below the last-target floor: {ittage} vs {last_target}"
    );
}
