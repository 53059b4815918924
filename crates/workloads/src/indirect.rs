//! Indirect-heavy synthetic workloads for the target-prediction
//! experiments.
//!
//! Where [`spec`](crate::spec) models the paper's *conditional*
//! branch-behaviour classes, these three programs model the classic
//! indirect-control-flow classes ITTAGE is built for:
//!
//! | Workload       | Indirect structure modeled            | ITTAGE opportunity |
//! |----------------|---------------------------------------|--------------------|
//! | interp-dispatch| threaded-interpreter opcode dispatch: the bytecode program determines the next handler, so the *path* (previous targets + handler outcomes) pins the next target | large |
//! | vcall-soup     | virtual calls over a fixed object array: the scan order makes the receiver class a function of position in the pass | large |
//! | switch-machine | a switch-dispatched DFA: the next state is a deterministic function of (state, symbol), and the symbol leaks into direction history | large |
//!
//! Each program interleaves the indirect sites with conditional
//! handler bodies and [`noise`](TraceBuilder::noise) so the traces are
//! indirect-*heavy* (a fifth to a half of records), not
//! indirect-only — a last-target table must actually be displaced by
//! the interleavings, and ITTAGE's history folding must survive
//! ordinary conditional traffic.
//!
//! PC regions are disjoint from every [`spec`](crate::spec) benchmark
//! (those stop below `0xB000`): interp-dispatch owns `0xB000`–`0xBFFF`,
//! vcall-soup `0xC000`–`0xCFFF`, switch-machine `0xD000`–`0xDFFF`.

use crate::program::{ProgramInput, TraceBuilder};
use branchnet_trace::{Trace, TraceSet};
use serde::{Deserialize, Serialize};

/// The three indirect-heavy programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IndirectBenchmark {
    /// Threaded interpreter: one dispatch site cycling a bytecode
    /// program's handlers.
    Interpreter,
    /// Virtual-call-dense object soup: megamorphic calls over a fixed
    /// heterogeneous array.
    Vcalls,
    /// Switch-dense state machine: a DFA whose dispatch target is the
    /// current state's case label.
    StateMachine,
}

impl IndirectBenchmark {
    /// All indirect workloads in presentation order.
    #[must_use]
    pub fn all() -> [IndirectBenchmark; 3] {
        [IndirectBenchmark::Interpreter, IndirectBenchmark::Vcalls, IndirectBenchmark::StateMachine]
    }

    /// Stable short name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            IndirectBenchmark::Interpreter => "interp-dispatch",
            IndirectBenchmark::Vcalls => "vcall-soup",
            IndirectBenchmark::StateMachine => "switch-machine",
        }
    }

    /// The workload with this [`name`](IndirectBenchmark::name), if
    /// any (the inverse used by CLI tools and report
    /// deserialization).
    #[must_use]
    pub fn from_name(name: &str) -> Option<IndirectBenchmark> {
        IndirectBenchmark::all().into_iter().find(|b| b.name() == name)
    }
}

/// Entry point for building indirect workloads, mirroring
/// [`SpecSuite`](crate::spec::SpecSuite).
#[derive(Debug, Clone, Copy, Default)]
pub struct IndirectSuite;

impl IndirectSuite {
    /// The workload for one program.
    #[must_use]
    pub fn benchmark(bench: IndirectBenchmark) -> IndirectWorkload {
        IndirectWorkload { bench }
    }

    /// All three workloads.
    #[must_use]
    pub fn all() -> Vec<IndirectWorkload> {
        IndirectBenchmark::all().into_iter().map(|b| IndirectWorkload { bench: b }).collect()
    }
}

/// One indirect program plus its input partition.
#[derive(Debug, Clone, Copy)]
pub struct IndirectWorkload {
    bench: IndirectBenchmark,
}

impl IndirectWorkload {
    /// Which program this is.
    #[must_use]
    pub fn benchmark(&self) -> IndirectBenchmark {
        self.bench
    }

    /// Stable short name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.bench.name()
    }

    /// The input partition, mirroring the SPEC suite's Table-III
    /// structure: mutually exclusive train/valid/test seeds, with test
    /// knobs outside the training ranges.
    #[must_use]
    pub fn inputs(&self) -> crate::spec::InputPartition {
        // knobs[0]: behaviour probability p (symbol/branch bias);
        // knobs[1]: structure scale (program length, array size,
        // state count).
        let mk = |label: &str, seed: u64, p: f64, scale: f64| {
            ProgramInput::new(label, seed, vec![p, scale])
        };
        crate::spec::InputPartition {
            train: vec![
                mk("train-1", 0xB001, 0.35, 0.8),
                mk("train-2", 0xB002, 0.55, 1.2),
                mk("train-3", 0xB003, 0.75, 1.6),
            ],
            valid: vec![mk("valid-1", 0xB101, 0.45, 1.0), mk("valid-2", 0xB102, 0.65, 1.4)],
            test: vec![
                mk("ref-1", 0xB201, 0.40, 1.1),
                mk("ref-2", 0xB202, 0.60, 1.3),
                mk("ref-3", 0xB203, 0.70, 1.5),
            ],
        }
    }

    /// Generates one trace for `input` of exactly `branches` records
    /// (the builder clamps at the limit).
    #[must_use]
    pub fn generate(&self, input: &ProgramInput, branches: usize) -> Trace {
        let mut b = TraceBuilder::new(input, branches);
        match self.bench {
            IndirectBenchmark::Interpreter => gen_interpreter(&mut b, input),
            IndirectBenchmark::Vcalls => gen_vcalls(&mut b, input),
            IndirectBenchmark::StateMachine => gen_state_machine(&mut b, input),
        }
        b.finish()
    }

    /// Builds the full train/valid/test [`TraceSet`] with
    /// `branches_per_trace` records per input.
    #[must_use]
    pub fn trace_set(&self, branches_per_trace: usize) -> TraceSet {
        let parts = self.inputs();
        let gen_all = |inputs: &[ProgramInput]| {
            inputs.iter().map(|i| self.generate(i, branches_per_trace)).collect()
        };
        TraceSet {
            train: gen_all(&parts.train),
            valid: gen_all(&parts.valid),
            test: gen_all(&parts.test),
        }
    }
}

// ---------------------------------------------------------------------------
// Generators. PC layout (all disjoint from the spec suite):
//   interp-dispatch: dispatch 0xB000, handlers 0xB400+op*0x40, noise 0xB800
//   vcall-soup:      mega-site 0xC000, mono-site 0xC010, vtables
//                    0xC800+class*0x80, noise 0xCE00
//   switch-machine:  switch 0xD000, symbol test 0xD010, cases
//                    0xD400+state*0x40, noise 0xDE00
// ---------------------------------------------------------------------------

/// interp-dispatch: a bytecode "program" is drawn once per input
/// (seeded), then executed round after round. Every step is one
/// indirect dispatch to the opcode's handler followed by a short
/// conditional handler body. Because the program is fixed, the
/// sequence of recent targets uniquely locates the interpreter inside
/// the program — exactly the correlation ITTAGE's geometric history
/// captures and a last-target table cannot.
fn gen_interpreter(b: &mut TraceBuilder, input: &ProgramInput) {
    let p = input.knob(0, 0.5);
    let scale = input.knob(1, 1.0);
    let num_ops = 8u64;
    let program_len = ((12.0 * scale) as usize + 6).min(48);
    // Draw the bytecode program: no consecutive repeats, so
    // last-target is wrong on every warm dispatch.
    let mut program = Vec::with_capacity(program_len);
    let mut prev = num_ops; // sentinel: never equals a real op
    for _ in 0..program_len {
        let mut op = b.uniform(0, num_ops - 1);
        if op == prev {
            op = (op + 1) % num_ops;
        }
        program.push(op);
        prev = op;
    }
    while !b.is_full() {
        for &op in &program {
            let handler = 0xB400 + op * 0x40;
            b.indirect(0xB000, handler);
            // Handler body: one opcode-determined branch (leaks the
            // opcode into direction history) and one data-dependent
            // one.
            b.branch(handler + 8, op % 2 == 0);
            let t = b.coin(p);
            b.branch(handler + 16, t);
            if op % 3 == 0 {
                b.noise(0xB800, 1);
            }
        }
    }
}

/// vcall-soup: a fixed array of objects with seeded classes, scanned
/// pass after pass. The megamorphic call site's receiver class is a
/// deterministic function of the position in the pass, which the
/// global path pins down; a monomorphic site and per-object
/// conditionals ride along as the easy traffic real object soups
/// carry.
fn gen_vcalls(b: &mut TraceBuilder, input: &ProgramInput) {
    let p = input.knob(0, 0.5);
    let scale = input.knob(1, 1.0);
    let num_classes = 6u64;
    let array_len = ((10.0 * scale) as usize + 5).min(40);
    // Draw the object soup: skewed class mix (class 0 overrepresented,
    // like a real dominant receiver), no consecutive repeats so
    // last-target stays displaced.
    let mut classes = Vec::with_capacity(array_len);
    let mut prev = num_classes;
    for _ in 0..array_len {
        let mut c = if b.coin(0.4) { 0 } else { b.uniform(1, num_classes - 1) };
        if c == prev {
            c = (c + 1) % num_classes;
        }
        classes.push(c);
        prev = c;
    }
    while !b.is_full() {
        for (i, &class) in classes.iter().enumerate() {
            let vtable = 0xC800 + class * 0x80;
            // Megamorphic virtual call.
            b.indirect(0xC000, vtable);
            // The method body: class-determined branch plus a
            // data-dependent field test.
            b.branch(vtable + 8, class % 2 == 0);
            let t = b.coin(p);
            b.branch(vtable + 16, t);
            // Monomorphic helper call every few objects: trivially
            // predictable, keeps the indirect mix realistic.
            if i % 3 == 0 {
                b.indirect(0xC010, 0xC700);
                b.branch(0xC708, true);
            }
            if i % 4 == 0 {
                b.noise(0xCE00, 1);
            }
        }
    }
}

/// switch-machine: a DFA over seeded transitions, driven by a biased
/// i.i.d. symbol stream. The switch's indirect jump lands on the
/// *current* state's case label; the consumed symbol is also tested by
/// a conditional branch, so (previous target, symbol bit) in history
/// determines the next target exactly.
fn gen_state_machine(b: &mut TraceBuilder, input: &ProgramInput) {
    let p = input.knob(0, 0.5);
    let scale = input.knob(1, 1.0);
    let num_states = (((4.0 * scale) as u64) + 4).min(12);
    // Seeded transition table: next[state][symbol], constrained to
    // actually move (next != state) so last-target keeps missing.
    let mut next = vec![[0u64; 2]; num_states as usize];
    for (s, row) in next.iter_mut().enumerate() {
        for entry in row.iter_mut() {
            let mut n = b.uniform(0, num_states - 1);
            if n == s as u64 {
                n = (n + 1) % num_states;
            }
            *entry = n;
        }
    }
    let mut state = 0u64;
    while !b.is_full() {
        let case_label = 0xD400 + state * 0x40;
        // The switch dispatch to the current state's case.
        b.indirect(0xD000, case_label);
        // Consume one symbol; the test leaks it into direction
        // history.
        let symbol = b.coin(p);
        b.branch(0xD010, symbol);
        // Case body: state-determined branch.
        b.branch(case_label + 8, state.is_multiple_of(2));
        if state.is_multiple_of(3) {
            b.noise(0xDE00, 1);
        }
        state = next[state as usize][usize::from(symbol)];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use branchnet_trace::BranchKind;
    use proptest::prelude::*;

    #[test]
    fn all_workloads_generate_requested_length() {
        for w in IndirectSuite::all() {
            let input = &w.inputs().train[0];
            let t = w.generate(input, 5_000);
            assert_eq!(t.len(), 5_000, "{} must clamp at the limit", w.name());
        }
    }

    #[test]
    fn traces_are_indirect_heavy() {
        for w in IndirectSuite::all() {
            let t = w.generate(&w.inputs().test[0], 10_000);
            let indirect = t.iter().filter(|r| r.kind == BranchKind::Indirect).count();
            let frac = indirect as f64 / t.len() as f64;
            assert!(
                (0.15..=0.6).contains(&frac),
                "{}: indirect fraction {frac:.3} outside the indirect-heavy band",
                w.name()
            );
        }
    }

    #[test]
    fn pc_regions_are_disjoint_across_indirect_workloads_and_below_spec() {
        use crate::spec::SpecSuite;
        let mut owner: std::collections::HashMap<u64, &'static str> =
            std::collections::HashMap::new();
        for w in IndirectSuite::all() {
            let t = w.generate(&w.inputs().train[0], 3_000);
            for r in &t {
                assert!(r.pc >= 0xB000, "{}: pc {:#x} below the indirect region", w.name(), r.pc);
                if let Some(prev) = owner.insert(r.pc, w.name()) {
                    assert_eq!(prev, w.name(), "pc {:#x} used by {} and {}", r.pc, prev, w.name());
                }
            }
        }
        // And no spec benchmark reaches into the indirect regions.
        for w in SpecSuite::all() {
            let t = w.generate(&w.inputs().train[0], 3_000);
            for r in &t {
                assert!(r.pc < 0xB000, "{}: pc {:#x} collides with indirect PCs", w.name(), r.pc);
            }
        }
    }

    #[test]
    fn partitions_are_mutually_exclusive() {
        let parts = IndirectSuite::benchmark(IndirectBenchmark::Interpreter).inputs();
        let mut seeds: Vec<u64> =
            parts.train.iter().chain(&parts.valid).chain(&parts.test).map(|i| i.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 8, "all 8 inputs must be distinct");
    }

    #[test]
    fn name_round_trips() {
        for b in IndirectBenchmark::all() {
            assert_eq!(IndirectBenchmark::from_name(b.name()), Some(b));
        }
        assert_eq!(IndirectBenchmark::from_name("no-such-workload"), None);
    }

    #[test]
    fn indirect_targets_land_in_the_declared_tables() {
        let w = IndirectSuite::benchmark(IndirectBenchmark::Interpreter);
        let t = w.generate(&w.inputs().train[1], 4_000);
        for r in &t {
            if r.kind == BranchKind::Indirect {
                assert_eq!(r.pc, 0xB000);
                assert!(
                    (0xB400..0xB400 + 8 * 0x40).contains(&r.target),
                    "target {:#x} outside the handler table",
                    r.target
                );
                assert_eq!((r.target - 0xB400) % 0x40, 0);
            }
        }
    }

    /// Real generator output — not synthetic patterns — survives the
    /// trace encoding record-identically, targets and kinds included
    /// (the workload side of the format conformance in
    /// `crates/trace/tests/format.rs`).
    #[test]
    fn generated_traces_round_trip_the_encoding() {
        use branchnet_trace::{read_trace, write_trace};
        for w in IndirectSuite::all() {
            let t = w.generate(&w.inputs().train[2], 3_000);
            let mut bytes = Vec::new();
            write_trace(&mut bytes, &t).unwrap();
            let decoded = read_trace(bytes.as_slice()).unwrap();
            assert_eq!(decoded, t, "{}", w.name());
        }
    }

    /// Generation must not depend on ambient threading configuration:
    /// the same input yields the identical trace on the main thread,
    /// on a spawned thread, and under any `BRANCHNET_THREADS` value
    /// (the bench harness's worker knob; generators are seeded and
    /// must never consult it).
    #[test]
    fn generation_ignores_thread_environment() {
        for w in IndirectSuite::all() {
            let input = w.inputs().valid[0].clone();
            let base = w.generate(&input, 2_000);
            for threads in ["1", "4"] {
                // Serialized within this test; no other test in this
                // crate reads the variable.
                std::env::set_var("BRANCHNET_THREADS", threads);
                let here = w.generate(&input, 2_000);
                let spawned = {
                    let input = input.clone();
                    std::thread::spawn(move || w.generate(&input, 2_000)).join().unwrap()
                };
                assert_eq!(here, base, "{} diverged at BRANCHNET_THREADS={threads}", w.name());
                assert_eq!(spawned, base, "{} diverged on a spawned thread", w.name());
            }
            std::env::remove_var("BRANCHNET_THREADS");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Determinism across the whole input space: any (workload,
        /// seed, knobs, length) pair regenerates the identical trace.
        #[test]
        fn any_input_regenerates_identically(
            which in 0usize..3,
            seed in any::<u64>(),
            p in 0.0f64..1.0,
            scale in 0.5f64..2.0,
            len in 64usize..2048,
        ) {
            let w = IndirectSuite::benchmark(IndirectBenchmark::all()[which]);
            let input = ProgramInput::new("prop", seed, vec![p, scale]);
            let a = w.generate(&input, len);
            let b = w.generate(&input, len);
            prop_assert_eq!(a.len(), len);
            prop_assert_eq!(&a, &b);
        }
    }
}
