//! The benchmark's inputs: program inputs reseeded from the run's
//! seed, the traces synthesized from them, and their v2 encodings.

use crate::span::Tracer;
use branchnet_trace::{write_trace, Trace};
use branchnet_workloads::spec::InputPartition;
use branchnet_workloads::{IndirectWorkload, ProgramInput, SpecWorkload};

/// Seed used when the command line gives none.
pub const DEFAULT_SEED: u64 = 1;

/// The seed of replica `replica` of one program input: FNV-1a over
/// `program/label#replica`, mixed with the run's seed by one SplitMix64
/// step. Every replica of every input of every program gets its own
/// stream, and the same run seed always gives the same inputs.
pub fn input_seed(run_seed: u64, program: &str, label: &str, replica: usize) -> u64 {
    let key = format!("{program}/{label}#{replica}");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    let mut z = h ^ run_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `partition` with each input repeated `replicas` times, every copy
/// with its own [`input_seed`]; labels and Table III knobs stay as the
/// program defines them.
pub fn reseed(
    partition: InputPartition,
    run_seed: u64,
    program: &str,
    replicas: usize,
) -> InputPartition {
    let re = |inputs: Vec<ProgramInput>| -> Vec<ProgramInput> {
        inputs
            .into_iter()
            .flat_map(|i| {
                (0..replicas).map(move |r| ProgramInput {
                    seed: input_seed(run_seed, program, &i.label, r),
                    ..i.clone()
                })
            })
            .collect()
    };
    InputPartition {
        train: re(partition.train),
        valid: re(partition.valid),
        test: re(partition.test),
    }
}

/// A synthetic program of either family.
#[derive(Clone, Copy)]
pub enum Program {
    Spec(SpecWorkload),
    Indirect(IndirectWorkload),
}

impl Program {
    pub fn name(&self) -> &'static str {
        match self {
            Program::Spec(w) => w.name(),
            Program::Indirect(w) => w.name(),
        }
    }

    /// The program's Table III partition, reseeded from `run_seed`,
    /// with `replicas` copies of each input.
    pub fn inputs(&self, run_seed: u64, replicas: usize) -> InputPartition {
        let partition = match self {
            Program::Spec(w) => w.inputs(),
            Program::Indirect(w) => w.inputs(),
        };
        reseed(partition, run_seed, self.name(), replicas)
    }

    /// Synthesizes one trace of `records` records for each input.
    pub fn generate(&self, t: &mut Tracer, inputs: &[ProgramInput], records: usize) -> Vec<Trace> {
        inputs
            .iter()
            .map(|input| {
                t.timed("workloads.generate", |_| {
                    let trace = match self {
                        Program::Spec(w) => w.generate(input, records),
                        Program::Indirect(w) => w.generate(input, records),
                    };
                    let n = trace.len() as u64;
                    (trace, n)
                })
            })
            .collect()
    }
}

/// Encodes each trace to v2 bytes.
pub fn encode(t: &mut Tracer, traces: &[Trace]) -> Vec<Vec<u8>> {
    traces
        .iter()
        .map(|trace| {
            t.timed("trace.write_trace", |_| {
                let mut bytes = Vec::new();
                write_trace(&mut bytes, trace).expect("writing to a Vec cannot fail");
                (bytes, trace.len() as u64)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use branchnet_workloads::spec::{Benchmark, SpecSuite};

    #[test]
    fn reseeding_keeps_labels_and_knobs_and_separates_inputs() {
        let program = Program::Spec(SpecSuite::benchmark(Benchmark::Leela));
        let a = program.inputs(7, 1);
        let b = program.inputs(7, 1);
        let c = program.inputs(8, 1);
        let twice = program.inputs(7, 2);
        assert_eq!(twice.test.len(), 2 * a.test.len());
        assert_eq!(twice.test[0], a.test[0]);
        assert_ne!(twice.test[0].seed, twice.test[1].seed);
        let orig = SpecSuite::benchmark(Benchmark::Leela).inputs();
        assert_eq!(a.test, b.test);
        assert_ne!(a.test[0].seed, c.test[0].seed);
        assert_ne!(a.test[0].seed, a.test[1].seed);
        for (x, o) in a.train.iter().zip(&orig.train) {
            assert_eq!((&x.label, &x.knobs), (&o.label, &o.knobs));
        }
    }
}
