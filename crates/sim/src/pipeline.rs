//! The timing model itself.

use crate::config::CpuConfig;
use branchnet_tage::{Gshare, Predictor};
use branchnet_trace::{BranchRecord, Lane, Prediction, Trace};
use serde::{Deserialize, Serialize};

/// A perfect late predictor (IPC upper bound): the one lane that reads
/// the outcome of the record it predicts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Oracle;

impl Lane for Oracle {
    fn step(&mut self, record: &BranchRecord) -> Prediction {
        if record.kind.is_conditional() {
            Prediction::Direction(record.taken)
        } else {
            Prediction::None
        }
    }
    fn name(&self) -> &'static str {
        "oracle"
    }
}

/// Timing outcome of one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Total cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Conditional branches simulated.
    pub branches: u64,
    /// Final (late-predictor) mispredictions — full flushes.
    pub mispredictions: u64,
    /// Early/late disagreements where the late predictor was right —
    /// re-steer bubbles.
    pub resteers: u64,
}

impl SimResult {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Mispredictions per kilo-instruction.
    #[must_use]
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            1000.0 * self.mispredictions as f64 / self.instructions as f64
        }
    }
}

/// Simulates `trace` once for each late predictor in `lates`, all
/// behind one shared early gshare, under `config`.
///
/// The early predictor and the dynamic-branch counter evolve
/// identically no matter which late predictor sits behind them (both
/// are pure functions of the record stream), so a single decode pass
/// can score every lane at once. Each lane's [`SimResult`] is
/// byte-identical to what a solo [`simulate`] call would produce.
///
/// # Panics
///
/// Panics if `config` fails validation, or naming the lane if a late
/// lane predicts no direction for a conditional branch (a target lane
/// is no late predictor).
pub fn simulate_many(
    trace: &Trace,
    lates: &mut [&mut dyn Lane],
    config: &CpuConfig,
) -> Vec<SimResult> {
    config.validate();
    let mut early = Gshare::new(config.early_gshare_log_size, config.early_gshare_history);
    let width = config.fetch_width.min(config.issue_width) as u64;
    let mut instructions = 0u64;
    let mut branches = 0u64;
    let mut mispredictions = vec![0u64; lates.len()];
    let mut resteers = vec![0u64; lates.len()];
    let mut penalty_cycles = vec![0u64; lates.len()];
    // Block-at-a-time decode over a reused buffer; within a block the
    // walk stays record-major because the early predictor and the
    // dynamic-branch counter are shared across every lane.
    let mut buf = Vec::new();
    let mut blocks = trace.blocks();
    while blocks.next_into(&mut buf) > 0 {
        for record in &buf {
            instructions += 1 + u64::from(record.inst_gap);
            if !record.kind.is_conditional() {
                early.note_unconditional(record);
                for late in lates.iter_mut() {
                    late.step(record);
                }
                continue;
            }
            branches += 1;
            let early_pred = early.predict(record.pc);
            for (lane, late) in lates.iter_mut().enumerate() {
                let Prediction::Direction(late_pred) = late.step(record) else {
                    panic!("{}: a late lane must predict every conditional branch", late.name());
                };
                if late_pred != record.taken {
                    // Full flush: refill the frontend and wait for the
                    // branch to resolve. Memory-dependent branches
                    // (chosen deterministically by PC/occurrence hash)
                    // resolve late.
                    let slow =
                        is_memory_dependent(record.pc, branches, config.memory_branch_per_mille);
                    let resolve =
                        if slow { config.memory_resolve_delay } else { config.resolve_delay };
                    penalty_cycles[lane] += config.frontend_stages + resolve;
                    mispredictions[lane] += 1;
                } else if early_pred != late_pred {
                    // Correct late prediction overriding the early one:
                    // the frontend refetches from the corrected target.
                    penalty_cycles[lane] += config.late_predictor_cycles;
                    resteers[lane] += 1;
                }
            }
            early.update(record, early_pred);
        }
    }
    let base_cycles = instructions.div_ceil(width);
    (0..lates.len())
        .map(|lane| SimResult {
            cycles: base_cycles + penalty_cycles[lane],
            instructions,
            branches,
            mispredictions: mispredictions[lane],
            resteers: resteers[lane],
        })
        .collect()
}

/// Simulates `trace` with `late` as the heavy-weight predictor behind
/// a fresh early gshare, under `config`.
///
/// # Panics
///
/// Panics if `config` fails validation.
pub fn simulate(trace: &Trace, late: &mut dyn Lane, config: &CpuConfig) -> SimResult {
    simulate_many(trace, &mut [late], config).pop().expect("one lane in, one result out")
}

/// Simulates with the oracle late predictor (perfect prediction).
#[must_use]
pub fn simulate_with_oracle(trace: &Trace, config: &CpuConfig) -> SimResult {
    simulate(trace, &mut Oracle, config)
}

/// Deterministic pseudo-random tagging of memory-dependent branches.
fn is_memory_dependent(pc: u64, occurrence: u64, per_mille: u32) -> bool {
    let h =
        (pc ^ occurrence.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (h >> 33) % 1000 < u64::from(per_mille)
}

#[cfg(test)]
mod tests {
    use super::*;
    use branchnet_tage::{AlwaysTaken, TageScL, TageSclConfig};

    fn loopy_trace(n: usize) -> Trace {
        (0..n).map(|i| BranchRecord::conditional(0x40, i % 8 != 7)).collect()
    }

    #[test]
    fn oracle_gives_the_best_ipc() {
        let trace = loopy_trace(20_000);
        let cfg = CpuConfig::default();
        let oracle = simulate_with_oracle(&trace, &cfg);
        let mut bad = AlwaysTaken;
        let always = simulate(&trace, &mut bad, &cfg);
        let mut tage = TageScL::new(&TageSclConfig::tage_sc_l_64kb());
        let tage_res = simulate(&trace, &mut tage, &cfg);
        assert!(oracle.ipc() >= tage_res.ipc());
        assert!(tage_res.ipc() > always.ipc());
        assert_eq!(oracle.mispredictions, 0);
    }

    #[test]
    fn ipc_bounded_by_machine_width() {
        let trace = loopy_trace(10_000);
        let cfg = CpuConfig::default();
        let r = simulate_with_oracle(&trace, &cfg);
        assert!(r.ipc() <= cfg.fetch_width as f64 + 1e-9);
        // Oracle on a gshare-predictable loop: only early resteers at
        // warm-up, so IPC should approach the width.
        assert!(r.ipc() > cfg.fetch_width as f64 * 0.8, "ipc {}", r.ipc());
    }

    #[test]
    fn mpki_matches_trace_evaluation() {
        let trace = loopy_trace(20_000);
        let cfg = CpuConfig::default();
        let mut tage = TageScL::new(&TageSclConfig::tage_sc_l_64kb());
        let sim = simulate(&trace, &mut tage, &cfg);
        let mut tage2 = TageScL::new(&TageSclConfig::tage_sc_l_64kb());
        let eval = branchnet_trace::run_one(&mut tage2, &trace);
        assert!((sim.mpki() - eval.mpki()).abs() < 1e-9);
    }

    #[test]
    fn simulate_many_matches_solo_runs() {
        let trace = loopy_trace(20_000);
        let cfg = CpuConfig::default();
        let mut a = TageScL::new(&TageSclConfig::tage_sc_l_64kb());
        let mut b = AlwaysTaken;
        let solo_a = simulate(&trace, &mut TageScL::new(&TageSclConfig::tage_sc_l_64kb()), &cfg);
        let solo_b = simulate(&trace, &mut AlwaysTaken, &cfg);
        let many = simulate_many(&trace, &mut [&mut a, &mut b, &mut Oracle], &cfg);
        assert_eq!(many.len(), 3);
        assert_eq!(many[0], solo_a);
        assert_eq!(many[1], solo_b);
        assert_eq!(many[2], simulate_with_oracle(&trace, &cfg));
    }

    #[test]
    #[should_panic(expected = "last-target: a late lane must predict every conditional branch")]
    fn a_target_lane_is_no_late_predictor() {
        let mut lane = branchnet_trace::Targets(branchnet_trace::LastTarget::new());
        simulate(&loopy_trace(10), &mut lane, &CpuConfig::default());
    }

    #[test]
    fn lower_mpki_means_higher_ipc() {
        // Alternating branch: gshare-friendly, bimodal-hostile.
        let trace: Trace =
            (0..30_000).map(|i| BranchRecord::conditional(0x44, i % 2 == 0)).collect();
        let cfg = CpuConfig::default();
        let mut good = TageScL::new(&TageSclConfig::tage_sc_l_64kb());
        let mut bad = AlwaysTaken;
        let g = simulate(&trace, &mut good, &cfg);
        let b = simulate(&trace, &mut bad, &cfg);
        assert!(g.mpki() < b.mpki());
        assert!(g.ipc() > b.ipc());
    }

    #[test]
    fn resteers_cost_less_than_flushes() {
        let trace = loopy_trace(10_000);
        let cfg = CpuConfig { memory_branch_per_mille: 0, ..Default::default() };
        let mut bad = AlwaysTaken;
        let r = simulate(&trace, &mut bad, &cfg);
        // Every 8th branch mispredicts: check penalty accounting.
        let expected_flush_cycles = r.mispredictions * cfg.flush_penalty();
        let base = r.instructions.div_ceil(cfg.fetch_width as u64);
        assert!(r.cycles >= base + expected_flush_cycles);
    }

    #[test]
    fn memory_dependent_tagging_is_deterministic_and_bounded() {
        let mut hits = 0;
        for i in 0..10_000u64 {
            if is_memory_dependent(0x1234, i, 30) {
                hits += 1;
            }
            assert_eq!(is_memory_dependent(0x1234, i, 30), is_memory_dependent(0x1234, i, 30));
        }
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.03).abs() < 0.01, "rate {rate}");
    }
}
