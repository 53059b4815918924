//! The statistical corrector (SC) of TAGE-SC-L.
//!
//! The SC is a GEHL-style adder tree: several tables of small signed
//! counters, indexed by hashes of the PC with different information
//! sources (global history prefixes, per-PC local histories, and the
//! IMLI counter). Their sum, seeded with the TAGE prediction and its
//! confidence, *statistically corrects* TAGE on branches that are
//! biased in ways TAGE's tagged matching cannot see. The paper ablates
//! the SC's global/local components in Fig. 9, which is why every
//! component here is individually toggleable.

use crate::counters::SaturatingCounter;
use crate::tage::TagePrediction;
use branchnet_trace::{BranchRecord, GlobalHistory};
use serde::{Deserialize, Serialize};

/// Statistical-corrector sizing and component toggles.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScConfig {
    /// log2 entries of every counter table.
    pub log_table: u32,
    /// Counter precision in bits (6 in CBP configs).
    pub counter_bits: u32,
    /// Global-history prefix lengths (one GEHL table each).
    pub global_lengths: Vec<usize>,
    /// Enable the per-PC local-history component. Fig. 11 disables it:
    /// "realistic processors avoid maintaining speculative local
    /// histories".
    pub enable_local: bool,
    /// Bits of local history kept per tracked PC.
    pub local_bits: usize,
    /// log2 rows of the local-history table.
    pub log_local_rows: u32,
    /// Enable the IMLI (inner-most-loop iteration) component.
    pub enable_imli: bool,
}

impl ScConfig {
    /// SC sizing used inside the 64 KB TAGE-SC-L preset.
    #[must_use]
    pub fn budget_8kb() -> Self {
        Self {
            log_table: 10,
            counter_bits: 6,
            global_lengths: vec![0, 4, 10, 16, 27, 44],
            enable_local: true,
            local_bits: 11,
            log_local_rows: 8,
            enable_imli: true,
        }
    }

    /// A large SC for the MTAGE-SC headroom configuration.
    #[must_use]
    pub fn unlimited() -> Self {
        Self {
            log_table: 14,
            counter_bits: 6,
            global_lengths: vec![0, 4, 8, 12, 18, 27, 40, 60, 90, 130],
            enable_local: true,
            local_bits: 16,
            log_local_rows: 12,
            enable_imli: true,
        }
    }

    fn num_tables(&self) -> usize {
        self.global_lengths.len()
            + if self.enable_local { 2 } else { 0 }
            + usize::from(self.enable_imli)
    }
}

/// The statistical corrector.
#[derive(Debug, Clone)]
pub struct StatisticalCorrector {
    config: ScConfig,
    /// One table per global length, then (optionally) 2 local tables,
    /// then (optionally) the IMLI table.
    tables: Vec<Vec<SaturatingCounter>>,
    local_histories: Vec<u64>,
    imli_count: u32,
    threshold: i32,
    threshold_counter: i32,
}

/// The SC's decision for one branch, with the counter indices it
/// read: [`StatisticalCorrector::train`] updates the same counters.
#[derive(Debug, Clone, Copy)]
pub struct ScDecision {
    /// Final direction after statistical correction.
    pub taken: bool,
    /// Whether the SC overrode the TAGE direction.
    pub reverted: bool,
    /// The adder-tree sum (for diagnostics).
    pub sum: i32,
    /// Counter index of each table, in table order.
    indices: [u32; StatisticalCorrector::MAX_TABLES],
}

impl StatisticalCorrector {
    /// Upper bound on counter tables supported by the fixed-size index
    /// array in [`ScDecision`].
    pub const MAX_TABLES: usize = 32;

    /// Builds an SC from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.global_lengths` is empty or the config has
    /// more than [`Self::MAX_TABLES`] tables.
    #[must_use]
    pub fn new(config: &ScConfig) -> Self {
        assert!(!config.global_lengths.is_empty());
        let n = config.num_tables();
        assert!(n <= Self::MAX_TABLES);
        Self {
            tables: vec![
                vec![SaturatingCounter::new(config.counter_bits); 1 << config.log_table];
                n
            ],
            local_histories: vec![0; 1 << config.log_local_rows],
            imli_count: 0,
            threshold: 6,
            threshold_counter: 0,
            config: config.clone(),
        }
    }

    fn mix(pc: u64, salt: u64, data: u64) -> u64 {
        let mut h = (pc >> 2).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ salt.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        h ^= data.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 29;
        h
    }

    fn table_index(&self, table: usize, pc: u64, data: u64) -> usize {
        (Self::mix(pc, table as u64 + 1, data) & ((1 << self.config.log_table) - 1)) as usize
    }

    fn local_row(&self, pc: u64) -> usize {
        ((pc >> 2) & ((1 << self.config.log_local_rows) - 1)) as usize
    }

    /// Counter index of each table for this branch, in table order.
    fn active_indices(&self, pc: u64, history: &GlobalHistory) -> [u32; Self::MAX_TABLES] {
        let mut out = [0u32; Self::MAX_TABLES];
        for (t, &len) in self.config.global_lengths.iter().enumerate() {
            let data = history.low_bits(len.min(64));
            out[t] = self.table_index(t, pc, data) as u32;
        }
        let mut t = self.config.global_lengths.len();
        if self.config.enable_local {
            let local = self.local_histories[self.local_row(pc)];
            let lmask = (1u64 << self.config.local_bits) - 1;
            out[t] = self.table_index(t, pc, local & lmask) as u32;
            out[t + 1] =
                self.table_index(t + 1, pc, (local & lmask) >> (self.config.local_bits / 2)) as u32;
            t += 2;
        }
        if self.config.enable_imli {
            out[t] = self.table_index(t, pc, u64::from(self.imli_count)) as u32;
        }
        out
    }

    /// Computes the corrected prediction given TAGE's lookup result.
    #[must_use]
    pub fn decide(&self, pc: u64, tage: &TagePrediction, history: &GlobalHistory) -> ScDecision {
        let indices = self.active_indices(pc, history);
        let mut sum: i32 = 0;
        for (table, &idx) in self.tables.iter().zip(&indices) {
            sum += 2 * i32::from(table[idx as usize].value()) + 1;
        }
        // Seed with TAGE's direction, weighted by its confidence, so the
        // SC only reverts when the statistical signal is strong.
        let conf_weight = 2 + 2 * i32::from(tage.confidence());
        sum += if tage.taken { conf_weight } else { -conf_weight };
        let sc_taken = sum >= 0;
        if sc_taken == tage.taken || sum.abs() < self.threshold {
            ScDecision { taken: tage.taken, reverted: false, sum, indices }
        } else {
            ScDecision { taken: sc_taken, reverted: true, sum, indices }
        }
    }

    /// Trains the SC on a resolved branch, given the decision
    /// [`decide`](Self::decide) made for it with the SC unchanged since,
    /// and advances local/IMLI state.
    pub fn train(&mut self, record: &BranchRecord, decision: &ScDecision) {
        let taken = record.taken;
        // Train counters when the correction was consulted in anger:
        // wrong final answer, or sum within threshold margin.
        if decision.taken != taken || decision.sum.abs() < self.threshold * 4 {
            for (table, &idx) in self.tables.iter_mut().zip(&decision.indices) {
                table[idx as usize].update(taken);
            }
        }
        // Adaptive reverting threshold (Seznec's TC scheme): tighten
        // when reverts hurt, relax when they help.
        if decision.reverted {
            if decision.taken == taken {
                self.threshold_counter -= 1;
                if self.threshold_counter <= -8 {
                    self.threshold = (self.threshold - 1).max(4);
                    self.threshold_counter = 0;
                }
            } else {
                self.threshold_counter += 1;
                if self.threshold_counter >= 8 {
                    self.threshold = (self.threshold + 1).min(120);
                    self.threshold_counter = 0;
                }
            }
        }
        // Local history update.
        if self.config.enable_local {
            let row = self.local_row(record.pc);
            self.local_histories[row] = (self.local_histories[row] << 1) | u64::from(taken);
        }
        // IMLI: count consecutive taken backward branches (loop
        // iterations of the innermost loop).
        if self.config.enable_imli && record.target < record.pc {
            if taken {
                self.imli_count = self.imli_count.saturating_add(1);
            } else {
                self.imli_count = 0;
            }
        }
    }

    /// Modeled storage in bits.
    #[must_use]
    pub fn storage_bits(&self) -> u64 {
        let counters = self.tables.len() as u64
            * (1u64 << self.config.log_table)
            * u64::from(self.config.counter_bits);
        let local = if self.config.enable_local {
            (1u64 << self.config.log_local_rows) * self.config.local_bits as u64
        } else {
            0
        };
        counters + local + 32 + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tage::{Tage, TageConfig};
    use branchnet_trace::Trace;

    fn tiny_tage() -> Tage {
        Tage::new(&TageConfig {
            min_history: 4,
            max_history: 64,
            log_entries: vec![7, 7, 7, 7],
            tag_bits: vec![8, 9, 10, 11],
            counter_bits: 3,
            useful_bits: 2,
            base_log_size: 9,
            reset_period: 1 << 14,
        })
    }

    /// A statistically-biased branch that flips 25% of the time with no
    /// pattern: TAGE alone chases noise; SC should stabilize it.
    #[test]
    fn sc_improves_statistically_biased_branch() {
        let mut seed = 0xDEAD_BEEFu64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % 100
        };
        let trace: Trace =
            (0..8000).map(|_| BranchRecord::conditional(0x500, rng() < 75)).collect();

        // TAGE alone.
        let mut tage_alone = tiny_tage();
        let mut wrong_alone = 0;
        for r in &trace {
            let p = tage_alone.lookup(r.pc);
            if p.taken != r.taken {
                wrong_alone += 1;
            }
            tage_alone.train(&r, &p);
        }

        // TAGE + SC.
        let mut tage = tiny_tage();
        let mut sc = StatisticalCorrector::new(&ScConfig::budget_8kb());
        let mut wrong_sc = 0;
        for r in &trace {
            let p = tage.lookup(r.pc);
            let d = sc.decide(r.pc, &p, tage.global_history());
            if d.taken != r.taken {
                wrong_sc += 1;
            }
            sc.train(&r, &d);
            tage.train(&r, &p);
        }
        assert!(
            wrong_sc <= wrong_alone,
            "SC should not hurt a biased-noise branch: {wrong_sc} vs {wrong_alone}"
        );
    }

    #[test]
    fn disabling_components_shrinks_storage() {
        let full = StatisticalCorrector::new(&ScConfig::budget_8kb());
        let mut cfg = ScConfig::budget_8kb();
        cfg.enable_local = false;
        cfg.enable_imli = false;
        let slim = StatisticalCorrector::new(&cfg);
        assert!(slim.storage_bits() < full.storage_bits());
    }

    #[test]
    fn budget_fits_8kb() {
        let sc = StatisticalCorrector::new(&ScConfig::budget_8kb());
        assert!(sc.storage_bits() <= 8 * 1024 * 8, "{} bits", sc.storage_bits());
    }

    #[test]
    fn imli_counts_loop_iterations() {
        let mut sc = StatisticalCorrector::new(&ScConfig::budget_8kb());
        let tage = tiny_tage();
        let mut backward = BranchRecord::conditional(0x1000, true);
        backward.target = 0x800; // backward branch
        let p = tage.lookup(backward.pc);
        let d = sc.decide(backward.pc, &p, tage.global_history());
        for _ in 0..5 {
            sc.train(&backward, &d);
        }
        assert_eq!(sc.imli_count, 5);
        backward.taken = false;
        sc.train(&backward, &d);
        assert_eq!(sc.imli_count, 0);
    }
}
