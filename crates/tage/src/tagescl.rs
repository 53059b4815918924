//! TAGE-SC-L: the composed state-of-the-art runtime predictor
//! (Seznec, CBP2016 winner) used as the paper's baseline, plus the
//! MTAGE-SC-style unlimited configuration for headroom studies.

use crate::loop_pred::LoopPredictor;
use crate::predictor::Predictor;
use crate::sc::{ScConfig, ScDecision, StatisticalCorrector};
use crate::tage::{Tage, TageConfig, TagePrediction};
use branchnet_trace::BranchRecord;
use serde::{Deserialize, Serialize};

/// Full TAGE-SC-L configuration: TAGE geometry, SC sizing, loop
/// predictor, and the ablation toggles used by Fig. 9 / Fig. 11.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TageSclConfig {
    /// TAGE component geometry.
    pub tage: TageConfig,
    /// Statistical-corrector sizing.
    pub sc: ScConfig,
    /// Enable the statistical corrector at all.
    pub enable_sc: bool,
    /// Enable the loop predictor.
    pub enable_loop: bool,
    /// log2 entries of the loop predictor table.
    pub loop_log_size: u32,
    /// Display name for reports.
    pub name: &'static str,
}

impl TageSclConfig {
    /// The paper's practical baseline: 64 KB TAGE-SC-L. Following the
    /// paper's Fig. 11 methodology, local SC components stay enabled
    /// only in the MTAGE configs; here the SC keeps its local component
    /// (the Fig. 9 baseline) — use [`Self::without_sc_local`] for the
    /// Fig. 11 variant.
    #[must_use]
    pub fn tage_sc_l_64kb() -> Self {
        Self {
            tage: TageConfig::budget_64kb(),
            sc: ScConfig::budget_8kb(),
            enable_sc: true,
            enable_loop: true,
            loop_log_size: 6,
            name: "tage-sc-l-64kb",
        }
    }

    /// The 56 KB baseline paired with 8 KB of Mini-BranchNet in the
    /// iso-storage setting of Fig. 11.
    #[must_use]
    pub fn tage_sc_l_56kb() -> Self {
        Self {
            tage: TageConfig::budget_56kb(),
            sc: ScConfig::budget_8kb(),
            enable_sc: true,
            enable_loop: true,
            loop_log_size: 6,
            name: "tage-sc-l-56kb",
        }
    }

    /// MTAGE-SC stand-in: a very large TAGE + large SC, approximating
    /// the unlimited-storage CBP2016 winner used in Fig. 9.
    #[must_use]
    pub fn mtage_sc_unlimited() -> Self {
        Self {
            tage: TageConfig::unlimited(),
            sc: ScConfig::unlimited(),
            enable_sc: true,
            enable_loop: true,
            loop_log_size: 10,
            name: "mtage-sc",
        }
    }

    /// Returns this config with the SC's local-history component
    /// disabled (Fig. 11: "We disable the local history components of
    /// the Statistical Corrector").
    #[must_use]
    pub fn without_sc_local(mut self) -> Self {
        self.sc.enable_local = false;
        self
    }

    /// Returns this config with the whole statistical corrector
    /// disabled (Fig. 9 ablation).
    #[must_use]
    pub fn without_sc(mut self) -> Self {
        self.enable_sc = false;
        self
    }

    /// Returns this config with the loop predictor disabled.
    #[must_use]
    pub fn without_loop(mut self) -> Self {
        self.enable_loop = false;
        self
    }

    /// Returns this config reduced to the global-history TAGE alone
    /// (the "GTAGE" bar of Fig. 9).
    #[must_use]
    pub fn gtage_only(mut self) -> Self {
        self.enable_sc = false;
        self.enable_loop = false;
        self.name = "gtage";
        self
    }
}

/// Composed TAGE-SC-L predictor.
#[derive(Debug, Clone)]
pub struct TageScL {
    config: TageSclConfig,
    tage: Tage,
    sc: StatisticalCorrector,
    loop_pred: LoopPredictor,
    last: Option<LookupState>,
    stats: ComponentStats,
}

#[derive(Debug, Clone)]
struct LookupState {
    pc: u64,
    tage_pred: TagePrediction,
    /// The SC's decision, computed even when the loop predictor
    /// overrides it: `update` trains the SC on it either way.
    sc: Option<ScDecision>,
    final_taken: bool,
    loop_used: bool,
}

/// Per-component usage counters, useful for diagnosing which component
/// provides predictions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComponentStats {
    /// Predictions taken from the loop predictor.
    pub loop_overrides: u64,
    /// Predictions where the SC reverted TAGE.
    pub sc_reverts: u64,
    /// Total predictions.
    pub predictions: u64,
}

impl TageScL {
    /// Builds a TAGE-SC-L from `config`.
    #[must_use]
    pub fn new(config: &TageSclConfig) -> Self {
        Self {
            tage: Tage::new(&config.tage),
            sc: StatisticalCorrector::new(&config.sc),
            loop_pred: LoopPredictor::new(config.loop_log_size),
            last: None,
            stats: ComponentStats::default(),
            config: config.clone(),
        }
    }

    /// The configuration this predictor was built from.
    #[must_use]
    pub fn config(&self) -> &TageSclConfig {
        &self.config
    }

    /// Component-usage counters accumulated so far.
    #[must_use]
    pub fn component_stats(&self) -> ComponentStats {
        self.stats
    }

    fn lookup(&self, pc: u64) -> LookupState {
        let tage_pred = self.tage.lookup(pc);
        let mut taken = tage_pred.taken;
        let mut loop_used = false;
        if self.config.enable_loop {
            let lp = self.loop_pred.lookup(pc);
            if lp.hit && lp.confident {
                taken = lp.taken;
                loop_used = true;
            }
        }
        let sc = self
            .config
            .enable_sc
            .then(|| self.sc.decide(pc, &tage_pred, self.tage.global_history()));
        if let Some(d) = sc.filter(|_| !loop_used) {
            taken = d.taken;
        }
        LookupState { pc, tage_pred, sc, final_taken: taken, loop_used }
    }
}

impl Predictor for TageScL {
    fn predict(&mut self, pc: u64) -> bool {
        let state = self.lookup(pc);
        let taken = state.final_taken;
        self.last = Some(state);
        taken
    }

    fn update(&mut self, record: &BranchRecord, _predicted: bool) {
        let state = match self.last.take() {
            Some(s) if s.pc == record.pc => s,
            _ => self.lookup(record.pc),
        };
        self.stats.predictions += 1;
        if state.loop_used {
            self.stats.loop_overrides += 1;
        }
        // Nothing the SC reads changes between `lookup` and here, so
        // its decision and indices are the ones a fresh call would give.
        if let Some(d) = &state.sc {
            if d.reverted {
                self.stats.sc_reverts += 1;
            }
            self.sc.train(record, d);
        }
        if self.config.enable_loop {
            let tage_mispredicted = state.tage_pred.taken != record.taken;
            self.loop_pred.train(record.pc, record.taken, tage_mispredicted);
        }
        // TAGE trains last: `train` shifts the histories that the SC
        // indices above depend on.
        self.tage.train(record, &state.tage_pred);
    }

    fn note_unconditional(&mut self, record: &BranchRecord) {
        self.tage.note_control_flow(record);
    }

    fn flush(&mut self) {
        let config = self.config.clone();
        *self = Self::new(&config);
    }

    fn name(&self) -> &'static str {
        self.config.name
    }

    fn storage_bits(&self) -> u64 {
        let mut bits = self.tage.storage_bits_internal();
        if self.config.enable_sc {
            bits += self.sc.storage_bits();
        }
        if self.config.enable_loop {
            bits += self.loop_pred.storage_bits();
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use branchnet_trace::{run_one as evaluate, Trace};

    #[test]
    fn baseline_fits_its_64kb_budget() {
        let p = TageScL::new(&TageSclConfig::tage_sc_l_64kb());
        let bits = p.storage_bits();
        assert!(bits <= 64 * 1024 * 8, "{bits} bits > 64KB");
        assert!(bits >= 48 * 1024 * 8, "{bits} bits suspiciously small for a 64KB config");
    }

    #[test]
    fn fifty_six_kb_variant_is_smaller() {
        let a = TageScL::new(&TageSclConfig::tage_sc_l_64kb()).storage_bits();
        let b = TageScL::new(&TageSclConfig::tage_sc_l_56kb()).storage_bits();
        assert!(b < a);
    }

    #[test]
    fn loop_predictor_perfects_constant_loops() {
        // 37-iteration loop, beyond bimodal/gshare reach, with noise in
        // between to stress TAGE allocation.
        let mut trace = Trace::new();
        let mut seed = 5u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..300 {
            for i in 0..37 {
                let mut r = BranchRecord::conditional(0x4000, i != 36);
                r.target = 0x3F00; // backward loop branch
                trace.push(r);
                trace.push(BranchRecord::conditional(0x5000 + (rng() % 4) * 8, rng() % 2 == 0));
            }
        }
        let mut p = TageScL::new(&TageSclConfig::tage_sc_l_64kb());
        let stats = evaluate(&mut p, &trace);
        let loop_branch_share = 0.5;
        // The loop branch itself should be near-perfect once warm.
        assert!(
            stats.accuracy() > loop_branch_share * 0.99 + 0.5 * 0.45,
            "accuracy {}",
            stats.accuracy()
        );
    }

    #[test]
    fn ablations_reduce_storage_monotonically() {
        let full = TageScL::new(&TageSclConfig::tage_sc_l_64kb()).storage_bits();
        let no_sc = TageScL::new(&TageSclConfig::tage_sc_l_64kb().without_sc()).storage_bits();
        let gtage = TageScL::new(&TageSclConfig::tage_sc_l_64kb().gtage_only()).storage_bits();
        assert!(no_sc < full);
        assert!(gtage <= no_sc);
    }

    #[test]
    fn mtage_is_much_larger_than_64kb() {
        let m = TageScL::new(&TageSclConfig::mtage_sc_unlimited());
        assert!(m.storage_bits() > 10 * 64 * 1024 * 8);
    }

    #[test]
    fn without_sc_local_drops_local_tables() {
        let cfg = TageSclConfig::tage_sc_l_64kb().without_sc_local();
        assert!(!cfg.sc.enable_local);
        let a = TageScL::new(&TageSclConfig::tage_sc_l_64kb()).storage_bits();
        let b = TageScL::new(&cfg).storage_bits();
        assert!(b < a);
    }

    #[test]
    fn predicts_reasonably_on_mixed_workload() {
        // Mixed biased + patterned branches; sanity floor on accuracy.
        let mut trace = Trace::new();
        for i in 0..20_000usize {
            trace.push(BranchRecord::conditional(0x100, i % 2 == 0));
            trace.push(BranchRecord::conditional(0x200, i % 10 != 9));
            trace.push(BranchRecord::conditional(0x300, true));
        }
        let mut p = TageScL::new(&TageSclConfig::tage_sc_l_64kb());
        let stats = evaluate(&mut p, &trace);
        assert!(stats.accuracy() > 0.95, "accuracy {}", stats.accuracy());
    }
}
