//! The parametric TAGE predictor core (Seznec & Michaud).
//!
//! TAGE maintains a base bimodal table plus `N` *tagged* tables, each
//! associated with a geometrically growing global-history length. A
//! prediction comes from the longest-history table whose tag matches
//! (the *provider*); allocation on mispredictions steals entries in
//! longer tables whose *useful* counters are zero. Indices and tags are
//! computed from incrementally folded histories
//! ([`branchnet_trace::FoldBank`]), exactly the structure whose
//! exponential-capacity weakness under noisy histories the BranchNet
//! paper targets (Section II-A).

use crate::bimodal::Bimodal;
use crate::counters::{SaturatingCounter, UnsignedCounter};
use crate::predictor::Predictor;
use branchnet_trace::{BranchRecord, FoldBank, GlobalHistory, PathHistory};
use serde::{Deserialize, Serialize};

/// Geometry and sizing knobs of a TAGE predictor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TageConfig {
    /// Shortest tagged-table history length.
    pub min_history: usize,
    /// Longest tagged-table history length.
    pub max_history: usize,
    /// Per-table log2 entry counts (also sets the number of tables).
    pub log_entries: Vec<u32>,
    /// Per-table tag widths in bits.
    pub tag_bits: Vec<u32>,
    /// Prediction-counter precision (3 in CBP configs).
    pub counter_bits: u32,
    /// Useful-counter precision (2 in CBP configs).
    pub useful_bits: u32,
    /// log2 entries of the bimodal base table.
    pub base_log_size: u32,
    /// Updates between useful-counter aging events.
    pub reset_period: u64,
}

impl TageConfig {
    /// The tagged-table geometry of a ~64 KB TAGE (the TAGE component
    /// of the paper's TAGE-SC-L baseline).
    #[must_use]
    pub fn budget_64kb() -> Self {
        Self {
            min_history: 8,
            max_history: 2000,
            log_entries: vec![11, 11, 11, 11, 11, 11, 11, 11, 10, 10, 10, 10],
            tag_bits: vec![8, 9, 10, 10, 11, 11, 12, 12, 13, 13, 14, 15],
            counter_bits: 3,
            useful_bits: 2,
            base_log_size: 13,
            reset_period: 1 << 18,
        }
    }

    /// A shrunken geometry for the 56 KB iso-storage baseline; the
    /// paper builds it "by decreasing the number of table entries and
    /// tag bits of TAGE" (footnote 6).
    #[must_use]
    pub fn budget_56kb() -> Self {
        Self {
            log_entries: vec![11, 11, 11, 11, 11, 10, 10, 10, 10, 10, 10, 10],
            tag_bits: vec![7, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 14],
            base_log_size: 13,
            ..Self::budget_64kb()
        }
    }

    /// A very large geometry standing in for the unlimited-storage
    /// MTAGE used in the paper's headroom study (Fig. 9).
    #[must_use]
    pub fn unlimited() -> Self {
        Self {
            min_history: 4,
            max_history: 3000,
            log_entries: vec![17; 18],
            tag_bits: vec![16; 18],
            counter_bits: 3,
            useful_bits: 2,
            base_log_size: 17,
            reset_period: 1 << 20,
        }
    }

    /// The geometric history length of tagged table `i`
    /// (`0 ≤ i < num_tables`), longest last.
    #[must_use]
    pub fn history_length(&self, i: usize) -> usize {
        let n = self.num_tables();
        if n == 1 {
            return self.min_history;
        }
        let ratio = (self.max_history as f64 / self.min_history as f64).powf(1.0 / (n - 1) as f64);
        let len = self.min_history as f64 * ratio.powi(i as i32);
        (len.round() as usize).max(self.min_history + i)
    }

    /// Number of tagged tables.
    #[must_use]
    pub fn num_tables(&self) -> usize {
        self.log_entries.len()
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics when table arrays disagree in length or lengths are
    /// non-geometric (max ≤ min).
    pub fn validate(&self) {
        assert_eq!(self.log_entries.len(), self.tag_bits.len());
        assert!(!self.log_entries.is_empty());
        assert!(self.max_history > self.min_history);
        assert!(self.min_history >= 2);
        assert!((1..=7).contains(&self.counter_bits));
    }
}

/// One tagged-table entry.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct TageEntry {
    tag: u16,
    ctr: SaturatingCounter,
    useful: UnsignedCounter,
}

/// Everything a TAGE lookup produces; passed back to
/// [`Tage::train`] so no hidden state links the two calls.
#[derive(Debug, Clone, Copy)]
pub struct TagePrediction {
    /// Final TAGE direction (after the alt-on-weak policy).
    pub taken: bool,
    /// Direction from the provider component alone.
    pub provider_taken: bool,
    /// Alternate prediction (next-longest match, or base).
    pub alt_taken: bool,
    /// Index of the providing tagged table; `None` = base bimodal.
    pub provider: Option<usize>,
    /// Provider counter value (bimodal ±1 when provider is base).
    pub provider_ctr: i8,
    /// Whether the provider entry was weak (low confidence).
    pub weak: bool,
    /// Per-table indices computed at lookup time.
    indices: [u32; Tage::MAX_TABLES],
    /// Per-table tags computed at lookup time.
    tags: [u16; Tage::MAX_TABLES],
}

impl TagePrediction {
    /// A confidence proxy in `[0, 3]`: the absolute provider counter
    /// distance from its weak boundary, clamped.
    #[must_use]
    pub fn confidence(&self) -> u8 {
        let c = if self.provider_ctr >= 0 { self.provider_ctr } else { -self.provider_ctr - 1 };
        c.clamp(0, 3) as u8
    }
}

/// The TAGE predictor.
#[derive(Debug, Clone)]
pub struct Tage {
    config: TageConfig,
    base: Bimodal,
    tables: Vec<Vec<TageEntry>>,
    hist_lens: Vec<usize>,
    folds: FoldBank,
    path: PathHistory,
    use_alt_on_weak: SaturatingCounter,
    updates: u64,
    aging_flip: bool,
    lfsr: u32,
}

impl Tage {
    /// Upper bound on tagged tables supported by the fixed-size lookup
    /// scratch in [`TagePrediction`].
    pub const MAX_TABLES: usize = 24;

    /// Builds a TAGE predictor from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`TageConfig::validate`]) or has more than
    /// [`Self::MAX_TABLES`] tables.
    #[must_use]
    pub fn new(config: &TageConfig) -> Self {
        config.validate();
        assert!(config.num_tables() <= Self::MAX_TABLES);
        let n = config.num_tables();
        let hist_lens: Vec<usize> = (0..n).map(|i| config.history_length(i)).collect();
        let tables = (0..n)
            .map(|i| {
                vec![
                    TageEntry {
                        tag: 0,
                        ctr: SaturatingCounter::new(config.counter_bits),
                        useful: UnsignedCounter::new(config.useful_bits),
                    };
                    1 << config.log_entries[i]
                ]
            })
            .collect();
        let folds = FoldBank::new(
            config.max_history + 1,
            (0..n).map(|i| (hist_lens[i], config.log_entries[i], config.tag_bits[i])),
        );
        Self {
            base: Bimodal::new(config.base_log_size, 2),
            tables,
            hist_lens,
            folds,
            path: PathHistory::new(),
            use_alt_on_weak: SaturatingCounter::new(4),
            updates: 0,
            aging_flip: false,
            lfsr: 0xACE1,
            config: config.clone(),
        }
    }

    /// The configured geometric history lengths, shortest first.
    #[must_use]
    pub fn history_lengths(&self) -> &[usize] {
        &self.hist_lens
    }

    fn index(&self, pc: u64, table: usize) -> u32 {
        let log = self.config.log_entries[table];
        let fold = self.folds.index_fold(table);
        let path = self.path.low_bits(log.min(16));
        let v = (pc >> 2) ^ (pc >> (log as u64 + 2)) ^ fold ^ (path << 1) ^ (path >> 2);
        (v & ((1u64 << log) - 1)) as u32
    }

    fn tag(&self, pc: u64, table: usize) -> u16 {
        let bits = self.config.tag_bits[table];
        let v = (pc >> 2) ^ self.folds.tag_fold(table);
        (v & ((1u64 << bits) - 1)) as u16
    }

    fn lfsr_next(&mut self) -> u32 {
        // 16-bit Galois LFSR for allocation randomization.
        let lsb = self.lfsr & 1;
        self.lfsr >>= 1;
        if lsb != 0 {
            self.lfsr ^= 0xB400;
        }
        self.lfsr
    }

    /// Looks up a prediction for the branch at `pc`. The returned
    /// [`TagePrediction`] must be passed to [`train`](Self::train)
    /// before any other lookup is trained for correct index reuse.
    #[must_use]
    pub fn lookup(&self, pc: u64) -> TagePrediction {
        let n = self.config.num_tables();
        let mut indices = [0u32; Self::MAX_TABLES];
        let mut tags = [0u16; Self::MAX_TABLES];
        for t in 0..n {
            indices[t] = self.index(pc, t);
            tags[t] = self.tag(pc, t);
        }
        // Find the two longest matches.
        let mut provider = None;
        let mut alt = None;
        for t in (0..n).rev() {
            if self.tables[t][indices[t] as usize].tag == tags[t] {
                if provider.is_none() {
                    provider = Some(t);
                } else {
                    alt = Some(t);
                    break;
                }
            }
        }
        let base_taken = self.base.lookup(pc);
        let (provider_taken, provider_ctr, weak) = match provider {
            Some(t) => {
                let e = &self.tables[t][indices[t] as usize];
                (e.ctr.is_taken(), e.ctr.value(), e.ctr.is_weak())
            }
            None => (base_taken, if base_taken { 1 } else { -1 }, self.base.is_weak(pc)),
        };
        let alt_taken = match alt {
            Some(t) => self.tables[t][indices[t] as usize].ctr.is_taken(),
            None => base_taken,
        };
        // Newly-allocated (weak) providers are often wrong; a global
        // counter decides whether to trust the alternate instead.
        let use_alt = provider.is_some() && weak && self.use_alt_on_weak.is_taken();
        let taken = if use_alt { alt_taken } else { provider_taken };
        TagePrediction {
            taken,
            provider_taken,
            alt_taken,
            provider,
            provider_ctr,
            weak,
            indices,
            tags,
        }
    }

    /// Trains TAGE on a resolved branch given the lookup it predicted
    /// with, then advances all histories.
    pub fn train(&mut self, record: &BranchRecord, pred: &TagePrediction) {
        let taken = record.taken;
        let n = self.config.num_tables();

        // --- allocation on misprediction ---
        if pred.taken != taken {
            let start = pred.provider.map_or(0, |p| p + 1);
            if start < n {
                // Choose up to one new entry among tables with u == 0,
                // starting from a randomized offset (Seznec's trick to
                // spread allocations).
                let span = n - start;
                let mut offset = 0usize;
                if span > 1 {
                    let r = self.lfsr_next() as usize;
                    // Bias toward the shortest eligible table.
                    offset = if r.is_multiple_of(4) {
                        1.min(span - 1)
                    } else if r % 16 == 1 {
                        2.min(span - 1)
                    } else {
                        0
                    };
                }
                let mut allocated = false;
                for t in (start + offset)..n {
                    let idx = pred.indices[t] as usize;
                    if self.tables[t][idx].useful.is_zero() {
                        self.tables[t][idx].tag = pred.tags[t];
                        self.tables[t][idx].ctr.reset(taken);
                        allocated = true;
                        break;
                    }
                }
                if !allocated {
                    // Decay resistance: make room next time.
                    for t in start..n {
                        let idx = pred.indices[t] as usize;
                        self.tables[t][idx].useful.decrement();
                    }
                }
            }
        }

        // --- provider / alt / base counter updates ---
        match pred.provider {
            Some(t) => {
                let idx = pred.indices[t] as usize;
                // The use-alt-on-weak policy counter trains whenever the
                // provider was weak and provider/alt disagreed.
                if pred.weak && pred.provider_taken != pred.alt_taken {
                    self.use_alt_on_weak.update(pred.alt_taken == taken);
                }
                self.tables[t][idx].ctr.update(taken);
                // Update the alternate provider too when the provider
                // entry is still unconfident (helps warm-up).
                if pred.weak {
                    match self.alt_table_of(pred, t) {
                        Some(at) => {
                            let aidx = pred.indices[at] as usize;
                            self.tables[at][aidx].ctr.update(taken);
                        }
                        None => self.base.train(record.pc, taken),
                    }
                }
                // Useful-bit update when provider and alt disagree.
                if pred.provider_taken != pred.alt_taken {
                    if pred.provider_taken == taken {
                        self.tables[t][idx].useful.increment();
                    } else {
                        self.tables[t][idx].useful.decrement();
                    }
                }
            }
            None => {
                self.base.train(record.pc, taken);
            }
        }

        // --- periodic useful aging ---
        self.updates += 1;
        if self.updates.is_multiple_of(self.config.reset_period) {
            self.aging_flip = !self.aging_flip;
            for table in &mut self.tables {
                for e in table.iter_mut() {
                    e.useful.age();
                }
            }
        }

        self.shift_histories(record);
    }

    /// Finds the alternate-provider table index recorded in `pred`
    /// below provider `t`, if any tagged table matched.
    fn alt_table_of(&self, pred: &TagePrediction, t: usize) -> Option<usize> {
        (0..t).rev().find(|&a| self.tables[a][pred.indices[a] as usize].tag == pred.tags[a])
    }

    /// Advances direction, path, and folded histories by one branch.
    fn shift_histories(&mut self, record: &BranchRecord) {
        self.folds.push(record.taken);
        self.path.push(record.pc >> 2);
    }

    /// Advances path history for non-conditional control flow.
    pub fn note_control_flow(&mut self, record: &BranchRecord) {
        self.path.push(record.pc >> 2);
    }

    /// Read access to the direction history (used by SC components).
    #[must_use]
    pub fn global_history(&self) -> &GlobalHistory {
        self.folds.history()
    }

    /// Modeled storage in bits.
    #[must_use]
    pub fn storage_bits_internal(&self) -> u64 {
        let mut bits = self.base.storage_bits();
        for (t, table) in self.tables.iter().enumerate() {
            let entry_bits = u64::from(
                self.config.tag_bits[t] + self.config.counter_bits + self.config.useful_bits,
            );
            bits += table.len() as u64 * entry_bits;
        }
        bits + self.config.max_history as u64 + 4 + 16
    }
}

/// Standalone-TAGE trait adapter. Stashes the last lookup internally;
/// [`TageScL`](crate::tagescl::TageScL) uses [`Tage::lookup`] /
/// [`Tage::train`] directly instead.
#[derive(Debug, Clone)]
pub struct TageStandalone {
    tage: Tage,
    last: Option<TagePrediction>,
}

impl TageStandalone {
    /// Wraps a [`Tage`] for [`Predictor`]-trait use.
    #[must_use]
    pub fn new(config: &TageConfig) -> Self {
        Self { tage: Tage::new(config), last: None }
    }
}

impl Predictor for TageStandalone {
    fn predict(&mut self, pc: u64) -> bool {
        let p = self.tage.lookup(pc);
        let taken = p.taken;
        self.last = Some(p);
        taken
    }

    fn update(&mut self, record: &BranchRecord, _predicted: bool) {
        let pred = self.last.take().unwrap_or_else(|| self.tage.lookup(record.pc));
        self.tage.train(record, &pred);
    }

    fn note_unconditional(&mut self, record: &BranchRecord) {
        self.tage.note_control_flow(record);
    }

    fn flush(&mut self) {
        self.tage.flush();
        self.last = None;
    }

    fn name(&self) -> &'static str {
        "tage"
    }

    fn storage_bits(&self) -> u64 {
        self.tage.storage_bits_internal()
    }
}

impl Predictor for Tage {
    fn predict(&mut self, pc: u64) -> bool {
        self.lookup(pc).taken
    }

    fn update(&mut self, record: &BranchRecord, _predicted: bool) {
        let pred = self.lookup(record.pc);
        self.train(record, &pred);
    }

    fn note_unconditional(&mut self, record: &BranchRecord) {
        self.note_control_flow(record);
    }

    fn flush(&mut self) {
        let config = self.config.clone();
        *self = Self::new(&config);
    }

    fn name(&self) -> &'static str {
        "tage-core"
    }

    fn storage_bits(&self) -> u64 {
        self.storage_bits_internal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::Predictor;
    use branchnet_trace::{run_one as evaluate, Trace};

    fn small_config() -> TageConfig {
        TageConfig {
            min_history: 4,
            max_history: 128,
            log_entries: vec![8, 8, 8, 8, 8, 8],
            tag_bits: vec![8, 9, 9, 10, 10, 11],
            counter_bits: 3,
            useful_bits: 2,
            base_log_size: 10,
            reset_period: 1 << 14,
        }
    }

    #[test]
    fn history_lengths_are_geometric_and_increasing() {
        let cfg = TageConfig::budget_64kb();
        let lens: Vec<usize> = (0..cfg.num_tables()).map(|i| cfg.history_length(i)).collect();
        assert_eq!(lens[0], cfg.min_history);
        assert!(lens.windows(2).all(|w| w[0] < w[1]), "{lens:?}");
        assert_eq!(*lens.last().unwrap(), cfg.max_history);
    }

    #[test]
    fn learns_pattern_beyond_bimodal() {
        let pattern = [true, true, true, false, false, true, false, false];
        let trace: Trace =
            (0..4000).map(|i| BranchRecord::conditional(0x40, pattern[i % 8])).collect();
        let stats = evaluate(&mut TageStandalone::new(&small_config()), &trace);
        assert!(stats.accuracy() > 0.95, "accuracy {}", stats.accuracy());
    }

    #[test]
    fn learns_correlated_branch_in_short_clean_history() {
        // Branch 0x900 copies branch 0x100's direction 3 branches back.
        let mut seed = 7u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 40).is_multiple_of(2)
        };
        let mut trace = Trace::new();
        for _ in 0..6000 {
            let k = rng();
            trace.push(BranchRecord::conditional(0x100, k));
            trace.push(BranchRecord::conditional(0x200, true));
            trace.push(BranchRecord::conditional(0x300, false));
            trace.push(BranchRecord::conditional(0x900, k));
        }
        let stats = evaluate(&mut TageStandalone::new(&small_config()), &trace);
        // 0x100 is unpredictable (50%), the rest should be ~perfect:
        // overall accuracy approaches 7/8 plus warm-up noise.
        assert!(stats.accuracy() > 0.82, "accuracy {}", stats.accuracy());
    }

    #[test]
    fn budget_64kb_fits_64_kilobytes() {
        let t = TageStandalone::new(&TageConfig::budget_64kb());
        let bits = t.storage_bits();
        assert!(bits <= 64 * 1024 * 8, "TAGE alone must fit in 64KB, got {} bits", bits);
        // And it should be a substantial predictor, not a toy.
        assert!(bits >= 40 * 1024 * 8);
    }

    #[test]
    fn budget_56kb_is_smaller_than_64kb() {
        let a = TageStandalone::new(&TageConfig::budget_64kb()).storage_bits();
        let b = TageStandalone::new(&TageConfig::budget_56kb()).storage_bits();
        assert!(b < a);
    }

    #[test]
    fn lookup_is_pure() {
        let t = Tage::new(&small_config());
        let a = t.lookup(0x1234);
        let b = t.lookup(0x1234);
        assert_eq!(a.taken, b.taken);
        assert_eq!(a.provider, b.provider);
        assert_eq!(a.indices[..3], b.indices[..3]);
    }

    #[test]
    fn trains_without_prior_lookup_state() {
        // The Predictor impl must tolerate update-after-predict pairs
        // arbitrarily interleaved across PCs per the trait contract.
        let mut t = Tage::new(&small_config());
        for i in 0..100u64 {
            let r = BranchRecord::conditional(0x40 + (i % 4) * 8, i % 3 == 0);
            let p = t.predict(r.pc);
            t.update(&r, p);
        }
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn invalid_config_rejected() {
        let mut cfg = small_config();
        cfg.tag_bits.pop();
        let _ = Tage::new(&cfg);
    }
}
