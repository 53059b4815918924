//! ITTAGE: indirect-target prediction with tagged geometric histories
//! (Seznec, "A 64-Kbytes ITTAGE indirect branch predictor").
//!
//! ITTAGE is TAGE's target-predicting sibling: the same cascade of
//! tagged tables indexed by geometrically growing folded histories,
//! but each entry stores a *full target address* plus a confidence
//! counter instead of a direction counter. The longest matching table
//! provides the target; usefulness-driven allocation steals entries in
//! longer tables on mispredictions. The base component is an untagged
//! last-target table, so ITTAGE strictly generalizes the BTB strawman:
//! monomorphic sites resolve in the base, history-correlated sites
//! (interpreter dispatch, megamorphic virtual calls) climb into the
//! tagged tables.
//!
//! Histories here are *mixed*: conditional branches contribute their
//! direction bit, direct control flow contributes a target-derived
//! bit, and indirect branches inject several bits of their resolved
//! target — which is exactly what lets a table recognize "the previous
//! dispatch went to handler X", the correlation a last-target table
//! cannot represent.

use crate::counters::UnsignedCounter;
use branchnet_trace::{
    fallthrough_target, BranchKind, BranchRecord, FoldedHistory, GlobalHistory, Lane, LastTarget,
    PathHistory, TargetPredictor, Targets,
};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Geometry and sizing knobs of an ITTAGE predictor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IttageConfig {
    /// Shortest tagged-table history length (in history bits).
    pub min_history: usize,
    /// Longest tagged-table history length.
    pub max_history: usize,
    /// Per-table log2 entry counts (also sets the number of tables).
    pub log_entries: Vec<u32>,
    /// Per-table tag widths in bits.
    pub tag_bits: Vec<u32>,
    /// Confidence-counter precision per tagged entry (2 in the
    /// reference).
    pub conf_bits: u32,
    /// Useful-counter precision per tagged entry (1 in the reference).
    pub useful_bits: u32,
    /// log2 entries of the untagged last-target base table.
    pub base_log_size: u32,
    /// Modeled stored-target width in bits. Simulation keeps full
    /// 64-bit targets; hardware stores a region-compressed partial
    /// target, which is what the storage model charges.
    pub target_bits: u32,
    /// Updates between useful-counter aging events.
    pub reset_period: u64,
}

impl IttageConfig {
    /// The ~64 KB reference geometry: 8 tagged tables of 512 entries
    /// over histories 6..640, plus a 4096-entry last-target base.
    #[must_use]
    pub fn budget_64kb() -> Self {
        Self {
            min_history: 6,
            max_history: 640,
            log_entries: vec![9, 9, 9, 9, 9, 9, 9, 9],
            tag_bits: vec![9, 10, 11, 11, 12, 12, 13, 14],
            conf_bits: 2,
            useful_bits: 1,
            base_log_size: 12,
            target_bits: 32,
            reset_period: 1 << 17,
        }
    }

    /// A shrunken geometry for unit tests: 4 tables of 256 entries.
    #[must_use]
    pub fn small() -> Self {
        Self {
            min_history: 5,
            max_history: 128,
            log_entries: vec![8, 8, 8, 8],
            tag_bits: vec![9, 10, 11, 12],
            conf_bits: 2,
            useful_bits: 1,
            base_log_size: 10,
            target_bits: 32,
            reset_period: 1 << 14,
        }
    }

    /// The geometric history length of tagged table `i`, longest last.
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

    /// Non-panicking validation, used by the untrusted-bytes loader.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn check(&self) -> Result<(), IttageConfigError> {
        if self.log_entries.len() != self.tag_bits.len() {
            return Err(IttageConfigError::Invalid("log_entries/tag_bits length mismatch"));
        }
        if self.log_entries.is_empty() {
            return Err(IttageConfigError::Invalid("no tagged tables"));
        }
        if self.num_tables() > Ittage::MAX_TABLES {
            return Err(IttageConfigError::Invalid("too many tagged tables"));
        }
        if self.max_history <= self.min_history {
            return Err(IttageConfigError::Invalid("max_history must exceed min_history"));
        }
        if self.min_history < 2 {
            return Err(IttageConfigError::Invalid("min_history must be at least 2"));
        }
        if self.max_history > 4096 {
            return Err(IttageConfigError::Invalid("max_history exceeds 4096"));
        }
        if !(1..=7).contains(&self.conf_bits) {
            return Err(IttageConfigError::Invalid("conf_bits must be in 1..=7"));
        }
        if !(1..=8).contains(&self.useful_bits) {
            return Err(IttageConfigError::Invalid("useful_bits must be in 1..=8"));
        }
        if self.log_entries.iter().any(|&l| !(2..=20).contains(&l)) {
            return Err(IttageConfigError::Invalid("log_entries must be in 2..=20"));
        }
        if self.tag_bits.iter().any(|&t| !(4..=16).contains(&t)) {
            return Err(IttageConfigError::Invalid("tag_bits must be in 4..=16"));
        }
        if !(2..=24).contains(&self.base_log_size) {
            return Err(IttageConfigError::Invalid("base_log_size must be in 2..=24"));
        }
        if !(8..=64).contains(&self.target_bits) {
            return Err(IttageConfigError::Invalid("target_bits must be in 8..=64"));
        }
        if self.reset_period == 0 {
            return Err(IttageConfigError::Invalid("reset_period must be nonzero"));
        }
        Ok(())
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on the first inconsistency (see
    /// [`IttageConfig::check`]).
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("invalid ITTAGE config: {e}");
        }
    }

    /// Serializes the configuration to the compact attachable wire
    /// form consumed by [`target_lane_or_fallback`]: magic, version,
    /// fixed fields, per-table geometry, and a trailing XOR checksum.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + 2 * self.num_tables());
        out.extend_from_slice(CONFIG_MAGIC);
        out.push(CONFIG_VERSION);
        out.extend_from_slice(&(self.min_history as u16).to_le_bytes());
        out.extend_from_slice(&(self.max_history as u16).to_le_bytes());
        out.push(self.conf_bits as u8);
        out.push(self.useful_bits as u8);
        out.push(self.base_log_size as u8);
        out.push(self.target_bits as u8);
        out.extend_from_slice(&self.reset_period.to_le_bytes());
        out.push(self.num_tables() as u8);
        for t in 0..self.num_tables() {
            out.push(self.log_entries[t] as u8);
            out.push(self.tag_bits[t] as u8);
        }
        let checksum = out.iter().fold(0u8, |a, &b| a ^ b);
        out.push(checksum);
        out
    }

    /// Deserializes and validates a configuration from untrusted
    /// bytes.
    ///
    /// # Errors
    ///
    /// Returns a typed [`IttageConfigError`] on truncation, a bad
    /// magic/version/checksum, or a semantically invalid geometry —
    /// never panics, whatever the bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IttageConfigError> {
        const HEADER: usize = 4 + 1 + 2 + 2 + 4 + 8 + 1;
        if bytes.len() < HEADER + 1 {
            return Err(IttageConfigError::TooShort);
        }
        if &bytes[..4] != CONFIG_MAGIC {
            return Err(IttageConfigError::BadMagic);
        }
        if bytes[4] != CONFIG_VERSION {
            return Err(IttageConfigError::BadVersion(bytes[4]));
        }
        let num_tables = bytes[HEADER - 1] as usize;
        let expect = HEADER + 2 * num_tables + 1;
        if bytes.len() != expect {
            return Err(IttageConfigError::TooShort);
        }
        let (body, tail) = bytes.split_at(expect - 1);
        let checksum = body.iter().fold(0u8, |a, &b| a ^ b);
        if tail[0] != checksum {
            return Err(IttageConfigError::BadChecksum);
        }
        let mut log_entries = Vec::with_capacity(num_tables);
        let mut tag_bits = Vec::with_capacity(num_tables);
        for t in 0..num_tables {
            log_entries.push(u32::from(bytes[HEADER + 2 * t]));
            tag_bits.push(u32::from(bytes[HEADER + 2 * t + 1]));
        }
        let config = Self {
            min_history: usize::from(u16::from_le_bytes([bytes[5], bytes[6]])),
            max_history: usize::from(u16::from_le_bytes([bytes[7], bytes[8]])),
            conf_bits: u32::from(bytes[9]),
            useful_bits: u32::from(bytes[10]),
            base_log_size: u32::from(bytes[11]),
            target_bits: u32::from(bytes[12]),
            reset_period: u64::from_le_bytes(bytes[13..21].try_into().expect("8 bytes")),
            log_entries,
            tag_bits,
        };
        config.check()?;
        Ok(config)
    }
}

const CONFIG_MAGIC: &[u8; 4] = b"ITCF";
const CONFIG_VERSION: u8 = 1;

/// Why an attachable ITTAGE configuration was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IttageConfigError {
    /// Fewer bytes than the fixed header + declared tables require.
    TooShort,
    /// The leading magic is not `ITCF`.
    BadMagic,
    /// Unknown wire version.
    BadVersion(u8),
    /// The trailing XOR checksum does not match.
    BadChecksum,
    /// Decoded fields describe an impossible geometry.
    Invalid(&'static str),
}

impl std::fmt::Display for IttageConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooShort => write!(f, "truncated ITTAGE config"),
            Self::BadMagic => write!(f, "bad ITTAGE config magic"),
            Self::BadVersion(v) => write!(f, "unsupported ITTAGE config version {v}"),
            Self::BadChecksum => write!(f, "ITTAGE config checksum mismatch"),
            Self::Invalid(why) => write!(f, "invalid ITTAGE geometry: {why}"),
        }
    }
}

impl std::error::Error for IttageConfigError {}

/// Process-wide count of attachable target configurations rejected by
/// [`target_lane_or_fallback`] — the target-lane analog of the pack
/// degradation counters, asserted exactly by the chaos suite.
static TARGET_CONFIG_REJECTED: AtomicU64 = AtomicU64::new(0);

/// Total rejected target configurations since process start.
#[must_use]
pub fn target_config_rejections() -> u64 {
    TARGET_CONFIG_REJECTED.load(Ordering::Relaxed)
}

/// Builds a target lane from untrusted configuration bytes. A valid
/// configuration yields an [`Ittage`]; anything else — truncation,
/// corruption, impossible geometry — degrades to the [`LastTarget`]
/// strawman (bit-identical to constructing it directly), returns the
/// rejection reason, and bumps [`target_config_rejections`] exactly
/// once.
#[must_use]
pub fn target_lane_or_fallback(bytes: &[u8]) -> (Box<dyn Lane>, Option<IttageConfigError>) {
    match IttageConfig::from_bytes(bytes) {
        Ok(config) => (Box::new(Targets(Ittage::new(&config))), None),
        Err(e) => {
            TARGET_CONFIG_REJECTED.fetch_add(1, Ordering::Relaxed);
            (Box::new(Targets(LastTarget::new())), Some(e))
        }
    }
}

/// One tagged-table entry: a tag, the stored target, a confidence
/// counter, and a useful counter.
#[derive(Debug, Clone, Copy)]
struct IttageEntry {
    tag: u16,
    target: u64,
    conf: UnsignedCounter,
    useful: UnsignedCounter,
}

/// Everything an ITTAGE lookup produces; passed back to
/// [`Ittage::train`] so no hidden state links the two calls.
#[derive(Debug, Clone, Copy)]
pub struct IttagePrediction {
    /// Final predicted target (after the alt-on-weak policy).
    pub target: u64,
    /// Target from the provider component alone.
    pub provider_target: u64,
    /// Alternate target (next-longest match, or base).
    pub alt_target: u64,
    /// Index of the providing tagged table; `None` = base table.
    pub provider: Option<usize>,
    /// Whether the provider entry had zero confidence.
    pub weak: bool,
    /// Per-table indices computed at lookup time.
    indices: [u32; Ittage::MAX_TABLES],
    /// Per-table tags computed at lookup time.
    tags: [u16; Ittage::MAX_TABLES],
}

/// The ITTAGE indirect-target predictor.
#[derive(Debug, Clone)]
pub struct Ittage {
    config: IttageConfig,
    /// Untagged last-target base table; 0 means empty (predict
    /// fallthrough).
    base: Vec<u64>,
    tables: Vec<Vec<IttageEntry>>,
    hist_lens: Vec<usize>,
    history: GlobalHistory,
    path: PathHistory,
    folded_index: Vec<FoldedHistory>,
    folded_tag: [Vec<FoldedHistory>; 2],
    updates: u64,
    lfsr: u32,
    last: Option<IttagePrediction>,
}

impl Ittage {
    /// Upper bound on tagged tables supported by the fixed-size lookup
    /// scratch in [`IttagePrediction`].
    pub const MAX_TABLES: usize = 16;

    /// Builds an ITTAGE predictor from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`IttageConfig::validate`]).
    #[must_use]
    pub fn new(config: &IttageConfig) -> Self {
        config.validate();
        let n = config.num_tables();
        let hist_lens: Vec<usize> = (0..n).map(|i| config.history_length(i)).collect();
        let tables = (0..n)
            .map(|i| {
                vec![
                    IttageEntry {
                        tag: 0,
                        target: 0,
                        conf: UnsignedCounter::new(config.conf_bits),
                        useful: UnsignedCounter::new(config.useful_bits),
                    };
                    1 << config.log_entries[i]
                ]
            })
            .collect();
        let folded_index = (0..n)
            .map(|i| FoldedHistory::new(hist_lens[i], config.log_entries[i] as usize))
            .collect();
        let folded_tag = [
            (0..n).map(|i| FoldedHistory::new(hist_lens[i], config.tag_bits[i] as usize)).collect(),
            (0..n)
                .map(|i| FoldedHistory::new(hist_lens[i], (config.tag_bits[i] as usize - 1).max(1)))
                .collect(),
        ];
        Self {
            base: vec![0; 1 << config.base_log_size],
            tables,
            hist_lens,
            history: GlobalHistory::new(config.max_history + 1),
            path: PathHistory::new(),
            folded_index,
            folded_tag,
            updates: 0,
            lfsr: 0xBEEF,
            last: None,
            config: config.clone(),
        }
    }

    /// The configured geometric history lengths, shortest first.
    #[must_use]
    pub fn history_lengths(&self) -> &[usize] {
        &self.hist_lens
    }

    fn base_index(&self, pc: u64) -> usize {
        ((pc >> 2) & ((1u64 << self.config.base_log_size) - 1)) as usize
    }

    fn base_target(&self, pc: u64) -> u64 {
        let stored = self.base[self.base_index(pc)];
        if stored == 0 {
            fallthrough_target(pc)
        } else {
            stored
        }
    }

    fn index(&self, pc: u64, table: usize) -> u32 {
        let log = self.config.log_entries[table];
        let fold = self.folded_index[table].value();
        let path = self.path.low_bits(log.min(16));
        let v = (pc >> 2) ^ (pc >> (log as u64 + 2)) ^ fold ^ (path << 1) ^ (path >> 2);
        (v & ((1u64 << log) - 1)) as u32
    }

    fn tag(&self, pc: u64, table: usize) -> u16 {
        let bits = self.config.tag_bits[table];
        let v = (pc >> 2)
            ^ self.folded_tag[0][table].value()
            ^ (self.folded_tag[1][table].value() << 1);
        (v & ((1u64 << bits) - 1)) as u16
    }

    fn lfsr_next(&mut self) -> u32 {
        let lsb = self.lfsr & 1;
        self.lfsr >>= 1;
        if lsb != 0 {
            self.lfsr ^= 0xB400;
        }
        self.lfsr
    }

    /// Looks up a target prediction for the indirect branch at `pc`.
    /// The returned [`IttagePrediction`] must be passed to
    /// [`train`](Self::train) before the histories advance.
    #[must_use]
    pub fn lookup(&self, pc: u64) -> IttagePrediction {
        let n = self.config.num_tables();
        let mut indices = [0u32; Self::MAX_TABLES];
        let mut tags = [0u16; Self::MAX_TABLES];
        for t in 0..n {
            indices[t] = self.index(pc, t);
            tags[t] = self.tag(pc, t);
        }
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
        let (provider_target, weak) = match provider {
            Some(t) => {
                let e = &self.tables[t][indices[t] as usize];
                (e.target, e.conf.is_zero())
            }
            None => (self.base_target(pc), false),
        };
        let alt_target = match alt {
            Some(t) => self.tables[t][indices[t] as usize].target,
            None => self.base_target(pc),
        };
        // A newly-allocated entry has not proven itself: trust the
        // alternate until its confidence counter leaves zero.
        let target = if provider.is_some() && weak { alt_target } else { provider_target };
        IttagePrediction { target, provider_target, alt_target, provider, weak, indices, tags }
    }

    /// Trains ITTAGE on a resolved indirect branch given the lookup it
    /// predicted with, then advances all histories.
    pub fn train(&mut self, record: &BranchRecord, pred: &IttagePrediction) {
        let actual = record.target;
        let n = self.config.num_tables();

        // --- allocation on misprediction ---
        if pred.target != actual {
            let start = pred.provider.map_or(0, |p| p + 1);
            if start < n {
                let span = n - start;
                let mut offset = 0usize;
                if span > 1 {
                    let r = self.lfsr_next() as usize;
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
                        let e = &mut self.tables[t][idx];
                        e.tag = pred.tags[t];
                        e.target = actual;
                        e.conf.reset();
                        allocated = true;
                        break;
                    }
                }
                if !allocated {
                    for t in start..n {
                        let idx = pred.indices[t] as usize;
                        self.tables[t][idx].useful.decrement();
                    }
                }
            }
        }

        // --- provider confidence / target / useful updates ---
        if let Some(t) = pred.provider {
            let idx = pred.indices[t] as usize;
            let e = &mut self.tables[t][idx];
            if e.target == actual {
                e.conf.increment();
            } else if e.conf.is_zero() {
                // Replace an unproven target in place rather than
                // waiting for reallocation.
                e.target = actual;
            } else {
                e.conf.decrement();
            }
            if pred.provider_target != pred.alt_target {
                if pred.provider_target == actual {
                    self.tables[t][idx].useful.increment();
                } else {
                    self.tables[t][idx].useful.decrement();
                }
            }
        }

        // The base component is a plain last-target table: it always
        // tracks the most recent resolved target.
        let bidx = self.base_index(record.pc);
        self.base[bidx] = actual;

        // --- periodic useful aging ---
        self.updates += 1;
        if self.updates.is_multiple_of(self.config.reset_period) {
            for table in &mut self.tables {
                for e in table.iter_mut() {
                    e.useful.age();
                }
            }
        }

        self.shift_histories(record);
    }

    /// Pushes one bit through the direction register and every folded
    /// history.
    fn push_history_bit(&mut self, bit: bool) {
        let n = self.config.num_tables();
        for t in 0..n {
            let len = self.hist_lens[t];
            let outgoing =
                if self.history.len() >= len { self.history.bit(len - 1) } else { false };
            self.folded_index[t].update(bit, outgoing);
            self.folded_tag[0][t].update(bit, outgoing);
            self.folded_tag[1][t].update(bit, outgoing);
        }
        self.history.push(bit);
    }

    /// Advances the mixed history by one record: a direction bit for
    /// conditional branches, a target-derived bit for direct control
    /// flow, and three folded target bits for indirect branches (the
    /// signal that identifies *which* handler the previous dispatch
    /// reached). The fold XORs target bits 2..14 down to three so any
    /// realistic handler spacing perturbs the history.
    pub fn note_record(&mut self, record: &BranchRecord) {
        let folded = (record.target >> 2)
            ^ (record.target >> 5)
            ^ (record.target >> 8)
            ^ (record.target >> 11);
        match record.kind {
            BranchKind::Conditional => self.push_history_bit(record.taken),
            BranchKind::Indirect => {
                for b in [0u32, 1, 2] {
                    self.push_history_bit((folded >> b) & 1 != 0);
                }
            }
            _ => self.push_history_bit(folded & 1 != 0),
        }
        self.path.push(record.pc >> 2);
    }

    fn shift_histories(&mut self, record: &BranchRecord) {
        self.note_record(record);
    }

    /// Modeled storage in bits: tagged entries charge tag +
    /// confidence + useful + partial target; the base charges one
    /// partial target per entry.
    #[must_use]
    pub fn storage_bits_internal(&self) -> u64 {
        let mut bits = (self.base.len() as u64) * u64::from(self.config.target_bits);
        for (t, table) in self.tables.iter().enumerate() {
            let entry_bits = u64::from(
                self.config.tag_bits[t]
                    + self.config.conf_bits
                    + self.config.useful_bits
                    + self.config.target_bits,
            );
            bits += table.len() as u64 * entry_bits;
        }
        bits + self.config.max_history as u64 + 16 + 16
    }
}

impl TargetPredictor for Ittage {
    fn predict_target(&mut self, pc: u64) -> u64 {
        let p = self.lookup(pc);
        let target = p.target;
        self.last = Some(p);
        target
    }

    fn update_target(&mut self, record: &BranchRecord, _predicted: u64) {
        let pred = self.last.take().unwrap_or_else(|| self.lookup(record.pc));
        self.train(record, &pred);
    }

    fn note_branch(&mut self, record: &BranchRecord) {
        self.note_record(record);
    }

    fn flush(&mut self) {
        let config = self.config.clone();
        *self = Self::new(&config);
    }

    fn name(&self) -> &'static str {
        "ittage-64kb"
    }

    fn storage_bits(&self) -> u64 {
        self.storage_bits_internal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use branchnet_trace::{run_one, Trace};

    fn indirect(pc: u64, target: u64) -> BranchRecord {
        BranchRecord::unconditional(pc, target, BranchKind::Indirect)
    }

    #[test]
    fn history_lengths_are_geometric_and_increasing() {
        let cfg = IttageConfig::budget_64kb();
        let lens: Vec<usize> = (0..cfg.num_tables()).map(|i| cfg.history_length(i)).collect();
        assert_eq!(lens[0], cfg.min_history);
        assert!(lens.windows(2).all(|w| w[0] < w[1]), "{lens:?}");
        assert_eq!(*lens.last().unwrap(), cfg.max_history);
    }

    #[test]
    fn monomorphic_site_resolves_in_the_base_table() {
        let t: Trace = (0..200).map(|_| indirect(0x40, 0x9000)).collect();
        let stats = run_one(&mut Targets(Ittage::new(&IttageConfig::small())), &t);
        // Only cold-start mispredictions; the base last-target table
        // nails the rest.
        assert!(stats.mispredictions() <= 2.0, "mispredictions {}", stats.mispredictions());
    }

    #[test]
    fn learns_a_target_cycle_last_target_cannot() {
        // Dispatch cycles through 4 targets; last-target is always one
        // step behind (0% after warmup), ITTAGE sees the previous
        // target in its history and locks on.
        let mut trace = Trace::new();
        for i in 0..6000u64 {
            trace.push(indirect(0xB00, 0x4000 + (i % 4) * 0x40));
        }
        let ittage = run_one(&mut Targets(Ittage::new(&IttageConfig::small())), &trace);
        let last = run_one(&mut Targets(LastTarget::new()), &trace);
        assert!(ittage.accuracy() > 0.9, "ittage accuracy {}", ittage.accuracy());
        assert!(last.accuracy() < 0.1, "last-target accuracy {}", last.accuracy());
    }

    #[test]
    fn budget_64kb_fits_64_kilobytes() {
        let p = Ittage::new(&IttageConfig::budget_64kb());
        let bits = p.storage_bits_internal();
        assert!(bits <= 64 * 1024 * 8, "ITTAGE must fit in 64KB, got {bits} bits");
        assert!(bits >= 20 * 1024 * 8, "not a toy: got {bits} bits");
    }

    #[test]
    fn lookup_is_pure() {
        let p = Ittage::new(&IttageConfig::small());
        let a = p.lookup(0x1234);
        let b = p.lookup(0x1234);
        assert_eq!(a.target, b.target);
        assert_eq!(a.provider, b.provider);
        assert_eq!(a.indices[..3], b.indices[..3]);
    }

    #[test]
    fn config_bytes_round_trip() {
        for cfg in [IttageConfig::budget_64kb(), IttageConfig::small()] {
            let bytes = cfg.to_bytes();
            assert_eq!(IttageConfig::from_bytes(&bytes).unwrap(), cfg);
        }
    }

    #[test]
    fn corrupt_config_bytes_are_typed_rejections() {
        let good = IttageConfig::budget_64kb().to_bytes();
        assert_eq!(IttageConfig::from_bytes(&[]), Err(IttageConfigError::TooShort));
        assert_eq!(
            IttageConfig::from_bytes(&good[..good.len() - 3]),
            Err(IttageConfigError::TooShort)
        );
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(IttageConfig::from_bytes(&bad_magic), Err(IttageConfigError::BadMagic));
        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert_eq!(IttageConfig::from_bytes(&bad_version), Err(IttageConfigError::BadVersion(99)));
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(matches!(
            IttageConfig::from_bytes(&flipped),
            Err(IttageConfigError::BadChecksum | IttageConfigError::TooShort)
        ));
    }

    #[test]
    fn fallback_lane_counts_rejections_and_matches_last_target() {
        let before = target_config_rejections();
        let (mut lane, err) = target_lane_or_fallback(b"garbage");
        assert!(err.is_some());
        assert_eq!(target_config_rejections(), before + 1);
        assert_eq!(lane.name(), "last-target");
        let trace: Trace = (0..100).map(|i| indirect(0x40, 0x9000 + (i % 3) * 64)).collect();
        let degraded = run_one(lane.as_mut(), &trace);
        let direct = run_one(&mut Targets(LastTarget::new()), &trace);
        assert_eq!(degraded, direct, "fallback must be bit-identical to LastTarget");
    }

    #[test]
    fn valid_config_bytes_build_ittage_without_counting() {
        let before = target_config_rejections();
        let (lane, err) = target_lane_or_fallback(&IttageConfig::small().to_bytes());
        assert!(err.is_none());
        assert_eq!(lane.name(), "ittage-64kb");
        assert_eq!(target_config_rejections(), before);
    }
}
