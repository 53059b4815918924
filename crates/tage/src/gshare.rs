//! gshare: global-history-XOR-PC indexed counters (McFarling).
//!
//! Used in this workspace both as a comparison point and as the
//! single-cycle *early* predictor of the two-tier frontend the paper
//! simulates (Section VI-A: "a 4KB gshare predictor as the single-cycle
//! lightweight predictor").

use crate::counters::SaturatingCounter;
use crate::predictor::Predictor;
use branchnet_trace::{BranchRecord, GlobalHistory};

/// gshare predictor with `2^log_size` 2-bit counters and
/// `history_bits` of global history.
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<SaturatingCounter>,
    history: GlobalHistory,
    history_bits: usize,
    mask: u64,
    /// The last `predict`'s `(pc, index)`; history has not moved since.
    indexed: Option<(u64, usize)>,
}

impl Gshare {
    /// Creates a gshare with `2^log_size` counters XOR-indexed with
    /// `history_bits` bits of global history.
    ///
    /// # Panics
    ///
    /// Panics if `log_size` is not in `1..=30` or `history_bits > 64`.
    #[must_use]
    pub fn new(log_size: u32, history_bits: usize) -> Self {
        assert!((1..=30).contains(&log_size));
        assert!(history_bits <= 64);
        let size = 1usize << log_size;
        Self {
            table: vec![SaturatingCounter::new(2); size],
            history: GlobalHistory::new(history_bits.max(1)),
            history_bits,
            mask: (size - 1) as u64,
            indexed: None,
        }
    }

    fn index(&self, pc: u64) -> usize {
        let h = self.history.low_bits(self.history_bits);
        (((pc >> 2) ^ h) & self.mask) as usize
    }
}

impl Predictor for Gshare {
    fn predict(&mut self, pc: u64) -> bool {
        let idx = self.index(pc);
        self.indexed = Some((pc, idx));
        self.table[idx].is_taken()
    }

    fn update(&mut self, record: &BranchRecord, _predicted: bool) {
        let idx = match self.indexed.take() {
            Some((pc, idx)) if pc == record.pc => idx,
            _ => self.index(record.pc),
        };
        self.table[idx].update(record.taken);
        self.history.push(record.taken);
    }

    fn flush(&mut self) {
        *self = Self::new(self.table.len().trailing_zeros(), self.history_bits);
    }

    fn name(&self) -> &'static str {
        "gshare"
    }

    fn storage_bits(&self) -> u64 {
        self.table.len() as u64 * 2 + self.history_bits as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bimodal::Bimodal;
    use branchnet_trace::{run_one as evaluate, Trace};

    /// gshare learns short-period patterns that bimodal cannot.
    #[test]
    fn beats_bimodal_on_alternating_branch() {
        let trace: Trace = (0..400).map(|i| BranchRecord::conditional(0x40, i % 2 == 0)).collect();
        let gshare = evaluate(&mut Gshare::new(12, 8), &trace);
        let bimodal = evaluate(&mut Bimodal::new(12, 2), &trace);
        assert!(gshare.accuracy() > 0.95);
        assert!(bimodal.accuracy() < 0.7);
    }

    #[test]
    fn learns_short_loop_exits() {
        let trace: Trace = (0..1000).map(|i| BranchRecord::conditional(0x40, i % 5 != 4)).collect();
        let stats = evaluate(&mut Gshare::new(12, 10), &trace);
        assert!(stats.accuracy() > 0.95, "accuracy {}", stats.accuracy());
    }

    #[test]
    fn four_kb_budget_config() {
        // The paper's early predictor: 4 KB => 2^14 two-bit counters.
        let g = Gshare::new(14, 12);
        assert!(g.storage_bits() <= 4 * 1024 * 8 + 64);
    }
}
