//! O-GEHL: the Optimized GEometric History Length predictor (Seznec,
//! CBP-1 / ISCA 2005) — the geometric-history ancestor of TAGE's
//! statistical corrector. Several small counter tables, each indexed
//! by a hash of the PC and a *geometrically growing* slice of global
//! history, vote through an adder tree; training is gated by an
//! adaptive confidence threshold.
//!
//! Next to [`crate::HashedPerceptron`] this is the
//! narrower-counter, adaptive-threshold original: 5-bit saturating
//! counters instead of bytes, and a dynamically tuned θ instead of
//! the fixed Jiménez formula.

use crate::predictor::Predictor;
use branchnet_trace::{BranchRecord, GlobalHistory};

/// Saturation bound for the 5-bit signed counters (`[-16, 15]`).
const COUNTER_MAX: i32 = 15;
const COUNTER_MIN: i32 = -16;
/// Saturation bound for the adaptive-threshold counter.
const TC_SAT: i32 = 32;

/// O-GEHL predictor with an adder tree over geometric history lengths
/// and Seznec's adaptive update threshold.
#[derive(Debug, Clone)]
pub struct OGehl {
    tables: Vec<Vec<i8>>, // one 5-bit counter table per history length
    lengths: Vec<usize>,
    history: GlobalHistory,
    threshold: i32,
    tc: i32, // adaptive-threshold counter
    log_table: u32,
    last_sum: i32,
    /// Per-table counter indices of the last `predict`, for `indexed`.
    indices: Vec<usize>,
    /// The pc `indices` belong to; history has not moved since.
    indexed: Option<u64>,
}

impl OGehl {
    /// Creates an O-GEHL predictor with one `2^log_table`-entry counter
    /// table per entry of `lengths` (geometric history lengths; a
    /// length of 0 is the bias table).
    ///
    /// # Panics
    ///
    /// Panics if `lengths` is empty or `log_table` not in `1..=24`.
    #[must_use]
    pub fn new(log_table: u32, lengths: &[usize]) -> Self {
        assert!(!lengths.is_empty());
        assert!((1..=24).contains(&log_table));
        let max_len = lengths.iter().copied().max().unwrap_or(1).max(1);
        Self {
            tables: vec![vec![0i8; 1 << log_table]; lengths.len()],
            lengths: lengths.to_vec(),
            history: GlobalHistory::new(max_len),
            // Seznec initializes θ near the table count; the adaptive
            // loop takes it from there.
            threshold: lengths.len() as i32,
            tc: 0,
            log_table,
            last_sum: 0,
            indices: Vec::with_capacity(lengths.len()),
            indexed: None,
        }
    }

    /// The CBP-flavored 8-table geometric configuration used by
    /// experiments: lengths 0..200 with ratio ≈ 2.
    #[must_use]
    pub fn default_config() -> Self {
        Self::new(11, &[0, 3, 6, 12, 25, 50, 100, 200])
    }

    fn index(&self, pc: u64, len: usize) -> usize {
        // Distinct mixer from HashedPerceptron so the two baselines
        // don't alias on the same pathological traces.
        let mut h = (pc >> 2).wrapping_mul(0x2545_F491_4F6C_DD1D);
        for i in (0..len).step_by(64) {
            let chunk = (len - i).min(64);
            let bits = self.history.bits(i, chunk).reverse_bits() >> (64 - chunk);
            h ^= bits.wrapping_mul(0x94D0_49BB_1331_11EB).rotate_left((i % 61) as u32 + 1);
        }
        (h >> 13) as usize & ((1 << self.log_table) - 1)
    }

    /// The bit-at-a-time index [`index`](Self::index) must equal.
    #[cfg(test)]
    fn reference_index(&self, pc: u64, len: usize) -> usize {
        let mut h = (pc >> 2).wrapping_mul(0x2545_F491_4F6C_DD1D);
        let mut i = 0;
        while i < len {
            let chunk = len.min(i + 64) - i;
            let mut bits = 0u64;
            for j in 0..chunk {
                bits = (bits << 1) | u64::from(self.history.bit(i + j));
            }
            h ^= bits.wrapping_mul(0x94D0_49BB_1331_11EB).rotate_left((i % 61) as u32 + 1);
            i += 64;
        }
        (h >> 13) as usize & ((1 << self.log_table) - 1)
    }

    /// Fills `indices` with every table's counter index for `pc`.
    fn index_all(&mut self, pc: u64) {
        let mut indices = std::mem::take(&mut self.indices);
        indices.clear();
        indices.extend(self.lengths.iter().map(|&len| self.index(pc, len)));
        self.indices = indices;
        self.indexed = Some(pc);
    }
}

impl Predictor for OGehl {
    fn predict(&mut self, pc: u64) -> bool {
        // The adder tree over every table's counter.
        self.index_all(pc);
        self.last_sum = self.tables.iter().zip(&self.indices).map(|(t, &i)| i32::from(t[i])).sum();
        self.last_sum >= 0
    }

    fn update(&mut self, record: &BranchRecord, predicted: bool) {
        let mispredicted = predicted != record.taken;
        if mispredicted || self.last_sum.abs() <= self.threshold {
            let step = if record.taken { 1i32 } else { -1 };
            if self.indexed != Some(record.pc) {
                self.index_all(record.pc);
            }
            for (table, &idx) in self.tables.iter_mut().zip(&self.indices) {
                table[idx] = (i32::from(table[idx]) + step).clamp(COUNTER_MIN, COUNTER_MAX) as i8;
            }
            // Adaptive threshold fitting (Seznec): mispredictions push
            // θ up, low-confidence-but-correct updates pull it down,
            // dynamically balancing the two update populations.
            if mispredicted {
                self.tc += 1;
                if self.tc >= TC_SAT {
                    self.threshold += 1;
                    self.tc = 0;
                }
            } else {
                self.tc -= 1;
                if self.tc <= -TC_SAT {
                    self.threshold = (self.threshold - 1).max(1);
                    self.tc = 0;
                }
            }
        }
        self.indexed = None;
        self.history.push(record.taken);
    }

    fn flush(&mut self) {
        // Reconstruct to also reset θ and its counter.
        *self = Self::new(self.log_table, &std::mem::take(&mut self.lengths));
    }

    fn name(&self) -> &'static str {
        "o-gehl"
    }

    fn storage_bits(&self) -> u64 {
        self.tables.iter().map(|t| t.len() as u64 * 5).sum::<u64>() + self.history.capacity() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use branchnet_trace::{run_one as evaluate, Trace};

    #[test]
    fn learns_a_biased_branch_immediately() {
        let trace: Trace = (0..500).map(|_| BranchRecord::conditional(0x44, true)).collect();
        let stats = evaluate(&mut OGehl::default_config(), &trace);
        assert!(stats.mispredictions() <= 2.0);
    }

    #[test]
    fn learns_short_global_correlation() {
        // Branch 0x900 repeats the direction of 0x100 four branches
        // earlier — well inside every non-bias table's reach.
        let mut seed = 7u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            seed >> 60 > 7
        };
        let mut trace = Trace::new();
        for _ in 0..2000 {
            let k = rng();
            trace.push(BranchRecord::conditional(0x100, k));
            for j in 0..3u64 {
                trace.push(BranchRecord::conditional(0x200 + j * 8, j == 0));
            }
            trace.push(BranchRecord::conditional(0x900, k));
        }
        let stats = evaluate(&mut OGehl::default_config(), &trace);
        // 0x100 is a coin flip and 1 of 5 branches, so the ceiling is
        // ~0.9; clearing 0.88 means the other four are near-perfect.
        assert!(stats.accuracy() > 0.88, "accuracy {}", stats.accuracy());
    }

    #[test]
    fn threshold_adapts_but_stays_positive() {
        let mut p = OGehl::new(8, &[0, 2, 4]);
        let mut seed = 3u64;
        for i in 0..5000u64 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let r = BranchRecord::conditional(0x40 + (i % 7) * 4, seed >> 63 == 1);
            let predicted = p.predict(r.pc);
            p.update(&r, predicted);
        }
        assert!(p.threshold >= 1);
    }

    #[test]
    fn index_is_deterministic_and_in_range() {
        let p = OGehl::new(9, &[0, 8, 16]);
        for pc in [0u64, 4, 0xFFFF_FF00, u64::MAX] {
            for &len in &[0usize, 8, 16] {
                let a = p.index(pc, len);
                assert_eq!(a, p.index(pc, len));
                assert!(a < 512);
            }
        }
    }

    #[test]
    fn storage_counts_five_bit_counters() {
        let p = OGehl::new(10, &[0, 8, 16, 32]);
        assert_eq!(p.storage_bits(), 4 * 1024 * 5 + 32);
    }

    #[test]
    fn index_matches_reference() {
        // Segment reads of the packed history must give the bit loop's
        // value at every length, within and across 64-bit segments and
        // past the capacity, as the history's head wraps around.
        let mut p = OGehl::default_config();
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..1500 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            p.history.push(seed & 1 == 1);
            let lengths: Vec<usize> = if step % 97 == 0 {
                (0..=300).collect()
            } else {
                vec![0, 1, 3, 63, 64, 65, 128, 129, 200, 256, (seed >> 20) as usize % 300]
            };
            for len in lengths {
                for pc in [0x40, seed >> 3, u64::MAX] {
                    assert_eq!(
                        p.index(pc, len),
                        p.reference_index(pc, len),
                        "step {step}, len {len}"
                    );
                }
            }
        }
    }
}
