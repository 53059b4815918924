//! Perceptron branch predictors (Jiménez & Lin) and the hashed
//! perceptron variant (Tarjan & Skadron), discussed in Section II-A of
//! the paper as the other family of state-of-the-art runtime
//! predictors.

use crate::predictor::Predictor;
use branchnet_trace::{BranchRecord, GlobalHistory};

/// The classic global-history perceptron: one weight per history bit
/// position, per PC-indexed table row.
#[derive(Debug, Clone)]
pub struct Perceptron {
    weights: Vec<Vec<i16>>, // [row][history position + bias]
    history: GlobalHistory,
    history_bits: usize,
    threshold: i32,
    weight_max: i16,
    mask: u64,
    last_sum: i32,
}

impl Perceptron {
    /// Creates a perceptron predictor with `2^log_rows` weight rows
    /// over `history_bits` of global history.
    ///
    /// # Panics
    ///
    /// Panics if `log_rows` is not in `1..=24` or `history_bits == 0`.
    #[must_use]
    pub fn new(log_rows: u32, history_bits: usize) -> Self {
        assert!((1..=24).contains(&log_rows));
        assert!(history_bits > 0);
        let rows = 1usize << log_rows;
        // Jiménez's empirically-derived training threshold.
        let threshold = (1.93 * history_bits as f64 + 14.0) as i32;
        Self {
            weights: vec![vec![0i16; history_bits + 1]; rows],
            history: GlobalHistory::new(history_bits),
            history_bits,
            threshold,
            weight_max: 127,
            mask: (rows - 1) as u64,
            last_sum: 0,
        }
    }

    fn row(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }

    fn dot(&self, pc: u64) -> i32 {
        let w = &self.weights[self.row(pc)];
        let mut sum = i32::from(w[0]); // bias weight
        for (chunk, ws) in w[1..].chunks(64).enumerate() {
            let bits = self.history.bits(64 * chunk, ws.len());
            for (j, &wj) in ws.iter().enumerate() {
                let x = if bits >> j & 1 != 0 { 1 } else { -1 };
                sum += i32::from(wj) * x;
            }
        }
        sum
    }
}

impl Predictor for Perceptron {
    fn predict(&mut self, pc: u64) -> bool {
        self.last_sum = self.dot(pc);
        self.last_sum >= 0
    }

    fn update(&mut self, record: &BranchRecord, predicted: bool) {
        let t = if record.taken { 1i32 } else { -1 };
        if predicted != record.taken || self.last_sum.abs() <= self.threshold {
            let row = self.row(record.pc);
            let (lo, hi) = (-i32::from(self.weight_max) - 1, i32::from(self.weight_max));
            let w = &mut self.weights[row];
            w[0] = (i32::from(w[0]) + t).clamp(lo, hi) as i16;
            for (chunk, ws) in w[1..].chunks_mut(64).enumerate() {
                let bits = self.history.bits(64 * chunk, ws.len());
                for (j, wj) in ws.iter_mut().enumerate() {
                    let x = if bits >> j & 1 != 0 { 1 } else { -1 };
                    *wj = (i32::from(*wj) + t * x).clamp(lo, hi) as i16;
                }
            }
        }
        self.history.push(record.taken);
    }

    fn flush(&mut self) {
        *self = Self::new(self.weights.len().trailing_zeros(), self.history_bits);
    }

    fn name(&self) -> &'static str {
        "perceptron"
    }

    fn storage_bits(&self) -> u64 {
        (self.weights.len() * (self.history_bits + 1) * 8) as u64 + self.history_bits as u64
    }
}

/// Hashed perceptron: weights are indexed by hashes of (PC, history
/// segment) for several geometric history lengths, mitigating the
/// positional fragility of the classic perceptron (Section II-A).
#[derive(Debug, Clone)]
pub struct HashedPerceptron {
    tables: Vec<Vec<i16>>, // one weight table per history length
    lengths: Vec<usize>,
    history: GlobalHistory,
    threshold: i32,
    tc: i32, // adaptive-threshold counter
    weight_max: i16,
    log_table: u32,
    last_sum: i32,
    /// Per-table weight indices of the last `predict`, for `indexed`.
    indices: Vec<usize>,
    /// The pc `indices` belong to; history has not moved since.
    indexed: Option<u64>,
}

impl HashedPerceptron {
    /// Creates a hashed perceptron with one `2^log_table`-entry weight
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
            tables: vec![vec![0i16; 1 << log_table]; lengths.len()],
            lengths: lengths.to_vec(),
            history: GlobalHistory::new(max_len),
            threshold: (1.93 * lengths.len() as f64 * 8.0 + 14.0) as i32,
            tc: 0,
            weight_max: 127,
            log_table,
            last_sum: 0,
            indices: Vec::with_capacity(lengths.len()),
            indexed: None,
        }
    }

    /// Default geometric configuration used by experiments.
    #[must_use]
    pub fn default_config() -> Self {
        Self::new(12, &[0, 4, 8, 16, 32, 64, 128, 256])
    }

    fn hash(&self, pc: u64, len: usize) -> usize {
        let mut h = (pc >> 2).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Fold `len` history bits into the hash, 64 at a time, oldest
        // bit of each segment lowest.
        for i in (0..len).step_by(64) {
            let chunk = (len - i).min(64);
            let bits = self.history.bits(i, chunk).reverse_bits() >> (64 - chunk);
            h ^= bits.wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left((i % 63) as u32);
        }
        (h >> 16) as usize & ((1 << self.log_table) - 1)
    }

    /// The bit-at-a-time hash [`hash`](Self::hash) must equal.
    #[cfg(test)]
    fn reference_hash(&self, pc: u64, len: usize) -> usize {
        let mut h = (pc >> 2).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut i = 0;
        while i < len {
            let chunk = len.min(i + 64) - i;
            let mut bits = 0u64;
            for j in 0..chunk {
                bits = (bits << 1) | u64::from(self.history.bit(i + j));
            }
            h ^= bits.wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left((i % 63) as u32);
            i += 64;
        }
        (h >> 16) as usize & ((1 << self.log_table) - 1)
    }

    /// Fills `indices` with every table's weight index for `pc`.
    fn index_all(&mut self, pc: u64) {
        let mut indices = std::mem::take(&mut self.indices);
        indices.clear();
        indices.extend(self.lengths.iter().map(|&len| self.hash(pc, len)));
        self.indices = indices;
        self.indexed = Some(pc);
    }
}

impl Predictor for HashedPerceptron {
    fn predict(&mut self, pc: u64) -> bool {
        self.index_all(pc);
        self.last_sum = self.tables.iter().zip(&self.indices).map(|(t, &i)| i32::from(t[i])).sum();
        self.last_sum >= 0
    }

    fn update(&mut self, record: &BranchRecord, predicted: bool) {
        let mispredicted = predicted != record.taken;
        if mispredicted || self.last_sum.abs() <= self.threshold {
            let t = if record.taken { 1i32 } else { -1 };
            if self.indexed != Some(record.pc) {
                self.index_all(record.pc);
            }
            for (table, &idx) in self.tables.iter_mut().zip(&self.indices) {
                table[idx] = {
                    let v = i32::from(table[idx]) + t;
                    v.clamp(-i32::from(self.weight_max) - 1, i32::from(self.weight_max)) as i16
                };
            }
            // Seznec-style adaptive threshold.
            if mispredicted {
                self.tc += 1;
                if self.tc >= 32 {
                    self.threshold += 1;
                    self.tc = 0;
                }
            } else {
                self.tc -= 1;
                if self.tc <= -32 {
                    self.threshold = (self.threshold - 1).max(4);
                    self.tc = 0;
                }
            }
        }
        self.indexed = None;
        self.history.push(record.taken);
    }

    fn flush(&mut self) {
        // Reconstructing also resets the adaptive threshold and its
        // counter, which plain table-zeroing would miss.
        *self = Self::new(self.log_table, &std::mem::take(&mut self.lengths));
    }

    fn name(&self) -> &'static str {
        "hashed-perceptron"
    }

    fn storage_bits(&self) -> u64 {
        self.tables.iter().map(|t| t.len() as u64 * 8).sum::<u64>() + self.history.capacity() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use branchnet_trace::{run_one as evaluate, Trace};

    fn correlated_trace(n: usize, gap: usize) -> Trace {
        // Branch at 0x900 repeats the direction of branch 0x100 `gap`
        // branches earlier; positions are deterministic.
        let mut seed = 99u64;
        let mut rng = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33).is_multiple_of(2)
        };
        let mut trace = Trace::new();
        let mut keys = std::collections::VecDeque::new();
        for _ in 0..n {
            let k = rng();
            keys.push_back(k);
            trace.push(BranchRecord::conditional(0x100, k));
            for j in 0..gap {
                trace.push(BranchRecord::conditional(0x200 + j as u64 * 8, j % 2 == 0));
            }
            if keys.len() > 1 {
                trace.push(BranchRecord::conditional(0x900, keys.pop_front().unwrap()));
            }
        }
        trace
    }

    #[test]
    fn perceptron_learns_positional_correlation() {
        let trace = correlated_trace(2000, 4);
        let stats = evaluate(&mut Perceptron::new(10, 24), &trace);
        assert!(stats.accuracy() > 0.9, "accuracy {}", stats.accuracy());
    }

    #[test]
    fn hashed_perceptron_handles_multiple_lengths() {
        let trace = correlated_trace(2000, 4);
        let stats = evaluate(&mut HashedPerceptron::default_config(), &trace);
        assert!(stats.accuracy() > 0.85, "accuracy {}", stats.accuracy());
    }

    #[test]
    fn perceptron_learns_biased_branch_immediately() {
        let trace: Trace = (0..500).map(|_| BranchRecord::conditional(0x44, true)).collect();
        let stats = evaluate(&mut Perceptron::new(8, 16), &trace);
        assert!(stats.mispredictions() <= 2.0);
    }

    #[test]
    fn hash_is_deterministic_and_in_range() {
        let hp = HashedPerceptron::new(10, &[0, 8, 16]);
        for pc in [0u64, 4, 0xFFFF_FF00, u64::MAX] {
            for &len in &[0usize, 8, 16] {
                let a = hp.hash(pc, len);
                let b = hp.hash(pc, len);
                assert_eq!(a, b);
                assert!(a < 1024);
            }
        }
    }

    #[test]
    fn hash_matches_reference() {
        // Segment reads of the packed history must give the bit loop's
        // value at every length, within and across 64-bit segments and
        // past the capacity, as the history's head wraps around.
        let mut p = HashedPerceptron::default_config();
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
                        p.hash(pc, len),
                        p.reference_hash(pc, len),
                        "step {step}, len {len}"
                    );
                }
            }
        }
    }
}
