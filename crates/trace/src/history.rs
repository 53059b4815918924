//! Branch history structures.
//!
//! The views of history the predictors in this workspace need:
//!
//! * [`GlobalHistory`] — a long shift register of branch directions,
//!   used by gshare/perceptron/2-level predictors and the statistical
//!   corrector.
//! * [`PathHistory`] — a short register of low PC bits of taken
//!   branches, mixed into TAGE index hashes.
//! * [`FoldedHistory`] — the TAGE trick: an `n`-bit-long history folded
//!   into a small register by cyclic shifting, updated incrementally in
//!   O(1) per branch.
//! * [`FoldBank`] — the three folded registers (index, tag, tag′) of
//!   every tagged table of a TAGE or ITTAGE, advanced together with the
//!   history they fold.
//! * [`HistoryRegister`] — the (PC, direction) integer encoding stream
//!   consumed by BranchNet's CNN (Section V-A "History Format").

use crate::record::BranchRecord;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A bounded shift register of branch directions, newest first,
/// packed 64 to a word.
///
/// The live window is a run of bits in a buffer twice its size plus
/// one zero word: direction `age` sits at buffer bit `head + age`, and
/// every bit outside the window is zero. A push moves `head` down by
/// one; when it reaches bit 0, the window is copied back to the top
/// half in whole words, so a push costs O(1) amortized and any run of
/// up to 64 directions is one unaligned two-word read. Equality is
/// logical: same capacity, same recorded bits, whatever the head.
///
/// ```
/// use branchnet_trace::history::GlobalHistory;
/// let mut h = GlobalHistory::new(8);
/// h.push(true);
/// h.push(false);
/// assert_eq!(h.bit(0), false); // newest
/// assert_eq!(h.bit(1), true);
/// assert_eq!(h.bits(0, 2), 0b10);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlobalHistory {
    words: Vec<u64>,
    head: usize,
    len: usize,
    capacity: usize,
}

impl GlobalHistory {
    /// Creates an empty history with room for `capacity` direction bits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "history capacity must be positive");
        let half = capacity.div_ceil(64);
        Self { words: vec![0; 2 * half + 1], head: 64 * half, len: 0, capacity }
    }

    /// Pushes the newest direction, evicting the oldest when full.
    pub fn push(&mut self, taken: bool) {
        if self.head == 0 {
            // Copy the window, which starts at word 0, back to the top
            // half; the bottom half becomes the room for later pushes.
            let half = self.capacity.div_ceil(64);
            self.words.copy_within(..half, half);
            self.words[..half].fill(0);
            self.head = 64 * half;
        }
        self.head -= 1;
        self.words[self.head / 64] |= u64::from(taken) << (self.head % 64);
        if self.len == self.capacity {
            let gone = self.head + self.capacity;
            self.words[gone / 64] &= !(1 << (gone % 64));
        } else {
            self.len += 1;
        }
    }

    /// Direction of the branch `age` positions back (0 = newest).
    /// Out-of-range positions read as not-taken.
    #[must_use]
    pub fn bit(&self, age: usize) -> bool {
        if age >= self.len {
            return false;
        }
        let p = self.head + age;
        self.words[p / 64] >> (p % 64) & 1 != 0
    }

    /// The `n` directions from `age` back, packed into a `u64`: bit `j`
    /// is [`bit(age + j)`](Self::bit), so out-of-range positions read
    /// as not-taken.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[must_use]
    pub fn bits(&self, age: usize, n: usize) -> u64 {
        assert!(n <= 64, "at most 64 bits fit in a u64");
        if age >= self.len || n == 0 {
            return 0;
        }
        // `p` is inside the window, which ends at least one word below
        // the buffer's zero padding word, so `w + 1` is in range.
        let p = self.head + age;
        let (w, s) = (p / 64, (p % 64) as u32);
        let v = self.words[w] >> s | (self.words[w + 1] << 1) << (63 - s);
        if n == 64 {
            v
        } else {
            v & ((1 << n) - 1)
        }
    }

    /// Number of recorded directions (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no branch has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of retained directions.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The newest `n` bits packed into a `u64` (bit 0 = newest).
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    #[must_use]
    pub fn low_bits(&self, n: usize) -> u64 {
        self.bits(0, n)
    }

    /// Iterates over directions from newest to oldest.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(|age| self.bit(age))
    }

    /// Clears all recorded history.
    pub fn clear(&mut self) {
        *self = Self::new(self.capacity);
    }
}

impl PartialEq for GlobalHistory {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.len == other.len
            && (0..self.len).step_by(64).all(|age| self.bits(age, 64) == other.bits(age, 64))
    }
}

impl Eq for GlobalHistory {}

/// A register of low PC bits of recent branches, used as TAGE path
/// history. Holds `PATH_BITS_PER_BRANCH` bits per branch in a `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PathHistory {
    value: u64,
}

impl PathHistory {
    /// Bits of PC contributed per branch.
    pub const BITS_PER_BRANCH: u32 = 2;

    /// Creates an empty path history.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Shifts in the low bits of `pc`.
    pub fn push(&mut self, pc: u64) {
        self.value =
            (self.value << Self::BITS_PER_BRANCH) | (pc & ((1 << Self::BITS_PER_BRANCH) - 1));
    }

    /// The newest `n` path bits (n ≤ 64).
    #[must_use]
    pub fn low_bits(&self, n: u32) -> u64 {
        if n >= 64 {
            self.value
        } else {
            self.value & ((1u64 << n) - 1)
        }
    }
}

/// Incrementally-folded history as used by TAGE tables (Michaud's
/// cyclic shift register). Folds an `original_len`-bit direction
/// history into `compressed_len` bits, updated in O(1) per branch.
///
/// The invariant — checked by property tests — is that the register
/// always equals the XOR-fold of the newest `original_len` history bits
/// into `compressed_len`-bit chunks, each chunk rotated by its index.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FoldedHistory {
    comp: u64,
    original_len: usize,
    compressed_len: usize,
    /// `original_len % compressed_len`, the rotation of the outgoing bit.
    outpoint: usize,
}

impl FoldedHistory {
    /// Creates a folded register compressing `original_len` history bits
    /// into `compressed_len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `compressed_len` is zero or greater than 63.
    #[must_use]
    pub fn new(original_len: usize, compressed_len: usize) -> Self {
        assert!(compressed_len > 0 && compressed_len < 64);
        Self { comp: 0, original_len, compressed_len, outpoint: original_len % compressed_len }
    }

    /// Incrementally updates the fold given the incoming newest bit and
    /// the bit that is `original_len` positions old (the one falling out
    /// of the folded window). `outgoing` must be the direction recorded
    /// `original_len` branches ago (false if history is shorter).
    pub fn update(&mut self, incoming: bool, outgoing: bool) {
        self.comp = (self.comp << 1) | u64::from(incoming);
        self.comp ^= u64::from(outgoing) << self.outpoint;
        self.comp ^= (self.comp >> self.compressed_len) & 1;
        self.comp &= (1u64 << self.compressed_len) - 1;
    }

    /// Current folded value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.comp
    }

    /// The length of history being folded.
    #[must_use]
    pub fn original_len(&self) -> usize {
        self.original_len
    }

    /// The width of the folded register.
    #[must_use]
    pub fn compressed_len(&self) -> usize {
        self.compressed_len
    }

    /// Recomputes the fold from scratch over a [`GlobalHistory`]; used
    /// for testing the incremental update.
    #[must_use]
    pub fn fold_from_history(
        history: &GlobalHistory,
        original_len: usize,
        compressed_len: usize,
    ) -> u64 {
        // Reconstruct by replaying the incremental update over the
        // recorded history, oldest first. This mirrors exactly what a
        // predictor performing `update` on every branch would hold.
        let mut f = FoldedHistory::new(original_len, compressed_len);
        let recorded: Vec<bool> = history.iter().collect(); // newest first
        for (i, &bit) in recorded.iter().enumerate().rev() {
            // When `bit` was pushed, the outgoing bit was the one
            // `original_len` older; with newest-first indexing that is
            // position i + original_len.
            let outgoing = recorded.get(i + original_len).copied().unwrap_or(false);
            f.update(bit, outgoing);
        }
        f.value()
    }
}

/// The three folded registers of one tagged table: the index fold and
/// the two tag folds (`tag` and `tag′`, one bit narrower), all over the
/// table's history length, with their masks and outpoints precomputed.
#[derive(Debug, Clone, Copy)]
struct TableFolds {
    comp: [u64; 3],
    width: [u32; 3],
    mask: [u64; 3],
    outpoint: [u32; 3],
    /// Age, before the push, of the bit leaving the folded window.
    oldest: usize,
}

/// The folded histories of a bank of tagged tables (TAGE, ITTAGE),
/// together with the direction history they fold.
///
/// Each table's three registers hold exactly what three
/// [`FoldedHistory`] registers over the same history would hold; one
/// [`push`](Self::push) advances them all and then the history.
///
/// ```
/// use branchnet_trace::history::{FoldBank, FoldedHistory};
/// let mut bank = FoldBank::new(64, [(37, 10, 9)]);
/// for i in 0..100 {
///     bank.push(i % 3 == 0);
/// }
/// let h = bank.history();
/// assert_eq!(bank.index_fold(0), FoldedHistory::fold_from_history(h, 37, 10));
/// ```
#[derive(Debug, Clone)]
pub struct FoldBank {
    history: GlobalHistory,
    tables: Vec<TableFolds>,
}

impl FoldBank {
    /// A bank over a `capacity`-bit history with one entry per tagged
    /// table: `(history length, index bits, tag bits)`. The `tag′`
    /// register is `tag bits − 1` wide (at least 1).
    ///
    /// # Panics
    ///
    /// Panics if a history length is zero or exceeds `capacity`, or a
    /// register width is not in `1..64`.
    #[must_use]
    pub fn new(capacity: usize, tables: impl IntoIterator<Item = (usize, u32, u32)>) -> Self {
        let tables = tables
            .into_iter()
            .map(|(len, index_bits, tag_bits)| {
                assert!((1..=capacity).contains(&len), "folded length must fit the history");
                let width = [index_bits, tag_bits, tag_bits.saturating_sub(1).max(1)];
                assert!(width.iter().all(|w| (1..64).contains(w)));
                TableFolds {
                    comp: [0; 3],
                    width,
                    mask: width.map(|w| (1 << w) - 1),
                    outpoint: width.map(|w| (len % w as usize) as u32),
                    oldest: len - 1,
                }
            })
            .collect();
        Self { history: GlobalHistory::new(capacity), tables }
    }

    /// Pushes the newest direction through every register, then into
    /// the history.
    pub fn push(&mut self, taken: bool) {
        let incoming = u64::from(taken);
        for t in &mut self.tables {
            let outgoing = u64::from(self.history.bit(t.oldest));
            for r in 0..3 {
                let c = (t.comp[r] << 1 | incoming) ^ outgoing << t.outpoint[r];
                t.comp[r] = (c ^ (c >> t.width[r] & 1)) & t.mask[r];
            }
        }
        self.history.push(taken);
    }

    /// Table `table`'s index fold.
    #[must_use]
    pub fn index_fold(&self, table: usize) -> u64 {
        self.tables[table].comp[0]
    }

    /// Table `table`'s tag fold: `tag ^ (tag′ << 1)`.
    #[must_use]
    pub fn tag_fold(&self, table: usize) -> u64 {
        let c = &self.tables[table].comp;
        c[1] ^ c[2] << 1
    }

    /// The direction history the bank folds.
    #[must_use]
    pub fn history(&self) -> &GlobalHistory {
        &self.history
    }
}

/// A bounded history of `(p+1)`-bit encoded branches — the CNN input
/// stream (Section V-A): low `pc_bits` of the PC concatenated with the
/// direction bit. Newest first.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistoryRegister {
    entries: VecDeque<u32>,
    capacity: usize,
    pc_bits: u32,
}

impl HistoryRegister {
    /// Creates an encoded-branch history holding `capacity` entries of
    /// `pc_bits`-bit PCs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `pc_bits` > 31.
    #[must_use]
    pub fn new(capacity: usize, pc_bits: u32) -> Self {
        assert!(capacity > 0);
        assert!(pc_bits <= 31);
        Self { entries: VecDeque::with_capacity(capacity), capacity, pc_bits }
    }

    /// Pushes a record, evicting the oldest when full.
    pub fn push(&mut self, record: &BranchRecord) {
        if self.entries.len() == self.capacity {
            self.entries.pop_back();
        }
        self.entries.push_front(record.encode(self.pc_bits));
    }

    /// The encoded entry `age` positions back (0 = newest); `None` if
    /// history is shorter.
    #[must_use]
    pub fn get(&self, age: usize) -> Option<u32> {
        self.entries.get(age).copied()
    }

    /// A snapshot of the newest `n` entries ordered **oldest→newest**
    /// (the order a convolution slides over), zero-padded at the front
    /// when fewer than `n` branches have been seen.
    #[must_use]
    pub fn window(&self, n: usize) -> Vec<u32> {
        let mut out = vec![0u32; n];
        for (i, slot) in out.iter_mut().enumerate() {
            // i = 0 is the oldest of the window = age n-1.
            let age = n - 1 - i;
            if let Some(v) = self.entries.get(age) {
                *slot = *v;
            }
        }
        out
    }

    /// Number of recorded entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the register is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Width of the PC field in each encoded entry.
    #[must_use]
    pub fn pc_bits(&self) -> u32 {
        self.pc_bits
    }

    /// Clears the register.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::BranchRecord;

    #[test]
    fn global_history_orders_newest_first() {
        let mut h = GlobalHistory::new(4);
        for b in [true, false, true, true] {
            h.push(b);
        }
        assert!(h.bit(0));
        assert!(h.bit(1));
        assert!(!h.bit(2));
        assert!(h.bit(3));
    }

    #[test]
    fn global_history_evicts_oldest() {
        let mut h = GlobalHistory::new(2);
        h.push(true);
        h.push(false);
        h.push(false);
        assert_eq!(h.len(), 2);
        assert!(!h.bit(0));
        assert!(!h.bit(1));
        assert!(!h.bit(2), "evicted bits read as not-taken");
    }

    #[test]
    fn low_bits_packs_newest_in_bit0() {
        let mut h = GlobalHistory::new(8);
        h.push(true); // will be bit 2
        h.push(false); // bit 1
        h.push(true); // bit 0
        assert_eq!(h.low_bits(3), 0b101);
        assert_eq!(h.low_bits(8), 0b101);
    }

    #[test]
    fn path_history_shifts_low_pc_bits() {
        let mut p = PathHistory::new();
        p.push(0b11);
        p.push(0b01);
        assert_eq!(p.low_bits(4), 0b1101);
    }

    #[test]
    fn folded_history_matches_from_scratch_reference() {
        let mut h = GlobalHistory::new(128);
        let mut f = FoldedHistory::new(37, 11);
        let dirs = [true, false, false, true, true, true, false, true, false, false];
        // Push 100 pseudo-random bits.
        for i in 0..100 {
            let bit = dirs[(i * 7 + 3) % dirs.len()];
            // The bit that will be `original_len` old once `bit` is pushed.
            let outgoing = if h.len() >= 37 { h.bit(36) } else { false };
            f.update(bit, outgoing);
            h.push(bit);
            assert_eq!(
                f.value(),
                FoldedHistory::fold_from_history(&h, 37, 11),
                "incremental fold diverged at step {i}"
            );
        }
    }

    #[test]
    fn folded_history_zero_when_empty() {
        let f = FoldedHistory::new(100, 12);
        assert_eq!(f.value(), 0);
    }

    #[test]
    fn history_register_window_is_oldest_to_newest_zero_padded() {
        let mut hr = HistoryRegister::new(8, 4);
        hr.push(&BranchRecord::conditional(0x1, true)); // encode: 0b11 = 3
        hr.push(&BranchRecord::conditional(0x2, false)); // encode: 0b100 = 4
        let w = hr.window(4);
        assert_eq!(w, vec![0, 0, 3, 4]);
    }

    #[test]
    fn history_register_evicts_oldest() {
        let mut hr = HistoryRegister::new(2, 4);
        hr.push(&BranchRecord::conditional(0x1, true));
        hr.push(&BranchRecord::conditional(0x2, true));
        hr.push(&BranchRecord::conditional(0x3, true));
        assert_eq!(hr.len(), 2);
        assert_eq!(hr.get(0), Some((0x3 << 1) | 1));
        assert_eq!(hr.get(1), Some((0x2 << 1) | 1));
        assert_eq!(hr.get(2), None);
    }
}
