//! Property-based tests for the trace substrate.

use branchnet_trace::{BranchRecord, GlobalHistory, HistoryRegister, PathHistory, Trace};
use proptest::prelude::*;

proptest! {
    /// `low_bits` always reflects the newest pushes, oldest-evicted.
    #[test]
    fn global_history_low_bits_matches_naive(
        bits in prop::collection::vec(any::<bool>(), 1..100),
        capacity in 1usize..64,
        n in 1usize..64,
    ) {
        prop_assume!(n <= 64);
        let mut h = GlobalHistory::new(capacity);
        for &b in &bits {
            h.push(b);
        }
        let mut expect = 0u64;
        for i in (0..n).rev() {
            // Newest-first indexing over at most `capacity` retained bits.
            let bit = if i < capacity && i < bits.len() {
                bits[bits.len() - 1 - i]
            } else {
                false
            };
            expect = (expect << 1) | u64::from(bit);
        }
        prop_assert_eq!(h.low_bits(n), expect);
    }

    /// Every read of the packed ring equals a naive newest-first
    /// `Vec<bool>`, over capacities up to 2,100 bits and enough pushes
    /// to wrap the ring's head several times; equality is logical
    /// whatever the head offsets.
    #[test]
    fn global_history_matches_reference_model(
        capacity in 1usize..2101,
        seed in any::<u64>(),
        wraps in 1usize..5,
        extra in 0usize..200,
        junk in 1usize..200,
    ) {
        let mut rng = seed | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let pushes = wraps * (capacity + 64) + extra;
        let mut h = GlobalHistory::new(capacity);
        // The same bits after `junk` earlier pushes: another head offset.
        let mut shifted = GlobalHistory::new(capacity);
        for _ in 0..junk {
            shifted.push(next() & 1 == 1);
        }
        let mut model: Vec<bool> = Vec::new(); // newest first
        let naive_bits = |model: &[bool], age: usize, n: usize| -> u64 {
            (0..n).fold(0u64, |v, j| v | u64::from(model.get(age + j) == Some(&true)) << j)
        };
        for i in 0..pushes {
            let taken = next() & 1 == 1;
            h.push(taken);
            shifted.push(taken);
            model.insert(0, taken);
            model.truncate(capacity);
            prop_assert_eq!(h.len(), model.len());
            prop_assert_eq!(h.is_empty(), model.is_empty());
            let r = next();
            let age = (r as usize >> 8) % (capacity + 70);
            let n = (r as usize >> 40) % 65;
            prop_assert_eq!(h.bit(age), model.get(age) == Some(&true));
            prop_assert_eq!(h.bits(age, n), naive_bits(&model, age, n), "bits({}, {})", age, n);
            prop_assert_eq!(h.low_bits(n), naive_bits(&model, 0, n));
            if i % (pushes / 16 + 1) == 0 || i + 1 == pushes {
                for age in 0..capacity + 70 {
                    prop_assert_eq!(h.bit(age), model.get(age) == Some(&true));
                    prop_assert_eq!(h.bits(age, 64), naive_bits(&model, age, 64));
                    prop_assert_eq!(h.bits(age, age % 65), naive_bits(&model, age, age % 65));
                }
                prop_assert!(h.iter().eq(model.iter().copied()));
            }
        }
        // Equal bits are equal histories, whatever the head offsets;
        // fewer recorded bits are not.
        prop_assert_eq!(h == shifted, pushes >= capacity);
        let mut flipped = h.clone();
        let mut kept = h.clone();
        flipped.push(false);
        kept.push(true);
        prop_assert!(flipped != kept);
        prop_assert!(h != GlobalHistory::new(capacity + 1));
        h.clear();
        prop_assert_eq!(h, GlobalHistory::new(capacity));
    }

    /// A history register window is always oldest→newest and zero-padded.
    #[test]
    fn history_register_window_invariants(
        records in prop::collection::vec((any::<u64>(), any::<bool>()), 0..80),
        capacity in 1usize..64,
        window in 1usize..64,
        pc_bits in 1u32..16,
    ) {
        let mut hr = HistoryRegister::new(capacity, pc_bits);
        let mut encoded = Vec::new();
        for &(pc, taken) in &records {
            let r = BranchRecord::conditional(pc, taken);
            hr.push(&r);
            encoded.push(r.encode(pc_bits));
        }
        let w = hr.window(window);
        prop_assert_eq!(w.len(), window);
        // The newest min(window, capacity, len) entries match the tail.
        let have = window.min(capacity).min(encoded.len());
        for i in 0..have {
            prop_assert_eq!(w[window - 1 - i], encoded[encoded.len() - 1 - i]);
        }
        // Everything older is zero padding.
        for &v in &w[..window - have] {
            prop_assert_eq!(v, 0);
        }
    }

    /// Encoding is injective in (low PC bits, direction).
    #[test]
    fn encode_is_injective_over_low_bits(pc1 in any::<u64>(), pc2 in any::<u64>(), t1 in any::<bool>(), t2 in any::<bool>()) {
        let bits = 12u32;
        let a = BranchRecord { taken: t1, ..BranchRecord::conditional(pc1, t1) };
        let b = BranchRecord { taken: t2, ..BranchRecord::conditional(pc2, t2) };
        let same_key = (pc1 & 0xFFF) == (pc2 & 0xFFF) && t1 == t2;
        prop_assert_eq!(a.encode(bits) == b.encode(bits), same_key);
    }

    /// Path history keeps exactly the configured bits per branch.
    #[test]
    fn path_history_low_bits_window(pcs in prop::collection::vec(any::<u64>(), 1..40), n in 1u32..32) {
        let mut p = PathHistory::new();
        for &pc in &pcs {
            p.push(pc);
        }
        let v = p.low_bits(n);
        prop_assert!(n >= 64 || v < (1u64 << n));
    }

    /// Instruction counting is additive over concatenation.
    #[test]
    fn trace_instruction_count_is_additive(
        a in prop::collection::vec((any::<u64>(), any::<bool>(), 0u16..64), 0..50),
        b in prop::collection::vec((any::<u64>(), any::<bool>(), 0u16..64), 0..50),
    ) {
        let build = |v: &[(u64, bool, u16)]| -> Trace {
            v.iter().map(|&(pc, t, gap)| BranchRecord::conditional_with_gap(pc, t, gap)).collect()
        };
        let ta = build(&a);
        let tb = build(&b);
        let mut tc = ta.clone();
        tc.extend(tb.iter());
        prop_assert_eq!(tc.instruction_count(), ta.instruction_count() + tb.instruction_count());
    }
}
