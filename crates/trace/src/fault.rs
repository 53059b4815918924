//! Deterministic fault injection for artifact byte streams.
//!
//! Trace files are the one artifact the workspace reads back from
//! disk, and a corrupt, truncated, or stale file must end in a typed
//! error — never a panic. This module is the attack half of that
//! contract: a seeded [`FaultPlan`] describes byte-level corruptions
//! (bit flips, truncation, chunk duplication/reordering, garbage
//! headers, NaN/out-of-range word patterns) that the trace chaos suite
//! replays against trace IO ([`crate::io`]) and the streaming decoder
//! layered on it.
//!
//! Everything here is deterministic: a plan is a pure function of its
//! seed, and applying a plan to the same bytes always yields the same
//! corrupted bytes, so any chaos-suite failure replays exactly from
//! the reported seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Read, Write};

/// The IEEE-754 bit pattern injected by [`Fault::NanWeight`].
const NAN_BITS: u32 = f32::NAN.to_bits();
/// The out-of-range magnitude injected by [`Fault::HugeWeight`]
/// (far beyond any trained weight).
const HUGE: f32 = 1.0e30;

/// One byte-level corruption, positioned by absolute offset into the
/// artifact. Offsets past the end of the buffer make the fault a
/// no-op (except [`Fault::Truncate`], which clamps), so plans can be
/// generated without knowing the exact artifact length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Flip bit `bit` (0..8) of the byte at `offset`.
    BitFlip {
        /// Byte position.
        offset: u64,
        /// Bit within the byte (masked to 0..8).
        bit: u8,
    },
    /// Drop every byte at or past `offset` (torn write / short file).
    Truncate {
        /// First byte dropped.
        offset: u64,
    },
    /// Re-insert the `len` bytes at `offset` immediately after
    /// themselves (record duplication).
    DuplicateChunk {
        /// Start of the duplicated span.
        offset: u64,
        /// Span length in bytes.
        len: u64,
    },
    /// Swap the two `len`-byte chunks starting at `a` and `b` (record
    /// reordering). Overlapping or out-of-range chunks are a no-op.
    SwapChunks {
        /// Start of the first chunk.
        a: u64,
        /// Start of the second chunk.
        b: u64,
        /// Chunk length in bytes.
        len: u64,
    },
    /// Overwrite the first `len` bytes with seeded garbage (a stomped
    /// header: bad magic, bad version, nonsense lengths).
    GarbageHeader {
        /// Bytes overwritten from the start.
        len: u64,
        /// Seed for the garbage byte stream.
        seed: u64,
    },
    /// Overwrite the 4 bytes at `offset` with the f32 NaN bit pattern
    /// (NaN weight injection against float tables).
    NanWeight {
        /// Byte position of the overwritten word.
        offset: u64,
    },
    /// Overwrite the 4 bytes at `offset` with an absurdly large f32
    /// (out-of-range weight injection).
    HugeWeight {
        /// Byte position of the overwritten word.
        offset: u64,
    },
    /// Behavioral fault: cap every read at `max` bytes (clamped to at
    /// least 1), modeling a trickling source — the most hostile legal
    /// `Read` implementation. Does not alter bytes; interpreted by
    /// [`CorruptingReader`].
    ShortReads {
        /// Maximum bytes any single read may return.
        max: u32,
    },
}

impl Fault {
    /// The fault's class name (stable; used by chaos-suite coverage
    /// assertions and failure reports).
    #[must_use]
    pub fn class(&self) -> &'static str {
        match self {
            Fault::BitFlip { .. } => "bit-flip",
            Fault::Truncate { .. } => "truncate",
            Fault::DuplicateChunk { .. } => "duplicate-chunk",
            Fault::SwapChunks { .. } => "swap-chunks",
            Fault::GarbageHeader { .. } => "garbage-header",
            Fault::NanWeight { .. } => "nan-weight",
            Fault::HugeWeight { .. } => "huge-weight",
            Fault::ShortReads { .. } => "short-reads",
        }
    }

    /// Whether this fault changes read *dynamics* rather than bytes.
    /// Behavioral faults are no-ops under [`FaultPlan::apply`] and are
    /// interpreted by [`CorruptingReader`] instead.
    #[must_use]
    pub fn is_behavioral(&self) -> bool {
        matches!(self, Fault::ShortReads { .. })
    }

    /// Applies this fault to `bytes` in place.
    fn apply(&self, bytes: &mut Vec<u8>) {
        let len = bytes.len() as u64;
        match *self {
            Fault::BitFlip { offset, bit } => {
                if offset < len {
                    bytes[offset as usize] ^= 1 << (bit % 8);
                }
            }
            Fault::Truncate { offset } => {
                bytes.truncate(offset.min(len) as usize);
            }
            Fault::DuplicateChunk { offset, len: n } => {
                if n > 0 && offset < len {
                    let end = offset.saturating_add(n).min(len) as usize;
                    let chunk: Vec<u8> = bytes[offset as usize..end].to_vec();
                    bytes.splice(end..end, chunk);
                }
            }
            Fault::SwapChunks { a, b, len: n } => {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                // Only swap disjoint, fully in-range chunks. Saturating
                // sums keep absurd offsets on the no-op path instead of
                // overflowing (debug builds have overflow checks live).
                if n > 0 && lo.saturating_add(n) <= hi && hi.saturating_add(n) <= len {
                    for i in 0..n as usize {
                        bytes.swap(lo as usize + i, hi as usize + i);
                    }
                }
            }
            Fault::GarbageHeader { len: n, seed } => {
                let mut rng = SmallRng::seed_from_u64(seed);
                let end = n.min(len) as usize;
                for byte in &mut bytes[..end] {
                    *byte = rng.gen::<u32>() as u8;
                }
            }
            Fault::NanWeight { offset } => overwrite_word(bytes, offset, NAN_BITS),
            Fault::HugeWeight { offset } => overwrite_word(bytes, offset, HUGE.to_bits()),
            // Behavioral faults leave the bytes untouched; they only
            // shape how CorruptingReader serves them.
            Fault::ShortReads { .. } => {}
        }
    }
}

fn overwrite_word(bytes: &mut [u8], offset: u64, word: u32) {
    let Some(end) = offset.checked_add(4) else { return };
    if end <= bytes.len() as u64 {
        bytes[offset as usize..end as usize].copy_from_slice(&word.to_le_bytes());
    }
}

/// A deterministic, replayable corruption recipe: an ordered list of
/// [`Fault`]s applied left to right (later faults see earlier faults'
/// effects, including length changes).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The faults, applied in order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan with a single fault.
    #[must_use]
    pub fn single(fault: Fault) -> Self {
        Self { faults: vec![fault] }
    }

    /// Draws a random plan of 1..=3 faults with offsets inside
    /// `approx_len`. A pure function of `(seed, approx_len)`.
    #[must_use]
    pub fn generate(seed: u64, approx_len: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA_0175);
        let span = approx_len.max(1);
        let n = rng.gen_range(1..=3u32);
        let faults = (0..n).map(|_| random_fault(&mut rng, span)).collect();
        Self { faults }
    }

    /// One representative single-fault plan per fault class, each
    /// positioned inside `approx_len`. The chaos suites iterate this
    /// to prove every class degrades cleanly.
    #[must_use]
    pub fn one_of_each(seed: u64, approx_len: u64) -> Vec<Self> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0C1A55E5);
        let span = approx_len.max(8);
        let off = |rng: &mut SmallRng| rng.gen_range(0..span);
        let a = rng.gen_range(0..span / 2);
        let b = rng.gen_range(span / 2..span);
        vec![
            Self::single(Fault::BitFlip {
                offset: off(&mut rng),
                bit: rng.gen_range(0..8u32) as u8,
            }),
            Self::single(Fault::Truncate { offset: off(&mut rng) }),
            Self::single(Fault::DuplicateChunk {
                offset: off(&mut rng),
                len: rng.gen_range(1u64..16),
            }),
            Self::single(Fault::SwapChunks { a, b, len: rng.gen_range(1u64..8) }),
            Self::single(Fault::GarbageHeader {
                len: rng.gen_range(1u64..24),
                seed: rng.gen::<u64>(),
            }),
            Self::single(Fault::NanWeight { offset: off(&mut rng) }),
            Self::single(Fault::HugeWeight { offset: off(&mut rng) }),
        ]
    }

    /// Single-fault plans aimed at each structural `offset`: a bit
    /// flip, a truncation, and a chunk duplication per offset. The
    /// chaos suites feed this the boundaries from
    /// [`crate::io::v2_layout`] (side-table start, stream start, each
    /// block header) so corruption lands exactly on the format's framing
    /// instead of uniformly random positions. Deterministic in
    /// `(seed, offsets)`.
    #[must_use]
    pub fn at_offsets(seed: u64, offsets: &[u64]) -> Vec<Self> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xB10C_0FF5);
        let mut plans = Vec::with_capacity(offsets.len() * 3);
        for &offset in offsets {
            plans.push(Self::single(Fault::BitFlip { offset, bit: rng.gen_range(0..8u32) as u8 }));
            plans.push(Self::single(Fault::Truncate { offset }));
            plans
                .push(Self::single(Fault::DuplicateChunk { offset, len: rng.gen_range(1u64..16) }));
        }
        plans
    }

    /// Applies every fault to `bytes`, in order.
    pub fn apply(&self, bytes: &mut Vec<u8>) {
        for fault in &self.faults {
            fault.apply(bytes);
        }
    }

    /// Convenience: a corrupted copy of `bytes`.
    #[must_use]
    pub fn corrupt(&self, bytes: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        self.apply(&mut out);
        out
    }

    /// The class names of the plan's faults, for failure reports.
    #[must_use]
    pub fn classes(&self) -> Vec<&'static str> {
        self.faults.iter().map(Fault::class).collect()
    }
}

fn random_fault(rng: &mut SmallRng, span: u64) -> Fault {
    match rng.gen_range(0..7u32) {
        0 => Fault::BitFlip { offset: rng.gen_range(0..span), bit: rng.gen_range(0..8u32) as u8 },
        1 => Fault::Truncate { offset: rng.gen_range(0..span) },
        2 => Fault::DuplicateChunk { offset: rng.gen_range(0..span), len: rng.gen_range(1u64..16) },
        3 => {
            let a = rng.gen_range(0..span);
            let b = rng.gen_range(0..span);
            Fault::SwapChunks { a, b, len: rng.gen_range(1u64..8) }
        }
        4 => Fault::GarbageHeader { len: rng.gen_range(1u64..24), seed: rng.gen::<u64>() },
        5 => Fault::NanWeight { offset: rng.gen_range(0..span) },
        _ => Fault::HugeWeight { offset: rng.gen_range(0..span) },
    }
}

/// A [`Read`] adapter that serves the plan-corrupted view of an inner
/// reader. The inner stream is drained on first read (plans need
/// whole-buffer context for truncation and reordering), corrupted
/// once, then served positionally — so `read_trace(CorruptingReader::
/// new(file, plan))` behaves exactly like reading a corrupted file.
///
/// A [`Fault::ShortReads`] in the plan composes with the byte-level
/// faults: it caps how many bytes any single `read` may return over
/// the already-corrupted bytes.
#[derive(Debug)]
pub struct CorruptingReader<R> {
    inner: Option<R>,
    plan: FaultPlan,
    buf: Vec<u8>,
    pos: usize,
    /// Tightest [`Fault::ShortReads`] cap, if any.
    short_cap: Option<usize>,
}

impl<R: Read> CorruptingReader<R> {
    /// Wraps `inner` so reads observe the bytes corrupted by `plan`,
    /// served under the plan's behavioral faults.
    #[must_use]
    pub fn new(inner: R, plan: FaultPlan) -> Self {
        let short_cap = plan
            .faults
            .iter()
            .filter_map(|fault| match *fault {
                Fault::ShortReads { max } => Some(max.max(1) as usize),
                _ => None,
            })
            .min();
        Self { inner: Some(inner), plan, buf: Vec::new(), pos: 0, short_cap }
    }
}

impl<R: Read> Read for CorruptingReader<R> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if let Some(mut inner) = self.inner.take() {
            if let Err(e) = inner.read_to_end(&mut self.buf) {
                // Never serve the partially drained, uncorrupted bytes
                // as success: drop them and surface the error (later
                // reads observe a clean EOF).
                self.buf.clear();
                return Err(e);
            }
            self.plan.apply(&mut self.buf);
        }
        let mut n = out.len().min(self.buf.len() - self.pos);
        if let Some(cap) = self.short_cap {
            n = n.min(cap);
        }
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A [`Write`] adapter that buffers everything written through it and
/// emits the plan-corrupted bytes to the inner writer on
/// [`finish`](Self::finish) — modeling a writer whose output lands
/// corrupted on disk (bit rot, torn write, firmware bug).
#[derive(Debug)]
pub struct CorruptingWriter<W> {
    inner: W,
    plan: FaultPlan,
    buf: Vec<u8>,
}

impl<W: Write> CorruptingWriter<W> {
    /// Wraps `inner` so finished writes land corrupted by `plan`.
    #[must_use]
    pub fn new(inner: W, plan: FaultPlan) -> Self {
        Self { inner, plan, buf: Vec::new() }
    }

    /// Corrupts the buffered bytes and writes them through, returning
    /// the inner writer.
    ///
    /// # Errors
    ///
    /// Propagates the inner writer's I/O errors.
    pub fn finish(mut self) -> io::Result<W> {
        self.plan.apply(&mut self.buf);
        self.inner.write_all(&self.buf)?;
        self.inner.flush()?;
        Ok(self.inner)
    }
}

impl<W: Write> Write for CorruptingWriter<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        // Corruption is applied once, at `finish`; flushing the
        // partial buffer early would corrupt a prefix twice.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        (0u16..200).map(|i| (i * 7 % 251) as u8).collect()
    }

    #[test]
    fn plans_are_deterministic() {
        for seed in 0..32u64 {
            assert_eq!(FaultPlan::generate(seed, 500), FaultPlan::generate(seed, 500));
            let plan = FaultPlan::generate(seed, 500);
            assert_eq!(plan.corrupt(&sample()), plan.corrupt(&sample()));
        }
    }

    #[test]
    fn one_of_each_covers_every_class() {
        let plans = FaultPlan::one_of_each(1, 256);
        let classes: Vec<&str> = plans.iter().flat_map(FaultPlan::classes).collect();
        for class in [
            "bit-flip",
            "truncate",
            "duplicate-chunk",
            "swap-chunks",
            "garbage-header",
            "nan-weight",
            "huge-weight",
        ] {
            assert!(classes.contains(&class), "missing {class}");
        }
    }

    #[test]
    fn at_offsets_targets_every_offset_deterministically() {
        let offsets = [0u64, 17, 150];
        let plans = FaultPlan::at_offsets(9, &offsets);
        assert_eq!(plans, FaultPlan::at_offsets(9, &offsets));
        assert_eq!(plans.len(), offsets.len() * 3);
        for (i, plan) in plans.iter().enumerate() {
            let want = offsets[i / 3];
            let got = match plan.faults[0] {
                Fault::BitFlip { offset, .. }
                | Fault::Truncate { offset }
                | Fault::DuplicateChunk { offset, .. } => offset,
                ref other => panic!("unexpected fault class {other:?}"),
            };
            assert_eq!(got, want);
        }
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let plan = FaultPlan::single(Fault::BitFlip { offset: 3, bit: 5 });
        let out = plan.corrupt(&sample());
        let diff: Vec<usize> = (0..out.len()).filter(|&i| out[i] != sample()[i]).collect();
        assert_eq!(diff, vec![3]);
        assert_eq!(out[3] ^ sample()[3], 1 << 5);
    }

    #[test]
    fn truncate_clamps_to_length() {
        let plan = FaultPlan::single(Fault::Truncate { offset: 10_000 });
        assert_eq!(plan.corrupt(&sample()), sample());
        let plan = FaultPlan::single(Fault::Truncate { offset: 7 });
        assert_eq!(plan.corrupt(&sample()).len(), 7);
    }

    #[test]
    fn duplicate_chunk_grows_the_buffer() {
        let plan = FaultPlan::single(Fault::DuplicateChunk { offset: 4, len: 6 });
        let out = plan.corrupt(&sample());
        assert_eq!(out.len(), sample().len() + 6);
        assert_eq!(&out[4..10], &out[10..16]);
    }

    #[test]
    fn swap_chunks_reorders_and_preserves_multiset() {
        let plan = FaultPlan::single(Fault::SwapChunks { a: 0, b: 100, len: 8 });
        let src = sample();
        let out = plan.corrupt(&src);
        assert_eq!(out.len(), src.len());
        assert_eq!(&out[..8], &src[100..108]);
        assert_eq!(&out[100..108], &src[..8]);
    }

    #[test]
    fn overlapping_swap_is_a_noop() {
        let plan = FaultPlan::single(Fault::SwapChunks { a: 10, b: 12, len: 8 });
        assert_eq!(plan.corrupt(&sample()), sample());
    }

    #[test]
    fn nan_weight_writes_the_nan_pattern() {
        let plan = FaultPlan::single(Fault::NanWeight { offset: 8 });
        let out = plan.corrupt(&sample());
        let word = f32::from_le_bytes(out[8..12].try_into().unwrap());
        assert!(word.is_nan());
    }

    #[test]
    fn out_of_range_faults_are_noops() {
        let src = sample();
        for fault in [
            Fault::BitFlip { offset: 10_000, bit: 0 },
            Fault::DuplicateChunk { offset: 10_000, len: 4 },
            Fault::SwapChunks { a: 0, b: 10_000, len: 4 },
            Fault::NanWeight { offset: src.len() as u64 - 2 },
            Fault::HugeWeight { offset: 10_000 },
        ] {
            assert_eq!(FaultPlan::single(fault).corrupt(&src), src, "{fault:?}");
        }
    }

    #[test]
    fn absurd_offsets_never_panic() {
        // The chaos suites run in debug where overflow checks are
        // live; plan values near u64::MAX must take the out-of-range
        // no-op/clamp path, not overflow.
        let src = sample();
        for fault in [
            Fault::BitFlip { offset: u64::MAX, bit: 7 },
            Fault::Truncate { offset: u64::MAX },
            Fault::DuplicateChunk { offset: 1, len: u64::MAX },
            Fault::DuplicateChunk { offset: u64::MAX, len: u64::MAX },
            Fault::SwapChunks { a: u64::MAX, b: 0, len: u64::MAX },
            Fault::SwapChunks { a: u64::MAX - 1, b: u64::MAX, len: 4 },
            Fault::GarbageHeader { len: u64::MAX, seed: 1 },
            Fault::NanWeight { offset: u64::MAX - 2 },
            Fault::HugeWeight { offset: u64::MAX },
        ] {
            let _ = FaultPlan::single(fault).corrupt(&src);
        }
    }

    #[test]
    fn corrupting_reader_does_not_serve_partial_bytes_after_inner_error() {
        // An inner reader that yields some bytes and then fails: the
        // error must surface, and the drained-but-never-corrupted
        // prefix must not be readable afterwards.
        struct FailingReader {
            served: bool,
        }
        impl Read for FailingReader {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if self.served {
                    Err(io::Error::other("injected inner failure"))
                } else {
                    self.served = true;
                    let n = out.len().min(8);
                    out[..n].fill(0xAB);
                    Ok(n)
                }
            }
        }
        let plan = FaultPlan::single(Fault::Truncate { offset: 10_000 });
        let mut reader = CorruptingReader::new(FailingReader { served: false }, plan);
        let mut out = Vec::new();
        assert!(reader.read_to_end(&mut out).is_err());
        let mut after = Vec::new();
        assert_eq!(reader.read_to_end(&mut after).unwrap(), 0);
        assert!(after.is_empty(), "partial uncorrupted bytes must not leak");
    }

    #[test]
    fn corrupting_reader_matches_buffer_corruption() {
        let src = sample();
        for seed in 0..16u64 {
            let plan = FaultPlan::generate(seed, src.len() as u64);
            let mut via_reader = Vec::new();
            CorruptingReader::new(src.as_slice(), plan.clone())
                .read_to_end(&mut via_reader)
                .unwrap();
            assert_eq!(via_reader, plan.corrupt(&src), "seed {seed}");
        }
    }

    #[test]
    fn behavioral_faults_leave_bytes_untouched() {
        let src = sample();
        let fault = Fault::ShortReads { max: 1 };
        assert!(fault.is_behavioral());
        assert_eq!(FaultPlan::single(fault).corrupt(&src), src);
        assert!(!Fault::Truncate { offset: 0 }.is_behavioral());
    }

    #[test]
    fn short_reads_cap_every_read() {
        let src = sample();
        let mut reader =
            CorruptingReader::new(src.as_slice(), FaultPlan::single(Fault::ShortReads { max: 3 }));
        let mut out = Vec::new();
        let mut chunk = [0u8; 64];
        loop {
            let n = reader.read(&mut chunk).unwrap();
            if n == 0 {
                break;
            }
            assert!(n <= 3, "read returned {n} > cap");
            out.extend_from_slice(&chunk[..n]);
        }
        assert_eq!(out, src, "short reads must still serve every byte");
        // max == 0 clamps to 1 instead of wedging forever.
        let mut reader =
            CorruptingReader::new(src.as_slice(), FaultPlan::single(Fault::ShortReads { max: 0 }));
        assert_eq!(reader.read(&mut chunk).unwrap(), 1);
    }

    #[test]
    fn behavioral_faults_compose_with_byte_corruption() {
        let src = sample();
        let plan = FaultPlan {
            faults: vec![Fault::BitFlip { offset: 5, bit: 2 }, Fault::ShortReads { max: 7 }],
        };
        let corrupted = plan.corrupt(&src);
        let mut reader = CorruptingReader::new(src.as_slice(), plan);
        let mut out = Vec::new();
        let mut chunk = [0u8; 64];
        loop {
            let n = reader.read(&mut chunk).unwrap();
            if n == 0 {
                break;
            }
            assert!(n <= 7);
            out.extend_from_slice(&chunk[..n]);
        }
        assert_eq!(out, corrupted, "bytes served must be the corrupted view");
    }

    #[test]
    fn corrupting_writer_matches_buffer_corruption() {
        let src = sample();
        for seed in 0..16u64 {
            let plan = FaultPlan::generate(seed, src.len() as u64);
            let mut w = CorruptingWriter::new(Vec::new(), plan.clone());
            // Write in uneven pieces to exercise buffering.
            w.write_all(&src[..13]).unwrap();
            w.write_all(&src[13..]).unwrap();
            let out = w.finish().unwrap();
            assert_eq!(out, plan.corrupt(&src), "seed {seed}");
        }
    }
}
