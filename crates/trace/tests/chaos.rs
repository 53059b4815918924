//! Chaos suite for trace IO: every byte stream — arbitrary garbage,
//! plan-corrupted valid files, truncations at every byte — must yield
//! a typed [`ReadTraceError`] or a valid [`Trace`], never a panic
//! (DESIGN.md §9's "untrusted bytes" contract).
//!
//! The corruption recipes come from the deterministic
//! [`FaultPlan`] machinery, so any failure replays from the seed
//! printed in the proptest case description.

use branchnet_trace::{
    read_trace, v2_layout, write_trace, BranchKind, BranchRecord, CorruptingReader,
    CorruptingWriter, FaultPlan, ReadTraceError, Trace, BLOCK_RECORDS,
};
use proptest::prelude::*;
use std::io::Read;

/// A representative trace exercising every record shape: strided
/// conditionals, unconditional kinds, and non-default gaps.
fn sample_trace() -> Trace {
    let mut t = Trace::with_label("chaos/sample", 0.75);
    for i in 0..150u64 {
        t.push(BranchRecord::conditional(0x4000 + (i % 9) * 4, i % 4 != 0));
        if i % 6 == 0 {
            t.push(BranchRecord::unconditional(0x9000 + i * 16, 0x100, BranchKind::Call));
        }
        if i % 13 == 0 {
            t.push(BranchRecord::conditional_with_gap(0x7777, i % 2 == 0, 321));
        }
    }
    t
}

fn sample_bytes() -> Vec<u8> {
    let mut buf = Vec::new();
    write_trace(&mut buf, &sample_trace()).unwrap();
    buf
}

/// An interpreter-dispatch-style trace dense in
/// [`BranchKind::Indirect`] records (~half the stream), so corruption
/// lands on the target-delta side-channel the direction-only sample
/// barely exercises.
fn indirect_dense_trace() -> Trace {
    let mut t = Trace::with_label("chaos/indirect-dense", 1.0);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..400u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let op = (x >> 5) % 8;
        t.push(BranchRecord::unconditional(0xB000, 0xB400 + op * 0x40, BranchKind::Indirect));
        t.push(BranchRecord::conditional(0xB400 + op * 0x40 + 8, x & 1 == 1));
        if i % 7 == 0 {
            // Occasional far-away megamorphic site: large target deltas.
            t.push(BranchRecord::unconditional(
                0xC000,
                0xDEAD_0000_0000_0000u64.wrapping_add(x),
                BranchKind::Indirect,
            ));
        }
    }
    t
}

proptest! {
    /// Arbitrary bytes must never panic the reader.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = read_trace(bytes.as_slice());
    }

    /// Arbitrary bytes behind a valid magic and version get deep into
    /// the side-table/block decoder; they too must fail (or succeed)
    /// cleanly.
    #[test]
    fn arbitrary_bytes_after_valid_header_never_panic(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut framed = b"BNTR\x02".to_vec();
        framed.extend_from_slice(&bytes);
        let _ = read_trace(framed.as_slice());
        let _ = v2_layout(&framed);
    }

    /// Any seeded corruption of a valid file parses or errors — and the
    /// error formats without panicking.
    #[test]
    fn corrupted_valid_file_degrades_to_typed_error(seed in any::<u64>()) {
        let buf = sample_bytes();
        let plan = FaultPlan::generate(seed, buf.len() as u64);
        match read_trace(plan.corrupt(&buf).as_slice()) {
            Ok(trace) => prop_assert!(trace.len() <= 1 << 20),
            Err(e) => prop_assert!(!e.to_string().is_empty(), "classes {:?}", plan.classes()),
        }
    }

    /// The same degradation guarantee for indirect-dense files:
    /// corruption of the target side-channel (side-table target
    /// deltas) is a parse or a typed error, never a panic.
    #[test]
    fn corrupted_indirect_dense_file_degrades_to_typed_error(seed in any::<u64>()) {
        let mut buf = Vec::new();
        write_trace(&mut buf, &indirect_dense_trace()).unwrap();
        let plan = FaultPlan::generate(seed, buf.len() as u64);
        match read_trace(plan.corrupt(&buf).as_slice()) {
            Ok(t) => prop_assert!(t.len() <= 1 << 20),
            Err(e) => prop_assert!(!e.to_string().is_empty(), "classes {:?}", plan.classes()),
        }
    }

    /// Writer-side corruption (bit rot between `write_trace` and the
    /// disk) behaves exactly like reading an equally corrupted buffer.
    #[test]
    fn corrupting_writer_path_equals_buffer_corruption(seed in any::<u64>()) {
        let buf = sample_bytes();
        let plan = FaultPlan::generate(seed, buf.len() as u64);
        let mut w = CorruptingWriter::new(Vec::new(), plan.clone());
        write_trace(&mut w, &sample_trace()).unwrap();
        let landed = w.finish().unwrap();
        prop_assert_eq!(landed, plan.corrupt(&buf));
    }

    /// Round trip: any record stream survives write + read bit-exactly.
    #[test]
    fn any_trace_round_trips(
        weight in 0.001f64..100.0,
        records in prop::collection::vec(
            (any::<u32>(), any::<bool>(), any::<u32>(), 0u32..5, 0u32..2000),
            0..150,
        ),
    ) {
        let mut t = Trace::with_label("chaos/round-trip", weight);
        for (pc, taken, target, kind, gap) in records {
            let kind = match kind {
                0 => BranchKind::Conditional,
                1 => BranchKind::Jump,
                2 => BranchKind::Call,
                3 => BranchKind::Return,
                _ => BranchKind::Indirect,
            };
            t.push(BranchRecord {
                pc: u64::from(pc),
                taken: taken || kind != BranchKind::Conditional,
                target: u64::from(target),
                kind,
                inst_gap: gap as u16,
            });
        }
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        prop_assert_eq!(read_trace(buf.as_slice()).unwrap(), t);
    }
}

/// Every proper prefix of a valid file is a clean error: the format
/// has no trailing slack a torn write could hide in.
#[test]
fn truncation_at_every_byte_is_a_clean_error() {
    let buf = sample_bytes();
    for cut in 0..buf.len() {
        let err = read_trace(&buf[..cut]).expect_err("prefix must not parse");
        assert!(!err.to_string().is_empty(), "cut at {cut}");
    }
    assert!(read_trace(buf.as_slice()).is_ok(), "the full file must still parse");
}

/// Torn writes of an indirect-dense file are clean errors at every
/// byte too — the target side-channel adds no trailing slack.
#[test]
fn indirect_dense_truncation_at_every_byte_is_a_clean_error() {
    let trace = indirect_dense_trace();
    let mut buf = Vec::new();
    write_trace(&mut buf, &trace).unwrap();
    for cut in 0..buf.len() {
        let err = read_trace(&buf[..cut]).expect_err("prefix must not parse");
        assert!(!err.to_string().is_empty(), "cut at {cut}");
    }
    assert_eq!(read_trace(buf.as_slice()).unwrap(), trace);
}

/// A trace spanning several v2 blocks, attacked exactly at the
/// format's structural seams (side-table start, stream start, every
/// block header): each targeted fault must parse or produce a typed
/// error, and truncation at a seam must always be an error.
#[test]
fn block_boundary_faults_degrade_cleanly() {
    let trace: Trace = (0..2 * BLOCK_RECORDS + 7)
        .map(|i| BranchRecord::conditional(0x5000 + (i as u64 % 5) * 4, i % 3 != 0))
        .collect();
    let mut buf = Vec::new();
    write_trace(&mut buf, &trace).unwrap();
    let layout = v2_layout(&buf).unwrap();
    assert_eq!(layout.block_starts.len(), 3, "expected a 3-block trace");
    assert_eq!(layout.end, buf.len());

    let mut seams = vec![layout.side_table_start as u64, layout.stream_start as u64];
    seams.extend(layout.block_starts.iter().map(|&o| o as u64));
    for plan in FaultPlan::at_offsets(3, &seams) {
        let corrupted = plan.corrupt(&buf);
        match read_trace(corrupted.as_slice()) {
            Ok(t) => assert!(t.len() <= trace.len() * 2, "classes {:?}", plan.classes()),
            Err(e) => assert!(!e.to_string().is_empty(), "classes {:?}", plan.classes()),
        }
    }
    for &seam in &seams {
        assert!(
            read_trace(&buf[..seam as usize]).is_err(),
            "truncation at structural offset {seam} must not parse"
        );
    }
}

/// Each fault class, injected alone, degrades cleanly — and the
/// streaming [`CorruptingReader`] sees exactly what a corrupted file
/// would contain.
#[test]
fn every_fault_class_degrades_cleanly_through_the_reader() {
    let buf = sample_bytes();
    for seed in 0..12u64 {
        for plan in FaultPlan::one_of_each(seed, buf.len() as u64) {
            let corrupted = plan.corrupt(&buf);
            let direct = read_trace(corrupted.as_slice());
            let mut streamed = Vec::new();
            CorruptingReader::new(buf.as_slice(), plan.clone()).read_to_end(&mut streamed).unwrap();
            assert_eq!(streamed, corrupted, "seed {seed} classes {:?}", plan.classes());
            let via_reader = read_trace(CorruptingReader::new(buf.as_slice(), plan.clone()));
            match (direct, via_reader) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "seed {seed} classes {:?}", plan.classes()),
                (Err(a), Err(b)) => {
                    assert_eq!(format!("{a}"), format!("{b}"), "seed {seed}");
                }
                (a, b) => panic!(
                    "reader/buffer disagree for seed {seed} classes {:?}: {a:?} vs {b:?}",
                    plan.classes()
                ),
            }
        }
    }
}

/// The error type's user-facing surface is stable: these strings are
/// what operators grep for in degraded-run logs.
#[test]
fn read_trace_error_display_and_source_are_stable() {
    use std::error::Error as _;

    let io = ReadTraceError::Io(std::io::Error::other("disk on fire"));
    assert_eq!(io.to_string(), "i/o error reading trace: disk on fire");
    assert!(io.source().is_some(), "Io must expose its cause");

    let magic = ReadTraceError::BadMagic;
    assert_eq!(magic.to_string(), "not a BranchNet trace file");
    assert!(magic.source().is_none());

    let version = ReadTraceError::BadVersion(9);
    assert_eq!(version.to_string(), "unsupported trace version 9");
    assert!(version.source().is_none());

    let corrupt = ReadTraceError::Corrupt("varint overflow");
    assert_eq!(corrupt.to_string(), "corrupt trace file: varint overflow");
    assert!(corrupt.source().is_none());
}

/// `std::io::Error` converts into the reader's error type (the `?`
/// path every read helper relies on).
#[test]
fn io_errors_convert_into_read_trace_error() {
    let e: ReadTraceError = std::io::Error::other("boom").into();
    assert!(matches!(e, ReadTraceError::Io(_)));
}
