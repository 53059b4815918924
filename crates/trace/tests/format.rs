//! Trace-format v2 conformance: record-identical round trips, block
//! framing at every boundary length, and the streaming decode contract
//! (bounded buffer, stats identical to the resident path).

use branchnet_trace::{
    read_trace, write_trace, BranchKind, BranchRecord, Gauntlet, Predictor, Trace, TraceReader,
    BLOCK_RECORDS,
};
use proptest::prelude::*;

/// A minimal history-sensitive predictor: any record reordering or
/// loss between the resident and streaming paths changes its output.
struct TinyGshare {
    history: u64,
    table: Vec<i8>,
}

impl TinyGshare {
    fn new() -> Self {
        Self { history: 0, table: vec![0; 1 << 12] }
    }
    fn index(&self, pc: u64) -> usize {
        ((pc ^ self.history) & 0xFFF) as usize
    }
}

impl Predictor for TinyGshare {
    fn predict(&mut self, pc: u64) -> bool {
        self.table[self.index(pc)] >= 0
    }
    fn update(&mut self, record: &BranchRecord, _predicted: bool) {
        let i = self.index(record.pc);
        let c = &mut self.table[i];
        *c = if record.taken { (*c + 1).min(3) } else { (*c - 1).max(-4) };
        self.history = (self.history << 1) | u64::from(record.taken);
    }
    fn name(&self) -> &'static str {
        "tiny-gshare"
    }
}

/// Tiles `pattern` until the trace holds exactly `len` records.
fn tiled(pattern: &[BranchRecord], len: usize) -> Trace {
    let mut t = Trace::with_label("format/tiled", 1.0);
    if pattern.is_empty() {
        return t;
    }
    t.reserve(len);
    for i in 0..len {
        t.push(pattern[i % pattern.len()]);
    }
    t
}

fn pattern_record((pc, taken, target, kind, gap): (u32, bool, u32, u32, u32)) -> BranchRecord {
    let kind = match kind {
        0 => BranchKind::Conditional,
        1 => BranchKind::Jump,
        2 => BranchKind::Call,
        3 => BranchKind::Return,
        _ => BranchKind::Indirect,
    };
    BranchRecord {
        pc: u64::from(pc),
        taken: taken || kind != BranchKind::Conditional,
        target: u64::from(target),
        kind,
        inst_gap: gap as u16,
    }
}

fn encode_v2(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::new();
    write_trace(&mut buf, trace).unwrap();
    buf
}

proptest! {
    /// Encode -> decode preserves the exact record sequence, weight,
    /// and label, and re-encoding the decoded trace reproduces the
    /// same bytes.
    #[test]
    fn v2_round_trips_are_record_identical(
        weight in 0.001f64..100.0,
        records in prop::collection::vec(
            (any::<u32>(), any::<bool>(), any::<u32>(), 0u32..5, 0u32..2000),
            0..200,
        ),
    ) {
        let mut original = Trace::with_label("format/convert", weight);
        for r in records {
            original.push(pattern_record(r));
        }
        let bytes = encode_v2(&original);
        let from_v2 = read_trace(bytes.as_slice()).unwrap();
        prop_assert_eq!(&from_v2, &original);
        prop_assert_eq!(encode_v2(&from_v2), bytes);
    }
}

proptest! {
    // Each case encodes up to BLOCK_RECORDS + 1 records, so keep the
    // case count small; the interesting coverage is the boundary
    // lengths, not the pattern variety.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Small patterns tiled to the block-framing boundary lengths
    /// round trip record-identically.
    #[test]
    fn tiled_patterns_round_trip_at_block_boundaries(
        pattern in prop::collection::vec(
            (any::<u32>(), any::<bool>(), any::<u32>(), 0u32..5, 0u32..50),
            1..6,
        ),
        boundary in prop::sample::select(
            vec![0usize, 1, BLOCK_RECORDS - 1, BLOCK_RECORDS, BLOCK_RECORDS + 1],
        ),
    ) {
        let records: Vec<BranchRecord> = pattern.into_iter().map(pattern_record).collect();
        let trace = tiled(&records, boundary);
        prop_assert_eq!(trace.len(), boundary);
        let via_v2 = read_trace(encode_v2(&trace).as_slice()).unwrap();
        prop_assert_eq!(&via_v2, &trace);
        prop_assert_eq!(via_v2.block_count(), boundary.div_ceil(BLOCK_RECORDS));
    }
}

proptest! {
    // Each case tiles to ~64Ki records and encodes it, so a handful
    // of cases is the budget; the coverage target is the
    // Indirect-record fields (full-width targets, kind) at the exact
    // block seams, not pattern variety.
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Indirect-dense traces — most records are [`BranchKind::Indirect`]
    /// with full 64-bit PCs and targets — tiled to 64Ki±1 round trip
    /// record-identical: every target and every kind survives the
    /// columnar side-table encoding.
    #[test]
    fn indirect_dense_traces_round_trip_at_64ki_boundaries(
        pattern in prop::collection::vec(
            (any::<u64>(), any::<bool>(), any::<u64>(), 0u32..10, 0u32..50),
            1..8,
        ),
        boundary in prop::sample::select(
            vec![BLOCK_RECORDS - 1, BLOCK_RECORDS, BLOCK_RECORDS + 1],
        ),
    ) {
        // 7 in 10 draws land on Indirect; the rest cycle the other
        // kinds so the columnar kind stream still has transitions.
        let records: Vec<BranchRecord> = pattern
            .into_iter()
            .map(|(pc, taken, target, kind, gap)| {
                let kind = match kind {
                    0 => BranchKind::Conditional,
                    1 => BranchKind::Jump,
                    2 => BranchKind::Return,
                    _ => BranchKind::Indirect,
                };
                BranchRecord {
                    pc,
                    taken: taken || kind != BranchKind::Conditional,
                    target,
                    kind,
                    inst_gap: gap as u16,
                }
            })
            .collect();
        let trace = tiled(&records, boundary);
        let via_v2 = read_trace(encode_v2(&trace).as_slice()).unwrap();
        prop_assert_eq!(&via_v2, &trace);
        // Trace equality already implies it, but the contract the
        // target predictors depend on is worth stating directly.
        for (a, b) in trace.iter().zip(via_v2.iter()) {
            prop_assert_eq!(a.kind, b.kind);
            prop_assert_eq!(a.target, b.target);
        }
    }
}

/// Deterministic spot checks of the same boundaries (proptest sampling
/// could in principle skip one).
#[test]
fn block_boundary_lengths_round_trip() {
    let pattern = [
        BranchRecord::conditional(0x400, true),
        BranchRecord::conditional(0x404, false),
        BranchRecord::unconditional(0x500, 0x40, BranchKind::Call),
    ];
    for len in [0, 1, BLOCK_RECORDS - 1, BLOCK_RECORDS, BLOCK_RECORDS + 1] {
        let trace = tiled(&pattern, len);
        let decoded = read_trace(encode_v2(&trace).as_slice()).unwrap();
        assert_eq!(decoded, trace, "len {len}");
        assert_eq!(decoded.block_count(), len.div_ceil(BLOCK_RECORDS), "len {len}");
        assert_eq!(decoded.instruction_count(), trace.instruction_count(), "len {len}");
    }
}

/// The streaming contract, end to end: a multi-block trace driven
/// through [`Gauntlet::run_stream`] produces bit-identical
/// [`PredictionStats`] to the resident [`Gauntlet::run`] path, and a
/// manually driven [`TraceReader`] never buffers more than one block.
///
/// [`PredictionStats`]: branchnet_trace::PredictionStats
#[test]
fn streaming_gauntlet_matches_resident_with_bounded_buffer() {
    let trace: Trace = (0..2 * BLOCK_RECORDS + 123)
        .map(|i| BranchRecord::conditional(0x7000 + (i as u64 % 13) * 4, (i / 3) % 4 != 0))
        .collect();
    let bytes = encode_v2(&trace);

    let mut resident = Gauntlet::new();
    let lane = resident.add(TinyGshare::new());
    resident.run(&trace);

    let mut streamed = Gauntlet::new();
    let slane = streamed.add(TinyGshare::new());
    let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
    streamed.run_stream(&mut reader).unwrap();
    assert_eq!(streamed.stats(slane), resident.stats(lane));

    // Manual block loop: the decode buffer is the only record storage,
    // and it never exceeds one block.
    let mut manual = Gauntlet::new();
    let mlane = manual.add(TinyGshare::new());
    let mut reader = TraceReader::new(bytes.as_slice()).unwrap();
    let mut buf = Vec::new();
    let mut blocks = 0usize;
    let mut records = 0usize;
    loop {
        let n = reader.next_block(&mut buf).unwrap();
        if n == 0 {
            break;
        }
        assert!(n <= BLOCK_RECORDS, "block overflow: {n}");
        assert_eq!(buf.len(), n);
        assert!(buf.capacity() <= 2 * BLOCK_RECORDS, "buffer grew past one block");
        blocks += 1;
        records += n;
        manual.run_block(&buf);
    }
    assert_eq!(blocks, trace.block_count());
    assert_eq!(records, trace.len());
    assert_eq!(manual.stats(mlane), resident.stats(lane));
}

/// Drains a [`TraceReader`] into the flat record sequence plus the
/// per-block split points, so two decode paths can be compared
/// block-for-block, not just record-for-record.
fn drain_blocks<R: std::io::Read>(mut reader: TraceReader<R>) -> (Vec<BranchRecord>, Vec<usize>) {
    let mut buf = Vec::new();
    let mut all = Vec::new();
    let mut splits = Vec::new();
    loop {
        let n = reader.next_block(&mut buf).unwrap();
        if n == 0 {
            break;
        }
        all.extend(buf.iter().copied());
        splits.push(all.len());
    }
    (all, splits)
}

/// A reader that serves its bytes in runs split exactly at the given
/// offsets — every `read` stops at the next seam, so a consumer that
/// assumes one `read` spans a structural boundary (header, side-table,
/// block payload) sees the short return a real socket would produce.
struct SeamReader<'a> {
    data: &'a [u8],
    seams: Vec<usize>,
    pos: usize,
}

impl std::io::Read for SeamReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let mut n = out.len().min(self.data.len() - self.pos);
        for &seam in &self.seams {
            if seam > self.pos {
                n = n.min(seam - self.pos);
                break;
            }
        }
        out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The latent-assumption check for the streaming decoder: decoding
    /// through a reader that returns ONE byte per `read` call — the
    /// most hostile legal `Read` implementation, and exactly what a
    /// slow socket can do — must yield bit-identical blocks (same
    /// records, same block splits) to the resident path.
    #[test]
    fn one_byte_reads_decode_bit_identical_blocks(
        records in prop::collection::vec(
            (any::<u32>(), any::<bool>(), any::<u32>(), 0u32..5, 0u32..200),
            1..120,
        ),
    ) {
        let mut trace = Trace::with_label("format/one-byte", 1.0);
        for r in records {
            trace.push(pattern_record(r));
        }
        let bytes = encode_v2(&trace);
        let resident = drain_blocks(TraceReader::new(bytes.as_slice()).unwrap());
        prop_assert_eq!(&resident.0, &trace.iter().collect::<Vec<_>>());
        // Dogfood the fault harness: ShortReads{max:1} is the
        // 1-byte-per-read adversary.
        let trickle = branchnet_trace::CorruptingReader::new(
            bytes.as_slice(),
            branchnet_trace::FaultPlan::single(branchnet_trace::Fault::ShortReads { max: 1 }),
        );
        let trickled = drain_blocks(TraceReader::new(trickle).unwrap());
        prop_assert_eq!(&trickled, &resident);
    }
}

/// Reads split at every structural seam of the v2 encoding (header /
/// side-table / stream-count / each block header and payload edge)
/// decode bit-identical blocks to the resident path. Covers multi-block
/// traces so seams land between blocks, not just around the header.
#[test]
fn seam_split_reads_decode_bit_identical_blocks() {
    let pattern = [
        BranchRecord::conditional(0x400, true),
        BranchRecord::conditional(0x404, false),
        BranchRecord::unconditional(0x500, 0x40, BranchKind::Call),
    ];
    for len in [1, 7, BLOCK_RECORDS, BLOCK_RECORDS + 1, 2 * BLOCK_RECORDS + 5] {
        let trace = tiled(&pattern, len);
        let bytes = encode_v2(&trace);
        let layout = branchnet_trace::v2_layout(&bytes).unwrap();
        let mut seams = vec![layout.side_table_start, layout.stream_start, layout.end];
        seams.extend(layout.block_starts.iter().copied());
        // Also split one byte after every seam, so a boundary read of
        // length 1 is exercised at each structural edge.
        let mut all: Vec<usize> =
            seams.iter().map(|s| s + 1).chain(seams.iter().copied()).collect();
        all.sort_unstable();
        all.dedup();
        let resident = drain_blocks(TraceReader::new(bytes.as_slice()).unwrap());
        let seamed = drain_blocks(
            TraceReader::new(SeamReader { data: &bytes, seams: all, pos: 0 }).unwrap(),
        );
        assert_eq!(seamed, resident, "len {len}");
    }
}
