//! Compact binary trace files.
//!
//! Profiling runs produce long branch traces that experiments re-read
//! many times; this module gives them a stable, columnar on-disk
//! format (DESIGN.md §10):
//!
//! ```text
//!   magic "BNTR" | version=2 | weight f64 | label (u16 len + utf8)
//!   site count varint | sites (kind u8, zigzag Δpc, zigzag target−pc,
//!                              varint inst_gap)
//!   record count varint
//!   blocks: { records-in-block varint | payload bytes varint |
//!             payload = records × varint((site_index << 1) | taken) }
//! ```
//!
//! Each distinct static branch site is stored once and the dynamic
//! stream is packed as one small varint per record — typically ~1 byte
//! per branch — framed into [`BLOCK_RECORDS`]-sized blocks so
//! `TraceReader` can stream traces larger than RAM with one block of
//! decode buffer. Any other version byte (including the retired
//! per-record v1 layout) is refused as [`ReadTraceError::BadVersion`].

use crate::record::{BranchKind, BranchSite};
use crate::trace::{Trace, BLOCK_RECORDS};
use std::io::{self, Read, Write};

pub(crate) const MAGIC: &[u8; 4] = b"BNTR";
pub(crate) const VERSION_V2: u8 = 2;
/// Upper bound on a plausible record count (~10^12 branches).
pub(crate) const MAX_RECORD_COUNT: u64 = 1 << 40;
/// Upper bound on distinct static sites (the packed stream entry
/// reserves one bit of its `u32` for the direction).
pub(crate) const MAX_SITE_COUNT: u64 = 1 << 31;

/// Errors from reading a trace file.
#[derive(Debug)]
pub enum ReadTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a trace file (bad magic).
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// Structurally invalid content.
    Corrupt(&'static str),
}

impl std::fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadTraceError::Io(e) => write!(f, "i/o error reading trace: {e}"),
            ReadTraceError::BadMagic => write!(f, "not a BranchNet trace file"),
            ReadTraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            ReadTraceError::Corrupt(what) => write!(f, "corrupt trace file: {what}"),
        }
    }
}

impl std::error::Error for ReadTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadTraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReadTraceError {
    fn from(e: io::Error) -> Self {
        ReadTraceError::Io(e)
    }
}

pub(crate) fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

pub(crate) fn read_varint<R: Read>(r: &mut R) -> Result<u64, ReadTraceError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        if shift >= 64 {
            return Err(ReadTraceError::Corrupt("varint overflow"));
        }
        v |= u64::from(byte[0] & 0x7F) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// ZigZag encoding for signed deltas.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

pub(crate) fn kind_code(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::Conditional => 0,
        BranchKind::Jump => 1,
        BranchKind::Call => 2,
        BranchKind::Return => 3,
        BranchKind::Indirect => 4,
    }
}

pub(crate) fn code_kind(code: u8) -> Result<BranchKind, ReadTraceError> {
    Ok(match code {
        0 => BranchKind::Conditional,
        1 => BranchKind::Jump,
        2 => BranchKind::Call,
        3 => BranchKind::Return,
        4 => BranchKind::Indirect,
        _ => return Err(ReadTraceError::Corrupt("unknown branch kind")),
    })
}

/// Writes the file header: magic, version byte, weight, and label.
fn write_header<W: Write>(w: &mut W, trace: &Trace) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[VERSION_V2])?;
    w.write_all(&trace.weight().to_le_bytes())?;
    let label = trace.label().as_bytes();
    let label_len = u16::try_from(label.len()).unwrap_or(u16::MAX);
    w.write_all(&label_len.to_le_bytes())?;
    w.write_all(&label[..usize::from(label_len)])
}

/// Reads the file header; returns `(weight, label)`.
pub(crate) fn read_header<R: Read>(r: &mut R) -> Result<(f64, String), ReadTraceError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(ReadTraceError::BadMagic);
    }
    let mut version = [0u8; 1];
    r.read_exact(&mut version)?;
    let version = version[0];
    if version != VERSION_V2 {
        return Err(ReadTraceError::BadVersion(version));
    }
    let mut weight = [0u8; 8];
    r.read_exact(&mut weight)?;
    let weight = f64::from_le_bytes(weight);
    if !(weight.is_finite() && weight > 0.0) {
        return Err(ReadTraceError::Corrupt("non-positive weight"));
    }
    let mut label_len = [0u8; 2];
    r.read_exact(&mut label_len)?;
    let mut label = vec![0u8; usize::from(u16::from_le_bytes(label_len))];
    r.read_exact(&mut label)?;
    let label = String::from_utf8(label).map_err(|_| ReadTraceError::Corrupt("label not utf-8"))?;
    Ok((weight, label))
}

/// Reads the side-table (count + delta-packed sites). Preallocation
/// is capped so a corrupt count cannot balloon memory before the
/// truncated data is noticed.
pub(crate) fn read_site_table<R: Read>(r: &mut R) -> Result<Vec<BranchSite>, ReadTraceError> {
    let count = read_varint(r)?;
    if count > MAX_SITE_COUNT {
        return Err(ReadTraceError::Corrupt("implausible site count"));
    }
    let mut sites = Vec::with_capacity(count.min(4096) as usize);
    let mut prev_pc = 0u64;
    for _ in 0..count {
        let mut kind = [0u8; 1];
        r.read_exact(&mut kind)?;
        let kind = code_kind(kind[0])?;
        let pc = (prev_pc as i64).wrapping_add(unzigzag(read_varint(r)?)) as u64;
        let target = (pc as i64).wrapping_add(unzigzag(read_varint(r)?)) as u64;
        let inst_gap = u16::try_from(read_varint(r)?)
            .map_err(|_| ReadTraceError::Corrupt("inst_gap overflow"))?;
        sites.push(BranchSite { pc, target, kind, inst_gap });
        prev_pc = pc;
    }
    Ok(sites)
}

/// Per-trace encoding statistics, as produced by [`write_trace`]'s
/// encoder (or [`encoding_stats`] without touching a writer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceEncodingStats {
    /// Dynamic records in the trace.
    pub records: u64,
    /// Distinct static sites in the side-table.
    pub sites: u64,
    /// [`BLOCK_RECORDS`]-sized blocks framing the dynamic stream.
    pub blocks: u64,
    /// Total encoded file size in bytes.
    pub encoded_bytes: u64,
}

impl TraceEncodingStats {
    /// Encoded bytes per dynamic record (0 for an empty trace).
    #[must_use]
    pub fn bytes_per_record(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.encoded_bytes as f64 / self.records as f64
        }
    }

    /// Accumulates another trace's stats into this one.
    pub fn absorb(&mut self, other: &TraceEncodingStats) {
        self.records += other.records;
        self.sites += other.sites;
        self.blocks += other.blocks;
        self.encoded_bytes += other.encoded_bytes;
    }
}

struct CountingWriter<W> {
    inner: W,
    bytes: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

fn encode_v2<W: Write>(w: W, trace: &Trace) -> io::Result<TraceEncodingStats> {
    let mut w = CountingWriter { inner: w, bytes: 0 };
    write_header(&mut w, trace)?;
    let sites = trace.side_table();
    write_varint(&mut w, sites.len() as u64)?;
    let mut prev_pc = 0u64;
    for s in sites {
        w.write_all(&[kind_code(s.kind)])?;
        // Wrapping deltas: the decoder wrapping_adds them back, so any
        // u64 pc/target round-trips even when the delta exceeds i64.
        write_varint(&mut w, zigzag((s.pc as i64).wrapping_sub(prev_pc as i64)))?;
        write_varint(&mut w, zigzag((s.target as i64).wrapping_sub(s.pc as i64)))?;
        write_varint(&mut w, u64::from(s.inst_gap))?;
        prev_pc = s.pc;
    }
    let stream = trace.raw_stream();
    write_varint(&mut w, stream.len() as u64)?;
    let mut payload = Vec::new();
    let mut blocks = 0u64;
    for chunk in stream.chunks(BLOCK_RECORDS) {
        payload.clear();
        for &entry in chunk {
            write_varint(&mut payload, u64::from(entry))?;
        }
        write_varint(&mut w, chunk.len() as u64)?;
        write_varint(&mut w, payload.len() as u64)?;
        w.write_all(&payload)?;
        blocks += 1;
    }
    Ok(TraceEncodingStats {
        records: stream.len() as u64,
        sites: sites.len() as u64,
        blocks,
        encoded_bytes: w.bytes,
    })
}

/// Writes `trace` to `w` in the (v2, columnar) binary format.
///
/// A `&mut` reference works wherever a writer is required.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn write_trace<W: Write>(w: W, trace: &Trace) -> io::Result<()> {
    encode_v2(w, trace).map(|_| ())
}

/// Like [`write_trace`], additionally returning the encoding stats
/// (side-table size, block count, encoded bytes).
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn write_trace_with_stats<W: Write>(w: W, trace: &Trace) -> io::Result<TraceEncodingStats> {
    encode_v2(w, trace)
}

/// The encoding statistics of `trace` without writing anywhere
/// (encodes into a counting sink).
#[must_use]
pub fn encoding_stats(trace: &Trace) -> TraceEncodingStats {
    encode_v2(io::sink(), trace).expect("sink writer cannot fail")
}

/// Reads a trace previously written by [`write_trace`].
///
/// # Errors
///
/// Returns [`ReadTraceError`] on I/O failure or malformed content.
pub fn read_trace<R: Read>(r: R) -> Result<Trace, ReadTraceError> {
    crate::stream::TraceReader::new(r)?.read_to_trace()
}

/// Structural offsets of a v2 file: where the side-table and dynamic
/// stream begin and where each block header starts. The fault harness
/// uses this to aim corruption at block boundaries; it is also handy
/// for forensics on damaged files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct V2Layout {
    /// Offset of the side-table count varint (end of the header).
    pub side_table_start: usize,
    /// Offset of the record-count varint (end of the side-table).
    pub stream_start: usize,
    /// Offset of each block's header (`records-in-block` varint).
    pub block_starts: Vec<usize>,
    /// Offset one past the final block's payload.
    pub end: usize,
}

/// Parses the structural layout of a v2 trace file without decoding
/// records.
///
/// # Errors
///
/// Returns [`ReadTraceError`] if `bytes` is not a structurally valid
/// v2 file.
pub fn v2_layout(bytes: &[u8]) -> Result<V2Layout, ReadTraceError> {
    let total = bytes.len();
    let mut r = bytes;
    read_header(&mut r)?;
    let side_table_start = total - r.len();
    let _sites = read_site_table(&mut r)?;
    let stream_start = total - r.len();
    let mut remaining = read_varint(&mut r)?;
    if remaining > MAX_RECORD_COUNT {
        return Err(ReadTraceError::Corrupt("implausible record count"));
    }
    let mut block_starts = Vec::new();
    while remaining > 0 {
        block_starts.push(total - r.len());
        let n = read_varint(&mut r)?;
        if n == 0 {
            return Err(ReadTraceError::Corrupt("empty block"));
        }
        if n > remaining || n > BLOCK_RECORDS as u64 {
            return Err(ReadTraceError::Corrupt("oversized block"));
        }
        let payload = read_varint(&mut r)?;
        if payload > n.saturating_mul(5) {
            return Err(ReadTraceError::Corrupt("block payload too large"));
        }
        let payload = payload as usize;
        if payload > r.len() {
            return Err(ReadTraceError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated block payload",
            )));
        }
        r = &r[payload..];
        remaining -= n;
    }
    Ok(V2Layout { side_table_start, stream_start, block_starts, end: total - r.len() })
}

/// Writes an artifact file atomically: the payload goes to a
/// `.tmp.<pid>.<seq>` sibling first, is fsynced, and is renamed over
/// `path` only then — so a killed process (or, for the payload bytes,
/// a power loss after the rename) can never leave a torn artifact
/// under the final name for the next run to trip on; at worst it
/// leaves an orphaned temporary. The per-process/per-call suffix keeps
/// concurrent writers to the same destination from stomping each
/// other's half-written temporary, and the temporary lives in the same
/// directory, keeping the rename a same-filesystem atomic operation.
///
/// # Errors
///
/// Propagates creation/write/sync/rename errors; the temporary is
/// removed (best effort) on failure.
pub fn atomic_write(
    path: &std::path::Path,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}.{seq}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let file = std::fs::File::create(&tmp)?;
        let mut w = io::BufWriter::new(file);
        write(&mut w)?;
        w.flush()?;
        w.get_ref().sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Convenience: writes a trace to a file path, atomically (see
/// [`atomic_write`]).
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn save_trace(path: &std::path::Path, trace: &Trace) -> io::Result<()> {
    atomic_write(path, |w| write_trace(w, trace))
}

/// Convenience: reads a trace from a file path.
///
/// # Errors
///
/// Returns [`ReadTraceError`] on open/read failure or malformed
/// content.
pub fn load_trace(path: &std::path::Path) -> Result<Trace, ReadTraceError> {
    let file = std::fs::File::open(path)?;
    read_trace(io::BufReader::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::BranchRecord;

    fn sample_trace() -> Trace {
        let mut t = Trace::with_label("leela/train-1", 0.5);
        for i in 0..200u64 {
            t.push(BranchRecord::conditional(0x1000 + (i % 7) * 8, i % 3 == 0));
            if i % 5 == 0 {
                t.push(BranchRecord::unconditional(0x2000 + i, 0x3000, BranchKind::Call));
            }
            if i % 11 == 0 {
                t.push(BranchRecord::conditional_with_gap(0x4000, true, 123));
            }
        }
        t
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn format_is_compact() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let naive = t.len() * std::mem::size_of::<BranchRecord>();
        assert!(buf.len() * 3 < naive, "packed {} bytes vs naive {} bytes", buf.len(), naive);
    }

    #[test]
    fn encoding_stats_match_the_written_file() {
        let t = sample_trace();
        let mut buf = Vec::new();
        let stats = write_trace_with_stats(&mut buf, &t).unwrap();
        assert_eq!(stats, encoding_stats(&t));
        assert_eq!(stats.encoded_bytes, buf.len() as u64);
        assert_eq!(stats.records, t.len() as u64);
        assert_eq!(stats.sites, t.side_table().len() as u64);
        assert_eq!(stats.blocks, t.block_count() as u64);
        assert!(stats.bytes_per_record() > 0.0);
        let mut acc = TraceEncodingStats::default();
        acc.absorb(&stats);
        acc.absorb(&stats);
        assert_eq!(acc.records, 2 * stats.records);
    }

    #[test]
    fn v2_layout_walks_the_block_structure() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let layout = v2_layout(&buf).unwrap();
        assert_eq!(layout.block_starts.len(), t.block_count());
        assert_eq!(layout.end, buf.len());
        assert!(layout.side_table_start < layout.stream_start);
        assert!(layout.stream_start < layout.block_starts[0]);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_trace(&b"NOPE0000"[..]).unwrap_err();
        assert!(matches!(err, ReadTraceError::BadMagic));
    }

    #[test]
    fn truncated_file_is_an_error_not_a_panic() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        for cut in [5, 16, buf.len() / 2, buf.len() - 1] {
            assert!(read_trace(&buf[..cut]).is_err(), "cut at {cut} must fail cleanly");
        }
    }

    #[test]
    fn unknown_version_is_rejected() {
        // Version 1 (the retired per-record layout) is refused like
        // any other unknown version, by every entry point.
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample_trace()).unwrap();
        for version in [1u8, 99] {
            buf[4] = version;
            assert!(matches!(
                read_trace(buf.as_slice()),
                Err(ReadTraceError::BadVersion(v)) if v == version
            ));
            assert!(matches!(
                crate::stream::TraceReader::new(buf.as_slice()),
                Err(ReadTraceError::BadVersion(v)) if v == version
            ));
            assert!(matches!(v2_layout(&buf), Err(ReadTraceError::BadVersion(v)) if v == version));
        }
    }

    #[test]
    fn varint_round_trips_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(&mut buf.as_slice()).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn file_helpers_round_trip() {
        let dir = std::env::temp_dir().join("branchnet-trace-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.bntr");
        let t = sample_trace();
        save_trace(&path, &t).unwrap();
        assert_eq!(load_trace(&path).unwrap(), t);
        std::fs::remove_file(&path).ok();
    }

    /// Names of leftover `.tmp.<pid>.<seq>` siblings in `dir`.
    fn orphaned_temporaries(dir: &std::path::Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".tmp."))
            .collect()
    }

    #[test]
    fn save_trace_leaves_no_temporary_behind() {
        let dir = std::env::temp_dir().join("branchnet-trace-io-atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.bntr");
        save_trace(&path, &sample_trace()).unwrap();
        assert!(path.exists());
        assert_eq!(orphaned_temporaries(&dir), Vec::<String>::new());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_atomic_write_preserves_the_previous_artifact() {
        let dir = std::env::temp_dir().join("branchnet-trace-io-atomic-fail");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("b.bntr");
        let t = sample_trace();
        save_trace(&path, &t).unwrap();
        // A writer that dies mid-artifact must leave the good file
        // untouched and clean up its temporary.
        let err = atomic_write(&path, |w| {
            w.write_all(b"partial")?;
            Err(io::Error::other("injected mid-write failure"))
        });
        assert!(err.is_err());
        assert_eq!(orphaned_temporaries(&dir), Vec::<String>::new());
        assert_eq!(load_trace(&path).unwrap(), t, "previous artifact must survive");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_atomic_writes_to_one_path_leave_a_complete_artifact() {
        // Two racing writers must not share a temp file: whichever
        // rename lands last wins, but the surviving file is always one
        // writer's complete payload, never an interleaving.
        let dir = std::env::temp_dir().join("branchnet-trace-io-atomic-race");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("c.bntr");
        let traces: Vec<Trace> = (0..2)
            .map(|i| {
                let mut t = Trace::with_label(format!("writer-{i}"), 1.0);
                for j in 0..50u64 {
                    t.push(BranchRecord::conditional(0x1000 + j * 8, (j + i) % 2 == 0));
                }
                t
            })
            .collect();
        std::thread::scope(|s| {
            for t in &traces {
                s.spawn(|| save_trace(&path, t).unwrap());
            }
        });
        let survivor = load_trace(&path).unwrap();
        assert!(traces.contains(&survivor), "survivor must be one complete payload");
        assert_eq!(orphaned_temporaries(&dir), Vec::<String>::new());
        std::fs::remove_file(&path).ok();
    }
}
