//! Streaming block decode of trace files.
//!
//! [`TraceReader`] wraps any byte source and yields decoded
//! [`BranchRecord`] blocks of at most [`BLOCK_RECORDS`] records — the
//! file's own blocks — so a trace far larger than RAM flows through the
//! gauntlet with peak decode memory bounded by one block plus the
//! side-table.

use crate::io::{read_header, read_site_table, read_varint, ReadTraceError, MAX_RECORD_COUNT};
use crate::record::{BranchRecord, BranchSite};
use crate::trace::{Trace, BLOCK_RECORDS};
use std::io::Read;

/// Decodes the `n` packed stream entries of one block payload,
/// checking every site index against the side-table.
fn decode_entries(
    mut payload: &[u8],
    n: usize,
    site_count: usize,
    mut emit: impl FnMut(u32),
) -> Result<(), ReadTraceError> {
    for _ in 0..n {
        let e = read_varint(&mut payload)
            .map_err(|_| ReadTraceError::Corrupt("block payload mismatch"))?;
        let e = u32::try_from(e).map_err(|_| ReadTraceError::Corrupt("stream entry overflow"))?;
        if (e >> 1) as usize >= site_count {
            return Err(ReadTraceError::Corrupt("site index out of range"));
        }
        emit(e);
    }
    if !payload.is_empty() {
        return Err(ReadTraceError::Corrupt("block payload mismatch"));
    }
    Ok(())
}

/// A streaming trace decoder: header and side-table up front, then
/// records block-at-a-time into a caller-owned, reused buffer.
#[derive(Debug)]
pub struct TraceReader<R> {
    inner: R,
    weight: f64,
    label: String,
    total: u64,
    remaining: u64,
    sites: Vec<BranchSite>,
    /// Reused block-payload scratch.
    payload: Vec<u8>,
}

impl<R: Read> TraceReader<R> {
    /// Opens a trace stream: reads and validates the header, the
    /// side-table, and the record count.
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError`] on I/O failure or a malformed
    /// header/side-table.
    pub fn new(mut inner: R) -> Result<Self, ReadTraceError> {
        let (weight, label) = read_header(&mut inner)?;
        let sites = read_site_table(&mut inner)?;
        let total = read_varint(&mut inner)?;
        if total > MAX_RECORD_COUNT {
            return Err(ReadTraceError::Corrupt("implausible record count"));
        }
        Ok(Self { inner, weight, label, total, remaining: total, sites, payload: Vec::new() })
    }

    /// SimPoint weight from the file header.
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Trace label from the file header.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Total records in the trace.
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.total
    }

    /// Records not yet yielded by [`TraceReader::next_block`].
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// The decoded side-table.
    #[must_use]
    pub fn side_table(&self) -> &[BranchSite] {
        &self.sites
    }

    /// Decodes the next block (up to [`BLOCK_RECORDS`] records) into
    /// `buf`, replacing its contents. Returns the number of records
    /// decoded; 0 means the trace is exhausted. The resident twin is
    /// [`Trace::blocks`].
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError`] on I/O failure or malformed block
    /// content; the reader should not be used further after an error.
    pub fn next_block(&mut self, buf: &mut Vec<BranchRecord>) -> Result<usize, ReadTraceError> {
        buf.clear();
        if self.remaining == 0 {
            return Ok(0);
        }
        let n = self.fetch_block()?;
        let sites = &self.sites;
        decode_entries(&self.payload, n, sites.len(), |e| {
            buf.push(sites[(e >> 1) as usize].record(e & 1 == 1));
        })?;
        self.remaining -= n as u64;
        Ok(n)
    }

    /// Drains the whole stream into a resident [`Trace`]. The
    /// side-table and packed stream are adopted directly, with no
    /// per-record re-interning.
    ///
    /// # Errors
    ///
    /// Returns [`ReadTraceError`] on I/O failure or malformed content.
    pub fn read_to_trace(mut self) -> Result<Trace, ReadTraceError> {
        let mut stream = Vec::with_capacity(self.total.min(1 << 24) as usize);
        while self.remaining > 0 {
            let n = self.fetch_block()?;
            decode_entries(&self.payload, n, self.sites.len(), |e| stream.push(e))?;
            self.remaining -= n as u64;
        }
        Ok(Trace::from_parts(self.sites, stream, self.weight, self.label))
    }

    /// Reads one block header and its payload into the reused scratch
    /// buffer; returns the block's record count.
    fn fetch_block(&mut self) -> Result<usize, ReadTraceError> {
        let n = read_varint(&mut self.inner)?;
        if n == 0 {
            return Err(ReadTraceError::Corrupt("empty block"));
        }
        if n > self.remaining || n > BLOCK_RECORDS as u64 {
            return Err(ReadTraceError::Corrupt("oversized block"));
        }
        let payload_len = read_varint(&mut self.inner)?;
        // A u32 stream entry varint is at most 5 bytes, so anything
        // larger than 5n cannot be a truthful length field.
        if payload_len > n.saturating_mul(5) {
            return Err(ReadTraceError::Corrupt("block payload too large"));
        }
        self.payload.clear();
        self.payload.resize(payload_len as usize, 0);
        self.inner.read_exact(&mut self.payload)?;
        Ok(n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::write_trace;
    use crate::record::BranchKind;

    fn sample(n: u64) -> Trace {
        let mut t = Trace::with_label("stream/sample", 0.5);
        for i in 0..n {
            t.push(BranchRecord::conditional(0x1000 + (i % 13) * 8, i % 3 == 0));
            if i % 17 == 0 {
                t.push(BranchRecord::unconditional(0x9000, 0x100, BranchKind::Return));
            }
        }
        t
    }

    fn drain<R: Read>(mut reader: TraceReader<R>) -> Vec<BranchRecord> {
        let mut buf = Vec::new();
        let mut all = Vec::new();
        loop {
            let n = reader.next_block(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            assert!(n <= BLOCK_RECORDS);
            assert_eq!(n, buf.len());
            all.extend(buf.iter().copied());
        }
        all
    }

    #[test]
    fn blocks_reproduce_the_record_sequence() {
        let t = sample(500);
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let reader = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(reader.record_count(), t.len() as u64);
        assert_eq!(reader.label(), "stream/sample");
        assert_eq!(reader.side_table(), t.side_table());
        assert_eq!(drain(reader), t.iter().collect::<Vec<_>>());
    }

    #[test]
    fn read_to_trace_matches_block_iteration() {
        let t = sample(300);
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let full = TraceReader::new(buf.as_slice()).unwrap().read_to_trace().unwrap();
        assert_eq!(full, t);
        assert_eq!(
            full.iter().collect::<Vec<_>>(),
            drain(TraceReader::new(buf.as_slice()).unwrap())
        );
    }

    #[test]
    fn empty_trace_streams_zero_blocks() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &Trace::new()).unwrap();
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        let mut block = Vec::new();
        assert_eq!(reader.next_block(&mut block).unwrap(), 0);
        assert_eq!(reader.remaining(), 0);
    }
}
