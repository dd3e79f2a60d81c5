//! Compact chunk-indexed binary event-file format (`SGEB`).
//!
//! The text format of [`crate::events_out`] is the human-readable
//! exchange representation; at production trace volume (billions of
//! records) it is both bulky (~27 bytes/record) and forces the
//! post-processing passes to hold the whole record list in memory. This
//! module defines the on-disk binary counterpart the streaming analyses
//! consume:
//!
//! * **Varint-delta records.** Each record is a tag byte plus LEB128
//!   varints; call numbers are zigzag-delta encoded against the previous
//!   record's call (calls are near-monotonic, so deltas are tiny).
//! * **Independently decodable chunks.** Records are grouped into chunks
//!   (default [`DEFAULT_CHUNK_RECORDS`] records); the delta baseline
//!   resets at every chunk boundary, so any chunk can be decoded without
//!   its predecessors. Each chunk is framed by a fixed header carrying
//!   its payload length, record count, and an FNV-1a checksum — the file
//!   is self-framing and sequentially streamable with memory bounded by
//!   one chunk.
//! * **Trailer index.** After the last chunk, a fixed-width index records
//!   every chunk's file offset, record count, call-record count, compute
//!   ops, and transfer bytes, followed by a footer with the index offset
//!   and whole-file totals. Readers over a byte slice (e.g. an mmap) can
//!   seek straight to the trailer, answer `stat` queries without touching
//!   a single record, and random-access any chunk.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header   "SGEB" | version u16 | flags u16 | chunk_target u32 | reserved u32
//! chunk*   0x01 | record_count u32 | payload_len u32 | fnv1a64 u64 | payload
//! index    0x02 | per chunk: offset u64 | record_count u32 | call_records u32
//!                            | compute_ops u64 | transfer_bytes u64
//! footer   index_offset u64 | chunk_count u64 | total_records u64 | "SGEBIDX\0"
//! ```
//!
//! Record payload encoding (per-chunk `prev` starts at 0):
//!
//! ```text
//! Call     0x00 zz(parent - prev) zz(call - prev) ctx          prev = call
//! Compute  0x01 zz(call - prev)   ctx             ops          prev = call
//! Transfer 0x02 zz(from - prev)   zz(to - from)   bytes        prev = to
//! ```
//!
//! Lossless round-trips with the text format are pinned by the
//! `events_roundtrip` proptests; decoding arbitrary byte soup returns a
//! located [`BinError`], never a panic.

use std::fmt;
use std::io::{self, Read, Write};

use sigil_callgrind::ContextId;
use sigil_trace::CallNumber;

use crate::events_out::{EventFile, EventRecord};

/// File magic, first four bytes.
pub const MAGIC: [u8; 4] = *b"SGEB";
/// Footer magic, last eight bytes.
pub const END_MAGIC: [u8; 8] = *b"SGEBIDX\0";
/// Current format version.
pub const VERSION: u16 = 1;
/// Default records per chunk.
pub const DEFAULT_CHUNK_RECORDS: usize = 4096;

/// Tag byte framing a chunk.
const TAG_CHUNK: u8 = 0x01;
/// Tag byte framing the trailer index.
const TAG_INDEX: u8 = 0x02;
/// Byte length of the fixed file header.
const HEADER_LEN: usize = 16;
/// Byte length of a chunk frame header (after the tag byte).
const CHUNK_HEADER_LEN: usize = 16;
/// Byte length of one trailer-index entry.
const INDEX_ENTRY_LEN: usize = 32;
/// Byte length of the footer.
const FOOTER_LEN: usize = 32;
/// Upper bound on a single chunk payload (corruption guard: never
/// allocate more than this from an untrusted length field). Public so
/// wire protocols framing SGEB chunk payloads enforce the same bound.
pub const MAX_PAYLOAD: u32 = 1 << 26;

/// A decode or I/O failure, located as precisely as the format allows.
#[derive(Debug)]
pub enum BinError {
    /// An underlying I/O error (file readers/writers only).
    Io(io::Error),
    /// Malformed bytes: absolute file `offset`, the chunk being decoded
    /// (`None` for header/trailer damage), and what went wrong.
    Format {
        /// Absolute byte offset of the damage.
        offset: u64,
        /// Index of the chunk being decoded, if any.
        chunk: Option<usize>,
        /// Human-readable description.
        message: String,
    },
}

impl BinError {
    fn format(offset: u64, chunk: Option<usize>, message: impl Into<String>) -> Self {
        BinError::Format {
            offset,
            chunk,
            message: message.into(),
        }
    }
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinError::Io(e) => write!(f, "event file I/O error: {e}"),
            BinError::Format {
                offset,
                chunk,
                message,
            } => match chunk {
                Some(c) => write!(
                    f,
                    "bad event file at offset {offset} (chunk {c}): {message}"
                ),
                None => write!(f, "bad event file at offset {offset}: {message}"),
            },
        }
    }
}

impl std::error::Error for BinError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BinError::Io(e) => Some(e),
            BinError::Format { .. } => None,
        }
    }
}

impl From<io::Error> for BinError {
    fn from(e: io::Error) -> Self {
        BinError::Io(e)
    }
}

/// Per-chunk bookkeeping, as stored in the trailer index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChunkInfo {
    /// Absolute file offset of the chunk's tag byte.
    pub offset: u64,
    /// Records in the chunk.
    pub records: u32,
    /// How many of them are `Call` records.
    pub call_records: u32,
    /// Sum of `Compute::ops` in the chunk.
    pub compute_ops: u64,
    /// Sum of `Transfer::bytes` in the chunk.
    pub transfer_bytes: u64,
}

/// Whole-file totals, computable from the trailer index alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BinTotals {
    /// Number of chunks.
    pub chunks: u64,
    /// Total records.
    pub records: u64,
    /// Total `Call` records.
    pub call_records: u64,
    /// Total compute ops.
    pub compute_ops: u64,
    /// Total transfer bytes.
    pub transfer_bytes: u64,
}

impl ChunkInfo {
    /// Counts one record into the entry.
    fn count(&mut self, record: &EventRecord) {
        self.records += 1;
        match *record {
            EventRecord::Call { .. } => self.call_records += 1,
            EventRecord::Compute { ops, .. } => self.compute_ops += ops,
            EventRecord::Transfer { bytes, .. } => self.transfer_bytes += bytes,
        }
    }
}

impl BinTotals {
    fn accumulate(&mut self, info: &ChunkInfo) {
        self.chunks += 1;
        self.records += u64::from(info.records);
        self.call_records += u64::from(info.call_records);
        self.compute_ops += info.compute_ops;
        self.transfer_bytes += info.transfer_bytes;
    }
}

// ---------------------------------------------------------------------------
// Varint / zigzag primitives
// ---------------------------------------------------------------------------

/// Appends `value` as LEB128 to `out`.
fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag-encodes a wrapping u64 difference so small ± deltas stay small.
fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(value: u64) -> u64 {
    ((value >> 1) as i64 ^ -((value & 1) as i64)) as u64
}

/// Cursor decoding varints from a chunk payload, reporting absolute file
/// offsets on damage.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
    /// Absolute file offset of `data[0]`, for error locations.
    base: u64,
    chunk: Option<usize>,
}

impl Cursor<'_> {
    fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    fn byte(&mut self) -> Result<u8, BinError> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or_else(|| BinError::format(self.offset(), self.chunk, "truncated record"))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, BinError> {
        let start = self.offset();
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
            if shift == 63 && byte > 1 {
                return Err(BinError::format(start, self.chunk, "varint overflows u64"));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(BinError::format(
                    start,
                    self.chunk,
                    "varint longer than 10 bytes",
                ));
            }
        }
    }

    fn ctx(&mut self) -> Result<ContextId, BinError> {
        let start = self.offset();
        let raw = self.varint()?;
        let raw = u32::try_from(raw).map_err(|_| {
            BinError::format(start, self.chunk, format!("context id {raw} out of range"))
        })?;
        Ok(ContextId(raw))
    }
}

// ---------------------------------------------------------------------------
// Little-endian field helpers
// ---------------------------------------------------------------------------

fn read_u32(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes"))
}

fn read_u64(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"))
}

/// FNV-1a 64-bit over a chunk payload — cheap corruption detection.
fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in data {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Encodes one record into `out`, advancing the delta baseline.
fn encode_record(out: &mut Vec<u8>, record: &EventRecord, prev_call: &mut u64) {
    match *record {
        EventRecord::Call {
            parent_call,
            call,
            ctx,
        } => {
            out.push(0);
            put_varint(out, zigzag(parent_call.as_raw().wrapping_sub(*prev_call)));
            put_varint(out, zigzag(call.as_raw().wrapping_sub(*prev_call)));
            put_varint(out, u64::from(ctx.0));
            *prev_call = call.as_raw();
        }
        EventRecord::Compute { call, ctx, ops } => {
            out.push(1);
            put_varint(out, zigzag(call.as_raw().wrapping_sub(*prev_call)));
            put_varint(out, u64::from(ctx.0));
            put_varint(out, ops);
            *prev_call = call.as_raw();
        }
        EventRecord::Transfer {
            from_call,
            to_call,
            bytes,
        } => {
            out.push(2);
            put_varint(out, zigzag(from_call.as_raw().wrapping_sub(*prev_call)));
            put_varint(
                out,
                zigzag(to_call.as_raw().wrapping_sub(from_call.as_raw())),
            );
            put_varint(out, bytes);
            *prev_call = to_call.as_raw();
        }
    }
}

/// Decodes one record from `cursor`, advancing the delta baseline.
fn decode_record(cursor: &mut Cursor<'_>, prev_call: &mut u64) -> Result<EventRecord, BinError> {
    let at = cursor.offset();
    let tag = cursor.byte()?;
    match tag {
        0 => {
            let parent = prev_call.wrapping_add(unzigzag(cursor.varint()?));
            let call = prev_call.wrapping_add(unzigzag(cursor.varint()?));
            let ctx = cursor.ctx()?;
            *prev_call = call;
            Ok(EventRecord::Call {
                parent_call: CallNumber::from_raw(parent),
                call: CallNumber::from_raw(call),
                ctx,
            })
        }
        1 => {
            let call = prev_call.wrapping_add(unzigzag(cursor.varint()?));
            let ctx = cursor.ctx()?;
            let ops = cursor.varint()?;
            *prev_call = call;
            Ok(EventRecord::Compute {
                call: CallNumber::from_raw(call),
                ctx,
                ops,
            })
        }
        2 => {
            let from = prev_call.wrapping_add(unzigzag(cursor.varint()?));
            let to = from.wrapping_add(unzigzag(cursor.varint()?));
            let bytes = cursor.varint()?;
            *prev_call = to;
            Ok(EventRecord::Transfer {
                from_call: CallNumber::from_raw(from),
                to_call: CallNumber::from_raw(to),
                bytes,
            })
        }
        other => Err(BinError::format(
            at,
            cursor.chunk,
            format!("unknown record tag {other:#04x}"),
        )),
    }
}

/// Decodes exactly `records` records from one chunk payload, appending
/// them to `out`. `base` is the payload's absolute offset and `chunk`
/// its index, for error locations.
///
/// Reserves room for at most `payload.len() / 4` records, whatever
/// `records` claims: every record is at least four bytes (a tag and
/// three varints), so a larger count is a truncated-record error, not
/// an allocation.
fn decode_payload(
    payload: &[u8],
    records: u32,
    base: u64,
    chunk: Option<usize>,
    out: &mut Vec<EventRecord>,
) -> Result<(), BinError> {
    out.reserve((records as usize).min(payload.len() / 4));
    let mut cursor = Cursor {
        data: payload,
        pos: 0,
        base,
        chunk,
    };
    let mut prev_call = 0u64;
    for _ in 0..records {
        out.push(decode_record(&mut cursor, &mut prev_call)?);
    }
    if cursor.pos != payload.len() {
        return Err(BinError::format(
            cursor.offset(),
            chunk,
            format!(
                "{} trailing payload bytes after the last record",
                payload.len() - cursor.pos
            ),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Standalone chunk-payload codec (wire reuse)
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit checksum as used over SGEB chunk payloads — exposed so
/// wire framings reusing the chunk encoding can carry the same checksum.
pub fn payload_checksum(data: &[u8]) -> u64 {
    fnv1a64(data)
}

/// Encodes `records` as one standalone SGEB chunk payload: the exact
/// byte encoding a [`BinWriter`] would emit for a chunk holding these
/// records (varint/zigzag-delta, per-chunk `prev_call` baseline of 0).
pub fn encode_chunk_payload(records: &[EventRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * 8);
    let mut prev_call = 0u64;
    for record in records {
        encode_record(&mut out, record, &mut prev_call);
    }
    out
}

/// Decodes one standalone SGEB chunk payload of exactly `records`
/// records, as produced by [`encode_chunk_payload`] (or cut from a
/// `.evb` file). Offsets in errors are payload-relative.
///
/// # Errors
///
/// Returns a located [`BinError`] on malformed records, a record count
/// mismatch, or trailing payload bytes.
pub fn decode_chunk_payload(payload: &[u8], records: u32) -> Result<Vec<EventRecord>, BinError> {
    let mut out = Vec::new();
    decode_payload(payload, records, 0, None, &mut out)?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming writer: push records one at a time; chunks flush at the
/// configured record count and the trailer index lands on [`finish`].
///
/// The encoder batches records into one reusable per-chunk buffer (the
/// chunk-run idiom: one sink write per chunk, not per record).
///
/// [`finish`]: BinWriter::finish
pub struct BinWriter<W: Write> {
    sink: W,
    /// Encoded payload of the chunk in progress (reused between chunks).
    buf: Vec<u8>,
    chunk_target: usize,
    /// Records in the chunk in progress.
    pending: ChunkInfo,
    prev_call: u64,
    index: Vec<ChunkInfo>,
    /// Bytes written to `sink` so far.
    offset: u64,
}

impl<W: Write> BinWriter<W> {
    /// Starts a file with the default chunk size. Writes the header
    /// immediately.
    ///
    /// # Errors
    ///
    /// Fails if the header cannot be written.
    pub fn new(sink: W) -> io::Result<Self> {
        Self::with_chunk_records(sink, DEFAULT_CHUNK_RECORDS)
    }

    /// Starts a file flushing a chunk every `chunk_records` records
    /// (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Fails if the header cannot be written.
    pub fn with_chunk_records(mut sink: W, chunk_records: usize) -> io::Result<Self> {
        let chunk_target = chunk_records.max(1);
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&MAGIC);
        header[4..6].copy_from_slice(&VERSION.to_le_bytes());
        // flags (6..8) reserved as zero.
        let target = u32::try_from(chunk_target.min(u32::MAX as usize)).expect("clamped");
        header[8..12].copy_from_slice(&target.to_le_bytes());
        sink.write_all(&header)?;
        Ok(BinWriter {
            sink,
            buf: Vec::with_capacity(64 * chunk_target.min(1 << 16)),
            chunk_target,
            pending: ChunkInfo::default(),
            prev_call: 0,
            index: Vec::new(),
            offset: HEADER_LEN as u64,
        })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Fails if a full chunk cannot be flushed to the sink.
    pub fn push(&mut self, record: &EventRecord) -> io::Result<()> {
        encode_record(&mut self.buf, record, &mut self.prev_call);
        self.pending.count(record);
        if self.pending.records as usize >= self.chunk_target {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Appends every record of an in-memory event file.
    ///
    /// # Errors
    ///
    /// Fails if a full chunk cannot be flushed to the sink.
    pub fn push_file(&mut self, events: &EventFile) -> io::Result<()> {
        for record in events.records() {
            self.push(record)?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.pending.records == 0 {
            return Ok(());
        }
        let payload_len = u32::try_from(self.buf.len()).expect("chunk payloads stay under 4 GiB");
        debug_assert!(
            payload_len <= MAX_PAYLOAD,
            "chunk target keeps payloads small"
        );
        let mut frame = [0u8; 1 + CHUNK_HEADER_LEN];
        frame[0] = TAG_CHUNK;
        frame[1..5].copy_from_slice(&self.pending.records.to_le_bytes());
        frame[5..9].copy_from_slice(&payload_len.to_le_bytes());
        frame[9..17].copy_from_slice(&fnv1a64(&self.buf).to_le_bytes());
        self.sink.write_all(&frame)?;
        self.sink.write_all(&self.buf)?;
        self.pending.offset = self.offset;
        self.index.push(self.pending);
        self.offset += frame.len() as u64 + u64::from(payload_len);
        self.pending = ChunkInfo::default();
        self.buf.clear();
        self.prev_call = 0;
        Ok(())
    }

    /// Flushes the final chunk, writes the trailer index and footer, and
    /// returns the whole-file totals alongside the sink.
    ///
    /// # Errors
    ///
    /// Fails if the trailer cannot be written.
    pub fn finish(mut self) -> io::Result<(BinTotals, W)> {
        self.flush_chunk()?;
        let index_offset = self.offset;
        let mut trailer = Vec::with_capacity(1 + self.index.len() * INDEX_ENTRY_LEN + FOOTER_LEN);
        trailer.push(TAG_INDEX);
        let mut totals = BinTotals::default();
        for info in &self.index {
            totals.accumulate(info);
            trailer.extend_from_slice(&info.offset.to_le_bytes());
            trailer.extend_from_slice(&info.records.to_le_bytes());
            trailer.extend_from_slice(&info.call_records.to_le_bytes());
            trailer.extend_from_slice(&info.compute_ops.to_le_bytes());
            trailer.extend_from_slice(&info.transfer_bytes.to_le_bytes());
        }
        trailer.extend_from_slice(&index_offset.to_le_bytes());
        trailer.extend_from_slice(&totals.chunks.to_le_bytes());
        trailer.extend_from_slice(&totals.records.to_le_bytes());
        trailer.extend_from_slice(&END_MAGIC);
        self.sink.write_all(&trailer)?;
        self.sink.flush()?;
        Ok((totals, self.sink))
    }

    /// Bytes written to the sink so far (excluding the unflushed chunk).
    pub fn bytes_written(&self) -> u64 {
        self.offset
    }
}

/// Encodes an in-memory event file to a byte vector.
pub fn encode_events(events: &EventFile) -> Vec<u8> {
    encode_events_chunked(events, DEFAULT_CHUNK_RECORDS)
}

/// Encodes with an explicit chunk size (tests and benches).
pub fn encode_events_chunked(events: &EventFile, chunk_records: usize) -> Vec<u8> {
    let mut writer = BinWriter::with_chunk_records(Vec::new(), chunk_records)
        .expect("writing to a Vec cannot fail");
    writer
        .push_file(events)
        .expect("writing to a Vec cannot fail");
    let (_, bytes) = writer.finish().expect("writing to a Vec cannot fail");
    bytes
}

/// Decodes a whole binary event file into memory.
///
/// # Errors
///
/// Returns a located [`BinError`] on any malformed byte.
pub fn decode_events(data: &[u8]) -> Result<EventFile, BinError> {
    BinReader::parse(data)?.to_event_file()
}

// ---------------------------------------------------------------------------
// Slice reader (mmap-style random access)
// ---------------------------------------------------------------------------

/// Random-access reader over a complete in-memory (or memory-mapped)
/// binary event file.
///
/// Parsing validates the header, footer, and trailer index; record
/// payloads are only decoded on demand, chunk by chunk.
pub struct BinReader<'a> {
    data: &'a [u8],
    index: Vec<ChunkInfo>,
    totals: BinTotals,
    /// Records per chunk the writer was configured with.
    chunk_target: u32,
}

impl<'a> BinReader<'a> {
    /// Parses the framing of a complete binary event file.
    ///
    /// # Errors
    ///
    /// Returns a located [`BinError`] if the header, footer, or index is
    /// malformed.
    pub fn parse(data: &'a [u8]) -> Result<Self, BinError> {
        if data.len() < HEADER_LEN + 1 + FOOTER_LEN {
            return Err(BinError::format(
                0,
                None,
                format!(
                    "file too short ({} bytes) for header and trailer",
                    data.len()
                ),
            ));
        }
        if data[..4] != MAGIC {
            return Err(BinError::format(0, None, "bad magic (not an SGEB file)"));
        }
        let version = u16::from_le_bytes([data[4], data[5]]);
        if version != VERSION {
            return Err(BinError::format(
                4,
                None,
                format!("unsupported version {version} (expected {VERSION})"),
            ));
        }
        let chunk_target = read_u32(data, 8);
        let footer_at = data.len() - FOOTER_LEN;
        if data[footer_at + 24..] != END_MAGIC {
            return Err(BinError::format(
                (footer_at + 24) as u64,
                None,
                "bad footer magic (truncated file?)",
            ));
        }
        let index_offset = read_u64(data, footer_at);
        let chunk_count = read_u64(data, footer_at + 8);
        let total_records = read_u64(data, footer_at + 16);
        let index_at = usize::try_from(index_offset)
            .ok()
            .filter(|&at| at >= HEADER_LEN && at < footer_at)
            .ok_or_else(|| {
                BinError::format(
                    footer_at as u64,
                    None,
                    format!("index offset {index_offset} out of bounds"),
                )
            })?;
        if data[index_at] != TAG_INDEX {
            return Err(BinError::format(
                index_at as u64,
                None,
                "index offset does not point at an index tag",
            ));
        }
        let entries = usize::try_from(chunk_count)
            .ok()
            .filter(|&n| {
                n.checked_mul(INDEX_ENTRY_LEN)
                    .and_then(|len| len.checked_add(index_at + 1))
                    == Some(footer_at)
            })
            .ok_or_else(|| {
                BinError::format(
                    index_at as u64,
                    None,
                    format!("index length does not match {chunk_count} chunks"),
                )
            })?;
        let mut index = Vec::with_capacity(entries);
        let mut totals = BinTotals::default();
        let mut expect_offset = HEADER_LEN as u64;
        for i in 0..entries {
            let at = index_at + 1 + i * INDEX_ENTRY_LEN;
            let info = ChunkInfo {
                offset: read_u64(data, at),
                records: read_u32(data, at + 8),
                call_records: read_u32(data, at + 12),
                compute_ops: read_u64(data, at + 16),
                transfer_bytes: read_u64(data, at + 24),
            };
            if info.offset != expect_offset {
                return Err(BinError::format(
                    at as u64,
                    Some(i),
                    format!(
                        "index offset {} disagrees with chunk layout (expected {expect_offset})",
                        info.offset
                    ),
                ));
            }
            let header_at = usize::try_from(info.offset)
                .ok()
                .filter(|&o| o + 1 + CHUNK_HEADER_LEN <= index_at)
                .ok_or_else(|| {
                    BinError::format(info.offset, Some(i), "chunk header out of bounds")
                })?;
            if data[header_at] != TAG_CHUNK {
                return Err(BinError::format(
                    info.offset,
                    Some(i),
                    "chunk offset does not point at a chunk tag",
                ));
            }
            let records = read_u32(data, header_at + 1);
            let payload_len = read_u32(data, header_at + 5);
            if records != info.records {
                return Err(BinError::format(
                    info.offset,
                    Some(i),
                    format!(
                        "chunk header record count {records} disagrees with index ({})",
                        info.records
                    ),
                ));
            }
            if payload_len > MAX_PAYLOAD {
                return Err(BinError::format(
                    info.offset,
                    Some(i),
                    format!("chunk payload length {payload_len} exceeds limit"),
                ));
            }
            let end = header_at + 1 + CHUNK_HEADER_LEN + payload_len as usize;
            if end > index_at {
                return Err(BinError::format(
                    info.offset,
                    Some(i),
                    "chunk payload overruns the trailer index",
                ));
            }
            expect_offset = end as u64;
            totals.accumulate(&info);
            index.push(info);
        }
        if expect_offset != index_at as u64 {
            return Err(BinError::format(
                expect_offset,
                None,
                "gap between last chunk and trailer index",
            ));
        }
        if totals.records != total_records {
            return Err(BinError::format(
                (footer_at + 16) as u64,
                None,
                format!(
                    "footer total {total_records} disagrees with index sum {}",
                    totals.records
                ),
            ));
        }
        Ok(BinReader {
            data,
            index,
            totals,
            chunk_target,
        })
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.index.len()
    }

    /// The trailer-index entries.
    pub fn index(&self) -> &[ChunkInfo] {
        &self.index
    }

    /// Whole-file totals (from the trailer index — no record decoding).
    pub fn totals(&self) -> BinTotals {
        self.totals
    }

    /// The writer's configured records-per-chunk target.
    pub fn chunk_target(&self) -> u32 {
        self.chunk_target
    }

    /// The raw payload slice of chunk `i` (checksum not yet verified).
    fn payload(&self, i: usize) -> Result<(&'a [u8], u64), BinError> {
        let info = self.index[i];
        let header_at = info.offset as usize;
        let payload_len = read_u32(self.data, header_at + 5) as usize;
        let start = header_at + 1 + CHUNK_HEADER_LEN;
        let payload = &self.data[start..start + payload_len];
        let checksum = read_u64(self.data, header_at + 9);
        if fnv1a64(payload) != checksum {
            return Err(BinError::format(
                info.offset,
                Some(i),
                "chunk checksum mismatch (corrupted payload)",
            ));
        }
        Ok((payload, start as u64))
    }

    /// Decodes chunk `i` into `out` (cleared first). The buffer can be
    /// reused across chunks so peak memory stays bounded by one chunk.
    ///
    /// # Errors
    ///
    /// Returns a located [`BinError`] on checksum mismatch or malformed
    /// records.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.chunk_count()`.
    pub fn decode_chunk_into(&self, i: usize, out: &mut Vec<EventRecord>) -> Result<(), BinError> {
        out.clear();
        self.append_chunk(i, out)
    }

    /// Decodes chunk `i`, appending its records to `out`.
    fn append_chunk(&self, i: usize, out: &mut Vec<EventRecord>) -> Result<(), BinError> {
        let (payload, base) = self.payload(i)?;
        decode_payload(payload, self.index[i].records, base, Some(i), out)
    }

    /// Decodes the whole file into an in-memory [`EventFile`].
    ///
    /// # Errors
    ///
    /// Returns a located [`BinError`] on any malformed chunk.
    pub fn to_event_file(&self) -> Result<EventFile, BinError> {
        let mut records = Vec::new();
        for i in 0..self.chunk_count() {
            self.append_chunk(i, &mut records)?;
        }
        Ok(EventFile::from_records(records))
    }

    /// Fully decodes every chunk and checks the per-chunk index entries
    /// and footer totals against the actual records.
    ///
    /// # Errors
    ///
    /// Returns a located [`BinError`] on any disagreement.
    pub fn verify(&self) -> Result<BinTotals, BinError> {
        let mut buf = Vec::new();
        for (i, info) in self.index.iter().enumerate() {
            self.decode_chunk_into(i, &mut buf)?;
            let mut scanned = ChunkInfo {
                offset: info.offset,
                ..ChunkInfo::default()
            };
            buf.iter().for_each(|record| scanned.count(record));
            if scanned != *info {
                return Err(BinError::format(
                    info.offset,
                    Some(i),
                    format!("index entry {info:?} disagrees with scanned {scanned:?}"),
                ));
            }
        }
        Ok(self.totals)
    }
}

// ---------------------------------------------------------------------------
// Sequential file stream (bounded memory)
// ---------------------------------------------------------------------------

/// Sequential reader over any `Read` source: decodes one chunk at a time
/// into a reusable buffer, so peak memory is bounded by one chunk
/// regardless of trace length. On reaching the trailer it validates the
/// index and footer against everything streamed.
pub struct ChunkStream<R: Read> {
    source: R,
    /// Reusable payload buffer.
    payload: Vec<u8>,
    /// Reusable decoded-records buffer.
    records: Vec<EventRecord>,
    /// Per-chunk info accumulated while streaming (checked against the
    /// trailer index).
    seen: Vec<ChunkInfo>,
    offset: u64,
    done: bool,
}

impl<R: Read> ChunkStream<R> {
    /// Opens a stream, reading and validating the file header.
    ///
    /// # Errors
    ///
    /// Returns a located [`BinError`] if the header is malformed.
    pub fn new(mut source: R) -> Result<Self, BinError> {
        let mut header = [0u8; HEADER_LEN];
        source.read_exact(&mut header).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                BinError::format(0, None, "file too short for an SGEB header")
            } else {
                BinError::Io(e)
            }
        })?;
        if header[..4] != MAGIC {
            return Err(BinError::format(0, None, "bad magic (not an SGEB file)"));
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != VERSION {
            return Err(BinError::format(
                4,
                None,
                format!("unsupported version {version} (expected {VERSION})"),
            ));
        }
        Ok(ChunkStream {
            source,
            payload: Vec::new(),
            records: Vec::new(),
            seen: Vec::new(),
            offset: HEADER_LEN as u64,
            done: false,
        })
    }

    /// Decodes the next chunk, returning its records (borrowed from the
    /// internal buffer), or `None` after the trailer validates clean.
    ///
    /// # Errors
    ///
    /// Returns a located [`BinError`] on I/O failure, corruption, or a
    /// trailer that disagrees with the streamed chunks.
    #[allow(clippy::should_implement_trait)] // lending iterator: items borrow self
    pub fn next_chunk(&mut self) -> Result<Option<&[EventRecord]>, BinError> {
        if self.done {
            return Ok(None);
        }
        let chunk_at = self.offset;
        let mut tag = [0u8; 1];
        self.source.read_exact(&mut tag).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                BinError::format(chunk_at, None, "truncated file: missing trailer index")
            } else {
                BinError::Io(e)
            }
        })?;
        match tag[0] {
            TAG_CHUNK => {}
            TAG_INDEX => {
                self.done = true;
                self.validate_trailer()?;
                return Ok(None);
            }
            other => {
                return Err(BinError::format(
                    chunk_at,
                    Some(self.seen.len()),
                    format!("expected a chunk or index tag, found {other:#04x}"),
                ));
            }
        }
        let chunk = self.seen.len();
        let mut header = [0u8; CHUNK_HEADER_LEN];
        self.read_fully(&mut header, chunk_at, chunk)?;
        let records = read_u32(&header, 0);
        let payload_len = read_u32(&header, 4);
        let checksum = read_u64(&header, 8);
        if payload_len > MAX_PAYLOAD {
            return Err(BinError::format(
                chunk_at,
                Some(chunk),
                format!("chunk payload length {payload_len} exceeds limit"),
            ));
        }
        self.payload.resize(payload_len as usize, 0);
        let mut payload = std::mem::take(&mut self.payload);
        let read = self.read_fully(&mut payload, chunk_at, chunk);
        self.payload = payload;
        read?;
        if fnv1a64(&self.payload) != checksum {
            return Err(BinError::format(
                chunk_at,
                Some(chunk),
                "chunk checksum mismatch (corrupted payload)",
            ));
        }
        self.records.clear();
        decode_payload(
            &self.payload,
            records,
            chunk_at + 1 + CHUNK_HEADER_LEN as u64,
            Some(chunk),
            &mut self.records,
        )?;
        let mut info = ChunkInfo {
            offset: chunk_at,
            ..ChunkInfo::default()
        };
        self.records.iter().for_each(|record| info.count(record));
        self.seen.push(info);
        self.offset = chunk_at + 1 + CHUNK_HEADER_LEN as u64 + u64::from(payload_len);
        Ok(Some(&self.records))
    }

    fn read_fully(&mut self, buf: &mut [u8], chunk_at: u64, chunk: usize) -> Result<(), BinError> {
        self.source.read_exact(buf).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                BinError::format(chunk_at, Some(chunk), "truncated chunk")
            } else {
                BinError::Io(e)
            }
        })
    }

    /// Reads the trailer index + footer and checks them against every
    /// streamed chunk — the "trailer totals match a full scan" contract.
    fn validate_trailer(&mut self) -> Result<(), BinError> {
        let index_at = self.offset;
        let mut totals = BinTotals::default();
        for (i, info) in self.seen.iter().enumerate() {
            let mut entry = [0u8; INDEX_ENTRY_LEN];
            self.source.read_exact(&mut entry).map_err(|e| {
                if e.kind() == io::ErrorKind::UnexpectedEof {
                    BinError::format(index_at, None, "truncated trailer index")
                } else {
                    BinError::Io(e)
                }
            })?;
            let stored = ChunkInfo {
                offset: read_u64(&entry, 0),
                records: read_u32(&entry, 8),
                call_records: read_u32(&entry, 12),
                compute_ops: read_u64(&entry, 16),
                transfer_bytes: read_u64(&entry, 24),
            };
            if stored != *info {
                return Err(BinError::format(
                    index_at,
                    Some(i),
                    format!("index entry {stored:?} disagrees with streamed chunk {info:?}"),
                ));
            }
            totals.accumulate(&stored);
        }
        let mut footer = [0u8; FOOTER_LEN];
        self.source.read_exact(&mut footer).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                BinError::format(index_at, None, "truncated footer")
            } else {
                BinError::Io(e)
            }
        })?;
        if footer[24..] != END_MAGIC {
            return Err(BinError::format(index_at, None, "bad footer magic"));
        }
        let index_offset = read_u64(&footer, 0);
        let chunk_count = read_u64(&footer, 8);
        let total_records = read_u64(&footer, 16);
        if index_offset != index_at
            || chunk_count != totals.chunks
            || total_records != totals.records
        {
            return Err(BinError::format(
                index_at,
                None,
                format!(
                    "footer (index {index_offset}, {chunk_count} chunks, {total_records} records) \
                     disagrees with streamed totals (index {index_at}, {} chunks, {} records)",
                    totals.chunks, totals.records
                ),
            ));
        }
        Ok(())
    }

    /// Streamed totals so far (complete once `next_chunk` returned
    /// `None`).
    pub fn totals(&self) -> BinTotals {
        let mut totals = BinTotals::default();
        for info in &self.seen {
            totals.accumulate(info);
        }
        totals
    }

    /// Drives the stream to completion, applying `f` to every record.
    ///
    /// # Errors
    ///
    /// Returns the first decode/trailer error.
    pub fn for_each<F: FnMut(&EventRecord)>(mut self, mut f: F) -> Result<BinTotals, BinError> {
        while let Some(records) = self.next_chunk()? {
            for record in records {
                f(record);
            }
        }
        Ok(self.totals())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(n: u64) -> CallNumber {
        CallNumber::from_raw(n)
    }

    fn sample() -> EventFile {
        let mut f = EventFile::new();
        f.push_call(CallNumber::ROOT, call(1), ContextId(1));
        f.push_compute(call(1), ContextId(1), 42);
        f.push_call(call(1), call(2), ContextId(2));
        f.push_compute(call(2), ContextId(2), 7);
        f.push_transfer(call(1), call(2), 16);
        f.push_transfer(call(2), call(1), u64::from(u32::MAX) + 5);
        f.push_compute(call(1), ContextId(1), 1);
        f
    }

    #[test]
    fn varint_and_zigzag_round_trip() {
        for value in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, value);
            let mut cursor = Cursor {
                data: &buf,
                pos: 0,
                base: 0,
                chunk: None,
            };
            assert_eq!(cursor.varint().expect("valid"), value);
            assert_eq!(cursor.pos, buf.len());
        }
        for delta in [0u64, 1, u64::MAX, u64::MAX - 3, 1 << 40] {
            assert_eq!(unzigzag(zigzag(delta)), delta);
        }
    }

    #[test]
    fn standalone_chunk_payload_matches_writer_bytes() {
        let file = sample();
        // One chunk holding everything: the standalone payload must be
        // byte-identical to the BinWriter's chunk payload.
        let bytes = encode_events_chunked(&file, file.len());
        let payload = encode_chunk_payload(file.records());
        let chunk_start = HEADER_LEN + 1 + CHUNK_HEADER_LEN;
        assert_eq!(&bytes[chunk_start..chunk_start + payload.len()], &payload);
        let stored_checksum = read_u64(&bytes, HEADER_LEN + 9);
        assert_eq!(payload_checksum(&payload), stored_checksum);
        let decoded = decode_chunk_payload(&payload, file.len() as u32).expect("standalone decode");
        assert_eq!(decoded.as_slice(), file.records());
        // Count mismatches and trailing bytes are located errors.
        assert!(decode_chunk_payload(&payload, file.len() as u32 + 1).is_err());
        assert!(decode_chunk_payload(&payload, file.len() as u32 - 1).is_err());
    }

    #[test]
    fn record_count_beyond_the_payload_reserves_nothing() {
        // A one-byte payload claiming u32::MAX records fails as a
        // located truncation without reserving room for the claim.
        let err = decode_chunk_payload(&[0x00], u32::MAX).expect_err("one byte holds no record");
        let BinError::Format {
            offset, message, ..
        } = err
        else {
            panic!("expected a format error");
        };
        assert_eq!(offset, 1);
        assert!(message.contains("truncated"), "{message}");
    }

    #[test]
    fn crafted_chunk_count_is_a_format_error() {
        // An 80-byte file whose footer claims u64::MAX / 32 chunks with
        // the index tag at offset 40: the index length overflows usize.
        let mut bytes = vec![0u8; 80];
        bytes[..4].copy_from_slice(&MAGIC);
        bytes[4..6].copy_from_slice(&VERSION.to_le_bytes());
        bytes[40] = TAG_INDEX;
        bytes[48..56].copy_from_slice(&40u64.to_le_bytes());
        bytes[56..64].copy_from_slice(&(u64::MAX / 32).to_le_bytes());
        bytes[72..].copy_from_slice(&END_MAGIC);
        match BinReader::parse(&bytes) {
            Err(BinError::Format {
                offset, message, ..
            }) => {
                assert_eq!(offset, 40);
                assert!(message.contains("index length"), "{message}");
            }
            Err(other) => panic!("expected a format error, got {other}"),
            Ok(_) => panic!("crafted footer parsed"),
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let file = sample();
        let bytes = encode_events(&file);
        let decoded = decode_events(&bytes).expect("valid file");
        assert_eq!(decoded, file);
    }

    #[test]
    fn empty_file_round_trips() {
        let file = EventFile::new();
        let bytes = encode_events(&file);
        let reader = BinReader::parse(&bytes).expect("valid file");
        assert_eq!(reader.chunk_count(), 0);
        assert_eq!(reader.totals().records, 0);
        assert_eq!(reader.to_event_file().expect("decodes"), file);
    }

    #[test]
    fn small_chunks_split_and_round_trip() {
        let file = sample();
        let bytes = encode_events_chunked(&file, 2);
        let reader = BinReader::parse(&bytes).expect("valid file");
        assert_eq!(reader.chunk_count(), file.len().div_ceil(2));
        assert_eq!(reader.to_event_file().expect("decodes"), file);
        // Each chunk decodes on its own (delta baseline resets).
        let mut buf = Vec::new();
        let mut all = Vec::new();
        for i in 0..reader.chunk_count() {
            reader
                .decode_chunk_into(i, &mut buf)
                .expect("chunk decodes");
            all.extend_from_slice(&buf);
        }
        assert_eq!(all.as_slice(), file.records());
    }

    #[test]
    fn trailer_index_matches_scan() {
        let file = sample();
        let bytes = encode_events_chunked(&file, 3);
        let reader = BinReader::parse(&bytes).expect("valid file");
        let totals = reader.verify().expect("index consistent");
        assert_eq!(totals.records, file.len() as u64);
        assert_eq!(totals.compute_ops, file.total_ops());
        assert_eq!(totals.transfer_bytes, file.total_transfer_bytes());
        assert_eq!(
            totals.call_records,
            file.records()
                .iter()
                .filter(|r| matches!(r, EventRecord::Call { .. }))
                .count() as u64
        );
    }

    #[test]
    fn chunk_stream_matches_slice_reader() {
        let file = sample();
        let bytes = encode_events_chunked(&file, 2);
        let mut stream = ChunkStream::new(bytes.as_slice()).expect("valid header");
        let mut streamed = Vec::new();
        while let Some(records) = stream.next_chunk().expect("clean chunks") {
            streamed.extend_from_slice(records);
        }
        assert_eq!(streamed.as_slice(), file.records());
        assert_eq!(stream.totals().records, file.len() as u64);
        // Second call after the trailer stays None.
        assert!(stream.next_chunk().expect("done").is_none());
    }

    #[test]
    fn truncation_is_a_located_error() {
        let bytes = encode_events_chunked(&sample(), 2);
        for cut in 0..bytes.len() {
            let truncated = &bytes[..cut];
            assert!(BinReader::parse(truncated).is_err(), "cut at {cut}");
            let mut decoded = 0usize;
            match ChunkStream::new(truncated) {
                Err(_) => {}
                Ok(mut stream) => loop {
                    match stream.next_chunk() {
                        Ok(Some(records)) => decoded += records.len(),
                        // A truncated trailer must never validate clean.
                        Ok(None) => panic!("cut at {cut} streamed clean"),
                        Err(BinError::Format { .. }) => break,
                        Err(BinError::Io(e)) => panic!("io error at {cut}: {e}"),
                    }
                },
            }
            assert!(decoded <= sample().len());
        }
    }

    #[test]
    fn payload_corruption_is_detected() {
        let file = sample();
        let mut bytes = encode_events_chunked(&file, 64);
        // Flip one byte inside the first chunk's payload.
        let at = HEADER_LEN + 1 + CHUNK_HEADER_LEN;
        bytes[at] ^= 0x40;
        let reader = BinReader::parse(&bytes).expect("framing intact");
        let err = reader.to_event_file().expect_err("checksum must trip");
        let BinError::Format { chunk, message, .. } = err else {
            panic!("expected format error");
        };
        assert_eq!(chunk, Some(0));
        assert!(message.contains("checksum"), "{message}");
    }

    #[test]
    fn writer_streams_identically_to_encode() {
        let file = sample();
        let mut writer = BinWriter::with_chunk_records(Vec::new(), 3).expect("vec");
        for record in file.records() {
            writer.push(record).expect("vec");
        }
        let (totals, bytes) = writer.finish().expect("vec");
        assert_eq!(bytes, encode_events_chunked(&file, 3));
        assert_eq!(totals.records, file.len() as u64);
        assert_eq!(totals.compute_ops, file.total_ops());
        assert_eq!(totals.transfer_bytes, file.total_transfer_bytes());
    }

    #[test]
    fn stat_needs_no_record_decoding() {
        let file = sample();
        let mut bytes = encode_events_chunked(&file, 2);
        // Corrupt a payload byte: the trailer-only queries still work.
        let clean_totals = BinReader::parse(&bytes).expect("valid").totals();
        let payload_start = HEADER_LEN + 1 + CHUNK_HEADER_LEN;
        bytes[payload_start] ^= 0xff;
        let reader2 = BinReader::parse(&bytes).expect("framing still valid");
        assert_eq!(reader2.totals(), clean_totals);
        assert!(reader2.to_event_file().is_err(), "decode must fail");
    }

    #[test]
    fn binary_is_much_smaller_than_text() {
        let mut f = EventFile::new();
        let mut call_no = 1u64;
        for i in 0..10_000u64 {
            if i % 10 == 0 {
                f.push_call(call(call_no), call(call_no + 1), ContextId((i % 64) as u32));
                call_no += 1;
            }
            f.push_compute(call(call_no), ContextId((i % 64) as u32), 1 + i % 5000);
            if i % 3 == 0 {
                f.push_transfer(call(call_no.saturating_sub(1)), call(call_no), 8 + i % 512);
            }
        }
        let text = f.to_text();
        let bin = encode_events(&f);
        let ratio = text.len() as f64 / bin.len() as f64;
        assert!(ratio >= 3.0, "size ratio {ratio:.2} below 3x");
    }
}
