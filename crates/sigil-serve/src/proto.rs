//! The `sigil-serve` wire protocol: length-framed messages whose data
//! payloads reuse the repository's existing binary encodings.
//!
//! # Frame layout (all integers little-endian)
//!
//! ```text
//! kind u8 | aux u32 | payload_len u32 | fnv1a64 u64 | payload
//! ```
//!
//! This mirrors the SGEB chunk frame of [`sigil_core::events_bin`]
//! (`record_count u32 | payload_len u32 | fnv1a64 u64 | payload`) with
//! the chunk tag generalized to a frame kind and the record count to a
//! kind-specific `aux` field. The checksum covers the first nine header
//! bytes *and* the payload, so any bit flip outside the checksum field
//! itself is detected. `payload_len` is bounded by
//! [`sigil_core::events_bin::MAX_PAYLOAD`] — an untrusted length can
//! never force a huge allocation.
//!
//! # Frame kinds
//!
//! | kind       | dir | aux          | payload                          |
//! |------------|-----|--------------|----------------------------------|
//! | HELLO      | c→s | 0            | [`SessionSpec`] JSON             |
//! | WELCOME    | s→c | 0            | [`Welcome`] JSON                 |
//! | CHUNK      | c→s | record count | SGEB chunk payload / trace records |
//! | CREDIT     | s→c | credits      | empty                            |
//! | STATUS     | c→s | 0            | empty                            |
//! | STATUS_OK  | s→c | 0            | [`StatusInfo`] JSON              |
//! | SNAPSHOT   | c→s | 0            | empty                            |
//! | SNAPSHOT_OK| s→c | 0            | [`SnapshotInfo`] JSON            |
//! | FINISH     | c→s | 0            | empty                            |
//! | RESULT     | s→c | 0            | [`SessionResult`] JSON           |
//! | ERROR      | s→c | 0            | [`WireError`] JSON               |
//! | SHUTDOWN   | c→s | 0            | empty                            |
//! | SHUTDOWN_OK| s→c | 0            | [`ShutdownSummary`] JSON         |
//!
//! A CHUNK's payload encoding depends on the session mode declared in
//! HELLO: `events` sessions carry the exact SGEB chunk payload bytes
//! ([`sigil_core::events_bin::encode_chunk_payload`]); `trace` sessions
//! carry [`TraceRecord`]s — symbol definitions interleaved with the
//! fixed-width `.sgtr` event encoding of [`sigil_trace::io`].

use std::fmt;
use std::io::{self, Read, Write};

use serde::{Deserialize, Serialize};
use sigil_analysis::streaming::PathSummary;
use sigil_core::events_bin::{payload_checksum, MAX_PAYLOAD};
use sigil_core::{PhaseProfile, Profile, SigilConfig};
use sigil_mem::EvictionPolicy;
use sigil_trace::RuntimeEvent;

/// Wire-protocol version, carried in HELLO/WELCOME.
pub const WIRE_VERSION: u32 = 1;

/// Byte length of a frame header.
pub const FRAME_HEADER_LEN: usize = 17;

/// Frame kinds. Values are stable wire bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Session open request (client → server).
    Hello = 0x01,
    /// Session accepted (server → client).
    Welcome = 0x02,
    /// One chunk of session data (client → server).
    Chunk = 0x03,
    /// Backpressure credit grant (server → client).
    Credit = 0x04,
    /// Lightweight ingest-counter query (client → server).
    Status = 0x05,
    /// STATUS reply (server → client).
    StatusOk = 0x06,
    /// Live aggregate snapshot query (client → server).
    Snapshot = 0x07,
    /// SNAPSHOT reply (server → client).
    SnapshotOk = 0x08,
    /// End of stream; finalize and report (client → server).
    Finish = 0x09,
    /// Final session result (server → client).
    Result = 0x0a,
    /// Fatal session error, located (server → client).
    Error = 0x0b,
    /// Server shutdown request (client → server).
    Shutdown = 0x0c,
    /// Shutdown acknowledged, sessions drained (server → client).
    ShutdownOk = 0x0d,
}

impl FrameKind {
    /// Decodes a wire byte.
    pub fn from_byte(byte: u8) -> Option<FrameKind> {
        use FrameKind::*;
        Some(match byte {
            0x01 => Hello,
            0x02 => Welcome,
            0x03 => Chunk,
            0x04 => Credit,
            0x05 => Status,
            0x06 => StatusOk,
            0x07 => Snapshot,
            0x08 => SnapshotOk,
            0x09 => Finish,
            0x0a => Result,
            0x0b => Error,
            0x0c => Shutdown,
            0x0d => ShutdownOk,
            _ => return None,
        })
    }
}

/// A protocol failure, located at the connection byte offset where the
/// malformed frame started.
#[derive(Debug)]
pub enum ProtoError {
    /// An underlying socket/stream error.
    Io(io::Error),
    /// Malformed bytes at `offset` (bytes since the connection opened).
    Format {
        /// Byte offset of the frame whose decoding failed.
        offset: u64,
        /// Human-readable description.
        message: String,
    },
}

impl ProtoError {
    pub(crate) fn format(offset: u64, message: impl Into<String>) -> Self {
        ProtoError::Format {
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "wire I/O error: {e}"),
            ProtoError::Format { offset, message } => {
                write!(f, "bad frame at connection offset {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            ProtoError::Format { .. } => None,
        }
    }
}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// One wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame means.
    pub kind: FrameKind,
    /// Kind-specific count (CHUNK: records; CREDIT: granted credits).
    pub aux: u32,
    /// Kind-specific payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A payload-less frame.
    pub fn control(kind: FrameKind) -> Frame {
        Frame {
            kind,
            aux: 0,
            payload: Vec::new(),
        }
    }

    /// Serializes the frame, header checksum included.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER_LEN + self.payload.len());
        out.push(self.kind as u8);
        out.extend_from_slice(&self.aux.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        let mut check = out.clone();
        check.extend_from_slice(&self.payload);
        out.extend_from_slice(&payload_checksum(&check).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Writes the frame to `writer`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> io::Result<()> {
        writer.write_all(&self.encode())?;
        writer.flush()
    }

    /// Reads one frame from `reader`. `offset` is the connection byte
    /// offset of the next unread byte; it advances past the frame on
    /// success and is used to locate errors.
    ///
    /// # Errors
    ///
    /// Returns a located [`ProtoError`] on an unknown kind, an oversized
    /// or mismatched length, a checksum mismatch, or truncation.
    pub fn read_from<R: Read>(reader: &mut R, offset: &mut u64) -> Result<Frame, ProtoError> {
        let at = *offset;
        let mut header = [0u8; FRAME_HEADER_LEN];
        reader.read_exact(&mut header).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                ProtoError::format(at, "connection closed mid-frame (truncated header)")
            } else {
                ProtoError::Io(e)
            }
        })?;
        let kind_byte = header[0];
        let aux = u32::from_le_bytes(header[1..5].try_into().expect("4 bytes"));
        let payload_len = u32::from_le_bytes(header[5..9].try_into().expect("4 bytes"));
        let stored_checksum = u64::from_le_bytes(header[9..17].try_into().expect("8 bytes"));
        let kind = FrameKind::from_byte(kind_byte).ok_or_else(|| {
            ProtoError::format(at, format!("unknown frame kind {kind_byte:#04x}"))
        })?;
        if payload_len > MAX_PAYLOAD {
            return Err(ProtoError::format(
                at,
                format!("frame payload length {payload_len} exceeds limit {MAX_PAYLOAD}"),
            ));
        }
        let mut payload = vec![0u8; payload_len as usize];
        reader.read_exact(&mut payload).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                ProtoError::format(at, "connection closed mid-frame (truncated payload)")
            } else {
                ProtoError::Io(e)
            }
        })?;
        let mut check = header[..9].to_vec();
        check.extend_from_slice(&payload);
        if payload_checksum(&check) != stored_checksum {
            return Err(ProtoError::format(
                at,
                "frame checksum mismatch (corrupted header or payload)",
            ));
        }
        *offset = at + FRAME_HEADER_LEN as u64 + u64::from(payload_len);
        Ok(Frame { kind, aux, payload })
    }
}

// ---------------------------------------------------------------------------
// Trace-session chunk payload: symbol definitions + .sgtr event records
// ---------------------------------------------------------------------------

/// Payload tag for a symbol definition inside a trace chunk. The
/// `.sgtr` event tags start at 1, so 0 is free.
const TAG_SYMDEF: u8 = 0;

/// One record of a trace-session chunk payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceRecord {
    /// Defines function id `id` as `name`. Ids must arrive in interning
    /// order (0, 1, 2, …) so the server's sequential
    /// [`SymbolTable`](sigil_trace::SymbolTable) reproduces them.
    Sym {
        /// The function id being defined.
        id: u32,
        /// Its symbol name.
        name: String,
    },
    /// One runtime event, encoded exactly as in `.sgtr` containers.
    Event(RuntimeEvent),
}

/// Encodes trace records as a chunk payload.
pub fn encode_trace_records(records: &[TraceRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * 8);
    for record in records {
        match record {
            TraceRecord::Sym { id, name } => {
                out.push(TAG_SYMDEF);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&(name.len() as u32).to_le_bytes());
                out.extend_from_slice(name.as_bytes());
            }
            TraceRecord::Event(event) => {
                sigil_trace::io::write_event(&mut out, *event).expect("writing to a Vec");
            }
        }
    }
    out
}

/// Decodes a trace-session chunk payload of exactly `count` records.
/// `base` is the connection offset of the payload's first byte, so
/// errors locate the damage on the wire. Every record is at least one
/// byte, so at most `payload.len()` records are reserved, whatever
/// `count` claims.
///
/// # Errors
///
/// Returns a located [`ProtoError`] on malformed records, a count
/// mismatch, or trailing bytes.
pub fn decode_trace_records(
    payload: &[u8],
    count: u32,
    base: u64,
) -> Result<Vec<TraceRecord>, ProtoError> {
    let mut out = Vec::with_capacity((count as usize).min(payload.len()));
    let mut rest = payload;
    for i in 0..count {
        let at = base + (payload.len() - rest.len()) as u64;
        let locate = |message: String| ProtoError::format(at, format!("record {i}: {message}"));
        let Some((&tag, _)) = rest.split_first() else {
            return Err(locate("truncated payload (missing record)".to_owned()));
        };
        if tag == TAG_SYMDEF {
            rest = &rest[1..];
            if rest.len() < 8 {
                return Err(locate("truncated symbol definition".to_owned()));
            }
            let id = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
            let len = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes")) as usize;
            rest = &rest[8..];
            if len > 1 << 20 {
                return Err(locate(format!("unreasonable symbol length {len}")));
            }
            if rest.len() < len {
                return Err(locate("truncated symbol name".to_owned()));
            }
            let name = std::str::from_utf8(&rest[..len])
                .map_err(|e| locate(format!("bad symbol utf-8: {e}")))?
                .to_owned();
            rest = &rest[len..];
            out.push(TraceRecord::Sym { id, name });
        } else {
            let before = rest;
            let event = sigil_trace::io::read_event(&mut rest).map_err(|e| {
                // `rest` may or may not have advanced; report the record
                // start either way.
                let _ = before;
                locate(e.to_string())
            })?;
            out.push(TraceRecord::Event(event));
        }
    }
    if !rest.is_empty() {
        return Err(ProtoError::format(
            base + (payload.len() - rest.len()) as u64,
            format!(
                "{} trailing payload bytes after the last record",
                rest.len()
            ),
        ));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Control-frame JSON payloads
// ---------------------------------------------------------------------------

/// HELLO payload: what the session streams and how to profile it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionSpec {
    /// Wire-protocol version the client speaks.
    pub version: u32,
    /// Client-chosen session label (shown in STATUS and logs).
    pub name: String,
    /// `"trace"` (runtime events + symbols → full Profile) or
    /// `"events"` (SGEB event records → folds only).
    pub mode: String,
    /// Reuse monitoring (trace mode).
    pub reuse: bool,
    /// Line-granularity shadowing (trace mode).
    pub line_size: Option<u32>,
    /// Shadow-chunk cap (trace mode).
    pub shadow_limit: Option<usize>,
    /// Use LRU eviction instead of FIFO under a shadow limit.
    pub lru: bool,
    /// Record the event file inside the profile (trace mode).
    pub events: bool,
    /// Phase bucket width in retired ops; `None` = phases off (trace
    /// mode) / phase fold off (events mode).
    pub bucket_ops: Option<u64>,
    /// Shadow-memory shards for server-side replay (trace mode).
    pub shards: usize,
}

impl SessionSpec {
    /// A trace-session spec mirroring `config`.
    pub fn trace(name: impl Into<String>, config: SigilConfig) -> SessionSpec {
        SessionSpec {
            version: WIRE_VERSION,
            name: name.into(),
            mode: "trace".to_owned(),
            reuse: config.reuse_mode,
            line_size: config.line_size,
            shadow_limit: config.shadow_chunk_limit,
            lru: config.eviction == EvictionPolicy::Lru,
            events: config.record_events,
            bucket_ops: config.phase_bucket_ops,
            shards: config.shards,
        }
    }

    /// An events-session spec (streaming folds only).
    pub fn events(name: impl Into<String>, bucket_ops: Option<u64>) -> SessionSpec {
        SessionSpec {
            version: WIRE_VERSION,
            name: name.into(),
            mode: "events".to_owned(),
            reuse: false,
            line_size: None,
            shadow_limit: None,
            lru: false,
            events: false,
            bucket_ops,
            shards: 1,
        }
    }

    /// The profiler configuration a trace session runs with.
    pub fn config(&self) -> SigilConfig {
        let mut config = SigilConfig::default();
        if self.reuse {
            config = config.with_reuse_mode();
        }
        if let Some(line_size) = self.line_size {
            config = config.with_line_mode(line_size);
        }
        if let Some(limit) = self.shadow_limit {
            config = config.with_shadow_limit(limit);
        }
        if self.lru {
            config = config.with_eviction(EvictionPolicy::Lru);
        }
        if self.events {
            config = config.with_events();
        }
        if let Some(bucket_ops) = self.bucket_ops {
            config = config.with_phases(bucket_ops);
        }
        config.with_shards(self.shards)
    }
}

/// WELCOME payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Welcome {
    /// Wire-protocol version the server speaks.
    pub version: u32,
    /// Server-assigned session id.
    pub session: u64,
    /// Initial credit window: how many CHUNK frames the client may have
    /// in flight before waiting for CREDIT grants.
    pub credits: u32,
}

/// STATUS_OK payload: ingest counters, readable while chunks stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatusInfo {
    /// Session id.
    pub session: u64,
    /// Session label from HELLO.
    pub name: String,
    /// Session mode from HELLO.
    pub mode: String,
    /// Chunks received (enqueued) so far.
    pub chunks: u64,
    /// Chunks fully processed so far.
    pub processed: u64,
    /// Records processed so far.
    pub records: u64,
}

/// SNAPSHOT_OK payload: point-in-time aggregates of the in-progress
/// session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotInfo {
    /// Records processed at snapshot time.
    pub records: u64,
    /// Phase profile built so far (`None` if phases are off, or in
    /// sharded trace sessions where phases assemble only at finish).
    pub phases: Option<PhaseProfile>,
    /// Critical-path summary of the records so far (events mode only;
    /// `None` when the fold cannot finalize mid-stream).
    pub critpath: Option<PathSummary>,
}

/// RESULT payload: the finished session's aggregates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionResult {
    /// Session mode.
    pub mode: String,
    /// Total records ingested.
    pub records: u64,
    /// The full profile (trace mode).
    pub profile: Option<Profile>,
    /// Phase-sliced profile (trace mode: copied out of the profile;
    /// events mode: the PhaseFold result).
    pub phases: Option<PhaseProfile>,
    /// Critical-path summary (trace mode: folded over the recorded
    /// event file when event recording was on; events mode: the
    /// CriticalPathFold result).
    pub critpath: Option<PathSummary>,
    /// Communicating contexts in the event CDFG (events mode).
    pub cdfg_contexts: Option<u64>,
    /// Edges in the event CDFG (events mode).
    pub cdfg_edges: Option<u64>,
    /// Total compute ops (events mode).
    pub compute_ops: Option<u64>,
    /// Total transfer bytes (events mode).
    pub transfer_bytes: Option<u64>,
}

/// ERROR payload: why the session died, located on the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireError {
    /// Connection byte offset associated with the failure (0 when the
    /// failure is not tied to a wire position).
    pub offset: u64,
    /// Human-readable description.
    pub message: String,
}

/// SHUTDOWN_OK payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShutdownSummary {
    /// Whether all sessions drained before the acknowledgement.
    pub drained: bool,
    /// Sessions still active at acknowledgement time.
    pub active: u64,
    /// Sessions opened over the server's lifetime.
    pub opened: u64,
}

/// Serializes a control payload as JSON bytes.
pub(crate) fn to_json_payload<T: Serialize>(value: &T) -> Vec<u8> {
    serde_json::to_string(value)
        .expect("control payloads serialize")
        .into_bytes()
}

/// Parses a control payload, locating failures at the frame offset.
pub(crate) fn from_json_payload<T: Deserialize>(
    payload: &[u8],
    at: u64,
    what: &str,
) -> Result<T, ProtoError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| ProtoError::format(at, format!("{what} payload is not utf-8: {e}")))?;
    serde_json::from_str(text)
        .map_err(|e| ProtoError::format(at, format!("bad {what} payload: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigil_trace::{FunctionId, MemAccess, OpClass};

    #[test]
    fn frame_round_trips() {
        let frame = Frame {
            kind: FrameKind::Chunk,
            aux: 3,
            payload: vec![1, 2, 3, 4, 5],
        };
        let bytes = frame.encode();
        let mut offset = 0u64;
        let back = Frame::read_from(&mut bytes.as_slice(), &mut offset).expect("decodes");
        assert_eq!(back, frame);
        assert_eq!(offset, bytes.len() as u64);
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn corrupted_frame_is_located() {
        let frame = Frame {
            kind: FrameKind::Chunk,
            aux: 1,
            payload: vec![42; 16],
        };
        let mut bytes = frame.encode();
        bytes[2] ^= 0x10; // flip a bit inside aux: covered by the checksum
        let mut offset = 100u64;
        let err = Frame::read_from(&mut bytes.as_slice(), &mut offset).expect_err("must fail");
        let ProtoError::Format {
            offset: at,
            message,
        } = err
        else {
            panic!("expected format error");
        };
        assert_eq!(at, 100);
        assert!(message.contains("checksum"), "{message}");
    }

    #[test]
    fn trace_records_round_trip() {
        let records = vec![
            TraceRecord::Sym {
                id: 0,
                name: "main".to_owned(),
            },
            TraceRecord::Event(RuntimeEvent::Call {
                callee: FunctionId::from_raw(0),
            }),
            TraceRecord::Event(RuntimeEvent::Write {
                access: MemAccess::new(0x100, 8),
            }),
            TraceRecord::Event(RuntimeEvent::Op {
                class: OpClass::IntArith,
                count: 7,
            }),
            TraceRecord::Event(RuntimeEvent::Return),
        ];
        let payload = encode_trace_records(&records);
        let back = decode_trace_records(&payload, records.len() as u32, 0).expect("decodes");
        assert_eq!(back, records);
        // Wrong counts and truncations are located errors.
        assert!(decode_trace_records(&payload, records.len() as u32 + 1, 0).is_err());
        assert!(decode_trace_records(&payload, records.len() as u32 - 1, 0).is_err());
        assert!(
            decode_trace_records(&payload[..payload.len() - 1], records.len() as u32, 0).is_err()
        );
        // A count far beyond what the payload holds is a located error at
        // the first missing record, not a reservation sized by the claim.
        let one = encode_trace_records(&[TraceRecord::Event(RuntimeEvent::Return)]);
        let err = decode_trace_records(&one, u32::MAX, 100).expect_err("one record");
        assert!(
            matches!(err, ProtoError::Format { offset: 101, .. }),
            "{err}"
        );
    }

    #[test]
    fn session_spec_config_round_trips() {
        let config = SigilConfig::default()
            .with_reuse_mode()
            .with_line_mode(64)
            .with_shadow_limit(8)
            .with_eviction(EvictionPolicy::Lru)
            .with_events()
            .with_phases(500)
            .with_shards(4);
        let spec = SessionSpec::trace("t", config);
        let back = spec.config();
        assert_eq!(back.reuse_mode, config.reuse_mode);
        assert_eq!(back.line_size, config.line_size);
        assert_eq!(back.shadow_chunk_limit, config.shadow_chunk_limit);
        assert_eq!(back.eviction, config.eviction);
        assert_eq!(back.record_events, config.record_events);
        assert_eq!(back.phase_bucket_ops, config.phase_bucket_ops);
        assert_eq!(back.shards, config.shards);
        // And survives the JSON wire encoding.
        let json = to_json_payload(&spec);
        let parsed: SessionSpec = from_json_payload(&json, 0, "HELLO").expect("parses");
        assert_eq!(parsed.config().shards, 4);
        assert_eq!(parsed.mode, "trace");
    }

    #[test]
    fn hello_missing_an_optional_field_is_rejected() {
        // Every field is required on the wire, `Option` ones included: a
        // HELLO that leaves out `shadow_limit` must not open a session
        // with an unbounded shadow.
        let spec = SessionSpec::trace("t", SigilConfig::default().with_shadow_limit(8));
        let json = String::from_utf8(to_json_payload(&spec)).expect("utf-8");
        let json = json.replace("\"shadow_limit\":8,", "");
        assert!(!json.contains("shadow_limit"), "{json}");
        let err = from_json_payload::<SessionSpec>(json.as_bytes(), 7, "HELLO")
            .expect_err("missing field must be rejected");
        assert!(
            matches!(&err, ProtoError::Format { offset: 7, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("shadow_limit"), "{err}");
    }
}
