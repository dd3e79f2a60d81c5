//! The event-file output representation (paper §II-A, §II-C2).
//!
//! "Sigil can represent output data in two ways: (1) by reporting the
//! aggregates … (2) by recording a list of all of the data transfers that
//! occur. In the latter representation, a program's essence can be
//! reconstructed as a sequence of dependent 'events'. These events are
//! fragments of computation separated by data transfer edges."
//!
//! [`EventFile`]'s `push_*` methods hold the record-level rules (drop
//! empty fragments, coalesce adjacent transfers of one pair); the
//! crate-private `Sequencer` holds the emission rules above them — which
//! frame a fragment belongs to, when it is flushed, and where a read's
//! transfers land — for serial and sharded replay alike.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use sigil_callgrind::ContextId;
use sigil_trace::CallNumber;

use crate::kernel::Transfers;

/// One record of the event file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventRecord {
    /// A dynamic call: `call` (executing in context `ctx`) was entered
    /// from `parent_call`.
    Call {
        /// The dynamic call of the caller (`CallNumber::ROOT` for the
        /// program entry).
        parent_call: CallNumber,
        /// The new dynamic call.
        call: CallNumber,
        /// The function context the new call executes in.
        ctx: ContextId,
    },
    /// A fragment of computation: `ops` retired operations performed by
    /// `call` since its previous fragment.
    Compute {
        /// The dynamic call performing the work.
        call: CallNumber,
        /// Its function context.
        ctx: ContextId,
        /// Retired operations in this fragment.
        ops: u64,
    },
    /// A data transfer: `to_call` consumed `bytes` unique bytes produced
    /// by `from_call`.
    Transfer {
        /// Producer dynamic call.
        from_call: CallNumber,
        /// Consumer dynamic call.
        to_call: CallNumber,
        /// Unique bytes moved.
        bytes: u64,
    },
}

/// The execution as an ordered list of dependent events.
///
/// Order *between* functions is preserved; order of events *within* a
/// function fragment is not (the paper makes the same simplification).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventFile {
    records: Vec<EventRecord>,
}

impl EventFile {
    /// Creates an empty event file.
    pub fn new() -> Self {
        EventFile::default()
    }

    /// Appends a call record.
    pub fn push_call(&mut self, parent_call: CallNumber, call: CallNumber, ctx: ContextId) {
        self.records.push(EventRecord::Call {
            parent_call,
            call,
            ctx,
        });
    }

    /// Appends a compute fragment (no-op when `ops == 0`).
    pub fn push_compute(&mut self, call: CallNumber, ctx: ContextId, ops: u64) {
        if ops == 0 {
            return;
        }
        self.records.push(EventRecord::Compute { call, ctx, ops });
    }

    /// Appends a transfer, coalescing with an immediately preceding
    /// transfer between the same pair of calls.
    ///
    /// Coalescing uses checked accumulation: if the merged byte count
    /// would overflow `u64`, the transfer is kept as a separate record
    /// instead (lossless — the total is preserved across two records),
    /// rather than wrapping in release builds and panicking in debug.
    pub fn push_transfer(&mut self, from_call: CallNumber, to_call: CallNumber, bytes: u64) {
        if bytes == 0 {
            return;
        }
        if let Some(EventRecord::Transfer {
            from_call: f,
            to_call: t,
            bytes: b,
        }) = self.records.last_mut()
        {
            if *f == from_call && *t == to_call {
                if let Some(sum) = b.checked_add(bytes) {
                    *b = sum;
                    return;
                }
            }
        }
        self.records.push(EventRecord::Transfer {
            from_call,
            to_call,
            bytes,
        });
    }

    /// Wraps an already-ordered record list without re-coalescing —
    /// decoders that must reproduce a file byte-for-byte (e.g. the
    /// binary reader in [`crate::events_bin`]) use this.
    pub fn from_records(records: Vec<EventRecord>) -> Self {
        EventFile { records }
    }

    /// The records, in program order.
    pub fn records(&self) -> &[EventRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total compute ops across all fragments (the serial length used as
    /// the numerator of the parallelism limit).
    pub fn total_ops(&self) -> u64 {
        self.records
            .iter()
            .map(|r| match r {
                EventRecord::Compute { ops, .. } => *ops,
                _ => 0,
            })
            .sum()
    }

    /// Total unique bytes transferred.
    pub fn total_transfer_bytes(&self) -> u64 {
        self.records
            .iter()
            .map(|r| match r {
                EventRecord::Transfer { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// Renders the event file in a line-oriented text format, the
    /// exchange format the paper's "post processing scripts" consume:
    ///
    /// ```text
    /// CALL parent=<n> call=<n> ctx=<n>
    /// COMP call=<n> ctx=<n> ops=<n>
    /// XFER from=<n> to=<n> bytes=<n>
    /// ```
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.records.len() * 32);
        for record in &self.records {
            match *record {
                EventRecord::Call {
                    parent_call,
                    call,
                    ctx,
                } => {
                    let _ = writeln!(
                        out,
                        "CALL parent={} call={} ctx={}",
                        parent_call.as_raw(),
                        call.as_raw(),
                        ctx.0
                    );
                }
                EventRecord::Compute { call, ctx, ops } => {
                    let _ = writeln!(out, "COMP call={} ctx={} ops={ops}", call.as_raw(), ctx.0);
                }
                EventRecord::Transfer {
                    from_call,
                    to_call,
                    bytes,
                } => {
                    let _ = writeln!(
                        out,
                        "XFER from={} to={} bytes={bytes}",
                        from_call.as_raw(),
                        to_call.as_raw()
                    );
                }
            }
        }
        out
    }

    /// Parses the format produced by [`EventFile::to_text`].
    ///
    /// Each record line must carry exactly its documented fields —
    /// trailing tokens (`COMP call=1 ctx=0 ops=5 junk=9`) are rejected,
    /// not silently dropped.
    ///
    /// # Errors
    ///
    /// Returns `(line_number, message)` for the first malformed line.
    pub fn from_text(text: &str) -> Result<Self, (usize, String)> {
        fn field(token: Option<&str>, key: &str, line: usize) -> Result<u64, (usize, String)> {
            let token = token.ok_or_else(|| (line, format!("missing `{key}=` field")))?;
            let value = token
                .strip_prefix(key)
                .and_then(|t| t.strip_prefix('='))
                .ok_or_else(|| (line, format!("expected `{key}=`, got `{token}`")))?;
            value
                .parse()
                .map_err(|_| (line, format!("bad number in `{token}`")))
        }

        fn end(
            mut parts: std::str::SplitWhitespace<'_>,
            line: usize,
        ) -> Result<(), (usize, String)> {
            match parts.next() {
                None => Ok(()),
                Some(extra) => Err((line, format!("unexpected trailing field `{extra}`"))),
            }
        }

        let mut file = EventFile::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let mut parts = trimmed.split_whitespace();
            match parts.next() {
                Some("CALL") => {
                    let parent = field(parts.next(), "parent", line)?;
                    let call = field(parts.next(), "call", line)?;
                    let ctx = field(parts.next(), "ctx", line)?;
                    end(parts, line)?;
                    file.records.push(EventRecord::Call {
                        parent_call: CallNumber::from_raw(parent),
                        call: CallNumber::from_raw(call),
                        ctx: ContextId(
                            u32::try_from(ctx)
                                .map_err(|_| (line, format!("context id {ctx} out of range")))?,
                        ),
                    });
                }
                Some("COMP") => {
                    let call = field(parts.next(), "call", line)?;
                    let ctx = field(parts.next(), "ctx", line)?;
                    let ops = field(parts.next(), "ops", line)?;
                    end(parts, line)?;
                    file.records.push(EventRecord::Compute {
                        call: CallNumber::from_raw(call),
                        ctx: ContextId(
                            u32::try_from(ctx)
                                .map_err(|_| (line, format!("context id {ctx} out of range")))?,
                        ),
                        ops,
                    });
                }
                Some("XFER") => {
                    let from = field(parts.next(), "from", line)?;
                    let to = field(parts.next(), "to", line)?;
                    let bytes = field(parts.next(), "bytes", line)?;
                    end(parts, line)?;
                    file.records.push(EventRecord::Transfer {
                        from_call: CallNumber::from_raw(from),
                        to_call: CallNumber::from_raw(to),
                        bytes,
                    });
                }
                Some(other) => return Err((line, format!("unknown record `{other}`"))),
                None => {}
            }
        }
        Ok(file)
    }
}

/// One shard worker's transfer segments, in the order it applied its
/// records: entry `(idx, part, end)` owns the segments from the previous
/// entry's `end` up to its own, found by part `part` of access `idx`.
///
/// Invariant: a log is strictly increasing in `(idx, part)`. A worker
/// applies its records in dispatch order — access by access, each
/// access's parts in byte order — and a coalesced read train expands to
/// `idx..idx+count` in order. [`Sequencer::finish`] merges the logs by
/// cursor on the strength of it.
#[derive(Debug, Default)]
pub(crate) struct TransferLog {
    segs: Transfers,
    entries: Vec<(u64, u32, usize)>,
}

impl TransferLog {
    /// Moves one kernel call's `transfers` (part `part` of access `idx`)
    /// into the log, leaving the scratch empty for reuse; empty transfers
    /// log nothing.
    pub(crate) fn append(&mut self, idx: u64, part: u32, transfers: &mut Transfers) {
        if transfers.is_empty() {
            return;
        }
        debug_assert!(
            self.entries
                .last()
                .is_none_or(|&(at, p, _)| (at, p) < (idx, part)),
            "transfer log out of (idx, part) order"
        );
        self.segs.append(transfers);
        self.entries.push((idx, part, self.segs.len()));
    }
}

/// One event-emission step, in program order: the vocabulary the
/// profiler front end speaks to the [`Sequencer`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum SeqOp {
    /// A dynamic call was entered; its parent is the current frame.
    Call { call: CallNumber, ctx: ContextId },
    /// The current frame returned.
    Return,
    /// Flush the current frame's pending ops (thread switch boundary).
    Flush,
    /// Make `thread` current, without a flush (`on_finish` drains
    /// residual frames without one).
    Switch { thread: u32 },
    /// `count` retired ops charged to the current frame.
    Ops { count: u64 },
    /// A read access, which retires one op; its transfer segments are
    /// looked up by access index when a logged run is replayed.
    Read { idx: u64 },
}

/// A frame as the event file sees it: the call and the ops it retired
/// since its last flushed fragment.
#[derive(Debug, Clone, Copy)]
struct SeqFrame {
    ctx: ContextId,
    call: CallNumber,
    pending: u64,
}

/// The one event-file emitter, shared by serial and sharded replay.
///
/// It keeps per-thread frame stacks with pending ops and applies
/// [`SeqOp`]s to them: a call or return flushes the current frame's
/// fragment first, a read flushes and splices its transfers only when it
/// has some (so the reader's ops precede them), and ops retired with no
/// open frame are dropped.
///
/// Serial replay applies each op as it happens and hands a read's
/// transfers straight from the kernel to [`Sequencer::read`]. Sharded
/// replay does not know them until the workers join, so a *logged*
/// sequencer appends the same ops to a log, and [`Sequencer::finish`]
/// replays it with the workers' transfer segments.
#[derive(Debug, Default)]
pub(crate) struct Sequencer {
    events: EventFile,
    /// The current thread's frames.
    frames: Vec<SeqFrame>,
    /// Every other thread's frames, by raw thread id.
    parked: HashMap<u32, Vec<SeqFrame>>,
    thread: u32,
    /// Ops awaiting [`Sequencer::finish`] (logged sequencers only).
    log: Option<Vec<SeqOp>>,
}

impl Sequencer {
    /// A sequencer that applies ops as they happen, or (`logged`) one
    /// that logs them until [`Sequencer::finish`].
    pub(crate) fn new(logged: bool) -> Self {
        Sequencer {
            log: logged.then(Vec::new),
            ..Sequencer::default()
        }
    }

    /// Applies `op`, or appends it to the log; runs of `Ops` coalesce
    /// in the log.
    pub(crate) fn push(&mut self, op: SeqOp) {
        let Some(log) = self.log.as_mut() else {
            return self.apply(op);
        };
        if let (SeqOp::Ops { count }, Some(SeqOp::Ops { count: last })) = (op, log.last_mut()) {
            *last += count;
        } else {
            log.push(op);
        }
    }

    /// A read with its cross-call transfers, `(producer call, bytes)` in
    /// byte order: retires the read's op, then, if it moved any bytes,
    /// flushes the reader's fragment and splices the transfers in.
    pub(crate) fn read<'t>(&mut self, transfers: impl IntoIterator<Item = &'t (CallNumber, u64)>) {
        self.retire(1);
        let mut transfers = transfers.into_iter().peekable();
        if transfers.peek().is_none() {
            return;
        }
        self.flush();
        let to_call = self.frames.last().map_or(CallNumber::ROOT, |f| f.call);
        for &(from_call, bytes) in transfers {
            self.events.push_transfer(from_call, to_call, bytes);
        }
    }

    /// The event file. A logged run is replayed first, splicing each
    /// read's parts from the workers' `logs` back in byte order; serial
    /// replay passes no logs.
    ///
    /// Every log is sorted by `(idx, part)` and reads are logged in
    /// increasing `idx`, so one cursor per log advances past the entries
    /// of each read in turn. The few parts collected (at most one per
    /// chunk run of the access) are ordered by `part`, so a straddling
    /// access keeps byte order however its runs were spread over the
    /// workers.
    pub(crate) fn finish(mut self, logs: &[TransferLog]) -> EventFile {
        let mut cursors = vec![0usize; logs.len()];
        let mut parts: Vec<(u32, &[(CallNumber, u64)])> = Vec::new();
        for op in self.log.take().unwrap_or_default() {
            let SeqOp::Read { idx } = op else {
                self.apply(op);
                continue;
            };
            parts.clear();
            for (log, cursor) in logs.iter().zip(&mut cursors) {
                while let Some(&(at, part, end)) = log.entries.get(*cursor) {
                    if at != idx {
                        break;
                    }
                    let start = cursor.checked_sub(1).map_or(0, |c| log.entries[c].2);
                    parts.push((part, &log.segs[start..end]));
                    *cursor += 1;
                }
            }
            parts.sort_unstable_by_key(|&(part, _)| part);
            self.read(parts.iter().flat_map(|&(_, segs)| segs));
        }
        debug_assert!(
            logs.iter()
                .zip(&cursors)
                .all(|(log, &cursor)| cursor == log.entries.len()),
            "transfer log entries left unconsumed"
        );
        self.events
    }

    fn apply(&mut self, op: SeqOp) {
        match op {
            SeqOp::Call { call, ctx } => {
                let parent_call = self.frames.last().map_or(CallNumber::ROOT, |f| f.call);
                self.flush();
                self.events.push_call(parent_call, call, ctx);
                self.frames.push(SeqFrame {
                    ctx,
                    call,
                    pending: 0,
                });
            }
            SeqOp::Return => {
                self.flush();
                self.frames.pop();
            }
            SeqOp::Flush => self.flush(),
            SeqOp::Switch { thread } => {
                if thread != self.thread {
                    let frames = self.parked.remove(&thread).unwrap_or_default();
                    let parked = std::mem::replace(&mut self.frames, frames);
                    self.parked.insert(self.thread, parked);
                    self.thread = thread;
                }
            }
            SeqOp::Ops { count } => self.retire(count),
            // Only a logged read waits for its segments; applied now, a
            // read op carries none (serial replay calls `read` itself).
            SeqOp::Read { .. } => self.read(&[]),
        }
    }

    fn retire(&mut self, count: u64) {
        if let Some(frame) = self.frames.last_mut() {
            frame.pending += count;
        }
    }

    fn flush(&mut self) {
        if let Some(frame) = self.frames.last_mut() {
            let ops = std::mem::take(&mut frame.pending);
            self.events.push_compute(frame.call, frame.ctx, ops);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(n: u64) -> CallNumber {
        CallNumber::from_raw(n)
    }

    #[test]
    fn transfers_coalesce_when_adjacent() {
        let mut f = EventFile::new();
        f.push_transfer(call(1), call(2), 4);
        f.push_transfer(call(1), call(2), 4);
        assert_eq!(f.len(), 1);
        assert_eq!(f.total_transfer_bytes(), 8);
        f.push_transfer(call(1), call(3), 4);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn zero_sized_records_are_dropped() {
        let mut f = EventFile::new();
        f.push_compute(call(1), ContextId(1), 0);
        f.push_transfer(call(1), call(2), 0);
        assert!(f.is_empty());
    }

    #[test]
    fn totals_sum_by_kind() {
        let mut f = EventFile::new();
        f.push_call(CallNumber::ROOT, call(1), ContextId(1));
        f.push_compute(call(1), ContextId(1), 10);
        f.push_transfer(call(1), call(2), 6);
        f.push_compute(call(2), ContextId(2), 20);
        assert_eq!(f.total_ops(), 30);
        assert_eq!(f.total_transfer_bytes(), 6);
        assert_eq!(f.len(), 4);
    }

    #[test]
    fn text_format_round_trips() {
        let mut f = EventFile::new();
        f.push_call(CallNumber::ROOT, call(1), ContextId(1));
        f.push_compute(call(1), ContextId(1), 42);
        f.push_transfer(call(1), call(2), 16);
        let text = f.to_text();
        assert!(text.contains("CALL parent=0 call=1 ctx=1"));
        assert!(text.contains("COMP call=1 ctx=1 ops=42"));
        assert!(text.contains("XFER from=1 to=2 bytes=16"));
        let parsed = EventFile::from_text(&text).expect("parses");
        assert_eq!(parsed, f);
    }

    #[test]
    fn text_parser_skips_comments_and_reports_errors() {
        let parsed = EventFile::from_text("# header\n\nCOMP call=1 ctx=0 ops=5\n").expect("ok");
        assert_eq!(parsed.total_ops(), 5);

        let err = EventFile::from_text("BOGUS x=1\n").unwrap_err();
        assert_eq!(err.0, 1);
        assert!(err.1.contains("BOGUS"));

        let err = EventFile::from_text("COMP call=1 ctx=0\n").unwrap_err();
        assert!(err.1.contains("ops"));

        let err = EventFile::from_text("XFER from=1 to=2 bytes=lots\n").unwrap_err();
        assert!(err.1.contains("bad number"));
    }

    #[test]
    fn trailing_tokens_are_rejected() {
        for case in [
            "CALL parent=0 call=1 ctx=1 junk=9",
            "COMP call=1 ctx=0 ops=5 junk=9",
            "XFER from=1 to=2 bytes=4 5",
        ] {
            let (line, msg) = EventFile::from_text(case).expect_err(case);
            assert_eq!(line, 1, "{case}");
            assert!(msg.contains("trailing"), "{case}: {msg}");
        }
    }

    #[test]
    fn transfer_coalescing_never_overflows() {
        let mut f = EventFile::new();
        f.push_transfer(call(1), call(2), u64::MAX - 3);
        f.push_transfer(call(1), call(2), 3); // exact fit: coalesces
        assert_eq!(f.len(), 1);
        assert_eq!(f.total_transfer_bytes(), u64::MAX);
        f.push_transfer(call(1), call(2), 1); // would overflow: new record
        assert_eq!(f.len(), 2);
        assert_eq!(
            f.records(),
            &[
                EventRecord::Transfer {
                    from_call: call(1),
                    to_call: call(2),
                    bytes: u64::MAX,
                },
                EventRecord::Transfer {
                    from_call: call(1),
                    to_call: call(2),
                    bytes: 1,
                },
            ]
        );
        // The follow-up record keeps coalescing normally.
        f.push_transfer(call(1), call(2), 7);
        assert_eq!(f.len(), 2);
    }

    /// Call main(1) → 3 ops → a read with an 8-byte transfer from root
    /// → 2 ops → return.
    const READ_IN_MAIN: [SeqOp; 5] = [
        SeqOp::Call {
            call: CallNumber::from_raw(1),
            ctx: ContextId(1),
        },
        SeqOp::Ops { count: 3 },
        SeqOp::Read { idx: 0 },
        SeqOp::Ops { count: 2 },
        SeqOp::Return,
    ];

    /// A worker log holding `entries`, `(idx, part, segments)` each,
    /// appended in order.
    fn log_of(entries: Vec<(u64, u32, Transfers)>) -> TransferLog {
        let mut log = TransferLog::default();
        for (idx, part, mut segs) in entries {
            log.append(idx, part, &mut segs);
        }
        log
    }

    /// The transfer records of `events`, as `(from, bytes)`.
    fn transfers_of(events: &EventFile) -> Vec<(u64, u64)> {
        events
            .records()
            .iter()
            .filter_map(|r| match *r {
                EventRecord::Transfer {
                    from_call, bytes, ..
                } => Some((from_call.as_raw(), bytes)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn sequencer_reproduces_serial_emission_order() {
        // The flush before the Transfer counts the 3 ops plus the read's
        // own op; the trailing Compute counts the 2 ops after.
        let mut logged = Sequencer::new(true);
        for op in READ_IN_MAIN {
            logged.push(op);
        }
        let events = logged.finish(&[log_of(vec![(0, 0, vec![(CallNumber::ROOT, 8)])])]);
        let records = events.records();
        assert_eq!(records.len(), 4);
        assert!(matches!(records[0], EventRecord::Call { .. }));
        assert!(matches!(records[1], EventRecord::Compute { ops: 4, .. }));
        assert!(
            matches!(records[2], EventRecord::Transfer { bytes: 8, to_call, .. }
                if to_call == call(1))
        );
        assert!(matches!(records[3], EventRecord::Compute { ops: 2, .. }));

        // Applied live, with the read's transfers passed directly, the
        // same ops emit the same file.
        let mut live = Sequencer::new(false);
        for op in READ_IN_MAIN {
            match op {
                SeqOp::Read { .. } => live.read(&[(CallNumber::ROOT, 8)]),
                op => live.push(op),
            }
        }
        assert_eq!(live.finish(&[]), events);
    }

    #[test]
    fn sequencer_splices_parts_from_every_log_in_part_order() {
        // Access 5 spans four chunk runs at two shards: parts 0 and 2 on
        // one worker, 1 and 3 on the other. However the logs are handed
        // over, the parts splice back in part (byte) order, and adjacent
        // same-producer segments coalesce into one record.
        let (p, q) = (call(7), call(8));
        let finish = |logs: &[TransferLog]| {
            let mut logged = Sequencer::new(true);
            logged.push(SeqOp::Call {
                call: call(9),
                ctx: ContextId(2),
            });
            for idx in 4..7 {
                logged.push(SeqOp::Read { idx });
            }
            logged.push(SeqOp::Return);
            transfers_of(&logged.finish(logs))
        };
        let even = || {
            log_of(vec![
                (4, 0, vec![(q, 1)]),
                (5, 0, vec![(p, 12)]),
                (5, 2, vec![(q, 2)]),
            ])
        };
        let odd = || {
            log_of(vec![
                (5, 1, vec![(p, 4)]),
                (5, 3, vec![(q, 3), (p, 5)]),
                (6, 0, vec![(p, 6)]),
            ])
        };
        let expected = vec![(8, 1), (7, 16), (8, 5), (7, 5), (7, 6)];
        assert_eq!(finish(&[even(), odd()]), expected);
        assert_eq!(finish(&[odd(), even()]), expected);
    }

    #[test]
    fn sequencer_read_without_entries_still_retires_its_op() {
        // Reads 0 and 2 moved nothing; both still count toward the
        // fragment flushed before read 1's transfer and the one after.
        let mut logged = Sequencer::new(true);
        logged.push(SeqOp::Call {
            call: call(1),
            ctx: ContextId(1),
        });
        for idx in 0..3 {
            logged.push(SeqOp::Read { idx });
        }
        logged.push(SeqOp::Return);
        let events = logged.finish(&[
            log_of(vec![(1, 0, vec![(CallNumber::ROOT, 4)])]),
            log_of(vec![]),
        ]);
        assert_eq!(
            events.records()[1..],
            [
                EventRecord::Compute {
                    call: call(1),
                    ctx: ContextId(1),
                    ops: 2,
                },
                EventRecord::Transfer {
                    from_call: CallNumber::ROOT,
                    to_call: call(1),
                    bytes: 4,
                },
                EventRecord::Compute {
                    call: call(1),
                    ctx: ContextId(1),
                    ops: 1,
                },
            ]
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "left unconsumed")]
    fn sequencer_catches_an_orphan_log_entry() {
        // Access 3 was never logged as a read: its entry would be
        // silently dropped, so finish must refuse it.
        let mut logged = Sequencer::new(true);
        logged.push(SeqOp::Read { idx: 1 });
        logged.push(SeqOp::Read { idx: 5 });
        let _ = logged.finish(&[log_of(vec![
            (1, 0, vec![(call(2), 4)]),
            (3, 0, vec![(call(2), 4)]),
        ])]);
    }

    #[test]
    fn sequencer_keeps_each_threads_frames() {
        // Thread 1's fragment stays pending across a switch without a
        // flush and is emitted when thread 1 resumes and returns; ops
        // with no open frame are dropped.
        let mut live = Sequencer::new(false);
        for op in [
            SeqOp::Ops { count: 5 },
            SeqOp::Switch { thread: 1 },
            SeqOp::Call {
                call: call(1),
                ctx: ContextId(1),
            },
            SeqOp::Ops { count: 2 },
            SeqOp::Switch { thread: 0 },
            SeqOp::Call {
                call: call(2),
                ctx: ContextId(2),
            },
            SeqOp::Ops { count: 3 },
            SeqOp::Return,
            SeqOp::Switch { thread: 1 },
            SeqOp::Return,
        ] {
            live.push(op);
        }
        let events = live.finish(&[]);
        assert_eq!(
            events.records(),
            &[
                EventRecord::Call {
                    parent_call: CallNumber::ROOT,
                    call: call(1),
                    ctx: ContextId(1),
                },
                EventRecord::Call {
                    parent_call: CallNumber::ROOT,
                    call: call(2),
                    ctx: ContextId(2),
                },
                EventRecord::Compute {
                    call: call(2),
                    ctx: ContextId(2),
                    ops: 3,
                },
                EventRecord::Compute {
                    call: call(1),
                    ctx: ContextId(1),
                    ops: 2,
                },
            ]
        );
    }

    #[test]
    fn interleaved_transfers_do_not_coalesce() {
        let mut f = EventFile::new();
        f.push_transfer(call(1), call(2), 4);
        f.push_compute(call(2), ContextId(2), 1);
        f.push_transfer(call(1), call(2), 4);
        assert_eq!(f.len(), 3);
    }
}
