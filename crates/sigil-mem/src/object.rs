//! The per-byte shadow objects (paper Table I), shaped by mode.
//!
//! Baseline mode stores Table I's three baseline variables in the
//! 24-byte [`ShadowObject`]; reuse mode adds the three reuse variables
//! (and the reader's context, which reuse rows are charged to) in
//! [`ReuseShadowObject`]. The table is generic over its slot type, so
//! each mode pays only for the fields it reads.

use std::num::NonZeroU64;

use serde::{Deserialize, Serialize};
use sigil_trace::{CallNumber, Timestamp};

/// Identity of the entity that last wrote a shadowed byte: a function
/// (in practice a *function context*, see `sigil-callgrind`) together
/// with the dynamic call number of that access and its guest thread.
///
/// The paper's shadow object stores a "pointer to function" plus a "call
/// number"; we store a dense context index plus the global call number,
/// which carries the same information without raw pointers. The thread
/// is what lets the profiler classify a read whose last writer ran on
/// another thread as inter-thread input.
///
/// The call is stored off by one in a [`NonZeroU64`], so
/// `Option<Owner>` uses the zero niche and stays 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Owner {
    /// Dense index of the owning function context.
    pub ctx: u32,
    /// Guest thread the access ran on (raw [`sigil_trace::ThreadId`]).
    pub thread: u32,
    /// `call + 1`: never zero, since calls stay below
    /// [`CallNumber::LIMIT`].
    call_plus_one: NonZeroU64,
}

impl Owner {
    /// Creates an owner record.
    pub const fn new(ctx: u32, call: CallNumber, thread: u32) -> Self {
        Owner {
            ctx,
            thread,
            call_plus_one: NonZeroU64::MIN.saturating_add(call.as_raw()),
        }
    }

    /// Dynamic call during which the access happened.
    pub const fn call(&self) -> CallNumber {
        CallNumber::from_raw(self.call_plus_one.get() - 1)
    }
}

/// The 8-byte identity of the dynamic frame that last read a byte: the
/// paper's "last reader" and "last reader call" in one word.
///
/// Call numbers are global and a frame never changes thread, so a
/// non-root call number alone names its context and its thread. Only the
/// shared root frame ([`CallNumber::ROOT`]), which every guest thread
/// starts in, needs its thread packed in: its key is
/// `CallNumber::LIMIT | thread` (bit 63 set, which no call number
/// reaches). Zero is [`FrameKey::NONE`], "no reader yet".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FrameKey(u64);

impl FrameKey {
    /// No reader since the last write (or ever).
    pub const NONE: FrameKey = FrameKey(0);

    /// The key of `thread`'s frame with dynamic call `call`.
    pub const fn new(call: CallNumber, thread: u32) -> Self {
        debug_assert!(
            call.as_raw() < CallNumber::LIMIT,
            "call below the root-key bit"
        );
        match call.as_raw() {
            0 => FrameKey(CallNumber::LIMIT | thread as u64),
            raw => FrameKey(raw),
        }
    }

    /// Whether this is [`FrameKey::NONE`].
    pub const fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// Reuse-mode extension of the shadow object (paper Table I, "Additional
/// variables for Reuse mode").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReuseInfo {
    /// Number of times the byte was accessed beyond its first read
    /// ("re-use count").
    pub reuse_count: u64,
    /// Timestamp of the first read of the current value
    /// ("re-use lifetime start").
    pub first_access: Timestamp,
    /// Timestamp of the latest read of the current value
    /// ("re-use lifetime finish").
    pub last_access: Timestamp,
}

impl ReuseInfo {
    /// The reuse lifetime: retired-op distance between first and last
    /// access of the current value.
    pub const fn lifetime(&self) -> u64 {
        self.last_access.delta(self.first_access)
    }

    /// Records a read at `now`, updating count and lifetime bounds.
    pub fn record_read(&mut self, now: Timestamp, first_read: bool) {
        if first_read {
            self.first_access = now;
        } else {
            self.reuse_count += 1;
        }
        self.last_access = now;
    }

    /// Resets the record when the byte is overwritten (a new value begins
    /// a new lifetime).
    pub fn reset(&mut self) {
        *self = ReuseInfo::default();
    }
}

/// Baseline shadow record for one byte of guest memory (paper Table I):
/// last writer, plus last reader and last reader call packed into one
/// [`FrameKey`].
///
/// A freshly created shadow object is *invalid*: no writer, no reader.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShadowObject {
    /// Function context + call + thread that last wrote this byte;
    /// `None` until the traced program first writes the byte.
    pub last_writer: Option<Owner>,
    /// Frame that last read the current value; [`FrameKey::NONE`] until
    /// the first read after a write.
    pub last_reader: FrameKey,
}

impl ShadowObject {
    /// Whether the byte has ever been written by the traced program.
    pub const fn is_written(&self) -> bool {
        self.last_writer.is_some()
    }

    /// Marks `writer` as the producer of this byte's current value and
    /// invalidates the reader (a write starts a new value).
    pub fn record_write(&mut self, writer: Owner) {
        self.last_writer = Some(writer);
        self.last_reader = FrameKey::NONE;
    }

    /// Returns true iff the frame `reader` already read this value, i.e.
    /// a further read is **non-unique**.
    pub fn is_repeat_read(&self, reader: FrameKey) -> bool {
        self.last_reader == reader
    }

    /// Marks `reader` as the most recent consumer.
    pub fn record_read(&mut self, reader: FrameKey) {
        self.last_reader = reader;
    }
}

/// Reuse-mode shadow record: the baseline fields plus the reuse
/// variables of the current value and the context of its last reader
/// (a [`FrameKey`] names the frame, but reuse rows are kept per
/// context).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseShadowObject {
    /// Last writer and last reader, as in baseline mode.
    pub base: ShadowObject,
    /// Context of `base.last_reader`; meaningless while there is none.
    pub reader_ctx: u32,
    /// Reuse-mode statistics for the *current value* of the byte.
    pub reuse: ReuseInfo,
}

// The slot width is the shadow table's memory bill per guest byte.
const _: () = assert!(std::mem::size_of::<ShadowObject>() <= 24);
const _: () = assert!(std::mem::size_of::<ReuseShadowObject>() < 72);

#[cfg(test)]
mod tests {
    use super::*;

    fn owner(ctx: u32, call: u64) -> Owner {
        Owner::new(ctx, CallNumber::from_raw(call), 0)
    }

    fn key(call: u64, thread: u32) -> FrameKey {
        FrameKey::new(CallNumber::from_raw(call), thread)
    }

    #[test]
    fn fresh_object_is_invalid() {
        let obj = ShadowObject::default();
        assert!(!obj.is_written());
        assert!(obj.last_reader.is_none());
        assert_eq!(ReuseShadowObject::default().reuse, ReuseInfo::default());
    }

    #[test]
    fn owner_round_trips_its_call_through_the_niche() {
        for call in [0, 1, CallNumber::LIMIT - 1] {
            let o = Owner::new(3, CallNumber::from_raw(call), 2);
            assert_eq!(o.call(), CallNumber::from_raw(call));
            assert_eq!((o.ctx, o.thread), (3, 2));
        }
        assert_eq!(std::mem::size_of::<Option<Owner>>(), 16);
    }

    #[test]
    fn write_sets_producer_and_clears_readers() {
        let mut obj = ShadowObject::default();
        obj.record_read(key(5, 0));
        obj.record_write(owner(2, 6));
        assert_eq!(obj.last_writer, Some(owner(2, 6)));
        assert!(obj.last_reader.is_none());
    }

    #[test]
    fn repeat_read_requires_the_same_dynamic_call() {
        let mut obj = ShadowObject::default();
        obj.record_read(key(5, 0));
        assert!(obj.is_repeat_read(key(5, 0)));
        // Same function, different dynamic call: unique again.
        assert!(!obj.is_repeat_read(key(7, 0)));
    }

    #[test]
    fn repeat_read_distinguishes_threads_at_the_root_frame() {
        // Root frames share the call number across guest threads; only
        // the thread packed into their key keeps their reads distinct.
        let mut obj = ShadowObject::default();
        obj.record_read(key(0, 0));
        assert!(obj.is_repeat_read(key(0, 0)));
        assert!(!obj.is_repeat_read(key(0, 1)));
        // Nor does a root key alias a non-root call or "no reader".
        assert_ne!(key(0, 1), key(1, 0));
        assert!(!key(0, 0).is_none());
        assert_ne!(key(0, u32::MAX), key(CallNumber::LIMIT - 1, 0));
    }

    #[test]
    fn reuse_lifetime_spans_first_to_last_read() {
        let mut info = ReuseInfo::default();
        info.record_read(Timestamp::from_raw(100), true);
        assert_eq!(info.lifetime(), 0);
        assert_eq!(info.reuse_count, 0);
        info.record_read(Timestamp::from_raw(250), false);
        info.record_read(Timestamp::from_raw(400), false);
        assert_eq!(info.reuse_count, 2);
        assert_eq!(info.lifetime(), 300);
    }

    #[test]
    fn reset_clears_reuse_state() {
        let mut info = ReuseInfo::default();
        info.record_read(Timestamp::from_raw(5), true);
        info.record_read(Timestamp::from_raw(9), false);
        info.reset();
        assert_eq!(info, ReuseInfo::default());
    }
}
