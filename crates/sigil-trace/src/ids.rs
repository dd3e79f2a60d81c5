//! Strongly-typed identifiers used throughout the tracing stack.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a static function (a node in the symbol table).
///
/// A `FunctionId` names the *code* of a function; it does not distinguish
/// calling contexts or individual dynamic calls. Contexts are handled by
/// `sigil-callgrind`, dynamic calls by [`CallNumber`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct FunctionId(u32);

impl FunctionId {
    /// Creates a function id from a raw index.
    pub const fn from_raw(raw: u32) -> Self {
        FunctionId(raw)
    }

    /// Returns the raw index backing this id.
    pub const fn as_raw(self) -> u32 {
        self.0
    }

    /// Returns the index as a `usize`, suitable for table lookups.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

/// Monotonic number identifying one dynamic call of one function.
///
/// The Sigil paper's shadow object stores the "last reader call" so that a
/// re-read *within the same call* counts as non-unique while a read by a
/// fresh call of the same function counts as unique again. The call number
/// is global — every `Call` event increments it — so comparing call numbers
/// is sufficient to distinguish dynamic calls of any function.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct CallNumber(u64);

impl CallNumber {
    /// Call number reserved for "no call has happened" (the synthetic root).
    pub const ROOT: CallNumber = CallNumber(0);

    /// Creates a call number from a raw counter value.
    pub const fn from_raw(raw: u64) -> Self {
        CallNumber(raw)
    }

    /// Returns the raw counter value.
    pub const fn as_raw(self) -> u64 {
        self.0
    }

    /// Exclusive upper bound on call numbers: bit 63 stays clear, so
    /// shadow memory can pack a frame key that tags the shared root
    /// frame with that bit and its thread (see `sigil_mem::FrameKey`).
    pub const LIMIT: u64 = 1 << 63;

    /// Returns the next call number.
    ///
    /// # Panics
    ///
    /// Panics once the count would reach [`CallNumber::LIMIT`] — a bound
    /// checked once per call, never silently wrapped.
    #[must_use]
    pub const fn next(self) -> Self {
        match self.0.checked_add(1) {
            Some(raw) if raw < Self::LIMIT => CallNumber(raw),
            _ => panic!("call numbers stay below the root frame-key bit (CallNumber::LIMIT)"),
        }
    }
}

impl fmt::Display for CallNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "call#{}", self.0)
    }
}

/// Identifier of a guest thread.
///
/// The paper names threads among the "self contained fragment\[s\] of
/// code" that can act as producing and consuming entities (§II-A).
/// Traces are a single interleaved event stream; a
/// [`crate::RuntimeEvent::ThreadSwitch`] redirects subsequent events to
/// another thread's call stack.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ThreadId(u32);

impl ThreadId {
    /// The initial (main) thread.
    pub const MAIN: ThreadId = ThreadId(0);

    /// Creates a thread id from a raw index.
    pub const fn from_raw(raw: u32) -> Self {
        ThreadId(raw)
    }

    /// Returns the raw index.
    pub const fn as_raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t#{}", self.0)
    }
}

/// A platform-independent point in time, measured in retired guest
/// operations since the start of the traced execution.
///
/// The paper uses "the number of retired instructions as a proxy for
/// execution time" so that reuse lifetimes remain architecture-agnostic.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The zero timestamp (start of execution).
    pub const ZERO: Timestamp = Timestamp(0);

    /// Creates a timestamp from a raw op count.
    pub const fn from_raw(raw: u64) -> Self {
        Timestamp(raw)
    }

    /// Returns the raw op count.
    pub const fn as_raw(self) -> u64 {
        self.0
    }

    /// Saturating distance between two timestamps, in retired operations.
    #[must_use]
    pub const fn delta(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Advances the timestamp by `ops` retired operations.
    #[must_use]
    pub const fn advance(self, ops: u64) -> Self {
        Timestamp(self.0 + ops)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_id_round_trips() {
        let id = FunctionId::from_raw(42);
        assert_eq!(id.as_raw(), 42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "fn#42");
    }

    #[test]
    fn call_number_next_is_monotonic() {
        let c = CallNumber::ROOT;
        assert!(c.next() > c);
        assert_eq!(c.next().as_raw(), 1);
        assert_eq!(c.next().to_string(), "call#1");
    }

    #[test]
    fn call_number_next_stops_below_the_limit() {
        let last = CallNumber::from_raw(CallNumber::LIMIT - 2).next();
        assert_eq!(last.as_raw(), CallNumber::LIMIT - 1);
        let overflow = std::panic::catch_unwind(|| last.next());
        assert!(overflow.is_err(), "the root frame-key bit is never reached");
    }

    #[test]
    fn timestamp_delta_saturates() {
        let a = Timestamp::from_raw(10);
        let b = Timestamp::from_raw(4);
        assert_eq!(a.delta(b), 6);
        assert_eq!(b.delta(a), 0);
        assert_eq!(a.advance(5).as_raw(), 15);
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(FunctionId::from_raw(1) < FunctionId::from_raw(2));
        assert!(Timestamp::from_raw(1) < Timestamp::from_raw(2));
    }
}
