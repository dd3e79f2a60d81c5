//! Chrome trace-event JSON exporter.
//!
//! Serializes every collected [`crate::span::SpanRecord`] as a complete
//! (`"ph": "X"`) trace event in the Trace Event Format, loadable in
//! `chrome://tracing` and Perfetto. The file is a JSON object:
//!
//! ```json
//! {
//!   "displayTimeUnit": "ms",
//!   "traceEvents": [
//!     {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "sigil-thread-0"}},
//!     {"name": "profile:vips", "cat": "sigil", "ph": "X", "pid": 1, "tid": 0,
//!      "ts": 12, "dur": 3450, "args": {"depth": 0}}
//!   ]
//! }
//! ```
//!
//! `ts`/`dur` are microseconds (the format's native unit) since the
//! process trace epoch. One metadata (`"ph": "M"`) event per thread
//! names it `sigil-thread-<tid>`.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::json::escape_into;
use crate::span::{snapshot, SpanRecord};

/// Renders `spans` as a Chrome trace-event JSON document.
pub fn chrome_trace_from(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
    let mut first = true;
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        push_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
             \"args\": {{\"name\": \"sigil-thread-{tid}\"}}}}"
        );
    }
    for span in spans {
        push_sep(&mut out, &mut first);
        out.push_str("{\"name\": ");
        escape_into(&mut out, &span.name);
        let _ = write!(
            out,
            ", \"cat\": \"sigil\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
             \"ts\": {}, \"dur\": {}, \"args\": {{\"depth\": {}}}}}",
            span.tid, span.start_us, span.dur_us, span.depth
        );
    }
    out.push_str("\n]\n}\n");
    out
}

fn push_sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push_str(",\n");
    }
}

/// Renders every span collected so far as a Chrome trace-event JSON
/// document.
pub fn export_chrome_trace() -> String {
    chrome_trace_from(&snapshot())
}

/// Writes [`export_chrome_trace`] to `path`.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write_chrome_trace(path: impl AsRef<Path>) -> io::Result<()> {
    std::fs::write(path, export_chrome_trace())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Deserialize)]
    #[allow(non_snake_case)]
    struct Trace {
        traceEvents: Vec<Event>,
    }

    /// A thread-name ("M") or complete ("X") event; `ts`, `dur` and
    /// `args.depth` appear on "X" events only.
    #[derive(Deserialize)]
    struct Event {
        name: String,
        ph: String,
        #[serde(default)]
        ts: Option<u64>,
        #[serde(default)]
        dur: Option<u64>,
        args: Args,
    }

    #[derive(Deserialize)]
    struct Args {
        #[serde(default)]
        depth: Option<u64>,
    }

    fn record(name: &str, tid: u64, depth: usize, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            name: name.to_owned(),
            tid,
            depth,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn empty_trace_is_valid_json() {
        let doc: Trace = serde_json::from_str(&chrome_trace_from(&[])).expect("valid JSON");
        assert!(doc.traceEvents.is_empty());
    }

    #[test]
    fn events_carry_complete_phase_and_times() {
        let spans = [
            record("outer", 0, 0, 10, 100),
            record("in\"ner", 0, 1, 20, 30),
            record("worker", 1, 0, 15, 40),
        ];
        let doc: Trace = serde_json::from_str(&chrome_trace_from(&spans)).expect("valid JSON");
        let events = doc.traceEvents;
        // 2 thread metadata events + 3 span events.
        assert_eq!(events.len(), 5);
        assert_eq!(events.iter().filter(|e| e.ph == "M").count(), 2);
        let complete: Vec<_> = events.iter().filter(|e| e.ph == "X").collect();
        assert_eq!(complete.len(), 3);
        for event in &complete {
            assert!(event.ts.is_some() && event.dur.is_some());
        }
        assert_eq!(complete[1].name, "in\"ner");
        assert_eq!(complete[1].args.depth, Some(1));
    }
}
