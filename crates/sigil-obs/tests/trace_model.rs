//! Property tests: the span stack must behave exactly like a reference
//! stack model under arbitrary enter/exit interleavings, and the Chrome
//! exporter must always emit parseable, well-formed trace JSON.
//!
//! This file is its own process, so the global collector is shared only
//! between the tests below — they serialize on [`obs_lock`].

use proptest::prelude::*;
use serde::Deserialize;
use sigil_obs::span;

#[derive(Deserialize)]
#[allow(non_snake_case)]
struct Trace {
    traceEvents: Vec<Event>,
}

/// A thread-name ("M") or complete ("X") event; `ts` and `dur` appear on
/// "X" events only.
#[derive(Deserialize)]
struct Event {
    name: String,
    ph: String,
    tid: u64,
    #[serde(default)]
    ts: Option<u64>,
    #[serde(default)]
    dur: Option<u64>,
}

fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[derive(Debug, Clone)]
enum Op {
    /// Open a span with one of a few fixed names.
    Enter(u8),
    /// Close the innermost open span (may be stray).
    Exit,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..5).prop_map(Op::Enter),
        (0u8..5).prop_map(Op::Enter),
        (0u8..5).prop_map(Op::Enter),
        Just(Op::Exit),
        Just(Op::Exit),
    ]
}

const NAMES: [&str; 5] = ["trace", "shadow", "postprocess", "workload", "figure"];

/// Replays `ops` against the real span stack and a reference stack,
/// returning the records the real stack should have produced, in exit
/// order. Leaves no spans open (drains the stack at the end).
fn replay(ops: &[Op]) -> Vec<(String, usize)> {
    let mut model: Vec<&str> = Vec::new();
    let mut expected: Vec<(String, usize)> = Vec::new();
    for op in ops {
        match op {
            Op::Enter(which) => {
                let name = NAMES[*which as usize];
                assert!(span::enter(name), "enter while enabled must push");
                model.push(name);
            }
            Op::Exit => {
                span::exit();
                if let Some(name) = model.pop() {
                    expected.push((name.to_string(), model.len()));
                }
            }
        }
    }
    // Close whatever is still open so the next case starts clean.
    while let Some(name) = model.pop() {
        span::exit();
        expected.push((name.to_string(), model.len()));
    }
    expected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn span_stack_matches_reference_model(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let _lock = obs_lock();
        sigil_obs::set_enabled(true);
        span::clear();
        let expected = replay(&ops);
        sigil_obs::set_enabled(false);

        let records = span::snapshot();
        span::clear();
        prop_assert_eq!(records.len(), expected.len());
        // Same exit order, names, and depths as the reference stack.
        for (record, (name, depth)) in records.iter().zip(&expected) {
            prop_assert_eq!(&record.name, name);
            prop_assert_eq!(record.depth, *depth);
        }
        // Well-nested: every non-root span lies inside some span one
        // level shallower that closed later (timestamps are coarse, so
        // containment is non-strict).
        for (i, inner) in records.iter().enumerate() {
            if inner.depth == 0 {
                continue;
            }
            let parent = records[i..]
                .iter()
                .find(|r| r.depth == inner.depth - 1 && r.tid == inner.tid);
            let parent = parent.expect("non-root span has an enclosing span");
            prop_assert!(parent.start_us <= inner.start_us);
            prop_assert!(inner.end_us() <= parent.end_us());
        }
    }

    #[test]
    fn chrome_export_is_valid_json_with_complete_events(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let _lock = obs_lock();
        sigil_obs::set_enabled(true);
        span::clear();
        let expected = replay(&ops);
        sigil_obs::set_enabled(false);

        let text = sigil_obs::export_chrome_trace();
        span::clear();
        let doc: Trace = serde_json::from_str(&text).expect("chrome trace parses as JSON");
        let events = doc.traceEvents;
        let complete: Vec<_> = events.iter().filter(|e| e.ph == "X").collect();
        prop_assert_eq!(complete.len(), expected.len());
        for event in &complete {
            prop_assert!(NAMES.contains(&event.name.as_str()));
            prop_assert!(event.ts.is_some() && event.dur.is_some());
        }
        // Every X event's tid is introduced by an M thread-name event.
        let named_tids: Vec<u64> = events.iter().filter(|e| e.ph == "M").map(|e| e.tid).collect();
        for event in complete {
            prop_assert!(named_tids.contains(&event.tid));
        }
    }
}
