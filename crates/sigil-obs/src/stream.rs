//! Background metrics streaming: live, tail-able JSONL snapshots.
//!
//! [`MetricsStreamer::start`] spawns a thread that appends one JSON
//! object per line to a file at a fixed interval. Each line is a *delta
//! snapshot* of the [`crate::metrics`] registry:
//!
//! * `counters` — the **increase** since the previous line, omitting
//!   counters that did not move (so an idle interval renders `{}`);
//! * `gauges` — current absolute values (a gauge has no meaningful
//!   delta);
//! * `seq` / `t_ms` — line number and milliseconds since the streamer
//!   started.
//!
//! ```json
//! {"seq": 1, "t_ms": 201, "counters": {"sweep.workloads_done": 2}, "gauges": {"sweep.running": 1.0}}
//! ```
//!
//! [`MetricsStreamer::stop`] wakes the thread through a condvar (no
//! residual interval sleep), writes one final line covering whatever
//! moved since the last tick, and joins. `tail -f` on the path gives a
//! live view of any long run; `sigil-serve` can later consume the same
//! format.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::escape_into;
use crate::metrics::{snapshot, MetricValue};

/// Handle to the background streaming thread. Dropping it without
/// calling [`MetricsStreamer::stop`] detaches the thread (it keeps
/// streaming until the process exits); stop explicitly for a clean
/// final line.
pub struct MetricsStreamer {
    shared: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<io::Result<()>>>,
}

impl MetricsStreamer {
    /// Creates (truncating) `path` and starts streaming delta snapshots
    /// every `interval`. The file is created eagerly so configuration
    /// errors surface here, not in the background thread. An interval
    /// of zero is clamped to one millisecond.
    pub fn start(path: impl AsRef<Path>, interval: Duration) -> io::Result<Self> {
        let file = File::create(path)?;
        let interval = interval.max(Duration::from_millis(1));
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("sigil-metrics-stream".to_owned())
            .spawn(move || stream_loop(file, interval, &thread_shared))?;
        Ok(Self {
            shared,
            handle: Some(handle),
        })
    }

    /// Signals the thread to stop, waits for the final line, and
    /// returns any I/O error the stream hit while writing.
    pub fn stop(mut self) -> io::Result<()> {
        let (stop, wake) = &*self.shared;
        *stop.lock().expect("streamer stop lock") = true;
        wake.notify_all();
        match self.handle.take() {
            Some(handle) => handle
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("metrics streamer panicked"))),
            None => Ok(()),
        }
    }
}

fn stream_loop(file: File, interval: Duration, shared: &(Mutex<bool>, Condvar)) -> io::Result<()> {
    let mut out = BufWriter::new(file);
    let epoch = Instant::now();
    let mut last_counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut seq = 0u64;
    let (stop, wake) = shared;
    loop {
        let stopped = {
            let guard = stop.lock().expect("streamer stop lock");
            let (guard, _) = wake
                .wait_timeout_while(guard, interval, |stopped| !*stopped)
                .expect("streamer stop lock");
            *guard
        };
        seq += 1;
        let line = delta_line(seq, &epoch, &mut last_counters);
        out.write_all(line.as_bytes())?;
        out.flush()?;
        if stopped {
            return Ok(());
        }
    }
}

/// Renders one JSONL line and folds the counter values it reported into
/// `last_counters` so the next line reports fresh deltas.
fn delta_line(seq: u64, epoch: &Instant, last_counters: &mut BTreeMap<String, u64>) -> String {
    let t_ms = u64::try_from(epoch.elapsed().as_millis()).unwrap_or(u64::MAX);
    let snap = snapshot();
    let mut line = String::new();
    let _ = write!(line, "{{\"seq\": {seq}, \"t_ms\": {t_ms}, \"counters\": {{");
    let mut first = true;
    for (name, value) in &snap {
        if let MetricValue::Counter(now) = value {
            let before = last_counters.insert(name.clone(), *now).unwrap_or(0);
            let delta = now.saturating_sub(before);
            if delta == 0 {
                continue;
            }
            if !first {
                line.push_str(", ");
            }
            first = false;
            escape_into(&mut line, name);
            let _ = write!(line, ": {delta}");
        }
    }
    line.push_str("}, \"gauges\": {");
    first = true;
    for (name, value) in &snap {
        if let MetricValue::Gauge(v) = value {
            if !first {
                line.push_str(", ");
            }
            first = false;
            escape_into(&mut line, name);
            if v.is_finite() {
                let _ = write!(line, ": {v:?}");
            } else {
                line.push_str(": null");
            }
        }
    }
    line.push_str("}}\n");
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Deserialize)]
    struct Line {
        seq: u64,
        counters: BTreeMap<String, u64>,
        gauges: BTreeMap<String, Option<f64>>,
    }

    fn parse(line: &str) -> Line {
        serde_json::from_str(line).expect("every line is valid JSON")
    }

    #[test]
    fn delta_lines_report_increases_only() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        crate::metrics::clear();
        crate::metrics::counter("work").add(5);
        crate::metrics::gauge("rate").set(0.5);
        let epoch = Instant::now();
        let mut last = BTreeMap::new();

        let line = parse(&delta_line(1, &epoch, &mut last));
        assert_eq!(line.counters["work"], 5);
        assert_eq!(line.gauges["rate"], Some(0.5));

        // Nothing moved: the counters object is empty, gauges persist.
        let line = parse(&delta_line(2, &epoch, &mut last));
        assert!(line.counters.is_empty());
        assert_eq!(line.seq, 2);

        crate::metrics::counter("work").add(3);
        let line = parse(&delta_line(3, &epoch, &mut last));
        assert_eq!(line.counters["work"], 3);
        crate::set_enabled(false);
        crate::metrics::clear();
    }

    #[test]
    fn streamer_writes_final_line_on_stop() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        crate::metrics::clear();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("sigil-stream-test-{}.jsonl", std::process::id()));
        let streamer =
            MetricsStreamer::start(&path, Duration::from_millis(10)).expect("streamer starts");
        crate::metrics::counter("events").add(7);
        std::thread::sleep(Duration::from_millis(40));
        streamer.stop().expect("clean stop");
        let text = std::fs::read_to_string(&path).expect("stream file exists");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 2, "expected >=2 snapshots, got {lines:?}");
        let mut saw_delta = false;
        for (i, line) in lines.iter().enumerate() {
            let line = parse(line);
            assert_eq!(line.seq, i as u64 + 1);
            saw_delta |= line.counters.get("events") == Some(&7);
        }
        assert!(saw_delta, "some line carries the counter delta: {text}");
        let _ = std::fs::remove_file(&path);
        crate::set_enabled(false);
        crate::metrics::clear();
    }
}
