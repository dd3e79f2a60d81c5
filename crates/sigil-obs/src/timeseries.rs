//! Fixed-resolution time-bucketed counters and gauges.
//!
//! Where [`crate::metrics`] keeps one aggregate per name, this module
//! keeps a *series*: values are folded into fixed-width time buckets
//! since the trace epoch (the first recording, or an explicit
//! [`set_resolution_ms`] call). Counter samples **sum** within a bucket;
//! gauge samples keep the **last** value written to a bucket. Buckets
//! are sparse — only touched indices are stored — so an idle series
//! costs nothing.
//!
//! Recording is gated on the global enable flag like the rest of the
//! crate: while [`crate::is_enabled`] is false every call is a no-op.
//!
//! [`snapshot_json`] renders the store as a standalone JSON document:
//!
//! ```json
//! {
//!   "bucket_ms": 100,
//!   "counters": { "shard.batches": [[0, 12], [3, 9]] },
//!   "gauges":   { "shard.0.depth": [[0, 2.0]] }
//! }
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::escape_into;

/// Default bucket width when nothing calls [`set_resolution_ms`].
pub const DEFAULT_BUCKET_MS: u64 = 100;

enum SeriesData {
    Counter(BTreeMap<u64, u64>),
    Gauge(BTreeMap<u64, f64>),
}

struct Store {
    bucket_ms: u64,
    series: BTreeMap<String, SeriesData>,
}

static STORE: Mutex<Option<Store>> = Mutex::new(None);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn elapsed_ms() -> u64 {
    u64::try_from(epoch().elapsed().as_millis()).unwrap_or(u64::MAX)
}

fn with_store<R>(f: impl FnOnce(&mut Store) -> R) -> R {
    let mut guard = STORE.lock().expect("timeseries store lock");
    let store = guard.get_or_insert_with(|| Store {
        bucket_ms: DEFAULT_BUCKET_MS,
        series: BTreeMap::new(),
    });
    f(store)
}

/// Sets the bucket width for subsequent recordings and pins the trace
/// epoch if it was not already pinned. A width of 0 is clamped to 1 ms.
/// Call once at startup, before instrumented work begins; series already
/// recorded keep their old indices (prefer [`clear`] first).
pub fn set_resolution_ms(ms: u64) {
    let _ = epoch();
    with_store(|store| store.bucket_ms = ms.max(1));
}

/// The current bucket width in milliseconds.
pub fn resolution_ms() -> u64 {
    with_store(|store| store.bucket_ms)
}

/// Adds `n` to counter series `name` in the bucket covering *now*.
/// No-op while the crate is disabled.
pub fn record_counter(name: &str, n: u64) {
    if crate::is_enabled() {
        record_counter_at(name, elapsed_ms(), n);
    }
}

/// Adds `n` to counter series `name` in the bucket covering `at_ms`
/// (milliseconds since the trace epoch). Deterministic entry point for
/// tests and replayed data; still gated on the enable flag by
/// [`record_counter`], not here.
pub fn record_counter_at(name: &str, at_ms: u64, n: u64) {
    with_store(|store| {
        let index = at_ms / store.bucket_ms;
        let data = store
            .series
            .entry(name.to_owned())
            .or_insert_with(|| SeriesData::Counter(BTreeMap::new()));
        if let SeriesData::Counter(buckets) = data {
            *buckets.entry(index).or_insert(0) += n;
        }
    });
}

/// Sets gauge series `name` to `value` in the bucket covering *now*
/// (last write to a bucket wins). No-op while the crate is disabled.
pub fn record_gauge(name: &str, value: f64) {
    if crate::is_enabled() {
        record_gauge_at(name, elapsed_ms(), value);
    }
}

/// Sets gauge series `name` to `value` in the bucket covering `at_ms`.
/// Deterministic entry point for tests and replayed data.
pub fn record_gauge_at(name: &str, at_ms: u64, value: f64) {
    with_store(|store| {
        let index = at_ms / store.bucket_ms;
        let data = store
            .series
            .entry(name.to_owned())
            .or_insert_with(|| SeriesData::Gauge(BTreeMap::new()));
        if let SeriesData::Gauge(buckets) = data {
            buckets.insert(index, value);
        }
    });
}

/// A snapshot of one series: sorted `(bucket_index, value)` points.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesSnapshot {
    /// Counter series: per-bucket sums.
    Counter(Vec<(u64, u64)>),
    /// Gauge series: last value written per bucket.
    Gauge(Vec<(u64, f64)>),
}

/// Copies the store into a sorted name → series map, alongside the
/// bucket width the indices refer to.
pub fn snapshot() -> (u64, BTreeMap<String, SeriesSnapshot>) {
    with_store(|store| {
        let series = store
            .series
            .iter()
            .map(|(name, data)| {
                let snap = match data {
                    SeriesData::Counter(b) => {
                        SeriesSnapshot::Counter(b.iter().map(|(&i, &v)| (i, v)).collect())
                    }
                    SeriesData::Gauge(b) => {
                        SeriesSnapshot::Gauge(b.iter().map(|(&i, &v)| (i, v)).collect())
                    }
                };
                (name.clone(), snap)
            })
            .collect();
        (store.bucket_ms, series)
    })
}

/// Renders the store as a standalone JSON document (stable key order;
/// `counters`/`gauges` sections always present, possibly empty).
pub fn snapshot_json() -> String {
    let (bucket_ms, series) = snapshot();
    let mut out = String::new();
    let _ = write!(out, "{{\n  \"bucket_ms\": {bucket_ms},\n  \"counters\": {{");
    let mut first = true;
    for (name, snap) in &series {
        if let SeriesSnapshot::Counter(points) = snap {
            section_entry(&mut out, &mut first, name);
            write_points(&mut out, points.iter().map(|&(i, v)| (i, format!("{v}"))));
        }
    }
    close(&mut out, first, ",");
    out.push_str("  \"gauges\": {");
    first = true;
    for (name, snap) in &series {
        if let SeriesSnapshot::Gauge(points) = snap {
            section_entry(&mut out, &mut first, name);
            write_points(
                &mut out,
                points.iter().map(|&(i, v)| {
                    (
                        i,
                        if v.is_finite() {
                            format!("{v:?}")
                        } else {
                            "null".to_owned()
                        },
                    )
                }),
            );
        }
    }
    close(&mut out, first, "");
    out.push_str("}\n");
    out
}

fn section_entry(out: &mut String, first: &mut bool, name: &str) {
    if *first {
        out.push('\n');
        *first = false;
    } else {
        out.push_str(",\n");
    }
    out.push_str("    ");
    escape_into(out, name);
    out.push_str(": ");
}

fn write_points(out: &mut String, points: impl Iterator<Item = (u64, String)>) {
    out.push('[');
    for (n, (index, value)) in points.enumerate() {
        if n > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "[{index}, {value}]");
    }
    out.push(']');
}

fn close(out: &mut String, first: bool, tail: &str) {
    if first {
        out.push('}');
    } else {
        out.push_str("\n  }");
    }
    out.push_str(tail);
    out.push('\n');
}

/// Empties the store and resets the bucket width to the default. The
/// trace epoch is process-wide and stays pinned.
pub fn clear() {
    *STORE.lock().expect("timeseries store lock") = None;
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Deserialize)]
    struct Series {
        bucket_ms: u64,
        counters: BTreeMap<String, Vec<(u64, u64)>>,
        gauges: BTreeMap<String, Vec<(u64, Option<f64>)>>,
    }

    fn parse(text: &str) -> Series {
        serde_json::from_str(text).expect("timeseries snapshot is valid JSON")
    }

    #[test]
    fn buckets_sum_counters_and_overwrite_gauges() {
        let _lock = crate::test_lock();
        clear();
        set_resolution_ms(100);
        record_counter_at("c", 0, 2);
        record_counter_at("c", 99, 3); // same bucket
        record_counter_at("c", 100, 7); // boundary lands in bucket 1
        record_gauge_at("g", 50, 1.0);
        record_gauge_at("g", 60, 2.5); // same bucket: last write wins
        record_gauge_at("g", 250, 9.0);
        let (bucket_ms, series) = snapshot();
        assert_eq!(bucket_ms, 100);
        assert_eq!(series["c"], SeriesSnapshot::Counter(vec![(0, 5), (1, 7)]));
        assert_eq!(series["g"], SeriesSnapshot::Gauge(vec![(0, 2.5), (2, 9.0)]));
        clear();
    }

    #[test]
    fn kind_mismatch_is_ignored() {
        let _lock = crate::test_lock();
        clear();
        record_counter_at("x", 0, 1);
        record_gauge_at("x", 0, 5.0); // wrong kind: dropped
        let (_, series) = snapshot();
        assert_eq!(series["x"], SeriesSnapshot::Counter(vec![(0, 1)]));
        clear();
    }

    #[test]
    fn disabled_crate_records_nothing_via_live_entry_points() {
        let _lock = crate::test_lock();
        crate::set_enabled(false);
        clear();
        record_counter("c", 1);
        record_gauge("g", 1.0);
        assert!(snapshot().1.is_empty());
        clear();
    }

    #[test]
    fn snapshot_json_is_valid() {
        let _lock = crate::test_lock();
        clear();
        set_resolution_ms(10);
        record_counter_at("a\"q\"", 5, 4);
        record_gauge_at("g", 15, 0.5);
        let doc = parse(&snapshot_json());
        assert_eq!(doc.bucket_ms, 10);
        assert_eq!(doc.counters["a\"q\""][0], (0, 4));
        assert_eq!(doc.gauges["g"][0], (1, Some(0.5)));
        clear();
        let empty = parse(&snapshot_json());
        assert!(empty.counters.is_empty() && empty.gauges.is_empty());
    }
}
