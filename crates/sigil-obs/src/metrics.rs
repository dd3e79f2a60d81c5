//! A global metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`s into
//! the registry; recording through a handle is a single atomic op, so a
//! handle can live on a hot-ish path. Handles requested while the crate
//! is globally disabled ([`crate::set_enabled`]) are inert no-ops and
//! register nothing.
//!
//! [`snapshot_json`] renders the whole registry as a stable (sorted)
//! JSON document — the `--metrics-out` file format:
//!
//! ```json
//! {
//!   "counters":   { "shadow.accesses": 123456 },
//!   "gauges":     { "shadow.mru_hit_rate": 0.97 },
//!   "histograms": { "sweep.wall_ms": { "bounds": [1, 10], "counts": [5, 2, 1], "total": 8, "sum": 42 } }
//! }
//! ```
//!
//! A histogram's `counts` has one entry per bound (`value <= bound`)
//! plus a final overflow bucket.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::escape_into;

#[derive(Clone)]
enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>), // f64 bit pattern
    Histogram(Arc<HistogramCore>),
}

struct HistogramCore {
    /// Inclusive upper bounds of the finite buckets, strictly increasing.
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets; the last catches values above every bound.
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicU64,
}

static REGISTRY: Mutex<BTreeMap<String, Slot>> = Mutex::new(BTreeMap::new());

fn registry() -> std::sync::MutexGuard<'static, BTreeMap<String, Slot>> {
    REGISTRY.lock().expect("metrics registry lock")
}

/// A monotonically increasing counter handle.
#[derive(Clone)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 for an inert handle).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A gauge handle holding one `f64`.
#[derive(Clone)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        if let Some(cell) = &self.0 {
            cell.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 for an inert handle).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |cell| f64::from_bits(cell.load(Ordering::Relaxed)))
    }
}

/// A fixed-bucket histogram handle.
#[derive(Clone)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let Some(core) = &self.0 else { return };
        let bucket = core
            .bounds
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(core.bounds.len());
        core.counts[bucket].fetch_add(1, Ordering::Relaxed);
        core.total.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Estimates the `p`-th percentile (`0.0..=100.0`) by linear
    /// interpolation inside the bucket holding that rank. Returns `None`
    /// for an inert handle or an empty histogram. Ranks landing in the
    /// overflow bucket report the last finite bound (a floor, not an
    /// estimate — the histogram has no upper edge there).
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let core = self.0.as_ref()?;
        let counts: Vec<u64> = core
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        percentile_from_buckets(&core.bounds, &counts, p)
    }
}

/// Percentile estimate from raw histogram state: `counts` has one entry
/// per bound plus a final overflow bucket. Linear interpolation within
/// the bucket containing rank `p/100 * total`; bucket `i` spans
/// `(bounds[i-1], bounds[i]]` (the first spans `[0, bounds[0]]`).
/// Returns `None` when there are no observations or the shapes mismatch.
pub fn percentile_from_buckets(bounds: &[u64], counts: &[u64], p: f64) -> Option<f64> {
    if bounds.is_empty() || counts.len() != bounds.len() + 1 {
        return None;
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0) * total as f64;
    let mut below = 0u64;
    for (i, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let cumulative = below + count;
        if cumulative as f64 >= rank {
            let Some(&upper) = bounds.get(i) else {
                // Overflow bucket: no upper edge to interpolate against.
                return Some(*bounds.last().expect("bounds non-empty") as f64);
            };
            let lower = if i == 0 { 0 } else { bounds[i - 1] };
            let fraction = ((rank - below as f64) / count as f64).clamp(0.0, 1.0);
            return Some(lower as f64 + fraction * (upper - lower) as f64);
        }
        below = cumulative;
    }
    Some(*bounds.last().expect("bounds non-empty") as f64)
}

/// Registers (or finds) the counter `name` and returns a handle.
/// Inert while the crate is disabled or if `name` is a different type.
pub fn counter(name: &str) -> Counter {
    if !crate::is_enabled() {
        return Counter(None);
    }
    let mut reg = registry();
    let slot = reg
        .entry(name.to_owned())
        .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))));
    match slot {
        Slot::Counter(cell) => Counter(Some(Arc::clone(cell))),
        _ => Counter(None),
    }
}

/// Registers (or finds) the gauge `name` and returns a handle.
pub fn gauge(name: &str) -> Gauge {
    if !crate::is_enabled() {
        return Gauge(None);
    }
    let mut reg = registry();
    let slot = reg
        .entry(name.to_owned())
        .or_insert_with(|| Slot::Gauge(Arc::new(AtomicU64::new(0))));
    match slot {
        Slot::Gauge(cell) => Gauge(Some(Arc::clone(cell))),
        _ => Gauge(None),
    }
}

/// Registers (or finds) the histogram `name` with the given inclusive
/// upper `bounds` and returns a handle. Bounds are fixed at first
/// registration; later callers share them.
///
/// # Panics
///
/// Panics if `bounds` is empty or not strictly increasing (a programming
/// error at the instrumentation site).
pub fn histogram(name: &str, bounds: &[u64]) -> Histogram {
    assert!(!bounds.is_empty(), "histogram needs at least one bound");
    assert!(
        bounds.windows(2).all(|w| w[0] < w[1]),
        "histogram bounds must be strictly increasing"
    );
    if !crate::is_enabled() {
        return Histogram(None);
    }
    let mut reg = registry();
    let slot = reg.entry(name.to_owned()).or_insert_with(|| {
        Slot::Histogram(Arc::new(HistogramCore {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    });
    match slot {
        Slot::Histogram(core) => Histogram(Some(Arc::clone(core))),
        _ => Histogram(None),
    }
}

/// Sets counter `name` to an absolute value (registering it if needed).
/// One-shot export path for counters maintained elsewhere — e.g. the
/// shadow-table hot-path counters, counted locally for speed and
/// published once per run.
pub fn set_counter(name: &str, value: u64) {
    if let Some(cell) = &counter(name).0 {
        cell.store(value, Ordering::Relaxed);
    }
}

/// Adds `n` to counter `name` (registering it if needed). Accumulation
/// path for counters maintained elsewhere and folded in once per run —
/// e.g. the sharded dispatcher's busy/resolve timers, which a sweep sums
/// across workloads.
pub fn add_counter(name: &str, n: u64) {
    counter(name).add(n);
}

/// Sets gauge `name` to `value` (registering it if needed).
pub fn set_gauge(name: &str, value: f64) {
    gauge(name).set(value);
}

/// A point-in-time value of one metric, for inspection in tests/tools.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state: bucket bounds, per-bucket counts (bounds + 1
    /// overflow), observation count, and sum of observed values.
    Histogram {
        /// Inclusive upper bounds of the finite buckets.
        bounds: Vec<u64>,
        /// Per-bucket counts (one per bound, plus overflow).
        counts: Vec<u64>,
        /// Number of observations.
        total: u64,
        /// Sum of observed values.
        sum: u64,
    },
}

/// Copies the registry into a sorted name → value map.
pub fn snapshot() -> BTreeMap<String, MetricValue> {
    registry()
        .iter()
        .map(|(name, slot)| {
            let value = match slot {
                Slot::Counter(cell) => MetricValue::Counter(cell.load(Ordering::Relaxed)),
                Slot::Gauge(cell) => {
                    MetricValue::Gauge(f64::from_bits(cell.load(Ordering::Relaxed)))
                }
                Slot::Histogram(core) => MetricValue::Histogram {
                    bounds: core.bounds.clone(),
                    counts: core
                        .counts
                        .iter()
                        .map(|c| c.load(Ordering::Relaxed))
                        .collect(),
                    total: core.total.load(Ordering::Relaxed),
                    sum: core.sum.load(Ordering::Relaxed),
                },
            };
            (name.clone(), value)
        })
        .collect()
}

/// Renders the registry as the `--metrics-out` JSON document (two-space
/// indent, keys sorted, one `counters`/`gauges`/`histograms` section
/// each — always present, possibly empty).
pub fn snapshot_json() -> String {
    let snap = snapshot();
    let mut out = String::from("{\n  \"counters\": {");
    let mut first = true;
    for (name, value) in &snap {
        if let MetricValue::Counter(v) = value {
            sep(&mut out, &mut first);
            key(&mut out, name);
            let _ = write!(out, "{v}");
        }
    }
    close_section(&mut out, first);
    out.push_str("  \"gauges\": {");
    first = true;
    for (name, value) in &snap {
        if let MetricValue::Gauge(v) = value {
            sep(&mut out, &mut first);
            key(&mut out, name);
            if v.is_finite() {
                let _ = write!(out, "{v:?}");
            } else {
                out.push_str("null");
            }
        }
    }
    close_section(&mut out, first);
    out.push_str("  \"histograms\": {");
    first = true;
    for (name, value) in &snap {
        if let MetricValue::Histogram {
            bounds,
            counts,
            total,
            sum,
        } = value
        {
            sep(&mut out, &mut first);
            key(&mut out, name);
            let _ = write!(
                out,
                "{{\"bounds\": {bounds:?}, \"counts\": {counts:?}, \"total\": {total}, \"sum\": {sum}}}"
            );
        }
    }
    if first {
        out.push_str("}\n}\n");
    } else {
        out.push_str("\n  }\n}\n");
    }
    out
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        out.push('\n');
        *first = false;
    } else {
        out.push_str(",\n");
    }
    out.push_str("    ");
}

fn key(out: &mut String, name: &str) {
    escape_into(out, name);
    out.push_str(": ");
}

fn close_section(out: &mut String, first: bool) {
    if first {
        out.push_str("},\n");
    } else {
        out.push_str("\n  },\n");
    }
}

/// Empties the registry (handles created earlier keep their cells but
/// are no longer visible in snapshots).
pub fn clear() {
    registry().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Deserialize)]
    struct Snapshot {
        counters: BTreeMap<String, u64>,
        gauges: BTreeMap<String, Option<f64>>,
        histograms: BTreeMap<String, Hist>,
    }

    #[derive(Deserialize)]
    struct Hist {
        counts: Vec<u64>,
        total: u64,
    }

    fn parse(text: &str) -> Snapshot {
        serde_json::from_str(text).expect("snapshot is valid JSON")
    }

    #[test]
    fn disabled_registry_stays_empty() {
        let _lock = crate::test_lock();
        crate::set_enabled(false);
        clear();
        counter("c").add(5);
        gauge("g").set(1.5);
        histogram("h", &[1, 2]).observe(3);
        set_counter("c2", 9);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn counters_gauges_histograms_record_and_snapshot() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        clear();
        let c = counter("work.items");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        counter("work.items").inc(); // same underlying cell
        add_counter("work.items", 2); // shorthand hits the same cell too
        gauge("rate").set(0.75);
        let h = histogram("ms", &[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(500);
        let snap = snapshot();
        assert_eq!(snap["work.items"], MetricValue::Counter(8));
        assert_eq!(snap["rate"], MetricValue::Gauge(0.75));
        assert_eq!(
            snap["ms"],
            MetricValue::Histogram {
                bounds: vec![10, 100],
                counts: vec![1, 1, 1],
                total: 3,
                sum: 555,
            }
        );
        crate::set_enabled(false);
        clear();
    }

    #[test]
    fn type_mismatch_yields_inert_handle() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        clear();
        counter("name").inc();
        let g = gauge("name");
        g.set(3.0);
        assert_eq!(snapshot()["name"], MetricValue::Counter(1));
        crate::set_enabled(false);
        clear();
    }

    #[test]
    fn percentile_interpolates_within_buckets() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        clear();
        let h = histogram("lat", &[10, 100, 1000]);
        assert_eq!(h.percentile(50.0), None, "empty histogram has no rank");
        for v in [5, 5, 50, 50, 50, 50, 500, 500, 500, 5000] {
            h.observe(v);
        }
        // Rank 5 of 10 sits at the end of the (10, 100] bucket's second
        // of four observations: 10 + (5-2)/4 * 90 = 77.5.
        assert_eq!(h.percentile(50.0), Some(77.5));
        // Rank 0 clamps into the first occupied bucket.
        assert_eq!(h.percentile(0.0), Some(0.0));
        // Rank 10 lands in the overflow bucket: floored to the last bound.
        assert_eq!(h.percentile(99.9), Some(1000.0));
        crate::set_enabled(false);
        clear();
        assert_eq!(Histogram(None).percentile(50.0), None);
    }

    #[test]
    fn percentile_from_buckets_rejects_bad_shapes() {
        assert_eq!(percentile_from_buckets(&[], &[3], 50.0), None);
        assert_eq!(percentile_from_buckets(&[10], &[1], 50.0), None);
        assert_eq!(percentile_from_buckets(&[10], &[0, 0], 50.0), None);
        assert_eq!(percentile_from_buckets(&[10], &[2, 0], 100.0), Some(10.0));
    }

    #[test]
    fn snapshot_json_is_valid_and_sectioned() {
        let _lock = crate::test_lock();
        crate::set_enabled(true);
        clear();
        counter("a\"quoted\"").add(2);
        gauge("g").set(2.5);
        histogram("h", &[1]).observe(7);
        let doc = parse(&snapshot_json());
        assert_eq!(doc.counters["a\"quoted\""], 2);
        assert_eq!(doc.gauges["g"], Some(2.5));
        let h = &doc.histograms["h"];
        assert_eq!(h.total, 1);
        assert_eq!(h.counts.len(), 2);
        crate::set_enabled(false);
        clear();
        let empty = parse(&snapshot_json());
        assert!(empty.counters.is_empty() && empty.gauges.is_empty());
        assert!(empty.histograms.is_empty());
    }
}
