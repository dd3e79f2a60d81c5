//! The item chains the workloads time, and the references they are
//! checked against.
//!
//! Every chain enters the system through its public entry points only:
//! `Benchmark::run` into an `Engine`, `sigil_trace::io::replay` into a
//! profiler, `into_profile`, `sigil_core::events_bin`, and the
//! `sigil_analysis` streaming folds. A reference is always computed on a
//! different path than the item it checks: serial batch replay of a
//! recorded trace for the profiles, `DependencyGraph` and in-memory folds
//! for the streamed analyses.

use sigil_analysis::streaming::{
    critical_path_from_bin, event_cdfg_from_bin, EventCandidate, PathSummary,
};
use sigil_analysis::{BusModel, CommModel, DependencyGraph, EventCdfg};
use sigil_bench::profile;
use sigil_core::events_bin::encode_events;
use sigil_core::{EventFile, Profile, SigilConfig, SigilProfiler};
use sigil_mem::EvictionPolicy;
use sigil_trace::observer::RecordingObserver;
use sigil_trace::{Engine, RuntimeEvent, SymbolTable};
use sigil_workloads::{Benchmark, InputSize};

use crate::util::{digest, json_digest};

/// Phase bucket width (retired ops) wherever phases are on.
pub const BUCKET_OPS: u64 = 1000;
/// Noise floor of the breakeven trim, in retired ops.
pub const TRIM_MIN_OPS: u64 = 1000;
/// Shadow-chunk cap of serve-mixed trace sessions: below the simmedium
/// working sets of dedup (387 chunks) and facesim (74), above every other
/// program's, so some sessions evict and the rest do not.
pub const SERVE_SHADOW_LIMIT: usize = 64;

/// The paper's baseline mode (Fig. 4/5): aggregates only.
pub fn serial_config() -> SigilConfig {
    SigilConfig::default()
}

/// Reuse, 64-byte lines, events and phases, at `shards` shadow shards.
pub fn events_config(shards: usize) -> SigilConfig {
    SigilConfig::default()
        .with_reuse_mode()
        .with_line_mode(64)
        .with_events()
        .with_phases(BUCKET_OPS)
        .with_shards(shards)
}

/// Server-side profiling of serve-mixed trace sessions: LRU eviction
/// under a shadow chunk cap.
pub fn serve_trace_config() -> SigilConfig {
    SigilConfig::default()
        .with_shadow_limit(SERVE_SHADOW_LIMIT)
        .with_eviction(EvictionPolicy::Lru)
}

/// The batch configuration whose event file feeds serve-mixed events
/// sessions (phases on, so the server's phase fold is checked against the
/// profiler's own phase profile).
pub fn serve_events_config() -> SigilConfig {
    SigilConfig::default().with_events().with_phases(BUCKET_OPS)
}

/// A program's recorded trace.
pub struct Trace {
    pub symbols: SymbolTable,
    pub events: Vec<RuntimeEvent>,
}

pub fn record(bench: Benchmark, size: InputSize) -> Trace {
    let mut engine = Engine::new(RecordingObserver::new());
    bench.run(size, &mut engine);
    let (recorder, symbols) = engine.finish_with_symbols();
    Trace {
        symbols,
        events: recorder.into_events(),
    }
}

/// Replays a recorded trace into a fresh profiler.
pub fn replay_into(trace: &Trace, config: SigilConfig) -> SigilProfiler {
    let mut profiler = SigilProfiler::new(config);
    sigil_trace::io::replay(&trace.events, &mut profiler);
    profiler
}

/// Serial batch replay of a recorded trace.
pub fn batch_profile(trace: &Trace, config: SigilConfig) -> Profile {
    replay_into(trace, config).into_profile(trace.symbols.clone())
}

/// What one program's chain must reproduce: its guest event count and
/// the digests of each checked output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    pub events: u64,
    pub digests: Vec<u64>,
}

impl Reference {
    /// One line of the set-up process's output.
    pub fn to_line(&self, bench: Benchmark) -> String {
        let digests: Vec<String> = self.digests.iter().map(|d| format!("{d:016x}")).collect();
        format!("{} {} {}", bench.name(), self.events, digests.join(" "))
    }

    pub fn from_line(line: &str) -> Option<(Benchmark, Reference)> {
        let mut parts = line.split_whitespace();
        let bench = parts.next()?.parse().ok()?;
        let events = parts.next()?.parse().ok()?;
        let digests = parts
            .map(|d| u64::from_str_radix(d, 16).ok())
            .collect::<Option<Vec<u64>>>()?;
        Some((bench, Reference { events, digests }))
    }
}

/// profile-serial's item: live profile in baseline mode (the generator
/// drives the profiler through an `Engine`), serialized. Returns the
/// digests its reference holds.
pub fn serial_item(bench: Benchmark, size: InputSize, corrupt: bool) -> Vec<u64> {
    let mut profile = profile(bench, size, serial_config());
    if corrupt {
        profile.callgrind.total_ops += 1;
    }
    vec![json_digest(&profile)]
}

/// profile-serial's reference: serial batch replay of the recorded trace.
pub fn serial_reference(bench: Benchmark, size: InputSize) -> Reference {
    let trace = record(bench, size);
    let profile = batch_profile(&trace, serial_config());
    Reference {
        events: trace.events.len() as u64,
        digests: vec![json_digest(&profile)],
    }
}

/// Splits the event file off a profile, returning the digest of the
/// rest (the event file itself is checked through its `.evb` encoding,
/// which is far cheaper to hash than its JSON).
pub fn split_events(mut profile: Profile) -> (u64, EventFile) {
    let events = profile.events.take().expect("event recording is on");
    (json_digest(&profile), events)
}

/// The paper's breakeven trim of an event CDFG.
pub fn trim(cdfg: &EventCdfg) -> Vec<EventCandidate> {
    cdfg.trim(&BusModel::soc_default(), TRIM_MIN_OPS)
}

/// Digest of the post-processing results: critical path, event CDFG and
/// its breakeven trim.
pub fn analysis_digest(path: PathSummary, cdfg: &EventCdfg, trimmed: &[EventCandidate]) -> u64 {
    let text = format!(
        "{}|{}|{}",
        serde_json::to_string(&path).expect("path serializes"),
        serde_json::to_string(cdfg).expect("cdfg serializes"),
        serde_json::to_string(&trimmed).expect("trim serializes"),
    );
    digest(text.as_bytes())
}

/// events-sharded's item: live sharded profile, `.evb` encode, then the
/// streaming critical path and event CDFG over the encoded bytes, and its
/// trim. Returns the digests its reference holds.
pub fn events_item(bench: Benchmark, size: InputSize, shards: usize, corrupt: bool) -> Vec<u64> {
    let profile = profile(bench, size, events_config(shards));
    let (profile_digest, event_file) = split_events(profile);
    let evb = encode_events(&event_file);
    drop(event_file);
    let mut path = critical_path_from_bin(&evb[..], &CommModel::free()).expect("evb decodes");
    if corrupt {
        path.length_ops += 1;
    }
    let cdfg = event_cdfg_from_bin(&evb[..]).expect("evb decodes");
    let trimmed = trim(&cdfg);
    vec![
        profile_digest,
        digest(&evb),
        analysis_digest(path, &cdfg, &trimmed),
    ]
}

/// events-sharded's reference: serial (one-shard) batch replay of the
/// recorded trace, with the analyses run in memory — the critical path
/// through `DependencyGraph`.
pub fn events_reference(bench: Benchmark, size: InputSize) -> Reference {
    let trace = record(bench, size);
    let (profile_digest, event_file) = split_events(batch_profile(&trace, events_config(1)));
    let path = graph_path(&event_file);
    let cdfg = EventCdfg::from_records(event_file.records());
    Reference {
        events: trace.events.len() as u64,
        digests: vec![
            profile_digest,
            digest(&encode_events(&event_file)),
            analysis_digest(path, &cdfg, &trim(&cdfg)),
        ],
    }
}

/// The critical path of an in-memory event file via the full dependency
/// graph.
pub fn graph_path(events: &EventFile) -> PathSummary {
    let graph = DependencyGraph::from_records(events.records().iter().copied(), &CommModel::free());
    let cp = graph.critical_path().expect("programs retire compute work");
    PathSummary {
        serial_ops: cp.serial_ops,
        length_ops: cp.length_ops,
    }
}
