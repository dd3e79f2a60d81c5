//! Single-pass streaming folds over event records (paper §II-C2).
//!
//! The in-memory analyses ([`DependencyGraph`], [`crate::cdfg::Cdfg`])
//! materialize O(records) state — a wall at production trace volume. The
//! folds here consume records one at a time (e.g. straight from a
//! [`ChunkStream`] over the binary format), so peak memory is bounded by
//! one decoded chunk plus the fold state:
//!
//! * [`CriticalPathFold`] keeps one finish time per dynamic call — it
//!   reproduces [`DependencyGraph::critical_path`]'s `serial_ops` and
//!   `length_ops` exactly, without building a single fragment node.
//! * [`EventCdfgFold`] aggregates calls, compute ops, and context-pair
//!   transfer bytes into a context tree — the event-level counterpart of
//!   the CDFG, supporting the same merge/inclusive/breakeven-trim
//!   pipeline via [`EventCdfg::trim`].
//!
//! Both folds' state is O(distinct dynamic calls) / O(contexts), not
//! O(records): compute fragments and transfers — the bulk of a trace —
//! add no state. The one thing a fold cannot give is the critical path's
//! node list itself (that is inherently O(path)); extraction stays on the
//! in-memory [`DependencyGraph`].

use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;
use std::io::Read;

use serde::{Deserialize, Serialize};
use sigil_callgrind::ContextId;
use sigil_core::events_bin::{BinError, ChunkStream};
use sigil_core::{EventRecord, PhaseBuilder, PhaseProfile};
use sigil_trace::CallNumber;

use crate::breakeven::BusModel;
use crate::critical_path::{CommModel, CriticalPathError, DependencyGraph};
use crate::tree::{self, Tree};

/// A failure while streaming an analysis off a binary event file.
#[derive(Debug)]
pub enum StreamError {
    /// The binary file failed to decode.
    Decode(BinError),
    /// The decoded stream failed the analysis' preconditions.
    Analysis(CriticalPathError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Decode(e) => e.fmt(f),
            StreamError::Analysis(e) => e.fmt(f),
        }
    }
}

impl Error for StreamError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StreamError::Decode(e) => Some(e),
            StreamError::Analysis(e) => Some(e),
        }
    }
}

impl From<BinError> for StreamError {
    fn from(e: BinError) -> Self {
        StreamError::Decode(e)
    }
}

impl From<CriticalPathError> for StreamError {
    fn from(e: CriticalPathError) -> Self {
        StreamError::Analysis(e)
    }
}

/// The critical-path summary a bounded-memory fold can produce: the two
/// numbers of the paper's Figure 13, without the node list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathSummary {
    /// Total retired ops of the run (serial length).
    pub serial_ops: u64,
    /// Length of the longest dependency chain in retired ops.
    pub length_ops: u64,
}

impl PathSummary {
    /// Maximum theoretical function-level parallelism:
    /// serial length / critical-path length.
    pub fn max_parallelism(&self) -> f64 {
        if self.length_ops == 0 {
            1.0
        } else {
            self.serial_ops as f64 / self.length_ops as f64
        }
    }
}

/// Streaming critical-path fold.
///
/// Pushes records in program order and tracks, per dynamic call, only the
/// finish time of its latest fragment — the same recurrence
/// [`DependencyGraph::from_records`] evaluates, minus the nodes. The
/// resulting [`PathSummary`] is bit-for-bit the `serial_ops`/`length_ops`
/// pair of [`DependencyGraph::critical_path`].
#[derive(Debug, Clone)]
pub struct CriticalPathFold {
    comm: CommModel,
    /// Finish time of the latest fragment per dynamic call.
    latest: HashMap<CallNumber, u64>,
    /// Latest-arriving data-readiness per pending consumer call.
    ready: HashMap<CallNumber, u64>,
    serial_ops: u64,
    max_finish: u64,
}

impl CriticalPathFold {
    /// A fold with zero-cost transfers (the paper's model).
    pub fn new() -> Self {
        Self::with_comm(CommModel::free())
    }

    /// A fold charging transfer edges under `comm`.
    pub fn with_comm(comm: CommModel) -> Self {
        CriticalPathFold {
            comm,
            latest: HashMap::new(),
            ready: HashMap::new(),
            serial_ops: 0,
            max_finish: 0,
        }
    }

    /// Folds one record.
    pub fn push(&mut self, record: &EventRecord) {
        match *record {
            EventRecord::Call {
                parent_call, call, ..
            } => {
                let start = self.latest.get(&parent_call).copied().unwrap_or(0);
                self.latest.insert(call, start);
                self.max_finish = self.max_finish.max(start);
            }
            EventRecord::Compute { call, ops, .. } => {
                self.serial_ops = self.serial_ops.saturating_add(ops);
                let prev_finish = self.latest.get(&call).copied().unwrap_or(0);
                let data_finish = self.ready.remove(&call).unwrap_or(0);
                let finish = prev_finish.max(data_finish).saturating_add(ops);
                self.latest.insert(call, finish);
                self.max_finish = self.max_finish.max(finish);
            }
            EventRecord::Transfer {
                from_call,
                to_call,
                bytes,
            } => {
                if let Some(&producer_finish) = self.latest.get(&from_call) {
                    let finish = producer_finish.saturating_add(self.comm.latency(bytes));
                    let entry = self.ready.entry(to_call).or_insert(finish);
                    *entry = (*entry).max(finish);
                }
            }
        }
    }

    /// Folds a whole record sequence.
    pub fn extend<'a, I: IntoIterator<Item = &'a EventRecord>>(&mut self, records: I) {
        for record in records {
            self.push(record);
        }
    }

    /// The summary.
    ///
    /// # Errors
    ///
    /// Returns [`CriticalPathError::EmptyEventFile`] when no compute work
    /// was folded, exactly like [`DependencyGraph::critical_path`].
    pub fn finish(self) -> Result<PathSummary, CriticalPathError> {
        if self.serial_ops == 0 {
            return Err(CriticalPathError::EmptyEventFile);
        }
        Ok(PathSummary {
            serial_ops: self.serial_ops,
            length_ops: self.max_finish,
        })
    }
}

impl Default for CriticalPathFold {
    fn default() -> Self {
        Self::new()
    }
}

/// Streams a binary event file through [`CriticalPathFold`] with memory
/// bounded by one chunk plus the per-call state.
///
/// # Errors
///
/// Fails on a malformed file or an event stream with no compute work.
pub fn critical_path_from_bin<R: Read>(
    source: R,
    comm: &CommModel,
) -> Result<PathSummary, StreamError> {
    let _span = sigil_obs::span("analysis:critical_path_stream");
    let mut fold = CriticalPathFold::with_comm(*comm);
    ChunkStream::new(source)?.for_each(|record| fold.push(record))?;
    Ok(fold.finish()?)
}

/// One node of the event-level context tree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventNode {
    /// The context.
    pub ctx: ContextId,
    /// Parent context, as witnessed by the first call into `ctx`
    /// (`None` until a call record names it, and for the root).
    pub parent: Option<ContextId>,
    /// Child contexts, in first-call order.
    pub children: Vec<ContextId>,
    /// Dynamic calls into this context.
    pub calls: u64,
    /// Compute fragments attributed to this context.
    pub fragments: u64,
    /// Retired ops attributed to this context (exclusive).
    pub ops: u64,
}

impl EventNode {
    fn new(ctx: ContextId) -> Self {
        EventNode {
            ctx,
            parent: None,
            children: Vec::new(),
            calls: 0,
            fragments: 0,
            ops: 0,
        }
    }
}

/// A context-pair data edge aggregated from transfer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventEdge {
    /// Producing context.
    pub producer: ContextId,
    /// Consuming context.
    pub consumer: ContextId,
    /// Unique bytes moved.
    pub bytes: u64,
}

/// Streaming event-level CDFG fold: rebuilds the context tree, per-context
/// compute costs, and context-pair transfer edges from the event stream
/// alone — no profile required.
#[derive(Debug, Clone, Default)]
pub struct EventCdfgFold {
    /// Context each dynamic call executes in (the attribution map for
    /// transfer records; `CallNumber::ROOT` is seeded lazily).
    ctx_of: HashMap<CallNumber, ContextId>,
    nodes: BTreeMap<ContextId, EventNode>,
    edges: BTreeMap<(ContextId, ContextId), u64>,
    /// Transfer bytes whose producer or consumer call was never declared
    /// by a call record (malformed or truncated streams).
    unattributed_bytes: u64,
}

impl EventCdfgFold {
    /// An empty fold.
    pub fn new() -> Self {
        EventCdfgFold::default()
    }

    fn node(&mut self, ctx: ContextId) -> &mut EventNode {
        self.nodes.entry(ctx).or_insert_with(|| EventNode::new(ctx))
    }

    /// Whether making `parent` the parent of `child` would close a cycle
    /// (possible only on adversarial streams; walks are capped by the
    /// node count).
    fn would_cycle(&self, child: ContextId, parent: ContextId) -> bool {
        let mut cursor = Some(parent);
        for _ in 0..=self.nodes.len() {
            match cursor {
                None => return false,
                Some(c) if c == child => return true,
                Some(c) => cursor = self.nodes.get(&c).and_then(|n| n.parent),
            }
        }
        true // walk did not terminate: treat as cyclic
    }

    /// Folds one record.
    pub fn push(&mut self, record: &EventRecord) {
        match *record {
            EventRecord::Call {
                parent_call,
                call,
                ctx,
            } => {
                let parent_ctx = if parent_call == CallNumber::ROOT {
                    ContextId::ROOT
                } else {
                    self.ctx_of
                        .get(&parent_call)
                        .copied()
                        .unwrap_or(ContextId::ROOT)
                };
                self.ctx_of.insert(call, ctx);
                self.node(parent_ctx);
                let node = self.node(ctx);
                node.calls += 1;
                if node.parent.is_none()
                    && ctx != parent_ctx
                    && ctx != ContextId::ROOT
                    && !self.would_cycle(ctx, parent_ctx)
                {
                    self.node(ctx).parent = Some(parent_ctx);
                    self.node(parent_ctx).children.push(ctx);
                }
            }
            EventRecord::Compute { ctx, ops, .. } => {
                let node = self.node(ctx);
                node.fragments += 1;
                node.ops = node.ops.saturating_add(ops);
            }
            EventRecord::Transfer {
                from_call,
                to_call,
                bytes,
            } => {
                let producer = self.ctx_of.get(&from_call).copied();
                let consumer = self.ctx_of.get(&to_call).copied();
                match (producer, consumer) {
                    (Some(p), Some(c)) => {
                        self.node(p);
                        self.node(c);
                        let entry = self.edges.entry((p, c)).or_insert(0);
                        *entry = entry.saturating_add(bytes);
                    }
                    _ => {
                        self.unattributed_bytes = self.unattributed_bytes.saturating_add(bytes);
                    }
                }
            }
        }
    }

    /// Folds a whole record sequence.
    pub fn extend<'a, I: IntoIterator<Item = &'a EventRecord>>(&mut self, records: I) {
        for record in records {
            self.push(record);
        }
    }

    /// The finished event-level CDFG.
    pub fn finish(self) -> EventCdfg {
        EventCdfg {
            nodes: self.nodes,
            edges: self
                .edges
                .into_iter()
                .map(|((producer, consumer), bytes)| EventEdge {
                    producer,
                    consumer,
                    bytes,
                })
                .collect(),
            unattributed_bytes: self.unattributed_bytes,
        }
    }
}

/// Inclusive (merged-subtree) quantities of one event-level context:
/// the event-stream analogue of [`crate::inclusive::InclusiveCosts`],
/// with retired ops standing in for estimated cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventInclusive {
    /// Retired ops of the merged sub-tree.
    pub ops: u64,
    /// Bytes flowing into the merged box.
    pub in_bytes: u64,
    /// Bytes flowing out of the merged box.
    pub out_bytes: u64,
}

/// One accelerator candidate selected from the event-level tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventCandidate {
    /// The merged context.
    pub ctx: ContextId,
    /// Breakeven speedup with ops as the cycle proxy.
    pub breakeven: f64,
    /// Retired ops of the merged sub-tree.
    pub inclusive_ops: u64,
    /// Bytes entering the merged box.
    pub in_bytes: u64,
    /// Bytes leaving the merged box.
    pub out_bytes: u64,
}

/// The event-level CDFG: context tree plus aggregated data edges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventCdfg {
    nodes: BTreeMap<ContextId, EventNode>,
    edges: Vec<EventEdge>,
    unattributed_bytes: u64,
}

impl EventCdfg {
    /// Builds the CDFG from an in-memory record slice (the reference the
    /// streaming path is tested against).
    pub fn from_records<'a, I: IntoIterator<Item = &'a EventRecord>>(records: I) -> Self {
        let mut fold = EventCdfgFold::new();
        fold.extend(records);
        fold.finish()
    }

    /// The nodes, ordered by context id.
    pub fn nodes(&self) -> impl Iterator<Item = &EventNode> {
        self.nodes.values()
    }

    /// Looks up one node.
    pub fn node(&self, ctx: ContextId) -> Option<&EventNode> {
        self.nodes.get(&ctx)
    }

    /// The aggregated data edges, ordered by (producer, consumer).
    pub fn edges(&self) -> &[EventEdge] {
        &self.edges
    }

    /// Transfer bytes that could not be attributed to a context pair.
    pub fn unattributed_bytes(&self) -> u64 {
        self.unattributed_bytes
    }

    /// Number of contexts.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Inclusive quantities for every context: sub-tree ops plus the
    /// bytes crossing each merged box (edges internal to a box are
    /// discarded, exactly as [`crate::inclusive::inclusive_table`] does
    /// on the profile-based CDFG).
    pub fn inclusive(&self) -> BTreeMap<ContextId, EventInclusive> {
        let mut table: BTreeMap<ContextId, EventInclusive> = self
            .nodes
            .keys()
            .map(|&ctx| (ctx, EventInclusive::default()))
            .collect();
        // Sub-tree ops: charge each node's exclusive ops to itself and
        // every ancestor.
        for node in self.nodes.values() {
            for c in tree::ancestors(self, node.ctx) {
                if let Some(entry) = table.get_mut(&c) {
                    entry.ops = entry.ops.saturating_add(node.ops);
                }
            }
        }
        for edge in &self.edges {
            tree::for_each_crossing(self, edge.producer, edge.consumer, |c, into| {
                if let Some(entry) = table.get_mut(&c) {
                    let side = if into {
                        &mut entry.in_bytes
                    } else {
                        &mut entry.out_bytes
                    };
                    *side = side.saturating_add(edge.bytes);
                }
            });
        }
        table
    }

    /// Trims the event-level tree into accelerator candidates with the
    /// same merge heuristic as [`crate::partition::trim_calltree`], ops
    /// standing in for cycles. The program entry (child of the root
    /// context) is never a candidate; sub-trees under `min_ops` are
    /// noise-floored out.
    pub fn trim(&self, bus: &BusModel, min_ops: u64) -> Vec<EventCandidate> {
        let inclusive = self.inclusive();
        let candidate = |ctx: ContextId| {
            let inc = inclusive
                .get(&ctx)
                .filter(|inc| inc.ops >= min_ops.max(1))?;
            Some(EventCandidate {
                ctx,
                breakeven: bus.breakeven(inc.ops, inc.in_bytes, inc.out_bytes),
                inclusive_ops: inc.ops,
                in_bytes: inc.in_bytes,
                out_bytes: inc.out_bytes,
            })
        };
        let selected = tree::trim(self, |ctx| {
            candidate(ctx).map_or(f64::INFINITY, |c| c.breakeven)
        });
        let mut leaves: Vec<EventCandidate> = selected.into_iter().filter_map(candidate).collect();
        leaves.sort_by(|a, b| {
            a.breakeven
                .partial_cmp(&b.breakeven)
                .expect("breakevens are never NaN")
                .then_with(|| b.inclusive_ops.cmp(&a.inclusive_ops))
                .then_with(|| a.ctx.cmp(&b.ctx))
        });
        leaves
    }
}

impl Tree for EventCdfg {
    fn parent(&self, ctx: ContextId) -> Option<ContextId> {
        self.nodes.get(&ctx).and_then(|n| n.parent)
    }

    fn children(&self, ctx: ContextId) -> &[ContextId] {
        self.nodes.get(&ctx).map_or(&[], |n| &n.children)
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }
}

/// Streams a binary event file through [`EventCdfgFold`] with memory
/// bounded by one chunk plus the per-context/per-call state.
///
/// # Errors
///
/// Fails on a malformed file.
pub fn event_cdfg_from_bin<R: Read>(source: R) -> Result<EventCdfg, StreamError> {
    let _span = sigil_obs::span("analysis:event_cdfg_stream");
    let mut fold = EventCdfgFold::new();
    ChunkStream::new(source)?.for_each(|record| fold.push(record))?;
    Ok(fold.finish())
}

/// Streaming phase-profile fold: rebuilds the profiler's
/// [`PhaseProfile`] from the event stream alone.
///
/// The phase clock is recovered by replaying the profiler's tick rules
/// over the records in program order:
///
/// * a `Call` record is tallied at the *pre-tick* clock, then advances
///   the clock by one (the call itself retires one op);
/// * a `Compute` fragment advances the clock by its `ops`;
/// * a `Transfer` is tallied at the current clock (its consuming read
///   already retired inside the preceding compute fragment).
///
/// Because the profiler only ticks for work the event sequencer also
/// sees, the recovered clock — and therefore every bucket index — is
/// identical to the in-memory profiler's, making the fold's output
/// byte-identical to `Profile::phases` for the same bucket width. State
/// is O(distinct dynamic calls) for attribution plus O(occupied cells):
/// bounded, stream-friendly memory.
///
/// Transfers naming a call no `Call` record declared (malformed or
/// truncated streams) are attributed to [`ContextId::ROOT`].
#[derive(Debug, Clone)]
pub struct PhaseFold {
    builder: PhaseBuilder,
    /// Context each dynamic call executes in.
    ctx_of: HashMap<CallNumber, ContextId>,
    /// Recovered phase clock (retired ops since trace start).
    clock: u64,
}

impl PhaseFold {
    /// An empty fold bucketing at `bucket_ops` retired ops per phase
    /// (`0` is clamped to `1`).
    pub fn new(bucket_ops: u64) -> Self {
        PhaseFold {
            builder: PhaseBuilder::new(bucket_ops),
            ctx_of: HashMap::new(),
            clock: 0,
        }
    }

    fn ctx_or_root(&self, call: CallNumber) -> ContextId {
        if call == CallNumber::ROOT {
            ContextId::ROOT
        } else {
            self.ctx_of.get(&call).copied().unwrap_or(ContextId::ROOT)
        }
    }

    /// Folds one record.
    pub fn push(&mut self, record: &EventRecord) {
        match *record {
            EventRecord::Call {
                parent_call,
                call,
                ctx,
            } => {
                let from = self.ctx_or_root(parent_call);
                self.ctx_of.insert(call, ctx);
                self.builder.record_call(from, ctx, self.clock);
                self.clock += 1;
            }
            EventRecord::Compute { ops, .. } => self.clock += ops,
            EventRecord::Transfer {
                from_call,
                to_call,
                bytes,
            } => {
                let from = self.ctx_or_root(from_call);
                let to = self.ctx_or_root(to_call);
                self.builder.record_transfer(from, to, self.clock, bytes);
            }
        }
    }

    /// Folds a whole record sequence.
    pub fn extend<'a, I: IntoIterator<Item = &'a EventRecord>>(&mut self, records: I) {
        for record in records {
            self.push(record);
        }
    }

    /// The recovered phase clock so far (total retired ops folded).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The finished profile, in the profiler's canonical shape.
    pub fn finish(self) -> PhaseProfile {
        self.builder.finish()
    }
}

/// Streams a binary event file through [`PhaseFold`] with memory bounded
/// by one chunk plus the attribution map and occupied cells.
///
/// # Errors
///
/// Fails on a malformed file.
pub fn phase_profile_from_bin<R: Read>(
    source: R,
    bucket_ops: u64,
) -> Result<PhaseProfile, StreamError> {
    let _span = sigil_obs::span("analysis:phase_stream");
    let mut fold = PhaseFold::new(bucket_ops);
    ChunkStream::new(source)?.for_each(|record| fold.push(record))?;
    Ok(fold.finish())
}

/// Reference implementation used by the conformance tests: the summary of
/// the full in-memory dependency graph.
///
/// # Errors
///
/// Fails when no compute work exists.
pub fn in_memory_summary(
    records: &[EventRecord],
    comm: &CommModel,
) -> Result<PathSummary, CriticalPathError> {
    let graph = DependencyGraph::from_records(records.iter().copied(), comm);
    let cp = graph.critical_path()?;
    Ok(PathSummary {
        serial_ops: cp.serial_ops,
        length_ops: cp.length_ops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigil_core::events_bin::encode_events_chunked;
    use sigil_core::{EventFile, SigilConfig, SigilProfiler};
    use sigil_trace::{Engine, OpClass};

    fn call(n: u64) -> CallNumber {
        CallNumber::from_raw(n)
    }

    fn recorded_events<F: FnOnce(&mut Engine<SigilProfiler>)>(body: F) -> EventFile {
        let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default().with_events()));
        body(&mut engine);
        let (p, s) = engine.finish_with_symbols();
        p.into_profile(s).events.expect("events enabled")
    }

    fn diamond() -> EventFile {
        recorded_events(|e| {
            e.scoped_named("main", |e| {
                e.scoped_named("producer", |e| {
                    e.op(OpClass::IntArith, 100);
                    e.write(0x0, 8);
                    e.write(0x100, 8);
                });
                e.scoped_named("worker_a", |e| {
                    e.read(0x0, 8);
                    e.op(OpClass::IntArith, 900);
                });
                e.scoped_named("worker_b", |e| {
                    e.read(0x100, 8);
                    e.op(OpClass::IntArith, 900);
                });
            });
        })
    }

    #[test]
    fn fold_matches_in_memory_graph() {
        let events = diamond();
        for comm in [
            CommModel::free(),
            CommModel {
                fixed_ops: 50,
                bytes_per_op: 1.0,
            },
        ] {
            let reference = in_memory_summary(events.records(), &comm).expect("compute work");
            let mut fold = CriticalPathFold::with_comm(comm);
            fold.extend(events.records());
            let summary = fold.finish().expect("compute work");
            assert_eq!(summary, reference);
            assert!(summary.max_parallelism() > 1.0);
        }
    }

    #[test]
    fn fold_from_binary_stream_matches() {
        let events = diamond();
        let bytes = encode_events_chunked(&events, 3);
        let reference =
            in_memory_summary(events.records(), &CommModel::free()).expect("compute work");
        let streamed =
            critical_path_from_bin(bytes.as_slice(), &CommModel::free()).expect("clean file");
        assert_eq!(streamed, reference);
    }

    #[test]
    fn empty_stream_is_an_analysis_error() {
        let fold = CriticalPathFold::new();
        assert_eq!(fold.finish(), Err(CriticalPathError::EmptyEventFile));
        let bytes = encode_events_chunked(&EventFile::new(), 4);
        match critical_path_from_bin(bytes.as_slice(), &CommModel::free()) {
            Err(StreamError::Analysis(CriticalPathError::EmptyEventFile)) => {}
            other => panic!("expected EmptyEventFile, got {other:?}"),
        }
    }

    #[test]
    fn event_cdfg_rebuilds_tree_and_edges() {
        let events = diamond();
        let cdfg = EventCdfg::from_records(events.records());
        // root, main, producer, worker_a, worker_b
        assert_eq!(cdfg.len(), 5);
        let root = cdfg.node(ContextId::ROOT).expect("root");
        assert_eq!(root.children.len(), 1, "main is the sole entry");
        let main = cdfg.node(root.children[0]).expect("main");
        assert_eq!(main.children.len(), 3);
        // producer → worker_a and producer → worker_b edges, 8 bytes each.
        assert_eq!(cdfg.edges().len(), 2);
        for edge in cdfg.edges() {
            assert_eq!(edge.producer, main.children[0]);
            assert_eq!(edge.bytes, 8);
        }
        assert_eq!(cdfg.unattributed_bytes(), 0);
        // Total exclusive ops equal the event file's total.
        let total: u64 = cdfg.nodes().map(|n| n.ops).sum();
        assert_eq!(total, events.total_ops());
    }

    #[test]
    fn event_cdfg_streaming_matches_in_memory() {
        let events = diamond();
        let reference = EventCdfg::from_records(events.records());
        let bytes = encode_events_chunked(&events, 2);
        let streamed = event_cdfg_from_bin(bytes.as_slice()).expect("clean file");
        assert_eq!(streamed, reference);
    }

    #[test]
    fn inclusive_discards_internal_edges() {
        let events = diamond();
        let cdfg = EventCdfg::from_records(events.records());
        let inclusive = cdfg.inclusive();
        let root = cdfg.node(ContextId::ROOT).expect("root");
        let main_ctx = root.children[0];
        // Everything is inside main's box: no crossing traffic.
        let main_inc = inclusive[&main_ctx];
        assert_eq!(main_inc.in_bytes, 0);
        assert_eq!(main_inc.out_bytes, 0);
        assert_eq!(main_inc.ops, events.total_ops());
        // The producer's box exports both buffers.
        let producer_ctx = cdfg.node(main_ctx).expect("main").children[0];
        let producer_inc = inclusive[&producer_ctx];
        assert_eq!(producer_inc.out_bytes, 16);
        assert_eq!(producer_inc.in_bytes, 0);
    }

    #[test]
    fn trim_prefers_compute_heavy_subtrees() {
        let events = diamond();
        let cdfg = EventCdfg::from_records(events.records());
        let candidates = cdfg.trim(&BusModel::soc_default(), 1);
        assert!(!candidates.is_empty());
        // The entry (main) is never a candidate.
        let root = cdfg.node(ContextId::ROOT).expect("root");
        let main_ctx = root.children[0];
        assert!(candidates.iter().all(|c| c.ctx != main_ctx));
        for pair in candidates.windows(2) {
            assert!(pair[0].breakeven <= pair[1].breakeven);
        }
        for c in &candidates {
            assert!(c.breakeven >= 1.0);
        }
    }

    #[test]
    fn phase_fold_matches_profiler_profile() {
        // The fold recovers the profiler's own PhaseProfile from the
        // event stream, byte-for-byte, across bucket widths.
        for width in [1, 3, 64] {
            let mut engine = Engine::new(SigilProfiler::new(
                SigilConfig::default().with_events().with_phases(width),
            ));
            engine.scoped_named("main", |e| {
                e.scoped_named("producer", |e| {
                    e.op(OpClass::IntArith, 7);
                    e.write(0x0, 8);
                    e.write(0x100, 8);
                });
                e.scoped_named("worker_a", |e| {
                    e.read(0x0, 8);
                    e.op(OpClass::IntArith, 11);
                });
                e.scoped_named("worker_b", |e| {
                    e.read(0x100, 8);
                    e.read(0x100, 8); // repeat read: no transfer
                });
            });
            let (p, s) = engine.finish_with_symbols();
            let profile = p.into_profile(s);
            let events = profile.events.as_ref().expect("events on");
            let reference = profile.phases.as_ref().expect("phases on");

            let mut fold = PhaseFold::new(width);
            fold.extend(events.records());
            assert_eq!(fold.clock(), events.total_ops() + 4, "ops + 4 calls");
            let folded = fold.finish();
            assert_eq!(&folded, reference, "width={width}");

            // And the chunked binary path agrees with the in-memory fold.
            let bytes = encode_events_chunked(events, 3);
            let streamed = phase_profile_from_bin(bytes.as_slice(), width).expect("clean file");
            assert_eq!(&streamed, reference, "width={width} (binary)");
        }
    }

    #[test]
    fn phase_fold_attributes_unknown_calls_to_root() {
        let mut fold = PhaseFold::new(10);
        fold.push(&EventRecord::Transfer {
            from_call: call(99),
            to_call: call(98),
            bytes: 16,
        });
        let profile = fold.finish();
        assert_eq!(profile.pairs.len(), 1);
        assert_eq!(profile.pairs[0].from, ContextId::ROOT);
        assert_eq!(profile.pairs[0].to, ContextId::ROOT);
        assert_eq!(profile.pairs[0].buckets[0].xfer_bytes, 16);
    }

    #[test]
    fn malformed_streams_never_panic_the_folds() {
        // Transfers referencing undeclared calls, orphan computes, and a
        // would-be context cycle all fold cleanly.
        let mut fold = EventCdfgFold::new();
        let records = [
            EventRecord::Transfer {
                from_call: call(99),
                to_call: call(98),
                bytes: u64::MAX,
            },
            EventRecord::Compute {
                call: call(50),
                ctx: ContextId(7),
                ops: u64::MAX,
            },
            EventRecord::Compute {
                call: call(50),
                ctx: ContextId(7),
                ops: u64::MAX,
            },
            EventRecord::Call {
                parent_call: call(1),
                call: call(2),
                ctx: ContextId(3),
            },
            EventRecord::Call {
                parent_call: call(2),
                call: call(3),
                ctx: ContextId(4),
            },
            // ctx 3's parent is already set; this tries to re-parent and
            // must not create a 3↔4 cycle.
            EventRecord::Call {
                parent_call: call(3),
                call: call(4),
                ctx: ContextId(3),
            },
        ];
        for r in &records {
            fold.push(r);
        }
        let cdfg = fold.finish();
        assert_eq!(cdfg.unattributed_bytes(), u64::MAX);
        let _ = cdfg.inclusive();
        let _ = cdfg.trim(&BusModel::soc_default(), 1);

        let mut cp = CriticalPathFold::new();
        for r in &records {
            cp.push(r);
        }
        cp.finish().expect("compute work present");
    }
}
