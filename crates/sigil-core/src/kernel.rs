//! The Table-I classification kernel: the one per-byte loop behind both
//! serial and sharded replay.
//!
//! `Kernel` owns every piece of per-byte state and everything tallied
//! from it: the shadow table, the input/local/inter-thread/output ×
//! unique/non-unique classes, the producer→consumer edge map, the reuse
//! rows, and a *transfer-only* phase builder. Serial replay keeps one
//! kernel on the profiling thread; sharded replay gives one to each
//! worker, which owns the bytes of its chunks (see [`crate::shard`]).
//!
//! State that is *not* per-byte — frames, call numbers, the phase clock,
//! call tallies, line shadowing, and the whole-access `bytes_read` /
//! `bytes_written` counts — lives in the [`crate::SigilProfiler`] front
//! end, which then either calls the kernel in-thread or dispatches the
//! access to the shard workers.
//!
//! The kernel is generic over its [`Slot`] layout: baseline mode runs on
//! the 24-byte [`ShadowObject`], reuse mode on [`ReuseShadowObject`],
//! whose per-byte reuse bookkeeping only that instantiation compiles in.
//! [`ModeKernel`] and the shard worker spawn pick the layout from
//! `config.reuse_mode`.
//!
//! The read kernel classifies a *span* at a time: a maximal stretch of
//! slots with equal baseline fields (last writer, last reader) reads
//! alike byte for byte, so it is classified once and its length added
//! to every tally; the same pass then marks the span read, one slot at
//! a time.
//!
//! The kernel is applied to one `&mut [S]` run at a time: serial replay
//! calls it once per chunk run of an access, workers once per
//! (sub-)access of a dispatched record. Where a caller splits an access
//! — and so where it splits a span — is unobservable: every tally is a
//! sum, producer segments and consumer classes flush as sums, the phase
//! builder sums transfer bytes per bucket cell, and cross-call transfers
//! coalesce exactly as `EventFile::push_transfer` merges adjacent
//! records of the same pair.

use std::collections::HashMap;

use sigil_callgrind::ContextId;
use sigil_mem::{
    FrameKey, MemoryStats, Owner, ReuseInfo, ReuseShadowObject, ShadowObject, ShadowTable,
};
use sigil_trace::{Addr, CallNumber, FunctionId, Timestamp};

use crate::config::SigilConfig;
use crate::phase::{PhaseBuilder, PhaseProfile};
use crate::reuse::ContextReuse;
use crate::shard::ShardFragment;
use crate::stats::{CommEdge, CommStats};

/// Cross-call transfers found by one kernel call, in byte order:
/// `(producer call, bytes)`, adjacent same-call segments coalesced.
pub(crate) type Transfers = Vec<(CallNumber, u64)>;

/// Who performed an access, and when — everything the kernel needs
/// from the front end's global order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Accessor {
    /// The consuming/producing frame's context.
    pub(crate) ctx: ContextId,
    /// Its dynamic call number.
    pub(crate) call: CallNumber,
    /// Guest thread the access ran on (raw thread id) — part of the
    /// owner identity, and the discriminant for inter-thread
    /// classification.
    pub(crate) thread: u32,
    /// The reader's function identity (reads only).
    pub(crate) reader_fn: Option<FunctionId>,
    /// Op-clock timestamp of the access (reuse lifetimes).
    pub(crate) at: Timestamp,
    /// Phase-clock timestamp of the access (post-tick — includes the
    /// access's own retired op), for phase-profile transfer bucketing.
    pub(crate) phase_at: u64,
}

impl Accessor {
    /// The shadow owner tag this accessor writes into slots.
    pub(crate) fn owner(&self) -> Owner {
        Owner::new(self.ctx.0, self.call, self.thread)
    }

    /// The reader frame key this accessor reads under.
    fn key(&self) -> FrameKey {
        FrameKey::new(self.call, self.thread)
    }

    /// The same frame `k` accesses later on an exact stride: each
    /// access retires one op on both clocks.
    pub(crate) fn advance(self, k: u64) -> Self {
        Accessor {
            at: self.at.advance(k),
            phase_at: self.phase_at + k,
            ..self
        }
    }
}

/// Unique / non-unique bytes of one producer→consumer edge.
#[derive(Debug, Clone, Copy, Default)]
struct EdgeAccum {
    unique: u64,
    nonunique: u64,
}

impl EdgeAccum {
    fn add(&mut self, repeat: bool, bytes: u64) {
        if repeat {
            self.nonunique += bytes;
        } else {
            self.unique += bytes;
        }
    }
}

/// Grows `comm` so `ctx` has a row and returns it.
pub(crate) fn comm_entry(comm: &mut Vec<CommStats>, ctx: ContextId) -> &mut CommStats {
    let idx = ctx.index();
    if idx >= comm.len() {
        comm.resize(idx + 1, CommStats::default());
    }
    &mut comm[idx]
}

fn reuse_flush(reuse_vec: &mut Vec<ContextReuse>, reader_ctx: u32, info: ReuseInfo) {
    let idx = reader_ctx as usize;
    while reuse_vec.len() <= idx {
        let next = ContextId(u32::try_from(reuse_vec.len()).expect("context count fits u32"));
        reuse_vec.push(ContextReuse::new(next));
    }
    reuse_vec[idx].record(info.reuse_count, info.lifetime());
}

/// A shadow-slot layout the kernel runs over: the baseline Table-I
/// fields, plus whatever per-byte bookkeeping the mode keeps on top.
pub(crate) trait Slot: Copy + Default {
    /// Whether the layout carries reuse-mode state (and the kernel
    /// reports reuse rows).
    const REUSE: bool;

    /// The baseline fields: last writer and last reader. Slots with
    /// equal baseline fields classify alike under any read.
    fn base(&self) -> &ShadowObject;

    /// Marks the slot read by `who` (frame key `key`; `repeat` iff that
    /// frame already read this value), flushing a finished reuse record
    /// into `rows`.
    fn read(&mut self, who: &Accessor, key: FrameKey, repeat: bool, rows: &mut Vec<ContextReuse>);

    /// Makes `writer` the producer of a new value, flushing the old
    /// value's reuse record into `rows`.
    fn write(&mut self, writer: Owner, rows: &mut Vec<ContextReuse>);

    /// Flushes the reuse record still live at the end of the run.
    fn flush(&self, rows: &mut Vec<ContextReuse>);
}

impl Slot for ShadowObject {
    const REUSE: bool = false;

    fn base(&self) -> &ShadowObject {
        self
    }

    #[inline]
    fn read(&mut self, _: &Accessor, key: FrameKey, _: bool, _: &mut Vec<ContextReuse>) {
        self.record_read(key);
    }

    #[inline]
    fn write(&mut self, writer: Owner, _: &mut Vec<ContextReuse>) {
        self.record_write(writer);
    }

    fn flush(&self, _: &mut Vec<ContextReuse>) {}
}

impl Slot for ReuseShadowObject {
    const REUSE: bool = true;

    fn base(&self) -> &ShadowObject {
        &self.base
    }

    /// A change of reader flushes the previous reader's record
    /// (lifetimes are per function call).
    #[inline]
    fn read(&mut self, who: &Accessor, key: FrameKey, repeat: bool, rows: &mut Vec<ContextReuse>) {
        if !repeat {
            self.flush(rows);
            self.reuse.reset();
        }
        self.reuse.record_read(who.at, !repeat);
        self.base.record_read(key);
        self.reader_ctx = who.ctx.0;
    }

    #[inline]
    fn write(&mut self, writer: Owner, rows: &mut Vec<ContextReuse>) {
        self.flush(rows);
        self.base.record_write(writer);
        self.reuse.reset();
    }

    fn flush(&self, rows: &mut Vec<ContextReuse>) {
        if !self.base.last_reader.is_none() {
            reuse_flush(rows, self.reader_ctx, self.reuse);
        }
    }
}

/// The tallies the kernel accumulates from per-byte state.
#[derive(Debug)]
pub(crate) struct Tally {
    comm: Vec<CommStats>,
    edges: HashMap<(ContextId, ContextId), EdgeAccum>,
    /// Reuse rows; stays empty unless the slot layout carries reuse
    /// state.
    reuse: Vec<ContextReuse>,
    /// Transfer buckets only: calls are tallied by the front end.
    phases: Option<PhaseBuilder>,
    events_on: bool,
}

impl Tally {
    /// Flushes one producer segment — a maximal stretch of consecutive
    /// bytes sharing a last-writer context — into the producer's output
    /// tallies and the producer→consumer edge map.
    fn flush_producer(&mut self, producer_ctx: ContextId, consumer_ctx: ContextId, seg: EdgeAccum) {
        let producer_stats = comm_entry(&mut self.comm, producer_ctx);
        producer_stats.output_unique_bytes += seg.unique;
        producer_stats.output_nonunique_bytes += seg.nonunique;
        let edge = self.edges.entry((producer_ctx, consumer_ctx)).or_default();
        edge.unique += seg.unique;
        edge.nonunique += seg.nonunique;
    }

    /// The read kernel: classifies every byte of `slots` as read by
    /// `who`, one span of equal baseline fields at a time, resolving
    /// producer functions through `func_of`, and appends cross-call
    /// transfers to `transfers` (events mode only).
    pub(crate) fn read<S: Slot>(
        &mut self,
        slots: &mut [S],
        who: &Accessor,
        func_of: impl Fn(ContextId) -> Option<FunctionId>,
        transfers: &mut Transfers,
    ) {
        let key = who.key();
        // Consumer tallies accumulate locally and flush once per call;
        // producer tallies flush once per segment of consecutive bytes
        // sharing a last-writer context (overwhelmingly the whole run).
        let mut local_unique = 0u64;
        let mut local_nonunique = 0u64;
        let mut input_unique = 0u64;
        let mut input_nonunique = 0u64;
        let mut inter_unique = 0u64;
        let mut inter_nonunique = 0u64;
        let mut producer_seg: Option<(ContextId, EdgeAccum)> = None;
        // Phase-profile transfer segment (producer context, bytes) —
        // kept apart from `transfers`: phases stay on when event
        // recording is off, and bucket by producer *context*.
        let mut phase_seg: Option<(ContextId, u64)> = None;
        // Producer-function resolution memoized on the producer context:
        // consecutive spans overwhelmingly share one last writer.
        let mut producer_fn_memo: Option<(ContextId, Option<FunctionId>)> = None;

        let mut rest = slots;
        while let Some(head) = rest.first() {
            let head = *head.base();
            let repeat = head.is_repeat_read(key);
            let producer = head.last_writer;

            // The per-byte loop: extend the span over every slot whose
            // baseline fields equal the head's, marking each read.
            let mut len = 0;
            for slot in rest.iter_mut() {
                if *slot.base() != head {
                    break;
                }
                slot.read(who, key, repeat, &mut self.reuse);
                len += 1;
            }
            rest = &mut std::mem::take(&mut rest)[len..];
            let bytes = len as u64;

            // Classification, once per span.
            let (producer_ctx, producer_call) = match producer {
                Some(p) => (ContextId(p.ctx), p.call()),
                // Never-written bytes are program input, attributed to
                // the synthetic root producer.
                None => (ContextId::ROOT, CallNumber::ROOT),
            };
            let producer_fn = match producer_fn_memo {
                Some((memo_ctx, func)) if memo_ctx == producer_ctx => func,
                _ => {
                    let func = func_of(producer_ctx);
                    producer_fn_memo = Some((producer_ctx, func));
                    func
                }
            };
            // A last writer on another guest thread makes the byte
            // inter-thread input — disjoint from (and checked before)
            // the local class, so a thread re-reading data a sibling
            // wrote into "its own" function is still charged with the
            // cross-thread transfer.
            let is_inter = producer.is_some_and(|p| p.thread != who.thread);
            let is_local = !is_inter && producer.is_some() && producer_fn == who.reader_fn;

            match (is_inter, is_local, repeat) {
                (true, _, false) => inter_unique += bytes,
                (true, _, true) => inter_nonunique += bytes,
                (false, true, false) => local_unique += bytes,
                (false, true, true) => local_nonunique += bytes,
                (false, false, false) => input_unique += bytes,
                (false, false, true) => input_nonunique += bytes,
            }
            if !is_local {
                match &mut producer_seg {
                    Some((seg_ctx, seg)) if *seg_ctx == producer_ctx => seg.add(repeat, bytes),
                    seg_slot => {
                        if let Some((prev_ctx, prev_seg)) = seg_slot.take() {
                            self.flush_producer(prev_ctx, who.ctx, prev_seg);
                        }
                        let mut seg = EdgeAccum::default();
                        seg.add(repeat, bytes);
                        *seg_slot = Some((producer_ctx, seg));
                    }
                }
            }
            // Event-file dependencies: any unique read of data produced
            // by a *different dynamic call* orders the consumer after
            // the producer — including a later call of the same
            // function (classified *local* for the byte accounting
            // above, but still a real dependency between the two call
            // nodes of the Figure 3 construction).
            if !repeat && producer.is_some() && producer_call != who.call {
                if self.events_on {
                    match transfers.last_mut() {
                        Some((last_call, total)) if *last_call == producer_call => *total += bytes,
                        _ => transfers.push((producer_call, bytes)),
                    }
                }
                if let Some(builder) = self.phases.as_mut() {
                    match &mut phase_seg {
                        Some((seg_ctx, total)) if *seg_ctx == producer_ctx => *total += bytes,
                        seg_slot => {
                            if let Some((prev_ctx, total)) = seg_slot.take() {
                                builder.record_transfer(prev_ctx, who.ctx, who.phase_at, total);
                            }
                            *seg_slot = Some((producer_ctx, bytes));
                        }
                    }
                }
            }
        }

        if let Some((prev_ctx, prev_seg)) = producer_seg {
            self.flush_producer(prev_ctx, who.ctx, prev_seg);
        }
        if let (Some(builder), Some((prev_ctx, bytes))) = (self.phases.as_mut(), phase_seg) {
            builder.record_transfer(prev_ctx, who.ctx, who.phase_at, bytes);
        }
        // `bytes_read` is tallied once per access by the front end; the
        // kernel contributes only the per-byte classification.
        let consumer_stats = comm_entry(&mut self.comm, who.ctx);
        consumer_stats.local_unique_bytes += local_unique;
        consumer_stats.local_nonunique_bytes += local_nonunique;
        consumer_stats.input_unique_bytes += input_unique;
        consumer_stats.input_nonunique_bytes += input_nonunique;
        consumer_stats.inter_thread_unique_bytes += inter_unique;
        consumer_stats.inter_thread_nonunique_bytes += inter_nonunique;
    }

    /// The write kernel: `who` becomes the producer of every byte of
    /// `slots` (`bytes_written` is tallied by the front end).
    pub(crate) fn write<S: Slot>(&mut self, slots: &mut [S], who: &Accessor) {
        let owner = who.owner();
        for slot in slots {
            slot.write(owner, &mut self.reuse);
        }
    }
}

/// The per-byte Table-I state: a shadow table of `S` slots plus the
/// tallies the kernel draws from it.
#[derive(Debug)]
pub(crate) struct Kernel<S> {
    pub(crate) table: ShadowTable<S>,
    pub(crate) tally: Tally,
}

impl<S: Slot> Kernel<S> {
    /// A kernel over `table`, tallying what `config` collects.
    pub(crate) fn new(table: ShadowTable<S>, config: &SigilConfig) -> Self {
        debug_assert_eq!(S::REUSE, config.reuse_mode, "slot layout matches the mode");
        Kernel {
            table,
            tally: Tally {
                comm: Vec::new(),
                edges: HashMap::new(),
                reuse: Vec::new(),
                phases: config.phase_bucket_ops.map(PhaseBuilder::new),
                events_on: config.record_events,
            },
        }
    }

    /// Classifies one whole access in place, one kernel call per chunk
    /// run (serial replay).
    fn apply(
        &mut self,
        write: bool,
        addr: Addr,
        len: usize,
        who: &Accessor,
        func_of: impl Fn(ContextId) -> Option<FunctionId>,
        transfers: &mut Transfers,
    ) {
        let mut runs = self.table.runs_mut(addr, len);
        while let Some((_, slots)) = runs.next_run() {
            if write {
                self.tally.write(slots, who);
            } else {
                self.tally.read(slots, who, &func_of, transfers);
            }
        }
    }

    /// Ends the run: flushes the reuse records of bytes still live in
    /// the table and renders everything as a mergeable fragment, with
    /// the table's own counters as its `memory`.
    pub(crate) fn finish(self) -> ShardFragment {
        let Kernel { table, mut tally } = self;
        if S::REUSE {
            for (_, slot) in table.iter() {
                slot.flush(&mut tally.reuse);
            }
        }
        let mut edges: Vec<CommEdge> = tally
            .edges
            .into_iter()
            .map(|((producer, consumer), accum)| CommEdge {
                producer,
                consumer,
                unique_bytes: accum.unique,
                nonunique_bytes: accum.nonunique,
            })
            .collect();
        edges.sort_by_key(|e| (e.producer, e.consumer));
        ShardFragment {
            comm: tally.comm,
            edges,
            reuse: S::REUSE.then_some(tally.reuse),
            phases: tally.phases.map(PhaseBuilder::finish),
            memory: table.stats(),
        }
    }
}

/// Shadow bytes per guest byte under `config`: the size of the slot
/// layout its mode runs the kernel on.
pub(crate) fn slot_bytes(config: &SigilConfig) -> u64 {
    let bytes = if config.reuse_mode {
        std::mem::size_of::<ReuseShadowObject>()
    } else {
        std::mem::size_of::<ShadowObject>()
    };
    bytes as u64
}

/// The in-thread kernel, instantiated for the slot layout of the mode.
#[derive(Debug)]
pub(crate) enum ModeKernel {
    /// Baseline mode: [`ShadowObject`] slots.
    Baseline(Kernel<ShadowObject>),
    /// Reuse mode: [`ReuseShadowObject`] slots.
    Reuse(Kernel<ReuseShadowObject>),
}

impl ModeKernel {
    /// The serial-replay kernel for `config`, with its shadow limit.
    pub(crate) fn new(config: &SigilConfig) -> Self {
        fn table<S: Slot>(config: &SigilConfig) -> ShadowTable<S> {
            match config.shadow_chunk_limit {
                Some(limit) => ShadowTable::with_chunk_limit(limit, config.eviction),
                None => ShadowTable::new(),
            }
        }
        if config.reuse_mode {
            ModeKernel::Reuse(Kernel::new(table(config), config))
        } else {
            ModeKernel::Baseline(Kernel::new(table(config), config))
        }
    }

    /// See [`Kernel::apply`].
    pub(crate) fn apply(
        &mut self,
        write: bool,
        addr: Addr,
        len: usize,
        who: &Accessor,
        func_of: impl Fn(ContextId) -> Option<FunctionId>,
        transfers: &mut Transfers,
    ) {
        match self {
            ModeKernel::Baseline(k) => k.apply(write, addr, len, who, func_of, transfers),
            ModeKernel::Reuse(k) => k.apply(write, addr, len, who, func_of, transfers),
        }
    }

    /// The shadow table's counters so far.
    pub(crate) fn stats(&self) -> MemoryStats {
        match self {
            ModeKernel::Baseline(k) => k.table.stats(),
            ModeKernel::Reuse(k) => k.table.stats(),
        }
    }

    /// The transfer buckets tallied so far (phase collection only).
    pub(crate) fn transfer_phases(&self) -> Option<PhaseProfile> {
        let tally = match self {
            ModeKernel::Baseline(k) => &k.tally,
            ModeKernel::Reuse(k) => &k.tally,
        };
        tally.phases.clone().map(PhaseBuilder::finish)
    }

    /// See [`Kernel::finish`].
    pub(crate) fn finish(self) -> ShardFragment {
        match self {
            ModeKernel::Baseline(k) => k.finish(),
            ModeKernel::Reuse(k) => k.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// Context → function: the root has none, and contexts 1 and 3 share
    /// a function so reads across them classify as local.
    fn func_of(ctx: ContextId) -> Option<FunctionId> {
        [None, Some(0), Some(1), Some(0)][ctx.index()].map(FunctionId::from_raw)
    }

    /// Frame `code` of a consistent call history: codes 0 and 1 are the
    /// root frames of threads 0 and 1; code `c ≥ 2` is call `c - 1`,
    /// whose context and thread follow from the call number, as they do
    /// in a real run.
    fn frame(code: u32) -> (ContextId, CallNumber, u32) {
        match code {
            0 | 1 => (ContextId::ROOT, CallNumber::ROOT, code),
            _ => {
                let call = code - 1;
                (
                    ContextId(1 + call % 3),
                    CallNumber::from_raw(u64::from(call)),
                    call % 2,
                )
            }
        }
    }

    const FRAMES: u32 = 10;

    /// Reuse slots of runs with identical (writer, reader) fields —
    /// `0` codes "none", `c` frame `c - 1` — and per-byte reuse state.
    fn arb_slots() -> impl Strategy<Value = Vec<ReuseShadowObject>> {
        let run = (1usize..24, 0..FRAMES + 1, 0..FRAMES + 1, 0u64..3, 0u64..40);
        proptest::collection::vec(run, 1..8).prop_map(|runs| {
            let mut slots = Vec::new();
            for (len, writer, reader, reuse_count, first) in runs {
                let last_writer = writer.checked_sub(1).map(|code| {
                    let (ctx, call, thread) = frame(code);
                    Owner::new(ctx.0, call, thread)
                });
                let (last_reader, reader_ctx) = match reader.checked_sub(1) {
                    Some(code) => {
                        let (ctx, call, thread) = frame(code);
                        (FrameKey::new(call, thread), ctx.0)
                    }
                    None => (FrameKey::NONE, 0),
                };
                for i in 0..len as u64 {
                    let reuse_count = (reuse_count + i) % 3;
                    slots.push(ReuseShadowObject {
                        base: ShadowObject {
                            last_writer,
                            last_reader,
                        },
                        reader_ctx,
                        reuse: ReuseInfo {
                            reuse_count,
                            first_access: Timestamp::from_raw(first + i % 2),
                            last_access: Timestamp::from_raw(first + i % 2 + reuse_count),
                        },
                    });
                }
            }
            slots
        })
    }

    /// Applies the kernel to `slots` split at `ends`, splicing the
    /// pieces' transfers back with `push_transfer`'s coalescing.
    fn apply_split<S: Slot>(
        slots: &mut [S],
        ends: &[usize],
        write: bool,
        who: &Accessor,
        config: &SigilConfig,
    ) -> (ShardFragment, Transfers) {
        let mut kernel = Kernel::<S>::new(ShadowTable::new(), config);
        let mut transfers = Transfers::new();
        let mut start = 0;
        for &end in ends {
            let mut part = Transfers::new();
            let run = &mut slots[start..end];
            if write {
                kernel.tally.write(run, who);
            } else {
                kernel.tally.read(run, who, func_of, &mut part);
            }
            for (call, bytes) in part {
                match transfers.last_mut() {
                    Some((last, total)) if *last == call => *total += bytes,
                    _ => transfers.push((call, bytes)),
                }
            }
            start = end;
        }
        (kernel.finish(), transfers)
    }

    /// One kernel call over `slots` tallies exactly what the same run
    /// split at `cuts` does, and what one call per byte does — so the
    /// span step classifies like the byte-at-a-time definition.
    fn check_split<S: Slot + PartialEq + std::fmt::Debug>(
        slots: Vec<S>,
        cuts: &[usize],
        write: bool,
        who: &Accessor,
        config: &SigilConfig,
    ) -> Result<(), TestCaseError> {
        let n = slots.len();
        let mut ends: Vec<usize> = cuts.iter().map(|c| c % (n + 1)).collect();
        ends.sort_unstable();
        ends.push(n);
        let per_byte: Vec<usize> = (1..=n).collect();

        let mut whole_slots = slots.clone();
        let whole = apply_split(&mut whole_slots, &[n], write, who, config);
        for split_ends in [ends, per_byte] {
            let mut split_slots = slots.clone();
            let split = apply_split(&mut split_slots, &split_ends, write, who, config);
            prop_assert_eq!(&whole_slots, &split_slots);
            prop_assert_eq!(&whole, &split);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Split invariance — the property that lets serial replay call
        /// the kernel per chunk run and workers per dispatched
        /// (sub-)access — for both slot layouts.
        #[test]
        fn split_runs_classify_like_one_run(
            slots in arb_slots(),
            who_code in 0..FRAMES,
            at in 40u64..80,
            cuts in proptest::collection::vec(0usize..200, 0..6),
            write in any::<bool>(),
        ) {
            let (ctx, call, thread) = frame(who_code);
            let who = Accessor {
                ctx,
                call,
                thread,
                reader_fn: if write { None } else { func_of(ctx) },
                at: Timestamp::from_raw(at),
                phase_at: at,
            };
            let baseline = SigilConfig::default().with_events().with_phases(4);
            let base_slots = slots.iter().map(|slot| slot.base).collect();
            check_split::<ShadowObject>(base_slots, &cuts, write, &who, &baseline)?;
            check_split(slots, &cuts, write, &who, &baseline.with_reuse_mode())?;
        }
    }

    #[test]
    fn slot_sizes_fit_their_mode_budgets() {
        assert_eq!(slot_bytes(&SigilConfig::default()), 24);
        assert_eq!(slot_bytes(&SigilConfig::default().with_reuse_mode()), 56);
    }
}
