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
//! The kernel is applied to one `&mut [ShadowObject]` run at a time:
//! serial replay calls it once per chunk run of an access, workers once
//! per (sub-)access of a dispatched record. Where a caller splits an
//! access is unobservable: every tally is a sum, producer segments and
//! consumer classes flush as sums, the phase builder sums transfer bytes
//! per bucket cell, and cross-call transfers coalesce exactly as
//! `EventFile::push_transfer` merges adjacent records of the same pair.

use std::collections::HashMap;

use sigil_callgrind::ContextId;
use sigil_mem::{Owner, ReuseInfo, ShadowObject, ShadowTable};
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
    fn add(&mut self, repeat: bool) {
        if repeat {
            self.nonunique += 1;
        } else {
            self.unique += 1;
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

fn reuse_flush(reuse_vec: &mut Vec<ContextReuse>, reader: Owner, info: ReuseInfo) {
    let idx = reader.ctx as usize;
    while reuse_vec.len() <= idx {
        let next = ContextId(u32::try_from(reuse_vec.len()).expect("context count fits u32"));
        reuse_vec.push(ContextReuse::new(next));
    }
    reuse_vec[idx].record(info.reuse_count, info.lifetime());
}

/// The tallies the kernel accumulates from per-byte state.
#[derive(Debug)]
pub(crate) struct Tally {
    comm: Vec<CommStats>,
    edges: HashMap<(ContextId, ContextId), EdgeAccum>,
    reuse: Option<Vec<ContextReuse>>,
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
    /// `who`, resolving producer functions through `func_of`, and
    /// appends cross-call transfers to `transfers` (events mode only).
    pub(crate) fn read(
        &mut self,
        slots: &mut [ShadowObject],
        who: &Accessor,
        func_of: impl Fn(ContextId) -> Option<FunctionId>,
        transfers: &mut Transfers,
    ) {
        let owner = who.owner();
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
        // consecutive bytes overwhelmingly share one last writer.
        let mut producer_fn_memo: Option<(ContextId, Option<FunctionId>)> = None;

        for obj in slots {
            let repeat = obj.is_repeat_read(owner);
            let producer = obj.last_writer;

            // Reuse accounting: a change of reader flushes the previous
            // reader's record (lifetimes are per function call).
            if let Some(reuse_vec) = self.reuse.as_mut() {
                if !repeat {
                    if let Some(prev_reader) = obj.last_reader {
                        reuse_flush(reuse_vec, prev_reader, obj.reuse);
                        obj.reuse.reset();
                    }
                }
                obj.reuse.record_read(who.at, !repeat);
            }
            obj.record_read(owner);

            // Classification.
            let (producer_ctx, producer_call) = match producer {
                Some(p) => (ContextId(p.ctx), p.call),
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
                (true, _, false) => inter_unique += 1,
                (true, _, true) => inter_nonunique += 1,
                (false, true, false) => local_unique += 1,
                (false, true, true) => local_nonunique += 1,
                (false, false, false) => input_unique += 1,
                (false, false, true) => input_nonunique += 1,
            }
            if !is_local {
                match &mut producer_seg {
                    Some((seg_ctx, seg)) if *seg_ctx == producer_ctx => seg.add(repeat),
                    seg_slot => {
                        if let Some((prev_ctx, prev_seg)) = seg_slot.take() {
                            self.flush_producer(prev_ctx, who.ctx, prev_seg);
                        }
                        let mut seg = EdgeAccum::default();
                        seg.add(repeat);
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
                        Some((last_call, bytes)) if *last_call == producer_call => *bytes += 1,
                        _ => transfers.push((producer_call, 1)),
                    }
                }
                if let Some(builder) = self.phases.as_mut() {
                    match &mut phase_seg {
                        Some((seg_ctx, bytes)) if *seg_ctx == producer_ctx => *bytes += 1,
                        seg_slot => {
                            if let Some((prev_ctx, bytes)) = seg_slot.take() {
                                builder.record_transfer(prev_ctx, who.ctx, who.phase_at, bytes);
                            }
                            *seg_slot = Some((producer_ctx, 1));
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
    pub(crate) fn write(&mut self, slots: &mut [ShadowObject], who: &Accessor) {
        let owner = who.owner();
        for obj in slots {
            if let Some(reuse_vec) = self.reuse.as_mut() {
                if let Some(prev_reader) = obj.last_reader {
                    reuse_flush(reuse_vec, prev_reader, obj.reuse);
                }
            }
            obj.record_write(owner);
        }
    }
}

/// The per-byte Table-I state: a shadow table plus the tallies the
/// kernel draws from it.
#[derive(Debug)]
pub(crate) struct Kernel {
    pub(crate) table: ShadowTable<ShadowObject>,
    pub(crate) tally: Tally,
}

impl Kernel {
    /// A kernel over `table`, tallying what `config` collects.
    pub(crate) fn new(table: ShadowTable<ShadowObject>, config: &SigilConfig) -> Self {
        Kernel {
            table,
            tally: Tally {
                comm: Vec::new(),
                edges: HashMap::new(),
                reuse: config.reuse_mode.then(Vec::new),
                phases: config.phase_bucket_ops.map(PhaseBuilder::new),
                events_on: config.record_events,
            },
        }
    }

    /// Classifies one whole access in place, one kernel call per chunk
    /// run (serial replay).
    pub(crate) fn apply(
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

    /// The transfer buckets tallied so far (phase collection only).
    pub(crate) fn transfer_phases(&self) -> Option<PhaseProfile> {
        self.tally.phases.clone().map(PhaseBuilder::finish)
    }

    /// Ends the run: flushes the reuse records of bytes still live in
    /// the table and renders everything as a mergeable fragment, with
    /// the table's own counters as its `memory`.
    pub(crate) fn finish(self) -> ShardFragment {
        let Kernel { table, mut tally } = self;
        if let Some(reuse_vec) = tally.reuse.as_mut() {
            for (_, obj) in table.iter() {
                if let Some(reader) = obj.last_reader {
                    reuse_flush(reuse_vec, reader, obj.reuse);
                }
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
            reuse: tally.reuse,
            phases: tally.phases.map(PhaseBuilder::finish),
            memory: table.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Context → function: the root has none, and contexts 1 and 3 share
    /// a function so reads across them classify as local.
    fn func_of(ctx: ContextId) -> Option<FunctionId> {
        [None, Some(0), Some(1), Some(0)][ctx.index()].map(FunctionId::from_raw)
    }

    /// `0` is "no owner"; `1..25` enumerate ctx 0..4 × call 0..3 ×
    /// thread 0..2.
    fn owner(code: u32) -> Option<Owner> {
        let c = code.checked_sub(1)?;
        Some(Owner::new(
            c % 4,
            CallNumber::from_raw(u64::from(c / 4 % 3)),
            c / 12,
        ))
    }

    fn arb_slots() -> impl Strategy<Value = Vec<ShadowObject>> {
        proptest::collection::vec((0u32..25, 0u32..25, 0u64..3, 0u64..40), 1..64).prop_map(|raw| {
            raw.into_iter()
                .map(|(writer, reader, reuse_count, first)| ShadowObject {
                    last_writer: owner(writer),
                    last_reader: owner(reader),
                    reuse: ReuseInfo {
                        reuse_count,
                        first_access: Timestamp::from_raw(first),
                        last_access: Timestamp::from_raw(first + reuse_count),
                    },
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One kernel call over a run tallies exactly what the same run
        /// split at arbitrary points does — the invariant that lets
        /// serial replay call the kernel per chunk run and workers per
        /// dispatched (sub-)access. Transfers are compared after the
        /// pieces are spliced back with `push_transfer`'s coalescing.
        #[test]
        fn split_runs_classify_like_one_run(
            slots in arb_slots(),
            who_code in 1u32..25,
            at in 40u64..80,
            cuts in proptest::collection::vec(0usize..64, 0..6),
            write in any::<bool>(),
        ) {
            let who_owner = owner(who_code).expect("nonzero code");
            let who = Accessor {
                ctx: ContextId(who_owner.ctx),
                call: who_owner.call,
                thread: who_owner.thread,
                reader_fn: if write { None } else { func_of(ContextId(who_owner.ctx)) },
                at: Timestamp::from_raw(at),
                phase_at: at,
            };
            let config = SigilConfig::default().with_reuse_mode().with_events().with_phases(4);
            let apply = |kernel: &mut Kernel, run: &mut [ShadowObject], out: &mut Transfers| {
                if write {
                    kernel.tally.write(run, &who);
                } else {
                    kernel.tally.read(run, &who, func_of, out);
                }
            };

            let mut whole_slots = slots.clone();
            let mut whole = Kernel::new(ShadowTable::new(), &config);
            let mut whole_transfers = Transfers::new();
            apply(&mut whole, &mut whole_slots, &mut whole_transfers);

            let mut split_slots = slots;
            let mut split = Kernel::new(ShadowTable::new(), &config);
            let mut split_transfers = Transfers::new();
            let mut ends: Vec<usize> = cuts.iter().map(|c| c % (split_slots.len() + 1)).collect();
            ends.sort_unstable();
            ends.push(split_slots.len());
            let mut start = 0;
            for end in ends {
                let mut part = Transfers::new();
                apply(&mut split, &mut split_slots[start..end], &mut part);
                for (call, bytes) in part {
                    match split_transfers.last_mut() {
                        Some((last, total)) if *last == call => *total += bytes,
                        _ => split_transfers.push((call, bytes)),
                    }
                }
                start = end;
            }

            prop_assert_eq!(&whole_slots, &split_slots);
            prop_assert_eq!(&whole_transfers, &split_transfers);
            prop_assert_eq!(whole.finish(), split.finish());
        }
    }
}
