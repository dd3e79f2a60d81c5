//! The traced run: a ladder of rungs, one per layer, climbed for every
//! program at simsmall, simmedium and simlarge.
//!
//! 1. generator into `NullObserver`
//! 2. `CallgrindProfiler`
//! 3. the default `SigilProfiler`
//! 4. + reuse and 64-byte lines
//! 5. + events
//! 6. + phases
//! 7. rung 6 at shards = nproc
//! 8. `.evb` encode and decode
//! 9. analysis folds (and `DependencyGraph` for comparison)
//! 10. serve round trip through the `sigil serve` daemon
//!
//! Rungs 2–7 replay one recorded trace, so their differences isolate one
//! layer each. Every call from this file into a layer is wrapped in a
//! `sigil-obs` span; the spans go to a Chrome trace at the end. Every
//! rung's output is checked like a timed item: sharded against serial,
//! streamed against in-memory, online against batch. `sigil-vm` and
//! `sigil-oracle` are off the suite's hot path and are not measured.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sigil_analysis::scaling::fit_power_law;
use sigil_analysis::streaming::{
    critical_path_from_bin, event_cdfg_from_bin, phase_profile_from_bin, PathSummary,
};
use sigil_analysis::{CommModel, EventCdfg};
use sigil_bench::{measure_overhead, OverheadRow};
use sigil_callgrind::{CallgrindConfig, CallgrindProfiler};
use sigil_core::events_bin::{encode_events, BinReader};
use sigil_core::{EventFile, SigilConfig};
use sigil_mem::MemoryStats;
use sigil_obs::metrics::MetricValue;
use sigil_trace::observer::{CountingObserver, NullObserver};
use sigil_trace::Engine;
use sigil_workloads::{Benchmark, InputSize};

use crate::chains::{
    self, analysis_digest, batch_profile, events_config, graph_path, record, split_events, Trace,
    BUCKET_OPS,
};
use crate::serve::{self, Daemon, Kind, Program};
use crate::util::{digest, interquartile_mean, json_digest, median, ms_since, nproc, rng, shuffle};
use crate::{put, Args, Metrics, Outcome, Workload};

const SIZES: [InputSize; 3] = [
    InputSize::SimSmall,
    InputSize::SimMedium,
    InputSize::SimLarge,
];

/// Relative tolerance within which one program's rung times must
/// account for its untraced item latency.
pub const ACCOUNTING_TOLERANCE_PCT: f64 = 25.0;

/// Untraced items and rung sums compared per program; the check uses the
/// interquartile mean of each.
const ACCOUNTING_SAMPLES: usize = 13;

/// Wire chunk size of the ladder's serve sessions (the clients' default).
const LADDER_CHUNK: usize = serve::DEFAULT_CHUNK;

/// One program's climb at one size. Times are nanoseconds.
#[derive(Default)]
struct Climb {
    events: f64,
    accesses: f64,
    gen: f64,
    callgrind: f64,
    sigil_replay: f64,
    sigil_finish: f64,
    sigil_serialize: f64,
    reuse_lines: f64,
    with_events: f64,
    with_phases: f64,
    sharded: f64,
    sharded_serialize: f64,
    dispatch_busy: f64,
    dispatch_records: f64,
    dispatch_accesses: f64,
    worker_busy: f64,
    worker_idle: f64,
    encode: f64,
    decode: f64,
    evb_bytes: f64,
    records: f64,
    critpath_fold: f64,
    critpath_graph: f64,
    cdfg_trim: f64,
    analysis_check: f64,
    phase_fold: f64,
    session_trace: f64,
    stream: f64,
    finish: f64,
    credit_waits: f64,
    batch_trace: f64,
    /// Digest of the rung-3 profile (batch replay, baseline mode).
    serial_digest: u64,
    /// The events-sharded chain's outputs from the serial rungs: profile
    /// without events, `.evb` bytes, in-memory analyses.
    events_digests: Vec<u64>,
    mem_accesses: f64,
    mru_hits: f64,
    probes: f64,
    resident_mib: f64,
    evictions: f64,
}

impl Climb {
    fn sigil(&self) -> f64 {
        self.sigil_replay + self.sigil_finish
    }
}

/// A named per-layer cost drawn from a climb, for the scaling fits.
type Layer<'a> = (&'a str, &'a dyn Fn(&Climb) -> f64);

/// Tally of the ladder's own correctness checks.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// Runs `f` inside a span named `name`, returning its result and the
/// nanoseconds it took. Only the benchmark's own span is recorded: the
/// program's internal sigil-obs instrumentation is off during the call,
/// so rung times are untraced times.
fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let _span = sigil_obs::span(name);
    let was_on = sigil_obs::is_enabled();
    sigil_obs::set_enabled(false);
    let t = Instant::now();
    let r = f();
    let ns = t.elapsed().as_nanos() as f64;
    sigil_obs::set_enabled(was_on);
    (r, ns)
}

/// Replay under `config` plus `into_profile`, timed with whatever
/// sigil-obs state the caller set (for the tracing-cost comparison).
fn replay_ns(trace: &Trace, config: SigilConfig) -> f64 {
    let t = Instant::now();
    let profile = batch_profile(trace, config);
    let ns = t.elapsed().as_nanos() as f64;
    drop(profile);
    ns
}

fn counter(snapshot: &BTreeMap<String, MetricValue>, name: &str) -> f64 {
    match snapshot.get(name) {
        Some(MetricValue::Counter(v)) => *v as f64,
        _ => 0.0,
    }
}

/// Replays under `config` and finishes; returns the profile and the time.
fn rung(name: &'static str, trace: &Trace, config: SigilConfig) -> (sigil_core::Profile, f64) {
    timed(name, || batch_profile(trace, config))
}

/// Rung 1: the generator alone, the native-run baseline. Returns the
/// guest event count.
fn rung_generator(bench: Benchmark, size: InputSize) -> (u64, f64) {
    timed("rung1:generator", || {
        let mut engine = Engine::new(NullObserver);
        bench.run(size, &mut engine);
        let n = engine.events_emitted();
        engine.finish();
        n
    })
}

/// Rung 3: the default `SigilProfiler` replaying `trace`, with
/// `into_profile` and serialization timed alone.
struct Serial {
    replay: f64,
    finish: f64,
    serialize: f64,
    digest: u64,
    mem: MemoryStats,
}

impl Serial {
    fn ns(&self) -> f64 {
        self.replay + self.finish + self.serialize
    }
}

fn rung_serial(trace: &Trace) -> Serial {
    let (profiler, replay) = timed("rung3:sigil", || {
        chains::replay_into(trace, chains::serial_config())
    });
    let mem = profiler.memory_stats();
    let (profile, finish) = timed("rung3:into_profile", || {
        profiler.into_profile(trace.symbols.clone())
    });
    let (digest, serialize) = timed("rung3:serialize", || json_digest(&profile));
    Serial {
        replay,
        finish,
        serialize,
        digest,
        mem,
    }
}

/// Rung 7 and the events-sharded post-processing over its output, each
/// call timed: sharded replay, serialization, `.evb` encode (rung 8),
/// the critical-path fold, the event CDFG and its trim, and the digest
/// of the analyses (rung 9). Together with rung 1 these are the calls one
/// events-sharded item makes.
struct Sharded {
    sharded: f64,
    serialize: f64,
    encode: f64,
    critpath_fold: f64,
    cdfg_trim: f64,
    check: f64,
    profile_digest: u64,
    events: EventFile,
    evb: Vec<u8>,
    path: Option<PathSummary>,
    /// Digests the events-sharded item is checked by.
    digests: Vec<u64>,
}

impl Sharded {
    fn ns(&self) -> f64 {
        self.sharded
            + self.serialize
            + self.encode
            + self.critpath_fold
            + self.cdfg_trim
            + self.check
    }
}

fn rung_sharded(trace: &Trace) -> Sharded {
    let (profile, sharded) = rung("rung7:sharded", trace, events_config(nproc()));
    let ((profile_digest, events), serialize) = timed("rung7:serialize", || split_events(profile));
    let (evb, encode) = timed("rung8:evb_encode", || encode_events(&events));
    let (path, critpath_fold) = timed("rung9:critpath_fold", || {
        critical_path_from_bin(&evb[..], &CommModel::free()).ok()
    });
    let ((cdfg, trimmed), cdfg_trim) = timed("rung9:cdfg_trim", || {
        let cdfg = event_cdfg_from_bin(&evb[..]).expect("evb decodes");
        let trimmed = chains::trim(&cdfg);
        (cdfg, trimmed)
    });
    let (digests, check) = timed("rung9:check", || {
        vec![
            profile_digest,
            digest(&evb),
            path.map_or(0, |p| analysis_digest(p, &cdfg, &trimmed)),
        ]
    });
    Sharded {
        sharded,
        serialize,
        encode,
        critpath_fold,
        cdfg_trim,
        check,
        profile_digest,
        events,
        evb,
        path,
        digests,
    }
}

/// One climb of the ladder. Rung 7 also runs once with the program's
/// sigil-obs instrumentation on, untimed, to read the dispatch and
/// shard-worker counters. Returns the climb and the program's serve
/// set-up, which holds its recorded trace.
fn climb(
    bench: Benchmark,
    size: InputSize,
    daemon: &Daemon,
    checks: &mut Checks,
) -> (Climb, Program) {
    let _program = sigil_obs::span_with(|| format!("ladder:{bench}:{size}"));
    let mut c = Climb::default();

    let counts = {
        let mut engine = Engine::new(CountingObserver::new());
        bench.run(size, &mut engine);
        engine.finish().into_counts()
    };
    c.accesses = (counts.reads + counts.writes) as f64;

    // 1. The generator alone.
    let (emitted, gen) = rung_generator(bench, size);
    c.gen = gen;
    c.events = emitted as f64;
    let trace = record(bench, size);
    checks.expect(trace.events.len() as u64 == emitted, || {
        format!("{bench}: recorded trace length differs from the generator's count")
    });

    // 2. The Callgrind model.
    let (_, t) = timed("rung2:callgrind", || {
        let mut cg = CallgrindProfiler::new(CallgrindConfig::default());
        sigil_trace::io::replay(&trace.events, &mut cg);
        cg.into_profile(trace.symbols.clone())
    });
    c.callgrind = t;

    // 3. The default Sigil profiler.
    let serial = rung_serial(&trace);
    c.sigil_replay = serial.replay;
    c.sigil_finish = serial.finish;
    c.sigil_serialize = serial.serialize;
    c.serial_digest = serial.digest;
    c.mem_accesses = serial.mem.accesses as f64;
    c.mru_hits = serial.mem.mru_hits as f64;
    c.probes = serial.mem.table_probes as f64;
    c.resident_mib = serial.mem.resident_mib();

    // 4–6. Successive configuration rungs.
    let base = SigilConfig::default();
    c.reuse_lines = rung(
        "rung4:reuse_lines",
        &trace,
        base.with_reuse_mode().with_line_mode(64),
    )
    .1;
    c.with_events = rung(
        "rung5:events",
        &trace,
        base.with_reuse_mode().with_line_mode(64).with_events(),
    )
    .1;
    let (profile6, t) = rung("rung6:phases", &trace, events_config(1));
    c.with_phases = t;
    let phases6 = profile6.phases.clone();
    let (digest6, events6) = split_events(profile6);

    // 7. Rung 6 sharded; dispatch telemetry from the sigil-obs counters.
    {
        let _span = sigil_obs::span("rung7:telemetry");
        let before = sigil_obs::metrics::snapshot();
        replay_ns(&trace, events_config(nproc()));
        let after = sigil_obs::metrics::snapshot();
        let delta = |name: &str| counter(&after, name) - counter(&before, name);
        c.dispatch_busy = delta("dispatch.busy_ns");
        c.dispatch_records = delta("dispatch.records");
        c.dispatch_accesses = delta("dispatch.accesses");
        c.worker_busy = delta("shadow.shards.busy_ns");
        c.worker_idle = delta("shadow.shards.idle_ns");
    }
    // 7–9 as one events-sharded item makes them, checked against the
    // serial rung 6 and in-memory analyses below.
    let sharded = rung_sharded(&trace);
    c.sharded = sharded.sharded;
    c.sharded_serialize = sharded.serialize;
    c.encode = sharded.encode;
    c.critpath_fold = sharded.critpath_fold;
    c.cdfg_trim = sharded.cdfg_trim;
    c.analysis_check = sharded.check;
    c.evb_bytes = sharded.evb.len() as f64;
    c.records = sharded.events.len() as f64;
    checks.expect(
        sharded.profile_digest == digest6 && sharded.events == events6,
        || format!("{bench}: sharded profile differs from serial"),
    );
    let evb = sharded.evb;

    // 8. `.evb` decode.
    let (decoded, t) = timed("rung8:evb_decode", || {
        BinReader::parse(&evb).and_then(|r| r.to_event_file())
    });
    c.decode = t;
    checks.expect(decoded.as_ref().ok() == Some(&events6), || {
        format!("{bench}: .evb decode differs from the encoded events")
    });
    drop(decoded);

    // 9. The streamed analyses against in-memory ones.
    let (graph, t) = timed("rung9:critpath_graph", || graph_path(&events6));
    c.critpath_graph = t;
    checks.expect(sharded.path == Some(graph), || {
        format!("{bench}: streamed critical path differs from DependencyGraph")
    });
    let cdfg = EventCdfg::from_records(events6.records());
    let in_memory = analysis_digest(graph, &cdfg, &chains::trim(&cdfg));
    c.events_digests = vec![digest6, digest(&encode_events(&events6)), in_memory];
    checks.expect(sharded.digests == c.events_digests, || {
        format!("{bench}: streamed event CDFG differs from the in-memory one")
    });
    let (phases, t) = timed("rung9:phase_fold", || {
        phase_profile_from_bin(&evb[..], BUCKET_OPS)
    });
    c.phase_fold = t;
    checks.expect(phases.ok() == phases6, || {
        format!("{bench}: streamed phase profile differs from the profiler's")
    });
    drop((evb, events6, sharded.events, cdfg));

    // 10. Serve round trip: one session of each kind.
    let program = Program::from_trace(bench, trace);
    c.batch_trace = program.batch_ms * 1e6;
    c.evictions = program.evicted_chunks as f64;
    for kind in [Kind::Trace, Kind::Events] {
        let s = rung_session(daemon, &program, kind);
        checks.expect(s.ok, || {
            format!("{bench}: {kind:?} session differs from batch")
        });
        c.credit_waits += s.credit_waits as f64;
        if kind == Kind::Trace {
            c.session_trace = s.ms * 1e6;
            c.stream = s.stream_ms * 1e6;
            c.finish = s.finish_ms * 1e6;
        }
    }
    (c, program)
}

/// Rung 10: one session through the daemon.
fn rung_session(daemon: &Daemon, program: &Program, kind: Kind) -> serve::Session {
    timed("rung10:serve", || {
        serve::session(&daemon.address, program, kind, LADDER_CHUNK, false)
    })
    .0
}

/// Fig. 5's ratio for one program: `measure_overhead`'s full runs (the
/// generator drives each profiler), fastest of two each. Also returns
/// the digest of the Sigil profile such a run produces.
fn sigil_over_callgrind(bench: Benchmark) -> (f64, u64) {
    let size = InputSize::SimLarge;
    let rows: Vec<OverheadRow> = (0..2).map(|_| measure_overhead(bench, size, 1)).collect();
    let fastest =
        |f: fn(&OverheadRow) -> Duration| rows.iter().map(f).min().expect("two rows").as_secs_f64();
    let ratio = fastest(|r| r.sigil) / fastest(|r| r.callgrind);
    let profile = sigil_bench::profile(bench, size, chains::serial_config());
    (ratio, json_digest(&profile))
}

/// Fits ns ≈ a·N^b over the per-size suite totals of one layer.
fn exponent(per_size: &[(f64, f64)]) -> f64 {
    fit_power_law(per_size).map_or(0.0, |f| f.exponent)
}

/// Times again the rungs one item of `workload` is made of, checks their
/// outputs against the climb's, and returns their sum (ms).
fn chain_rungs_ms(
    workload: Workload,
    program: &Program,
    c: &Climb,
    daemon: &Daemon,
    checks: &mut Checks,
) -> f64 {
    let bench = program.bench;
    let size = workload.size();
    let (ok, ns) = match workload {
        Workload::ProfileSerial => {
            let (_, gen) = rung_generator(bench, size);
            let serial = rung_serial(&program.trace);
            (serial.digest == c.serial_digest, gen + serial.ns())
        }
        Workload::EventsSharded => {
            let (_, gen) = rung_generator(bench, size);
            let sharded = rung_sharded(&program.trace);
            (sharded.digests == c.events_digests, gen + sharded.ns())
        }
        Workload::ServeMixed => {
            let s = rung_session(daemon, program, Kind::Trace);
            (s.ok, s.ms * 1e6)
        }
    };
    checks.expect(ok, || {
        format!("{bench}: accounting rungs differ from the climb")
    });
    ns / 1e6
}

/// One untraced item of `workload` for the climb's program, checked
/// against the climb's serial rungs; its latency (ms).
fn untraced_item_ms(
    workload: Workload,
    program: &Program,
    c: &Climb,
    daemon: &Daemon,
    checks: &mut Checks,
) -> f64 {
    let bench = program.bench;
    let size = workload.size();
    sigil_obs::set_enabled(false);
    let t = Instant::now();
    let ok = match workload {
        Workload::ProfileSerial => chains::serial_item(bench, size, false) == [c.serial_digest],
        Workload::EventsSharded => {
            chains::events_item(bench, size, nproc(), false) == c.events_digests
        }
        Workload::ServeMixed => {
            serve::session(&daemon.address, program, Kind::Trace, LADDER_CHUNK, false).ok
        }
    };
    let ms = ms_since(t);
    sigil_obs::set_enabled(true);
    checks.expect(ok, || {
        format!("{bench}: untraced item differs from the serial rungs")
    });
    ms
}

/// Interquartile means of `ACCOUNTING_SAMPLES` untraced items and rung
/// sums of one program, interleaved so both see the same host, and taking
/// turns at going first. Session latencies are bimodal on a two-core host
/// (which mode a session lands in depends on where the daemon's threads
/// run), and a median flips between the modes where this mean does not.
fn account(
    workload: Workload,
    program: &Program,
    c: &Climb,
    daemon: &Daemon,
    checks: &mut Checks,
) -> (f64, f64) {
    let _span = sigil_obs::span("accounting");
    let (mut items, mut rungs) = (Vec::new(), Vec::new());
    for i in 0..ACCOUNTING_SAMPLES {
        if i % 2 == 0 {
            items.push(untraced_item_ms(workload, program, c, daemon, checks));
            rungs.push(chain_rungs_ms(workload, program, c, daemon, checks));
        } else {
            rungs.push(chain_rungs_ms(workload, program, c, daemon, checks));
            items.push(untraced_item_ms(workload, program, c, daemon, checks));
        }
    }
    (interquartile_mean(&items), interquartile_mean(&rungs))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let sigil = args
        .sigil_bin
        .as_deref()
        .ok_or("the traced run needs --sigil-bin")?;
    let daemon = Daemon::start(sigil, &serve::socket_path(&args.run_dir, "ladder"))?;
    sigil_obs::set_enabled(true);
    let mut order = Benchmark::ALL;
    shuffle(&mut rng(args.seed), &mut order);
    let mut checks = Checks::default();

    let mut ladder: BTreeMap<(u64, usize), Climb> = BTreeMap::new();
    let mut accounting = Vec::new();
    for size in SIZES {
        let _span = sigil_obs::span_with(|| format!("size:{size}"));
        for &bench in &order {
            let (c, program) = climb(bench, size, &daemon, &mut checks);
            if size == args.workload.size() {
                let (item_ms, rungs_ms) =
                    account(args.workload, &program, &c, &daemon, &mut checks);
                accounting.push((bench, item_ms, rungs_ms));
            }
            ladder.insert((size.factor(), bench as usize), c);
        }
    }
    let at = |size: InputSize| -> Vec<&Climb> {
        Benchmark::ALL
            .iter()
            .map(|&b| &ladder[&(size.factor(), b as usize)])
            .collect()
    };
    let sum =
        |size: InputSize, f: &dyn Fn(&Climb) -> f64| -> f64 { at(size).iter().map(|c| f(c)).sum() };

    // Tracing cost: rung 6 at simmedium with the program's sigil-obs
    // instrumentation on and off, fastest of two each.
    let (mut traced6, mut untraced6) = (0.0, 0.0);
    for &bench in &order {
        let trace = record(bench, InputSize::SimMedium);
        for (on, total) in [(true, &mut traced6), (false, &mut untraced6)] {
            sigil_obs::set_enabled(on);
            *total += (0..2)
                .map(|_| replay_ns(&trace, events_config(1)))
                .fold(f64::INFINITY, f64::min);
        }
    }
    sigil_obs::set_enabled(false);

    // Fig. 5 ratios, untraced like the paper's tool runs.
    let mut fig5 = Vec::new();
    for &bench in &order {
        let (ratio, digest) = sigil_over_callgrind(bench);
        let serial = ladder[&(InputSize::SimLarge.factor(), bench as usize)].serial_digest;
        checks.expect(digest == serial, || {
            format!("{bench}: Fig. 5 profile differs from batch replay")
        });
        fig5.push((bench, ratio));
    }

    let mut errs = Vec::new();
    for (bench, item_ms, rungs_ms) in &accounting {
        let err = 100.0 * (rungs_ms - item_ms).abs() / item_ms;
        eprintln!(
            "perfbench: accounting {bench:>13} item {item_ms:9.2} ms, rungs {rungs_ms:9.2} ms ({err:5.1}%)"
        );
        errs.push(err);
    }
    let worst_err = errs.iter().copied().fold(0.0, f64::max);
    let (items_ms, rungs_ms) = accounting
        .iter()
        .fold((0.0, 0.0), |(i, r), (_, item, rung)| (i + item, r + rung));
    daemon.stop()?;

    let large = InputSize::SimLarge;
    let n_prog = Benchmark::ALL.len() as f64;
    let events = sum(large, &|c| c.events);
    let accesses = sum(large, &|c| c.accesses);
    let mut m = Metrics::new();
    let np = Benchmark::ALL.len();
    put(&mut m, "trace.events", events, "count", np);
    put(&mut m, "trace.accesses", accesses, "count", np);
    put(
        &mut m,
        "trace.native_ns_per_event",
        sum(large, &|c| c.gen) / events,
        "ns",
        np,
    );
    put(
        &mut m,
        "callgrind.ns_per_event",
        sum(large, &|c| c.callgrind) / events,
        "ns",
        np,
    );
    let mem_accesses = sum(large, &|c| c.mem_accesses);
    put(
        &mut m,
        "mem.mru_hit_rate",
        sum(large, &|c| c.mru_hits) / mem_accesses,
        "ratio",
        np,
    );
    put(
        &mut m,
        "mem.probes_per_access",
        sum(large, &|c| c.probes) / mem_accesses,
        "ratio",
        np,
    );
    let resident = at(large).iter().map(|c| c.resident_mib).fold(0.0, f64::max);
    put(&mut m, "mem.resident_mib", resident, "MiB", np);
    put(
        &mut m,
        "mem.evictions",
        sum(InputSize::SimMedium, &|c| c.evictions),
        "count",
        np,
    );
    put(
        &mut m,
        "core.shadow_ns_per_access",
        (sum(large, &|c| c.sigil()) - sum(large, &|c| c.callgrind)) / accesses,
        "ns",
        np,
    );
    put(
        &mut m,
        "core.reuse_lines_ns_per_access",
        (sum(large, &|c| c.reuse_lines) - sum(large, &|c| c.sigil())) / accesses,
        "ns",
        np,
    );
    put(
        &mut m,
        "core.events_ns_per_event",
        (sum(large, &|c| c.with_events) - sum(large, &|c| c.reuse_lines)) / events,
        "ns",
        np,
    );
    put(
        &mut m,
        "core.phases_ns_per_event",
        (sum(large, &|c| c.with_phases) - sum(large, &|c| c.with_events)) / events,
        "ns",
        np,
    );
    put(
        &mut m,
        "core.finish_ms",
        sum(large, &|c| c.sigil_finish) / 1e6 / n_prog,
        "ms",
        np,
    );
    for (bench, ratio) in &fig5 {
        put(
            &mut m,
            &format!("core.sigil_over_callgrind.{bench}"),
            *ratio,
            "ratio",
            2,
        );
    }
    let geomean = (fig5.iter().map(|(_, r)| r.ln()).sum::<f64>() / fig5.len() as f64).exp();
    let max = fig5.iter().map(|(_, r)| *r).fold(0.0, f64::max);
    put(
        &mut m,
        "core.sigil_over_callgrind.geomean",
        geomean,
        "ratio",
        np,
    );
    put(&mut m, "core.sigil_over_callgrind.max", max, "ratio", np);
    put(
        &mut m,
        "shard.replay_speedup",
        sum(large, &|c| c.with_phases) / sum(large, &|c| c.sharded),
        "ratio",
        np,
    );
    let d_acc = sum(large, &|c| c.dispatch_accesses);
    put(
        &mut m,
        "shard.records_per_access",
        sum(large, &|c| c.dispatch_records) / d_acc,
        "ratio",
        np,
    );
    put(
        &mut m,
        "shard.dispatch_ns_per_access",
        sum(large, &|c| c.dispatch_busy) / d_acc,
        "ns",
        np,
    );
    let idle = sum(large, &|c| c.worker_idle);
    put(
        &mut m,
        "shard.worker_idle_frac",
        idle / (idle + sum(large, &|c| c.worker_busy)),
        "ratio",
        np,
    );
    let records = sum(large, &|c| c.records);
    put(
        &mut m,
        "evb.encode_ns_per_record",
        sum(large, &|c| c.encode) / records,
        "ns",
        np,
    );
    put(
        &mut m,
        "evb.decode_ns_per_record",
        sum(large, &|c| c.decode) / records,
        "ns",
        np,
    );
    put(
        &mut m,
        "evb.bytes_per_record",
        sum(large, &|c| c.evb_bytes) / records,
        "B",
        np,
    );
    let per_prog_ms = |f: &dyn Fn(&Climb) -> f64| sum(large, f) / 1e6 / n_prog;
    put(
        &mut m,
        "analysis.critpath_fold_ms",
        per_prog_ms(&|c| c.critpath_fold),
        "ms",
        np,
    );
    put(
        &mut m,
        "analysis.critpath_graph_ms",
        per_prog_ms(&|c| c.critpath_graph),
        "ms",
        np,
    );
    put(
        &mut m,
        "analysis.cdfg_trim_ms",
        per_prog_ms(&|c| c.cdfg_trim),
        "ms",
        np,
    );
    put(
        &mut m,
        "analysis.phase_fold_ms",
        per_prog_ms(&|c| c.phase_fold),
        "ms",
        np,
    );
    put(
        &mut m,
        "serve.stream_ns_per_event",
        sum(large, &|c| c.stream) / events,
        "ns",
        np,
    );
    put(
        &mut m,
        "serve.finish_ms",
        per_prog_ms(&|c| c.finish),
        "ms",
        np,
    );
    put(
        &mut m,
        "serve.credit_waits_per_session",
        sum(large, &|c| c.credit_waits) / (2.0 * n_prog),
        "count",
        2 * np,
    );
    put(
        &mut m,
        "serve.batch_ratio",
        sum(large, &|c| c.batch_trace) / sum(large, &|c| c.session_trace),
        "ratio",
        np,
    );
    put(
        &mut m,
        "obs.overhead_pct",
        100.0 * (traced6 - untraced6) / untraced6,
        "%",
        np,
    );
    let layers: [Layer; 7] = [
        ("callgrind", &|c| c.callgrind),
        ("core.shadow", &|c| c.sigil() - c.callgrind),
        ("core.events", &|c| c.with_events - c.reuse_lines),
        ("shard.dispatch", &|c| c.dispatch_busy),
        ("evb.encode", &|c| c.encode),
        ("analysis.critpath_fold", &|c| c.critpath_fold),
        ("serve.stream", &|c| c.stream),
    ];
    for (layer, f) in layers {
        let points: Vec<(f64, f64)> = SIZES
            .iter()
            .map(|&s| (sum(s, &|c| c.events), sum(s, f)))
            .collect();
        put(
            &mut m,
            &format!("scaling.{layer}.exponent"),
            exponent(&points),
            "ratio",
            3 * np,
        );
    }
    put(&mut m, "ladder.accounting_err_max_pct", worst_err, "%", np);

    let trace_path = args.run_dir.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    sigil_obs::write_chrome_trace(&trace_path)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    Ok(Outcome {
        metrics: m,
        attempted: checks.attempted,
        failed: checks.failed,
        notes: vec![
            ("chrome_trace".to_owned(), trace_path.display().to_string()),
            (
                "accounting_tolerance_pct".to_owned(),
                ACCOUNTING_TOLERANCE_PCT.to_string(),
            ),
            (
                "accounting_within_tolerance".to_owned(),
                (worst_err <= ACCOUNTING_TOLERANCE_PCT).to_string(),
            ),
            (
                "accounting_median_err_pct".to_owned(),
                format!("{:.1}", median(&errs)),
            ),
            (
                "accounting_suite_err_pct".to_owned(),
                format!("{:.1}", 100.0 * (rungs_ms - items_ms).abs() / items_ms),
            ),
            (
                "unmeasured".to_owned(),
                "sigil-vm, sigil-oracle (off the suite's hot path)".to_owned(),
            ),
        ],
    })
}
