//! sigil-rs benchmark: three workloads over the replay paths, timed end
//! to end, plus a separately traced per-layer ladder.
//!
//! ```text
//! perfbench --workload <profile-serial|events-sharded|serve-mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--sigil-bin <path>] [--run-dir <dir>] [--rev <id>] [--rustc <version>]
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the environment stamp. `perfbench/run.py` builds this binary and the
//! `sigil` CLI and forwards its arguments here. `perfbench/README.md`
//! catalogues every metric.

mod chains;
mod ladder;
mod serve;
mod util;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use sigil_workloads::{Benchmark, InputSize};

use crate::chains::Reference;
use crate::util::{median, ms_since, nproc, quantile, rng, shuffle, vm_hwm_mib};

/// How many times set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// serve-mixed's closed-loop client connections (fewer only on a host
/// with fewer cores).
const SERVE_CLIENTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ProfileSerial,
    EventsSharded,
    ServeMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "profile-serial" => Some(Workload::ProfileSerial),
            "events-sharded" => Some(Workload::EventsSharded),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ProfileSerial => "profile-serial",
            Workload::EventsSharded => "events-sharded",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// The input size of the workload's programs. events-sharded runs at
    /// simmedium so that one run holds the hundred-plus items its p90
    /// needs (a simlarge pass of the chain takes ~9 s on two cores).
    pub fn size(self) -> InputSize {
        match self {
            Workload::ProfileSerial => InputSize::SimLarge,
            Workload::EventsSharded | Workload::ServeMixed => InputSize::SimMedium,
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sigil_bin: Option<PathBuf>,
    pub run_dir: PathBuf,
    pub rev: String,
    pub rustc: String,
    /// Internal: print the workload's references and exit (the set-up
    /// process).
    refs_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = Args {
        workload: Workload::ProfileSerial,
        seed: 0,
        seconds: 0.0,
        trace: false,
        sigil_bin: None,
        run_dir: PathBuf::from(".bench_build/perfbench"),
        rev: "unknown".to_owned(),
        rustc: "unknown".to_owned(),
        refs_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                })
            }
            "--sigil-bin" => args.sigil_bin = Some(PathBuf::from(value()?)),
            "--run-dir" => args.run_dir = PathBuf::from(value()?),
            "--rev" => args.rev = value()?,
            "--rustc" => args.rustc = value()?,
            "--role" => match value()?.as_str() {
                "refs" => args.refs_only = true,
                other => return Err(format!("unknown role `{other}`")),
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if !args.refs_only {
        args.seed = seed.ok_or("--seed is required")?;
        args.seconds = seconds.ok_or("--seconds is required")?;
        args.trace = trace.ok_or("--trace is required")?;
    }
    Ok(args)
}

/// One metric of the result line.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was derived from (for the environment stamp).
    pub samples: usize,
}

pub type Metrics = BTreeMap<String, Metric>;

pub fn put(metrics: &mut Metrics, name: &str, value: f64, unit: &'static str, samples: usize) {
    metrics.insert(
        name.to_owned(),
        Metric {
            value,
            unit,
            samples,
        },
    );
}

/// A finished run: metrics plus the item tally.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Extra `key: value` pairs for the environment stamp.
    pub notes: Vec<(String, String)>,
}

/// One timed item.
struct Item {
    bench: Benchmark,
    kind: &'static str,
    /// Wire chunk size of a session; 0 for a replay item.
    chunk: usize,
    pass: usize,
    /// Start, seconds into the timed phase.
    at_s: f64,
    ms: f64,
    events: u64,
    ok: bool,
}

/// One program's reference for a replay workload.
fn reference(workload: Workload, bench: Benchmark, size: InputSize) -> Reference {
    match workload {
        Workload::ProfileSerial => chains::serial_reference(bench, size),
        Workload::EventsSharded => chains::events_reference(bench, size),
        Workload::ServeMixed => unreachable!("serve-mixed sets up in process"),
    }
}

/// The set-up process: computes every program's reference by serial
/// batch replay and prints one line each. Programs run one at a time, as
/// in every set-up: set-up threads contending for a two-core host made
/// set-up time swing from run to run.
fn print_references(workload: Workload) {
    let size = workload.size();
    for bench in Benchmark::ALL {
        println!("{}", reference(workload, bench, size).to_line(bench));
    }
}

/// Runs and times one replay-workload item and checks it against its
/// reference; `corrupt` perturbs the result first (the self-test's hook).
fn replay_item(
    workload: Workload,
    bench: Benchmark,
    size: InputSize,
    refs: &BTreeMap<String, Reference>,
    corrupt: bool,
) -> Item {
    let t = Instant::now();
    let got = match workload {
        Workload::ProfileSerial => chains::serial_item(bench, size, corrupt),
        Workload::EventsSharded => chains::events_item(bench, size, nproc(), corrupt),
        Workload::ServeMixed => unreachable!("serve-mixed items are sessions"),
    };
    let ms = ms_since(t);
    let expected = refs.get(bench.name());
    let ok = expected.map(|r| &r.digests) == Some(&got);
    if !ok {
        eprintln!("perfbench: {bench} differs from its serial batch reference");
    }
    Item {
        bench,
        kind: "chain",
        chunk: 0,
        pass: 0,
        at_s: 0.0,
        ms,
        // The suite's inputs are fixed, so the guest event count is the
        // reference's.
        events: expected.map_or(0, |r| r.events),
        ok,
    }
}

/// Runs the set-up process once and parses its references.
fn load_references(workload: Workload) -> Result<BTreeMap<String, Reference>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .args(["--role", "refs", "--workload", workload.name()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the set-up process: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut refs = BTreeMap::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| e.to_string())?;
        let (bench, r) =
            Reference::from_line(&line).ok_or(format!("bad reference line `{line}`"))?;
        refs.insert(bench.name().to_owned(), r);
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    if !status.success() || refs.len() != Benchmark::ALL.len() {
        return Err(format!(
            "set-up process failed ({status}, {} references)",
            refs.len()
        ));
    }
    Ok(refs)
}

/// Whole passes over the suite in seed-shuffled order until `seconds`
/// have passed; every program weighs the same in every run.
fn timed_passes(
    seed: u64,
    seconds: f64,
    mut item: impl FnMut(Benchmark) -> Item,
) -> (Vec<Item>, f64) {
    let mut rng = rng(seed);
    let mut items = Vec::new();
    let start = Instant::now();
    let mut pass = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let mut order = Benchmark::ALL;
        shuffle(&mut rng, &mut order);
        for bench in order {
            let at_s = start.elapsed().as_secs_f64();
            items.push(Item {
                pass,
                at_s,
                ..item(bench)
            });
        }
        pass += 1;
    }
    (items, start.elapsed().as_secs_f64())
}

/// Writes every timed item to `items-<workload>-seed<n>.csv` in the run
/// directory, for looking behind the summary metrics.
fn write_items(args: &Args, items: &[Item]) -> Result<(), String> {
    let mut csv = String::from("bench,kind,chunk,pass,at_s,ms,events,ok\n");
    for i in items {
        csv += &format!(
            "{},{},{},{},{:.6},{:.6},{},{}\n",
            i.bench, i.kind, i.chunk, i.pass, i.at_s, i.ms, i.events, i.ok
        );
    }
    let path = args.run_dir.join(format!(
        "items-{}-seed{}.csv",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, csv).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn end_to_end(items: &[Item], wall_s: f64, peak_rss_mib: f64, setup: &[f64]) -> Outcome {
    let lat: Vec<f64> = items.iter().map(|i| i.ms).collect();
    let events: u64 = items.iter().map(|i| i.events).sum();
    let failed = items.iter().filter(|i| !i.ok).count() as u64;
    let mut metrics = Metrics::new();
    let n = items.len();
    put(
        &mut metrics,
        "throughput_eps",
        events as f64 / wall_s,
        "1/s",
        n,
    );
    put(&mut metrics, "latency_p50_ms", median(&lat), "ms", n);
    put(&mut metrics, "latency_p90_ms", quantile(&lat, 0.9), "ms", n);
    put(&mut metrics, "peak_rss_mib", peak_rss_mib, "MiB", 1);
    put(&mut metrics, "setup_s", median(setup), "s", setup.len());
    Outcome {
        metrics,
        attempted: n as u64,
        failed,
        notes: vec![
            ("items".to_owned(), n.to_string()),
            ("items_beyond_p90".to_owned(), (n / 10).to_string()),
            (
                "failed_frac".to_owned(),
                format!("{}", failed as f64 / n.max(1) as f64),
            ),
        ],
    }
}

fn run_replay_workload(args: &Args) -> Result<Outcome, String> {
    let mut setup = Vec::new();
    let mut refs = BTreeMap::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        refs = load_references(args.workload)?;
        setup.push(t.elapsed().as_secs_f64());
    }
    let size = args.workload.size();
    let (items, wall) = timed_passes(args.seed, args.seconds, |bench| {
        replay_item(args.workload, bench, size, &refs, false)
    });
    let rss = vm_hwm_mib("self").ok_or("cannot read VmHWM")?;
    write_items(args, &items)?;
    let mut out = end_to_end(&items, wall, rss, &setup);
    if args.workload == Workload::EventsSharded {
        out.notes.push(("shards".to_owned(), nproc().to_string()));
    }
    Ok(out)
}

fn run_serve_workload(args: &Args) -> Result<Outcome, String> {
    let sigil = args
        .sigil_bin
        .as_deref()
        .ok_or("serve-mixed needs --sigil-bin")?;
    let size = args.workload.size();
    let mut setup = Vec::new();
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let programs: Vec<serve::Program> = Benchmark::ALL
            .iter()
            .map(|&b| serve::Program::prepare(b, size))
            .collect();
        let daemon = serve::Daemon::start(sigil, &serve::socket_path(&args.run_dir, "mixed"))?;
        setup.push(t.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            daemon.stop()?;
        } else {
            ready = Some((programs, daemon));
        }
    }
    let (programs, daemon) = ready.expect("set-up ran");
    let clients = SERVE_CLIENTS.min(nproc());
    let (sessions, wall) =
        serve::closed_loop(&daemon.address, &programs, args.seed, args.seconds, clients);
    let rss = daemon
        .peak_rss_mib()
        .ok_or("cannot read the daemon's VmHWM")?;
    let stopped = daemon.stop();
    let items: Vec<Item> = sessions
        .iter()
        .map(|s| Item {
            bench: s.bench,
            kind: match s.kind {
                serve::Kind::Trace => "trace",
                serve::Kind::Events => "events",
            },
            chunk: s.chunk,
            pass: s.pass,
            at_s: s.at_s,
            ms: s.ms,
            events: s.records,
            ok: s.ok,
        })
        .collect();
    write_items(args, &items)?;
    let mut out = end_to_end(&items, wall, rss, &setup);
    if let Err(e) = stopped {
        eprintln!("perfbench: {e}");
        out.failed += 1;
    }
    // Which programs' trace sessions evict under the shadow cap, as batch
    // replay measured it.
    let evicting: Vec<&str> = programs
        .iter()
        .filter(|p| p.evicted_chunks > 0)
        .map(|p| p.bench.name())
        .collect();
    out.notes.push(("clients".to_owned(), clients.to_string()));
    out.notes
        .push(("evicting_programs".to_owned(), evicting.join(",")));
    Ok(out)
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_owned()).expect("strings serialize")
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn stamp(args: &Args, out: &Outcome) -> String {
    let mut fields = vec![
        ("workload".to_owned(), json_str(args.workload.name())),
        ("size".to_owned(), json_str(&args.workload.size().to_string())),
        ("seed".to_owned(), args.seed.to_string()),
        ("seconds".to_owned(), format!("{}", args.seconds)),
        ("trace".to_owned(), (args.trace as u8).to_string()),
        ("nproc".to_owned(), nproc().to_string()),
        ("rev".to_owned(), json_str(&args.rev)),
        ("rustc".to_owned(), json_str(&args.rustc)),
        (
            "build_profile".to_owned(),
            json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        ),
        (
            "callgrind_caches".to_owned(),
            json_str("cold: every item builds a fresh CallgrindProfiler, so the modelled caches start empty per program"),
        ),
    ];
    for (k, v) in &out.notes {
        fields.push((k.clone(), json_str(v)));
    }
    let samples: Vec<String> = out
        .metrics
        .iter()
        .map(|(k, m)| format!("{}: {}", json_str(k), m.samples))
        .collect();
    fields.push(("samples".to_owned(), format!("{{{}}}", samples.join(", "))));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{\"env\": {{{}}}}}", body.join(", "))
}

fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(k, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(k),
                finite(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.refs_only {
        print_references(args.workload);
        return ExitCode::SUCCESS;
    }
    if let Err(e) = std::fs::create_dir_all(&args.run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.run_dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = if args.trace {
        ladder::run(&args)
    } else {
        match args.workload {
            Workload::ServeMixed => run_serve_workload(&args),
            _ => run_replay_workload(&args),
        }
    };
    match outcome {
        Ok(out) => {
            println!("{}", stamp(&args, &out));
            println!("{}", result_line(&out));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigil_serve::{Listen, ServeConfig, Server};

    const PROGRAMS: [Benchmark; 2] = [Benchmark::Blackscholes, Benchmark::Mtpipe];

    #[test]
    fn corrupted_replay_results_count_as_failed() {
        let size = InputSize::SimSmall;
        for workload in [Workload::ProfileSerial, Workload::EventsSharded] {
            let refs: BTreeMap<String, Reference> = PROGRAMS
                .iter()
                .map(|&b| (b.name().to_owned(), reference(workload, b, size)))
                .collect();
            for corrupt in [false, true] {
                let items: Vec<Item> = PROGRAMS
                    .iter()
                    .map(|&b| replay_item(workload, b, size, &refs, corrupt))
                    .collect();
                let out = end_to_end(&items, 1.0, 1.0, &[1.0]);
                let failed_frac = out.failed as f64 / out.attempted as f64;
                assert_eq!(failed_frac, if corrupt { 1.0 } else { 0.0 }, "{workload:?}");
            }
        }
    }

    #[test]
    fn corrupted_session_results_count_as_failed() {
        let server = Server::bind(
            Listen::Tcp("127.0.0.1:0".to_owned()),
            ServeConfig::default(),
        )
        .expect("binds a free port");
        let program = serve::Program::prepare(Benchmark::Dedup, InputSize::SimSmall);
        for kind in [serve::Kind::Trace, serve::Kind::Events] {
            for corrupt in [false, true] {
                let s = serve::session(&server.address(), &program, kind, 1024, corrupt);
                assert_eq!(s.ok, !corrupt, "{kind:?} corrupt={corrupt}");
            }
        }
        server.stop();
        server.wait();
    }
}
