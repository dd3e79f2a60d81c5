//! serve-mixed: a `sigil serve` daemon in its own process, driven by
//! closed-loop client connections through `sigil_serve::Client`.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::Instant;

use rand::rngs::SmallRng;
use sigil_analysis::EventCdfg;
use sigil_core::events_bin::{encode_events, BinReader, DEFAULT_CHUNK_RECORDS};
use sigil_core::EventRecord;
use sigil_serve::{shutdown_server, Client, ClientError, SessionResult, SessionSpec};
use sigil_workloads::{Benchmark, InputSize};

use crate::chains::{
    batch_profile, graph_path, record, serve_events_config, serve_trace_config, Trace, BUCKET_OPS,
};
use crate::util::{json_digest, ms_since, rng, shuffle};

/// Wire chunk size (records per CHUNK frame) of the repo's client
/// callers: `Client` and `sigil client` default to it.
pub const DEFAULT_CHUNK: usize = DEFAULT_CHUNK_RECORDS;
/// The chunk sizes of `sigil diff serve`'s conformance axis, without its
/// 3-record point: that one moves frame boundaries through tiny generated
/// programs, and on a simmedium trace it makes a session about 8× slower,
/// so it alone would fill more than half of every run.
pub const CHUNK_AXIS: [usize; 3] = [64, 1024, DEFAULT_CHUNK_RECORDS];

/// A running `sigil serve` process.
pub struct Daemon {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    socket: PathBuf,
    pub address: String,
}

impl Daemon {
    /// Starts `sigil serve` on a Unix socket and waits until it listens.
    pub fn start(sigil_bin: &Path, socket: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(sigil_bin)
            .arg("serve")
            .arg("--listen")
            .arg(socket)
            .args(["--log-level", "warn"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", sigil_bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let address = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("sigil serve exited before listening".to_owned());
                }
                Ok(_) => {
                    if let Some(rest) = line.strip_prefix("serving on ") {
                        break rest.split_whitespace().next().unwrap_or("").to_owned();
                    }
                }
            }
        };
        Ok(Daemon {
            child: Some(child),
            stdout,
            socket: socket.to_owned(),
            address,
        })
    }

    /// The daemon's peak resident set so far, MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        let pid = self.child.as_ref()?.id();
        crate::util::vm_hwm_mib(&pid.to_string())
    }

    /// Shuts the daemon down over the wire and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let summary = shutdown_server(&self.address).map_err(|e| e.to_string());
        let mut child = self.child.take().expect("running");
        if summary.is_err() {
            // It did not take the shutdown; do not wait on it forever.
            let _ = child.kill();
        }
        let status = child.wait().map_err(|e| e.to_string())?;
        let mut rest = String::new();
        while self.stdout.read_line(&mut rest).unwrap_or(0) > 0 {}
        let summary = summary?;
        if !status.success() || !summary.drained {
            return Err(format!(
                "sigil serve ended badly: {status}, drained {}",
                summary.drained
            ));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// What a session streams: a recorded trace or an event file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Trace,
    Events,
}

/// One program's set-up products: the recorded trace, the event records
/// decoded from its `.evb` encoding, and the digest of the
/// `SessionResult` the batch pipeline produces for each session kind.
pub struct Program {
    pub bench: Benchmark,
    pub trace: Trace,
    pub records: Vec<EventRecord>,
    pub trace_ref: u64,
    pub events_ref: u64,
    /// In-process batch time of the trace session's work (replay under
    /// the session configuration + `into_profile`).
    pub batch_ms: f64,
    /// Shadow chunks the batch replay evicted under the session's cap.
    pub evicted_chunks: u64,
}

impl Program {
    /// Records the trace and computes both batch references.
    pub fn prepare(bench: Benchmark, size: InputSize) -> Program {
        Program::from_trace(bench, record(bench, size))
    }

    pub fn from_trace(bench: Benchmark, trace: Trace) -> Program {
        let t = Instant::now();
        let expected = trace_batch_result(&trace);
        let batch_ms = ms_since(t);
        let evicted_chunks = expected
            .profile
            .as_ref()
            .map_or(0, |p| p.memory.evicted_chunks);
        let trace_ref = json_digest(&expected);
        drop(expected);
        let profile = batch_profile(&trace, serve_events_config());
        let events = profile.events.as_ref().expect("events on");
        let evb = encode_events(events);
        let decoded = BinReader::parse(&evb)
            .and_then(|r| r.to_event_file())
            .expect("a freshly encoded .evb decodes");
        assert_eq!(&decoded, events, "{bench}: .evb round trip");
        let cdfg = EventCdfg::from_records(events.records());
        let expected = SessionResult {
            mode: "events".to_owned(),
            records: events.len() as u64,
            profile: None,
            phases: profile.phases.clone(),
            critpath: Some(graph_path(events)),
            cdfg_contexts: Some(cdfg.len() as u64),
            cdfg_edges: Some(cdfg.edges().len() as u64),
            compute_ops: Some(events.total_ops()),
            transfer_bytes: Some(events.total_transfer_bytes()),
        };
        Program {
            bench,
            records: decoded.records().to_vec(),
            trace,
            trace_ref,
            events_ref: json_digest(&expected),
            batch_ms,
            evicted_chunks,
        }
    }

    pub fn records(&self, kind: Kind) -> u64 {
        match kind {
            Kind::Trace => self.trace.events.len() as u64,
            Kind::Events => self.records.len() as u64,
        }
    }
}

/// The result a trace session must return: serial batch replay under
/// the session's configuration, finalized as a server session is.
pub fn trace_batch_result(trace: &Trace) -> SessionResult {
    let profile = batch_profile(trace, serve_trace_config());
    SessionResult {
        mode: "trace".to_owned(),
        records: trace.events.len() as u64,
        phases: profile.phases.clone(),
        critpath: None,
        profile: Some(profile),
        cdfg_contexts: None,
        cdfg_edges: None,
        compute_ops: None,
        transfer_bytes: None,
    }
}

/// One finished session.
#[derive(Debug, Clone, Copy)]
pub struct Session {
    pub kind: Kind,
    pub bench: Benchmark,
    pub records: u64,
    pub chunk: usize,
    /// Which pass of the session plan this session belongs to.
    pub pass: usize,
    /// Start, seconds into the closed loop.
    pub at_s: f64,
    /// Connect to checked result.
    pub ms: f64,
    /// Time inside `stream_trace` / `stream_events`.
    pub stream_ms: f64,
    /// Time inside `finish` (the server drains, finalizes and replies).
    pub finish_ms: f64,
    pub credit_waits: u64,
    pub ok: bool,
}

/// Runs one session from connect to a checked result. A result that
/// differs from the batch reference by a single byte fails the session;
/// `corrupt` perturbs the received result first (the self-test's hook).
pub fn session(
    address: &str,
    program: &Program,
    kind: Kind,
    chunk_records: usize,
    corrupt: bool,
) -> Session {
    let start = Instant::now();
    let mut out = Session {
        kind,
        bench: program.bench,
        records: program.records(kind),
        chunk: chunk_records,
        pass: 0,
        at_s: 0.0,
        ms: 0.0,
        stream_ms: 0.0,
        finish_ms: 0.0,
        credit_waits: 0,
        ok: false,
    };
    let result = (|| -> Result<SessionResult, ClientError> {
        let name = program.bench.name();
        let spec = match kind {
            Kind::Trace => SessionSpec::trace(name, serve_trace_config()),
            Kind::Events => SessionSpec::events(name, Some(BUCKET_OPS)),
        };
        let mut client = Client::connect(address, &spec)?;
        client.set_chunk_records(chunk_records);
        let t = Instant::now();
        match kind {
            Kind::Trace => client.stream_trace(&program.trace.symbols, &program.trace.events)?,
            Kind::Events => client.stream_events(&program.records)?,
        }
        out.stream_ms = ms_since(t);
        out.credit_waits = client.credit_waits();
        let t = Instant::now();
        let result = client.finish();
        out.finish_ms = ms_since(t);
        result
    })();
    match result {
        Ok(mut result) => {
            if corrupt {
                result.records += 1;
            }
            let expected = match kind {
                Kind::Trace => program.trace_ref,
                Kind::Events => program.events_ref,
            };
            out.ok = json_digest(&result) == expected;
            if !out.ok {
                eprintln!(
                    "perfbench: {kind:?} session of {} differs from batch",
                    program.bench
                );
            }
        }
        Err(e) => eprintln!(
            "perfbench: {kind:?} session of {} failed: {e}",
            program.bench
        ),
    }
    out.ms = ms_since(start);
    out
}

/// The seeded session plan: each pass runs every program once per
/// session kind, in a seed-shuffled order. Half the pass's sessions use
/// the clients' default chunk size and the other half are dealt evenly
/// over `CHUNK_AXIS`.
struct Plan {
    rng: SmallRng,
    programs: usize,
    passes: usize,
    queue: Vec<(usize, Kind, usize)>,
}

impl Plan {
    fn next_pass(&mut self) {
        let mut sessions: Vec<(usize, Kind)> = (0..self.programs)
            .flat_map(|p| [(p, Kind::Trace), (p, Kind::Events)])
            .collect();
        shuffle(&mut self.rng, &mut sessions);
        let mut chunks: Vec<usize> = (0..sessions.len())
            .map(|i| match i % 2 {
                0 => DEFAULT_CHUNK,
                _ => CHUNK_AXIS[i / 2 % CHUNK_AXIS.len()],
            })
            .collect();
        shuffle(&mut self.rng, &mut chunks);
        self.passes += 1;
        // Popped from the back.
        self.queue = sessions
            .into_iter()
            .zip(chunks)
            .map(|((p, k), c)| (p, k, c))
            .rev()
            .collect();
    }
}

/// Closed loop: `clients` connections each open a session, stream, wait
/// for the checked result, then open the next, until `seconds` have
/// passed and the current pass is done. Returns the sessions and the
/// wall time of the loop.
pub fn closed_loop(
    address: &str,
    programs: &[Program],
    seed: u64,
    seconds: f64,
    clients: usize,
) -> (Vec<Session>, f64) {
    let plan = Mutex::new(Plan {
        rng: rng(seed),
        programs: programs.len(),
        passes: 0,
        queue: Vec::new(),
    });
    let done = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| loop {
                let (pass, (p, kind, chunk)) = {
                    let mut plan = plan.lock().expect("plan lock");
                    if plan.queue.is_empty() {
                        if start.elapsed().as_secs_f64() >= seconds {
                            break;
                        }
                        plan.next_pass();
                    }
                    let next = plan.queue.pop().expect("a fresh pass is non-empty");
                    (plan.passes - 1, next)
                };
                let at_s = start.elapsed().as_secs_f64();
                let mut outcome = session(address, &programs[p], kind, chunk, false);
                outcome.at_s = at_s;
                outcome.pass = pass;
                done.lock().expect("results lock").push(outcome);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    (done.into_inner().expect("results lock"), wall)
}

/// Where the daemon's socket lives: inside the run directory, named per
/// process so concurrent runs never collide.
pub fn socket_path(run_dir: &Path, tag: &str) -> PathBuf {
    run_dir.join(format!("serve-{}-{tag}.sock", std::process::id()))
}
