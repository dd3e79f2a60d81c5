//! Fault injection against a live `sigil-serve` daemon: misbehaving
//! clients — disconnects mid-chunk, half-written frames that stall, a
//! bit-flipped frame, a client that outruns its credit window — must
//! produce *located* errors, must never take a sibling session down with
//! them, and must leave the server serviceable for the next connection.
//!
//! The raw-socket helpers below speak the wire protocol by hand (via the
//! public [`Frame`] codec) precisely so they can stop mid-frame — the
//! real [`Client`] is incapable of these faults by construction.

use std::io::Write;
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use sigil_oracle::harness::{record_benchmark, record_program, TraceBundle};
use sigil_oracle::serve_axis::{batch_outcome, diff_outcomes, online_outcome, serve_config};
use sigil_serve::{
    encode_trace_records, Client, Frame, FrameKind, Listen, ServeConfig, Server, SessionSpec,
    TraceRecord, WireError, FRAME_HEADER_LEN,
};
use sigil_trace::{MemAccess, OpClass, RuntimeEvent, SymbolTable};
use sigil_vm::GenProgram;
use sigil_workloads::{Benchmark, InputSize};

fn hello_frame(spec: &SessionSpec) -> Frame {
    Frame {
        kind: FrameKind::Hello,
        aux: 0,
        payload: serde_json::to_string(spec)
            .expect("spec serializes")
            .into_bytes(),
    }
}

/// Reads frames off a raw connection until an ERROR arrives, absorbing
/// WELCOME and CREDIT frames on the way; panics on anything else.
fn read_error(stream: &TcpStream) -> WireError {
    let mut reader = stream;
    let mut offset = 0u64;
    loop {
        let frame = match Frame::read_from(&mut reader, &mut offset) {
            Ok(frame) => frame,
            Err(e) => panic!("connection died before an ERROR frame arrived: {e}"),
        };
        match frame.kind {
            FrameKind::Welcome | FrameKind::Credit => continue,
            FrameKind::Error => {
                let text = std::str::from_utf8(&frame.payload).expect("error payload is utf8");
                return serde_json::from_str(text).expect("error payload is WireError JSON");
            }
            other => panic!("unexpected frame {other:?} while waiting for ERROR"),
        }
    }
}

/// Runs one well-behaved session and asserts it is byte-identical to the
/// batch pipeline — the serviceability probe used after every fault.
fn assert_session_conforms(address: &str, name: &str, bundle: &TraceBundle) {
    let config = serve_config();
    let batch = batch_outcome(bundle, config);
    let online = online_outcome(address, name, bundle, config, 64)
        .unwrap_or_else(|e| panic!("{name}: post-fault session failed: {e}"));
    let divergences = diff_outcomes(&batch, &online);
    assert!(
        divergences.is_empty(),
        "{name}: post-fault session diverged: {divergences:#?}"
    );
}

/// A bit-flipped chunk frame is rejected with a checksum error located
/// at the frame's exact connection offset, and the server keeps serving.
#[test]
fn bit_flipped_frame_gets_located_error() {
    let server = Server::bind(Listen::parse("127.0.0.1:0"), ServeConfig::default())
        .expect("bind fault server");
    let address = server.address();

    let mut stream = TcpStream::connect(&address).expect("raw connect");
    let hello = hello_frame(&SessionSpec::trace("flipper", serve_config())).encode();
    stream.write_all(&hello).expect("send hello");

    let mut chunk = Frame {
        kind: FrameKind::Chunk,
        aux: 1,
        payload: vec![0x55; 40],
    }
    .encode();
    let last = chunk.len() - 1;
    chunk[last] ^= 0x10; // corrupt the payload after the checksum was computed
    stream.write_all(&chunk).expect("send corrupted chunk");

    let error = read_error(&stream);
    assert_eq!(
        error.offset,
        hello.len() as u64,
        "error not located at the corrupted frame's start"
    );
    assert!(
        error.message.contains("checksum"),
        "unexpected error message: {}",
        error.message
    );
    drop(stream);

    assert_session_conforms(
        &address,
        "after-flip",
        &record_program(&GenProgram::generate(3)),
    );
    drop(server);
}

/// A CHUNK frame whose record count (`aux`) claims `u32::MAX` records
/// in a one-byte payload gets a located error on both session kinds —
/// not a reservation sized by the claim — and the server keeps serving.
#[test]
fn oversized_record_count_gets_located_error() {
    let server = Server::bind(Listen::parse("127.0.0.1:0"), ServeConfig::default())
        .expect("bind fault server");
    let address = server.address();

    // The trace payload is one `Return` record and the events payload a
    // `Call` tag with no fields: both run out of bytes at offset 1.
    let cases = [
        (SessionSpec::trace("liar-trace", serve_config()), 0x02),
        (SessionSpec::events("liar-events", None), 0x00),
    ];
    for (spec, byte) in cases {
        let mut stream = TcpStream::connect(&address).expect("raw connect");
        let hello = hello_frame(&spec).encode();
        stream.write_all(&hello).expect("send hello");
        let chunk = Frame {
            kind: FrameKind::Chunk,
            aux: u32::MAX,
            payload: vec![byte],
        }
        .encode();
        stream.write_all(&chunk).expect("send lying chunk");

        let error = read_error(&stream);
        assert_eq!(
            error.offset,
            (hello.len() + FRAME_HEADER_LEN + 1) as u64,
            "{}: error not located after the payload's one byte: {}",
            spec.mode,
            error.message
        );
        assert!(
            error.message.contains("truncated"),
            "{}: unexpected error message: {}",
            spec.mode,
            error.message
        );
    }

    assert_session_conforms(
        &address,
        "after-liars",
        &record_program(&GenProgram::generate(5)),
    );
    drop(server);
}

/// A client that dies mid-chunk fails only its own session: a sibling
/// streaming concurrently finishes byte-identical to batch, and the next
/// connection is served normally.
#[test]
fn disconnect_mid_chunk_leaves_siblings_unaffected() {
    let server = Server::bind(Listen::parse("127.0.0.1:0"), ServeConfig::default())
        .expect("bind fault server");
    let address = server.address();

    let sibling_bundle = record_benchmark(Benchmark::Blackscholes, InputSize::SimSmall);
    let sibling = {
        let address = address.clone();
        let bundle = sibling_bundle.clone();
        thread::spawn(move || {
            let config = serve_config();
            let online = online_outcome(&address, "sibling", &bundle, config, 16)
                .expect("sibling session failed");
            (batch_outcome(&bundle, config), online)
        })
    };

    // While the sibling streams, a second connection sends HELLO plus
    // half of a chunk frame and vanishes.
    {
        let mut stream = TcpStream::connect(&address).expect("raw connect");
        stream
            .write_all(&hello_frame(&SessionSpec::trace("quitter", serve_config())).encode())
            .expect("send hello");
        let chunk = Frame {
            kind: FrameKind::Chunk,
            aux: 9,
            payload: vec![0xAB; 64],
        }
        .encode();
        stream
            .write_all(&chunk[..chunk.len() / 2])
            .expect("send half a chunk");
        // Dropped here: the server sees EOF mid-frame.
    }

    let (batch, online) = sibling.join().expect("sibling thread panicked");
    let divergences = diff_outcomes(&batch, &online);
    assert!(
        divergences.is_empty(),
        "sibling diverged after a neighbour's mid-chunk disconnect: {divergences:#?}"
    );

    assert_session_conforms(
        &address,
        "after-quit",
        &record_program(&GenProgram::generate(4)),
    );
    drop(server);
}

/// A connection that stalls halfway through a frame is timed out with a
/// located idle-timeout error rather than pinning a reader thread
/// forever, and the server keeps serving.
#[test]
fn half_written_frame_times_out_with_located_error() {
    let server = Server::bind(
        Listen::parse("127.0.0.1:0"),
        ServeConfig {
            idle_timeout: Duration::from_millis(250),
            ..ServeConfig::default()
        },
    )
    .expect("bind fault server");
    let address = server.address();

    let mut stream = TcpStream::connect(&address).expect("raw connect");
    stream
        .write_all(&hello_frame(&SessionSpec::trace("staller", serve_config())).encode())
        .expect("send hello");
    let chunk = Frame {
        kind: FrameKind::Chunk,
        aux: 2,
        payload: vec![1, 2, 3, 4],
    }
    .encode();
    stream
        .write_all(&chunk[..5])
        .expect("send a partial header");
    // ...and never send the rest.

    let error = read_error(&stream);
    assert!(
        error.message.contains("idle timeout"),
        "unexpected stall error: {}",
        error.message
    );
    drop(stream);

    assert_session_conforms(
        &address,
        "after-stall",
        &record_program(&GenProgram::generate(5)),
    );
    drop(server);
}

/// A client that ignores the credit window is cut off with a located
/// credit-violation error — the bounded ingest queue never grows to
/// absorb a flood.
#[test]
fn credit_violation_is_rejected() {
    let server = Server::bind(
        Listen::parse("127.0.0.1:0"),
        ServeConfig {
            credits: 2,
            ..ServeConfig::default()
        },
    )
    .expect("bind fault server");
    let address = server.address();

    let mut stream = TcpStream::connect(&address).expect("raw connect");
    stream
        .write_all(&hello_frame(&SessionSpec::trace("flooder", serve_config())).encode())
        .expect("send hello");
    // Fire far more chunks than the window without ever reading CREDIT.
    // Each chunk carries thousands of valid events so the worker lags
    // behind the reader and the outstanding count genuinely grows.
    let events: Vec<TraceRecord> = (0..5_000)
        .map(|i| {
            TraceRecord::Event(RuntimeEvent::Op {
                class: OpClass::IntArith,
                count: 1 + (i % 7),
            })
        })
        .collect();
    let chunk = Frame {
        kind: FrameKind::Chunk,
        aux: events.len() as u32,
        payload: encode_trace_records(&events),
    }
    .encode();
    for _ in 0..64 {
        if stream.write_all(&chunk).is_err() {
            break; // server already cut us off mid-flood
        }
    }
    let error = read_error(&stream);
    assert!(
        error.message.contains("credit violation"),
        "unexpected flood error: {}",
        error.message
    );
    drop(stream);

    assert_session_conforms(
        &address,
        "after-flood",
        &record_program(&GenProgram::generate(6)),
    );
    drop(server);
}

/// With a tiny credit window the real client *waits* instead of
/// violating: backpressure engages (observable as credit waits) and the
/// finished result is still byte-identical to batch.
#[test]
fn backpressure_preserves_identity_under_a_tiny_window() {
    let server = Server::bind(
        Listen::parse("127.0.0.1:0"),
        ServeConfig {
            credits: 1,
            ..ServeConfig::default()
        },
    )
    .expect("bind fault server");
    let address = server.address();

    let bundle = record_benchmark(Benchmark::Blackscholes, InputSize::SimSmall);
    let config = serve_config();
    let batch = batch_outcome(&bundle, config);

    let mut client = Client::connect(&address, &SessionSpec::trace("throttled", config))
        .expect("connect throttled client");
    client.set_chunk_records(8); // many small chunks against a window of 1
    client
        .stream_trace(&bundle.symbols, &bundle.events)
        .expect("stream under backpressure");
    let waits = client.credit_waits();
    let online = client.finish().expect("finish under backpressure");

    assert!(waits > 0, "credit window of 1 never made the client wait");
    let divergences = diff_outcomes(&batch, &online);
    assert!(
        divergences.is_empty(),
        "backpressure changed the result: {divergences:#?}"
    );
    drop(server);
}

/// A session whose profiler panics reports the panic payload to the
/// client instead of a bare "worker panicked". The probe is a write
/// whose end address overflows `u64`, which debug builds trap on.
#[cfg(debug_assertions)]
#[test]
fn session_worker_panic_reports_its_payload() {
    let server = Server::bind(Listen::parse("127.0.0.1:0"), ServeConfig::default())
        .expect("bind fault server");
    let address = server.address();

    let mut client = Client::connect(&address, &SessionSpec::trace("prober", serve_config()))
        .expect("connect probe client");
    let probe = RuntimeEvent::Write {
        access: MemAccess::new(u64::MAX - 2, 8),
    };
    let outcome = client
        .stream_trace(&SymbolTable::new(), &[probe])
        .and_then(|()| client.finish().map(|_| ()));
    let message = match outcome {
        Err(sigil_serve::ClientError::Server { message, .. }) => message,
        other => panic!("expected a server-reported session error, got {other:?}"),
    };
    assert!(
        message.contains("session worker panicked: attempt to add with overflow"),
        "panic payload missing from the session error: {message}"
    );

    assert_session_conforms(
        &address,
        "after-panic",
        &record_program(&GenProgram::generate(7)),
    );
    drop(server);
}
