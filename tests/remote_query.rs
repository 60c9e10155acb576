//! End-to-end tests of the networked serving layer.
//!
//! The contract under test: with the background retile daemon re-tiling
//! mid-workload, results delivered over TCP to 4 concurrent clients are
//! **bit-identical** to in-process `Tasm::query` at one of the layout
//! epochs; admission control answers a full queue with a typed BUSY frame
//! instead of ever blocking the socket; and answers on one connection, or
//! relayed by a router, never show an earlier answer's bytes. Wire answers
//! at a stable layout, across the whole query surface, are
//! `tests/contract.rs`'s.

use std::net::TcpStream;
use std::sync::{Arc, Barrier, Mutex};
use tasm_client::{ClientError, Connection, LoadGen, LoadGenConfig};
use tasm_core::{LabelPredicate, Query, QueryMode, TasmConfig};
use tasm_data::SyntheticVideo;
use tasm_obs::sync;
use tasm_proto::{ErrorCode, Message, ProtoError, VERSION};
use tasm_server::{ServerConfig, TasmServer};
use tasm_service::{RetilePolicy, ServiceConfig};
use tasm_suite::{
    config, index_ground_truth, ingest, regions_identical, scene, Reference, TempDir, TestStore,
};
use tasm_video::Rect;

const FRAMES: u32 = 60;

fn scene60() -> SyntheticVideo {
    scene(256, 160, FRAMES, 47)
}

/// The scene ingested into a store opened with `cfg`.
fn store(tag: &str, cfg: TasmConfig) -> TestStore {
    let tasm = TestStore::open(tag, cfg);
    ingest(&tasm, "v", &scene60());
    tasm
}

/// The retile-daemon half of the acceptance criterion: with the regret
/// daemon re-tiling mid-workload, every result a remote client sees is
/// bit-identical to the reference's answer at the layout epoch it executed
/// against — the serving layer never tears or distorts a result, even
/// while the layout changes under it. (A re-tile is a lossy transcode, so
/// pre- and post-epoch pixels legitimately differ; the per-epoch comparison
/// is the same contract `concurrent_scan.rs` establishes for the
/// in-process service.)
#[test]
fn remote_results_stay_epoch_exact_while_daemon_retiles() {
    let frames = FRAMES;
    // One SOT spanning the whole video and a hair-trigger regret
    // threshold: the re-tile lands mid-workload.
    let mut tuned = config();
    tuned.storage.sot_frames = frames;
    tuned.eta = 0.05;

    // All-car query mix (windows/ROI/stride/limit vary).
    let mix: Vec<Query> = (0..4u32)
        .flat_map(|client| {
            let start = client * 5;
            vec![
                Query::new(LabelPredicate::label("car")).frames(start..start + 40),
                Query::new(LabelPredicate::label("car"))
                    .frames(start..start + 50)
                    .roi(Rect::new(0, 0, 128, 80))
                    .stride(2),
                Query::new(LabelPredicate::label("car"))
                    .frames(start..start + 30)
                    .limit(4),
                Query::new(LabelPredicate::label("car"))
                    .frames(0..frames)
                    .mode(QueryMode::Count),
            ]
        })
        .collect();

    let server_tasm = store("remote-epoch-server", tuned);
    // The ingest epoch stays live, so an answer at it can be checked after
    // the daemon has moved on.
    let ingested = server_tasm.pin_epoch("v", None).unwrap();
    let reference = Mutex::new(Reference::new(&server_tasm));
    let server = TasmServer::bind(
        Arc::clone(&server_tasm),
        ServiceConfig {
            workers: 4,
            queue_depth: 32,
            retile: RetilePolicy::Regret,
            ..Default::default()
        },
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    let barrier = Barrier::new(4);
    std::thread::scope(|scope| {
        for client in 0..4usize {
            let (mix, barrier, reference) = (&mix, &barrier, &reference);
            let server_tasm = &server_tasm;
            scope.spawn(move || {
                let mut conn = Connection::connect(addr).expect("connect");
                barrier.wait();
                // Several passes so queries land before, during, and after
                // the daemon's re-tile.
                for pass in 0..3 {
                    for (qi, query) in mix.iter().enumerate() {
                        let remote = conn.query("v", query).expect("remote query");
                        let what = format!("client {client} pass {pass} query {qi}");
                        let pin = server_tasm.pin_epoch("v", Some(remote.epoch));
                        let pin = pin.expect("the answer's epoch is live");
                        let expected = sync::lock(reference).answer(&pin, query);
                        expected.check(remote.matched, &remote.regions, &what);
                    }
                }
                conn.goodbye().expect("goodbye");
            });
        }
    });

    let report = server.shutdown();
    let stats = report.service.stats;
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.completed, 4 * 3 * 16);
    assert!(
        stats.retile_ops > 0,
        "the server's regret daemon must have re-tiled mid-workload"
    );
    let retiled = server_tasm.pin_epoch("v", None).unwrap();
    let mut reference = reference.into_inner().unwrap();
    assert!(
        mix.iter().any(|q| {
            let (before, after) = (
                reference.answer(&ingested, q),
                reference.answer(&retiled, q),
            );
            !regions_identical(&before.regions, &after.regions)
        }),
        "the re-tile must change pixels, or epoch tearing would be invisible"
    );
}

/// A full submission queue answers with a typed BUSY frame — the request
/// is refused, the connection keeps working, nothing blocks.
#[test]
fn queue_full_returns_typed_busy_not_a_hang() {
    let server_tasm = store("remote-busy", config());
    // One worker over a one-deep queue: at most two queries in the system.
    let server = TasmServer::bind(
        Arc::clone(&server_tasm),
        ServiceConfig {
            workers: 1,
            queue_depth: 1,
            ..Default::default()
        },
        ServerConfig {
            max_inflight: 32,
            ..Default::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = server.local_addr();

    let barrier = Barrier::new(4);
    let (mut busy, mut completed) = (0u64, 0u64);
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for _ in 0..4 {
            let barrier = &barrier;
            workers.push(scope.spawn(move || {
                let mut conn = Connection::connect(addr).expect("connect");
                let query = Query::new(LabelPredicate::label("car")).frames(0..FRAMES);
                barrier.wait();
                let (mut busy, mut completed) = (0u64, 0u64);
                for _ in 0..4 {
                    match conn.query("v", &query) {
                        Ok(_) => completed += 1,
                        Err(e) if e.is_busy() => busy += 1,
                        Err(e) => panic!("only BUSY rejections expected, got {e}"),
                    }
                }
                (busy, completed)
            }));
        }
        for w in workers {
            let (b, c) = w.join().expect("client thread");
            busy += b;
            completed += c;
        }
    });
    assert_eq!(busy + completed, 16, "every request got a typed answer");
    assert!(
        busy > 0,
        "a 16-query burst against a 1-deep queue must see BUSY"
    );
    assert!(completed > 0, "admitted queries still complete");
    let report = server.shutdown();
    assert_eq!(
        report.busy_rejections, busy,
        "server-side BUSY accounting matches the clients' view"
    );
}

/// The per-session in-flight cap rejects pipelined requests beyond the cap
/// with a typed error while the earlier ones proceed.
#[test]
fn per_session_inflight_cap_is_enforced() {
    let server_tasm = store("remote-inflight", config());
    let server = TasmServer::bind(
        Arc::clone(&server_tasm),
        ServiceConfig {
            workers: 1,
            queue_depth: 16,
            ..Default::default()
        },
        ServerConfig {
            max_inflight: 2,
            ..Default::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = server.local_addr();

    // Hand-rolled session: pipeline a burst of queries without reading any
    // replies. The reader admits them back to back (microseconds apart),
    // so with a cap of 2 the burst must overrun the in-flight window many
    // times over, whatever the execution speed or cache state.
    const BURST: u64 = 24;
    let mut stream = TcpStream::connect(addr).expect("raw connect");
    Message::ClientHello { version: VERSION }
        .write_to(&mut stream)
        .expect("hello");
    let hello = Message::read_from(&mut stream).expect("server hello");
    assert!(matches!(
        hello,
        Message::ServerHello {
            max_inflight: 2,
            ..
        }
    ));
    for id in 0..BURST {
        Message::Query {
            id,
            video: "v".to_string(),
            query: Query::new(LabelPredicate::label("car")).frames(0..FRAMES),
            trace_id: None,
        }
        .write_to(&mut stream)
        .expect("pipelined query");
    }
    // Collect one terminal frame per request: a typed over-cap rejection
    // or a completed response stream.
    let mut rejected = Vec::new();
    let mut done = Vec::new();
    while rejected.len() + done.len() < BURST as usize {
        match Message::read_from(&mut stream).expect("response frame") {
            Message::Error {
                id: Some(id),
                code: ErrorCode::TooManyInflight,
                ..
            } => rejected.push(id),
            Message::ResultDone { id, .. } => done.push(id),
            Message::ResultHeader { .. } | Message::Region { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }
    // The first two admissions can never be over cap (in-flight is 0 and
    // at most 1 when they are read); past that the burst must have hit it.
    assert!(
        !rejected.contains(&0) && !rejected.contains(&1),
        "the first two pipelined queries fit under the cap: {rejected:?}"
    );
    assert!(
        !rejected.is_empty(),
        "a {BURST}-query pipelined burst against a cap of 2 must overrun it"
    );
    assert!(
        done.len() >= 2,
        "queries under the cap still complete: {done:?}"
    );
    drop(stream);
    server.shutdown();
}

/// The listener-level connection cap refuses extra connections with a
/// typed error frame at handshake.
#[test]
fn connection_cap_refuses_with_typed_error() {
    let server_tasm = store("remote-conncap", config());
    let server = TasmServer::bind(
        Arc::clone(&server_tasm),
        ServiceConfig::default(),
        ServerConfig {
            max_connections: 1,
            ..Default::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = server.local_addr();

    let first = Connection::connect(addr).expect("first connection fits");
    match Connection::connect(addr) {
        Err(ClientError::Rejected {
            code: ErrorCode::TooManyConnections,
            ..
        }) => {}
        Err(other) => panic!("expected TooManyConnections, got {other}"),
        Ok(_) => panic!("second connection must be refused"),
    }
    first.goodbye().expect("goodbye");
    let report = server.shutdown();
    assert_eq!(report.connection_rejections, 1);
}

/// A version the server does not speak is refused with a typed mismatch
/// error during the handshake.
/// A peer that accepts and never answers costs a dialer its bound, not a
/// hang: the connect lands in the listener's backlog, and the handshake's
/// read times out. Run on a thread with a deadline, so a dial that hangs
/// fails the test instead of stalling it.
#[test]
fn dialing_a_silent_listener_fails_within_its_bound() {
    use std::time::{Duration, Instant};
    let silent = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = silent.local_addr().expect("addr").to_string();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let started = Instant::now();
        let dialed = Connection::dial(&addr, Duration::from_millis(300)).map(|_| ());
        let _ = tx.send((dialed, started.elapsed()));
    });
    let (dialed, took) = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the dial returns before the deadline");
    assert!(matches!(dialed, Err(ClientError::Io(_))), "{dialed:?}");
    assert!(took < Duration::from_secs(5), "{took:?}");
    drop(silent);
}

#[test]
fn version_mismatch_is_refused_at_handshake() {
    let server_tasm = store("remote-version", config());
    let server = TasmServer::bind(
        Arc::clone(&server_tasm),
        ServiceConfig::default(),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("bind");

    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    Message::ClientHello {
        version: VERSION + 1,
    }
    .write_to(&mut stream)
    .expect("hello");
    match Message::read_from(&mut stream).expect("reply") {
        Message::Error {
            code: ErrorCode::VersionMismatch,
            ..
        } => {}
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    // The server closed the session afterwards.
    match Message::read_from(&mut stream) {
        Err(ProtoError::Io(_)) => {}
        other => panic!("expected closed stream, got {other:?}"),
    }
    server.shutdown();
}

/// Unknown videos and graceful shutdown surface as typed errors; the load
/// generator's pooled workers and latency accounting hold together under
/// a real burst.
#[test]
fn loadgen_drives_the_server_and_reports_latency() {
    let server_tasm = store("remote-loadgen", config());
    let server = TasmServer::bind(
        Arc::clone(&server_tasm),
        ServiceConfig {
            workers: 2,
            queue_depth: 16,
            retile: RetilePolicy::More,
            ..Default::default()
        },
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = server.local_addr();

    // Unknown video: typed, not fatal to the session.
    let mut conn = Connection::connect(addr).expect("connect");
    match conn.query("nope", &Query::new(LabelPredicate::label("car"))) {
        Err(ClientError::Rejected {
            code: ErrorCode::UnknownVideo,
            ..
        }) => {}
        other => panic!("expected UnknownVideo, got {other:?}"),
    }
    conn.goodbye().expect("goodbye");

    let report = LoadGen::new(LoadGenConfig {
        connections: 4,
        requests: 32,
        video: "v".to_string(),
        query: Query::new(LabelPredicate::label("car")),
        window: 20,
        frames: FRAMES,
        reconnect_attempts: 0,
    })
    .run(addr)
    .expect("loadgen run");
    assert_eq!(report.completed, 32);
    assert_eq!(report.failed, 0);
    assert_eq!(report.latency.count, 32);
    assert!(report.latency.p50() <= report.latency.p99());
    assert!(report.throughput() > 0.0);

    let server_report = server.shutdown();
    let stats = server_report.service.stats;
    // 32 loadgen queries completed server-side too (the unknown-video one
    // failed).
    assert_eq!(stats.completed, 32);
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.latency.count, 32);
    // Client-observed latency includes the wire, so its mean can only be
    // at or above the server's submit→complete mean.
    assert!(report.latency.mean() >= stats.latency.mean());
}

/// Every remote query comes back with a per-phase trace: client-supplied
/// trace ids are echoed, server-assigned ids are distinct, the instance
/// tag names the serving address, the epoch matches the result, and the
/// phase decomposition is bounded by the measured total.
#[test]
fn remote_queries_carry_a_consistent_trace() {
    let server_tasm = store("remote-trace", config());
    let server = TasmServer::bind(
        Arc::clone(&server_tasm),
        ServiceConfig {
            workers: 2,
            queue_depth: 16,
            ..Default::default()
        },
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut conn = Connection::connect(addr).expect("connect");
    let q = Query::new(LabelPredicate::label("car")).frames(0..FRAMES);

    // Client-supplied trace id round-trips.
    let tagged = conn
        .query_traced("v", &q, Some(0xCAFE))
        .expect("tagged query");
    let trace = tagged.trace.expect("trace attached");
    assert_eq!(trace.trace_id, 0xCAFE);
    assert_eq!(trace.instance, addr.to_string());
    assert_eq!(trace.epoch, tagged.epoch);
    // The phase sum is a decomposition of (at most) the measured total:
    // total covers admission→completion and stream is measured after it.
    assert!(
        trace.phase_sum() <= trace.total_micros + trace.stream_micros,
        "phase sum {} exceeds total {} + stream {}",
        trace.phase_sum(),
        trace.total_micros,
        trace.stream_micros,
    );
    // Decode dominates a cold pixel query; the phase must be non-trivial.
    assert!(trace.decode_micros > 0, "decode phase was never measured");

    // Server-assigned ids are distinct across queries.
    let a = conn.query_traced("v", &q, None).expect("query a");
    let b = conn.query_traced("v", &q, None).expect("query b");
    let (ta, tb) = (a.trace.expect("trace a"), b.trace.expect("trace b"));
    assert_ne!(ta.trace_id, tb.trace_id);
    assert_eq!(ta.instance, addr.to_string());

    conn.goodbye().expect("goodbye");
    server.shutdown();
}

// --- Response buffers across answers on one connection ---------------------
//
// A server may keep an answer's buffers (region canvases, encoded frames)
// for the next answer. The sequence below is chosen so that any stale byte,
// short fill or buffer handed out while still queued shows: the largest
// answer first, then a single region, many small regions after few large
// ones, regions at the frame's right/bottom edge and overhanging it, a
// stride, two videos of different layouts interleaved, and a re-tile
// between two passes — with a session killed mid-stream and BUSY-refused
// queries in between. Every answer must equal `tasm_suite::Reference`'s at
// the same epoch.

const HAZARD_A_FRAMES: u32 = 60;
const HAZARD_B_FRAMES: u32 = 30;

/// Opens a store holding the named hazard videos: `a` (256×160, a
/// non-uniform 3×2 layout, extra labels built for the sequence) and `b`
/// (192×128, untiled).
fn hazard_store(tag: &str, videos: &[&str]) -> TestStore {
    let tasm = TestStore::open(
        tag,
        TasmConfig {
            cache_bytes: 64 << 20,
            ..config()
        },
    );
    if videos.contains(&"a") {
        let video = scene60();
        let layout = tasm_codec::TileLayout::new(vec![64, 128, 64], vec![96, 64]).unwrap();
        tasm.ingest_with("a", &video, 30, |_, _| layout.clone())
            .unwrap();
        index_ground_truth(&tasm, "a", &video);
        for f in 0..40 {
            tasm.add_metadata("a", "whole", f, Rect::new(0, 0, 256, 160))
                .unwrap();
        }
        tasm.add_metadata("a", "lone", 17, Rect::new(101, 33, 37, 21))
            .unwrap();
        for f in 0..20 {
            for i in 0..24 {
                let speck = Rect::new(3 + 10 * i, 5 + (6 * i + f) % 140, 7, 5);
                tasm.add_metadata("a", "speck", f, speck).unwrap();
            }
        }
        for f in (0..HAZARD_A_FRAMES).step_by(3) {
            for edge in [
                Rect::new(249, 3 + 2 * f, 7, 9),
                Rect::new(5 + 4 * f, 153, 11, 7),
                Rect::new(251, 155, 5, 5),
            ] {
                tasm.add_metadata("a", "edge", f, edge).unwrap();
            }
            for over in [
                Rect::new(240, 150, 40, 30),
                Rect::new(255, 159, 9, 9),
                Rect::new(100 + f, 131, 31, 77),
            ] {
                tasm.add_metadata("a", "over", f, over).unwrap();
            }
        }
    }
    if videos.contains(&"b") {
        ingest(&tasm, "b", &scene(192, 128, HAZARD_B_FRAMES, 91));
    }
    tasm
}

fn hazard_sequence() -> Vec<(&'static str, Query)> {
    let q = |label: &str, frames: std::ops::Range<u32>| {
        Query::new(LabelPredicate::label(label)).frames(frames)
    };
    vec![
        ("a", q("whole", 0..40)),
        ("a", q("lone", 0..HAZARD_A_FRAMES)),
        ("a", q("whole", 0..2)),
        ("a", q("speck", 0..20)),
        (
            "a",
            q("edge", 0..HAZARD_A_FRAMES).roi(Rect::new(128, 80, 128, 80)),
        ),
        ("a", q("edge", 0..HAZARD_A_FRAMES)),
        (
            "a",
            q("car", 0..HAZARD_A_FRAMES).roi(Rect::new(96, 60, 96, 80)),
        ),
        ("a", q("over", 0..HAZARD_A_FRAMES)),
        ("a", q("car", 3..HAZARD_A_FRAMES).stride(5)),
        ("b", q("car", 0..HAZARD_B_FRAMES)),
        ("a", q("person", 0..HAZARD_A_FRAMES)),
        ("b", q("person", 1..HAZARD_B_FRAMES).stride(2)),
        ("a", q("speck", 5..9)),
        ("b", q("car", 0..HAZARD_B_FRAMES).limit(3)),
        ("a", q("whole", 30..40)),
    ]
}

/// Pipelines `burst` whole-frame queries down a raw session without reading
/// replies, reads until `until` says the frames seen so far suffice, and
/// drops the socket with the rest of the stream unread.
fn abandoned_session(
    addr: std::net::SocketAddr,
    burst: u64,
    until: impl Fn(u32, u32) -> bool,
) -> (u32, u32) {
    let mut stream = TcpStream::connect(addr).expect("raw connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("read timeout");
    Message::ClientHello { version: VERSION }
        .write_to(&mut stream)
        .expect("hello");
    assert!(matches!(
        Message::read_from(&mut stream).expect("server hello"),
        Message::ServerHello { .. }
    ));
    for id in 0..burst {
        Message::Query {
            id,
            video: "a".to_string(),
            query: Query::new(LabelPredicate::label("whole")).frames(0..40),
            trace_id: None,
        }
        .write_to(&mut stream)
        .expect("pipelined query");
    }
    let (mut busy, mut regions) = (0u32, 0u32);
    while !until(busy, regions) {
        match Message::read_from(&mut stream).expect("response frame") {
            Message::Error {
                code: ErrorCode::Busy,
                ..
            } => busy += 1,
            Message::Region { .. } => regions += 1,
            Message::ResultHeader { .. } | Message::ResultDone { .. } => {}
            other => panic!("unexpected frame {other:?}"),
        }
    }
    (busy, regions)
}

/// Runs the hazard sequence twice over one connection to `front`, a
/// re-tile of `a` between the passes, sessions abandoned mid-stream and
/// BUSY refusals (provoked on `shard_a`, the server holding `a`) between
/// answers, holding every answer to the reference of the store serving
/// its video: `serving[0]` holds `a`, `serving[1]` holds `b`.
fn recycled_answers_match_the_reference(
    front: std::net::SocketAddr,
    shard_a: std::net::SocketAddr,
    serving: [&TestStore; 2],
    what: &str,
) {
    let mut references = serving.map(|s| Reference::new(s));
    let mut conn = Connection::connect(front).expect("connect");
    for pass in 0..2 {
        for (step, (video, query)) in hazard_sequence().into_iter().enumerate() {
            if step % 5 == 1 {
                // One session dropped with a multi-MB answer half read...
                abandoned_session(front, 1, |_, regions| regions >= 2);
                // ...and one that overruns the one-deep queue first.
                let (busy, _) =
                    abandoned_session(shard_a, 8, |busy, regions| busy >= 1 && regions >= 1);
                assert!(busy >= 1, "{what}: the burst must see BUSY");
            }
            let remote = loop {
                match conn.query(video, &query) {
                    Ok(remote) => break remote,
                    Err(e) if e.is_busy() => {
                        std::thread::sleep(std::time::Duration::from_millis(2))
                    }
                    Err(e) => panic!("{what}: pass {pass} step {step}: {e}"),
                }
            };
            let i = usize::from(video == "b");
            let pin = serving[i].pin_epoch(video, None).expect("pin");
            let expected = references[i].answer(&pin, &query);
            let what = format!("{what}: pass {pass} step {step}");
            assert_eq!(remote.epoch, pin.epoch(), "{what}: epoch");
            assert!(
                !expected.regions.is_empty(),
                "{what}: the step returns pixels"
            );
            expected.check(remote.matched, &remote.regions, &what);
        }
        // SOTs 0 and 3 of `a` change layout (and epoch) between two
        // answers on the open connection.
        for sot in [0, 3] {
            let layout = tasm_codec::TileLayout::uniform(256, 160, 2, 2).unwrap();
            serving[0].retile("a", sot, layout).expect("retile");
        }
    }
    conn.goodbye().expect("goodbye");
}

fn one_deep_service() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_depth: 1,
        ..Default::default()
    }
}

#[test]
fn answers_on_one_connection_never_show_an_earlier_answers_bytes() {
    let serving = hazard_store("remote-hazard", &["a", "b"]);
    let server = TasmServer::bind(
        Arc::clone(&serving),
        one_deep_service(),
        ServerConfig {
            max_inflight: 32,
            ..Default::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = server.local_addr();
    recycled_answers_match_the_reference(addr, addr, [&serving, &serving], "server");
    let report = server.shutdown();
    assert_eq!(report.service.stats.failed, 0);
    assert!(report.busy_rejections > 0);
}

#[test]
fn answers_relayed_by_a_router_never_show_an_earlier_answers_bytes() {
    use tasm_cluster::{NodeInfo, Router, RouterConfig, ShardMap};
    let cluster = TempDir::new("remote-hazard-cluster");
    let stores = [
        hazard_store("remote-hazard-n1", &["a"]),
        hazard_store("remote-hazard-n2", &["b"]),
    ];
    let shards: Vec<TasmServer> = stores
        .iter()
        .map(|tasm| {
            TasmServer::bind(
                Arc::clone(tasm),
                one_deep_service(),
                ServerConfig {
                    max_inflight: 32,
                    ..Default::default()
                },
                "127.0.0.1:0",
            )
            .expect("bind shard")
        })
        .collect();
    let nodes = shards
        .iter()
        .enumerate()
        .map(|(i, shard)| NodeInfo {
            id: format!("n{}", i + 1),
            addr: shard.local_addr().to_string(),
        })
        .collect();
    let mut map = ShardMap::new(nodes, 1).unwrap();
    map.pin("a", vec!["n1".to_string()]);
    map.pin("b", vec!["n2".to_string()]);
    let map_path = cluster.path().join("cluster.json");
    map.save(&map_path).unwrap();
    let router = Router::bind(
        RouterConfig {
            map_path,
            ..Default::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind router");
    recycled_answers_match_the_reference(
        router.local_addr(),
        shards[0].local_addr(),
        [&stores[0], &stores[1]],
        "router",
    );
    router.shutdown(false);
    for shard in shards {
        assert_eq!(shard.shutdown().service.stats.failed, 0);
    }
}
