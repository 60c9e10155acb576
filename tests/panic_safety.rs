//! Panic isolation in the serving layer.
//!
//! The contract under test: a panic inside query execution (injected via
//! `ServiceConfig::test_panic_injector`) is a *per-query* failure — the
//! submitting session receives a typed `Internal` error frame and keeps
//! serving subsequent queries bit-exactly, other sessions are untouched,
//! no in-flight slot leaks (shutdown drains cleanly instead of hanging on
//! a stranded counter), and no lock poisoned by the unwinding worker
//! cascades into later queries. Beside it sit the reactor's scaling
//! checks: threads grow with workers, not sessions, and answers stay
//! bit-exact with 256 sessions open.

use std::sync::Arc;
use tasm_client::{ClientError, Connection};
use tasm_core::{LabelPredicate, Query};
use tasm_proto::ErrorCode;
use tasm_server::{ServerConfig, TasmServer};
use tasm_service::{QueryRequest, ServiceConfig};
use tasm_suite::{assert_regions_identical, config, ingest, scene, TestStore};

const FRAMES: u32 = 60;

/// Queries for this label panic inside the worker instead of executing.
const POISON_LABEL: &str = "panic-me";

fn inject(req: &QueryRequest) -> bool {
    req.query.predicate().labels().contains(&POISON_LABEL)
}

/// The scene ingested into a store of its own.
fn store(tag: &str) -> TestStore {
    let tasm = TestStore::open(tag, config());
    ingest(&tasm, "v", &scene(256, 160, FRAMES, 47));
    tasm
}

/// Interleaves panicking and healthy queries on one session, checks the
/// panic surfaces as a typed `Internal` rejection and everything after it
/// still matches the in-process reference, then checks shutdown accounting
/// (no stranded in-flight slot, workers alive).
#[test]
fn panicked_query_is_isolated_reactor() {
    let server_tasm = store("panic-iso-server");
    let twin = store("panic-iso-twin");

    let server = TasmServer::bind(
        Arc::clone(&server_tasm),
        ServiceConfig {
            workers: 2,
            queue_depth: 16,
            test_panic_injector: Some(inject),
            ..Default::default()
        },
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    let mut conn = Connection::connect(addr).expect("connect");
    let healthy = Query::new(LabelPredicate::label("car")).frames(0..FRAMES);
    let poisoned = Query::new(LabelPredicate::label(POISON_LABEL)).frames(0..FRAMES);

    // Healthy → panic → healthy, three times over: each panicked query is
    // rejected with a typed error and the *same session* keeps serving
    // bit-exact results afterwards.
    for round in 0..3 {
        let what = format!("round {round} before panic");
        let before = conn.query("v", &healthy).expect("healthy query");
        let reference = twin.query("v", &healthy).expect("twin query");
        assert_eq!(before.matched, reference.matched, "{what}: matched");
        assert_regions_identical(&reference.regions, &before.regions, &what);

        match conn.query("v", &poisoned) {
            Err(ClientError::Rejected { code, .. }) => {
                assert_eq!(
                    code,
                    ErrorCode::Internal,
                    "round {round}: a panicked query fails with a typed Internal error"
                );
            }
            other => panic!("round {round}: expected typed rejection, got {other:?}"),
        }

        let what = format!("round {round} after panic");
        let after = conn
            .query("v", &healthy)
            .expect("session must survive the panic");
        assert_eq!(after.matched, reference.matched, "{what}: matched");
        assert_regions_identical(&reference.regions, &after.regions, &what);
    }

    // A *second* session opened after the panics is also unaffected —
    // nothing process-wide (a poisoned lock, a dead worker) leaked out.
    let mut conn2 = Connection::connect(addr).expect("second connect");
    let fresh = conn2.query("v", &healthy).expect("fresh session query");
    let reference = twin.query("v", &healthy).expect("twin query");
    assert_eq!(fresh.matched, reference.matched);
    conn2.goodbye().expect("goodbye");
    conn.goodbye().expect("goodbye");

    // Shutdown must drain promptly: a leaked inflight slot would strand the
    // drain wait. Run it on a watchdog thread so a
    // regression fails the test instead of hanging the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let report = server.shutdown();
        tx.send(()).unwrap();
        report
    });
    rx.recv_timeout(std::time::Duration::from_secs(30))
        .expect("shutdown must drain; a hang here means an inflight slot leaked");
    let report = handle.join().unwrap();
    assert_eq!(report.sessions_served, 2);
    let stats = report.service.stats;
    assert_eq!(stats.failed, 3, "exactly the injected panics fail");
    assert_eq!(stats.completed, 3 * 2 + 1, "every healthy query completes");
    assert_eq!(report.service.abandoned, 0, "no query abandoned at drain");
}

/// Counts this process's threads via `/proc/self/status` (Linux only —
/// elsewhere the check is skipped and the test asserts only connectivity).
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// The reactor's headline scaling property: session count does not show up
/// in the thread count. With dozens of idle-but-connected sessions the
/// process grows O(workers) threads, not O(connections) — the regression
/// this guards against is a thread per connection sneaking back in.
#[test]
fn reactor_threads_scale_with_workers_not_connections() {
    let server_tasm = store("panic-threads");

    let server = TasmServer::bind(
        Arc::clone(&server_tasm),
        ServiceConfig {
            workers: 2,
            queue_depth: 32,
            ..Default::default()
        },
        ServerConfig {
            max_connections: 256,
            ..Default::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    let baseline = thread_count();
    const SESSIONS: usize = 64;
    let mut conns: Vec<Connection> = (0..SESSIONS)
        .map(|_| Connection::connect(addr).expect("connect"))
        .collect();
    // Every session works once, proving all 64 are live multiplexed
    // sessions rather than queued accepts.
    let q = Query::new(LabelPredicate::label("car"))
        .frames(0..FRAMES)
        .mode(tasm_core::QueryMode::Count);
    for conn in &mut conns {
        conn.query("v", &q).expect("query on each session");
    }

    if let (Some(before), Some(now)) = (baseline, thread_count()) {
        let grown = now.saturating_sub(before);
        assert!(
            grown < SESSIONS / 2,
            "64 sessions must not add O(connections) threads \
             (baseline {before}, now {now}: +{grown})"
        );
    }

    for conn in conns {
        conn.goodbye().expect("goodbye");
    }
    let report = server.shutdown();
    assert_eq!(report.sessions_served as usize, SESSIONS);
    assert_eq!(report.service.stats.failed, 0);
}

/// Answers stay bit-identical while many sessions are open: 256 sessions
/// held at once (2 fds each in this process, inside the default 1,024
/// `nofile` soft limit), pixel queries at four windows through sessions
/// spread across that population, each answer compared byte for byte with
/// in-process `Tasm::query` on a twin store.
#[test]
fn answers_stay_bit_exact_with_256_sessions_open() {
    const SESSIONS: usize = 256;
    const WINDOW: u32 = 12;
    let server_tasm = store("panic-fanin-server");
    let twin = store("panic-fanin-twin");

    let server = TasmServer::bind(
        Arc::clone(&server_tasm),
        ServiceConfig {
            workers: 2,
            queue_depth: 32,
            ..Default::default()
        },
        ServerConfig {
            max_connections: SESSIONS,
            ..Default::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind ephemeral port");
    let mut conns: Vec<Connection> = (0..SESSIONS)
        .map(|_| Connection::connect(server.local_addr()).expect("connect"))
        .collect();
    for (i, start) in [0u32, 11, 23, 37].into_iter().enumerate() {
        let query = Query::new(LabelPredicate::label("car")).frames(start..start + WINDOW);
        let reference = twin.query("v", &query).expect("twin query");
        for s in [i, SESSIONS / 2 + i, SESSIONS - 1 - i] {
            let what = format!("session {s}, frames from {start}");
            let got = conns[s].query("v", &query).expect("remote query");
            assert_eq!(got.matched, reference.matched, "{what}: matched");
            assert_regions_identical(&reference.regions, &got.regions, &what);
        }
    }
    for conn in conns {
        conn.goodbye().expect("goodbye");
    }
    let report = server.shutdown();
    assert_eq!(report.sessions_served as usize, SESSIONS);
    assert_eq!(report.service.stats.failed, 0);
}
