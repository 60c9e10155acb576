//! Panic isolation: a panic costs the one call it fires in — never the
//! process, and never a later query.
//!
//! Every lock goes through `tasm_obs::sync`, so a lock a panic poisoned is
//! taken as is, or reset when it holds soft state. The panics are injected
//! through two seams the store already has: a `SemanticIndex` double that
//! panics whenever it is asked about one label, and the fault injector
//! `FaultIo` armed to panic at one mutating operation of a re-tile.
//!
//! Served, a panic inside query execution is a *per-query* failure: the
//! submitting session receives a typed `Internal` error frame and keeps
//! serving subsequent queries bit-exactly, other sessions are untouched,
//! no in-flight slot leaks (shutdown drains cleanly instead of hanging on
//! a stranded counter), and the index lock the unwinding worker poisoned
//! does not cascade into later queries. In process, the same holds for a
//! panic under the policy lock and under the commit lock. Beside these sit
//! the reactor's scaling checks: threads grow with workers, not sessions,
//! and answers stay bit-exact with 256 sessions open.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tasm_client::{ClientError, Connection};
use tasm_codec::TileLayout;
use tasm_core::durable::{FaultIo, FaultKind, RealIo, StorageIo};
use tasm_core::{LabelPredicate, Query, Tasm, TasmConfig, TasmError};
use tasm_index::{Detection, IndexResult, LabeledDetection, MemoryIndex, SemanticIndex};
use tasm_obs::sync;
use tasm_proto::ErrorCode;
use tasm_server::{ServerConfig, TasmServer};
use tasm_service::{QueryRequest, QueryService, RetilePolicy, ServiceConfig, Shutdown};
use tasm_suite::{assert_regions_identical, config, ingest, scene, TempDir, TestStore};
use tasm_video::Rect;

const FRAMES: u32 = 60;

/// The index double panics whenever it is asked about this label.
const POISON_LABEL: &str = "panic-me";

/// The in-memory index, except that a query for [`POISON_LABEL`] panics
/// inside the index call, under the facade's index lock.
struct PanickingIndex(MemoryIndex);

impl SemanticIndex for PanickingIndex {
    fn add_metadata(&mut self, video: u32, label: &str, frame: u32, bbox: Rect) -> IndexResult<()> {
        self.0.add_metadata(video, label, frame, bbox)
    }

    fn query(
        &mut self,
        video: u32,
        label: &str,
        frames: Range<u32>,
    ) -> IndexResult<Vec<Detection>> {
        assert_ne!(label, POISON_LABEL, "the index double panics on this label");
        self.0.query(video, label, frames)
    }

    fn query_all(&mut self, video: u32, frames: Range<u32>) -> IndexResult<Vec<LabeledDetection>> {
        self.0.query_all(video, frames)
    }

    fn labels(&mut self, video: u32) -> IndexResult<Vec<String>> {
        self.0.labels(video)
    }

    fn mark_processed(&mut self, video: u32, frame: u32) -> IndexResult<()> {
        self.0.mark_processed(video, frame)
    }

    fn processed_count(&mut self, video: u32, frames: Range<u32>) -> IndexResult<u32> {
        self.0.processed_count(video, frames)
    }

    fn detection_count(&self) -> u64 {
        self.0.detection_count()
    }

    fn flush(&mut self) -> IndexResult<()> {
        self.0.flush()
    }
}

/// A store over the panicking index, writing through `io`, holding the
/// scene as every video in `videos`.
fn store_with(tag: &str, io: Arc<dyn StorageIo>, videos: &[&str]) -> TestStore {
    let dir = TempDir::new(tag);
    let index = Box::new(PanickingIndex(MemoryIndex::in_memory()));
    let tasm = Tasm::open_with_io(dir.path(), index, config(), io).expect("open a store");
    for name in videos {
        ingest(&tasm, name, &scene(256, 160, FRAMES, 47));
    }
    TestStore {
        tasm: Arc::new(tasm),
        dir,
    }
}

/// The scene ingested as `v` into a store of its own.
fn store(tag: &str) -> TestStore {
    store_with(tag, Arc::new(RealIo), &["v"])
}

fn cars(frames: Range<u32>) -> Query {
    Query::new(LabelPredicate::label("car")).frames(frames)
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

/// A panic inside the index, under the index lock, fails the one query it
/// fires in. The next queries, on that video and on another, answer
/// bit-exact against a twin that never panicked.
#[test]
fn a_query_that_panics_in_the_index_costs_only_itself() {
    let videos = ["v", "w"];
    let tasm = store_with("panic-index", Arc::new(RealIo), &videos);
    let twin = store_with("panic-index-twin", Arc::new(RealIo), &videos);
    let poisoned = Query::new(LabelPredicate::label(POISON_LABEL)).frames(0..FRAMES);
    let panicked = catch_unwind(AssertUnwindSafe(|| tasm.query("v", &poisoned)));
    assert!(
        panicked.is_err(),
        "the index double panics inside the query"
    );
    for name in videos {
        for window in [0..FRAMES, 11..37] {
            let what = format!("video {name}, frames {window:?}");
            let got = tasm.query(name, &cars(window.clone()));
            let got = got.unwrap_or_else(|e| panic!("{what}: {e}"));
            let want = twin.query(name, &cars(window)).expect("twin query");
            assert_eq!(got.matched, want.matched, "{what}: matched");
            assert_regions_identical(&want.regions, &got.regions, &what);
        }
    }
}

/// A panic under the policy lock — inside `observe_regret`, where the index
/// double fires while the alternatives are priced — puts that video's
/// policy back where a restart would: the next observation returns `Ok`,
/// and its regret equals a fresh store's after that one observation.
#[test]
fn a_panic_inside_observe_regret_resets_that_policy() {
    let tasm = store("panic-policy");
    let fresh = store("panic-policy-fresh");
    let car = ["car".to_string()];
    tasm.observe_regret("v", "car", 0..10).unwrap();
    tasm.observe_regret("v", "car", 0..10).unwrap();
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        tasm.observe_regret("v", POISON_LABEL, 0..10)
    }));
    assert!(
        panicked.is_err(),
        "the index double panics inside observe_regret"
    );
    tasm.observe_regret("v", "car", 0..10)
        .expect("the next observation returns Ok");
    fresh.observe_regret("v", "car", 0..10).unwrap();
    let got = tasm.regret_for("v", 0, &car).map(f64::to_bits);
    assert!(got.is_some(), "the observation priced the car layout");
    assert_eq!(got, fresh.regret_for("v", 0, &car).map(f64::to_bits));
}

/// The same epoch, the same answers bit for bit, and the same `fsck`.
fn assert_same(tasm: &Tasm, twin: &Tasm, what: &str) {
    let epochs = [tasm, twin].map(|t| t.current_epoch("v").unwrap());
    assert_eq!(epochs[0], epochs[1], "{what}: epoch");
    for window in [0..FRAMES, 3..14] {
        let got = tasm.query("v", &cars(window.clone()));
        let got = got.unwrap_or_else(|e| panic!("{what}: {e}"));
        let want = twin.query("v", &cars(window)).expect("twin query");
        assert_regions_identical(&want.regions, &got.regions, what);
    }
    let [got, want] = [tasm, twin].map(|t| t.fsck().unwrap());
    assert_eq!(got.tiles_checked, want.tiles_checked, "{what}: fsck");
    assert_eq!(got.issues, want.issues, "{what}: fsck");
}

/// A panic at each mutating operation of one re-tile — under the policy
/// and commit locks — leaves the store as an I/O error at that operation
/// does: the next query and the next re-tile answer bit-exact against the
/// store that saw the error, and `fsck` reports the same of both.
#[test]
fn a_retile_that_panics_at_any_io_step_leaves_what_an_io_error_leaves() {
    let first = TileLayout::uniform(256, 160, 2, 2).unwrap();
    let next = TileLayout::uniform(256, 160, 1, 2).unwrap();
    for k in 1.. {
        let (panicking, failing) = (FaultIo::new(), FaultIo::new());
        let tasm = store_with(&format!("panic-retile-{k}"), panicking.clone(), &["v"]);
        let twin = store_with(&format!("panic-retile-twin-{k}"), failing.clone(), &["v"]);
        panicking.arm(panicking.mutating_ops() + k, FaultKind::Panic);
        failing.arm(failing.mutating_ops() + k, FaultKind::Error);
        let panicked = catch_unwind(AssertUnwindSafe(|| tasm.retile("v", 0, first.clone())));
        let failed = twin.retile("v", 0, first.clone());
        if panicked.is_ok() {
            // Past the re-tile's last mutating operation: all were swept.
            assert!(failed.is_ok());
            assert!(k > 4, "a re-tile writes a pack, then commits a manifest");
            break;
        }
        let what = format!("stopped at mutating operation {k}");
        assert_same(&tasm, &twin, &what);
        let got = tasm
            .retile("v", 0, next.clone())
            .map_err(|e: TasmError| e.to_string());
        let want = twin.retile("v", 0, next.clone()).map_err(|e| e.to_string());
        assert_eq!(got.is_ok(), want.is_ok(), "{what}: the next re-tile");
        assert_same(&tasm, &twin, &format!("{what}, then re-tiled"));
    }
}

/// A panic inside `observe_regret` on the re-tile daemon's thread — the
/// re-tile's first write panics, under the policy and commit locks — costs
/// that observation only: it is counted as a re-tile error, the daemon
/// lives on, and the next observation commits a re-tile. (The index
/// double cannot fire there from the daemon: a query for its label panics
/// before it is observed.)
#[test]
fn a_panic_inside_observe_regret_leaves_the_retile_daemon_running() {
    let io = FaultIo::new();
    let dir = TempDir::new("panic-daemon");
    let index = Box::new(PanickingIndex(MemoryIndex::in_memory()));
    // One observation is regret enough to re-tile.
    let cfg = TasmConfig {
        eta: 0.01,
        ..config()
    };
    let tasm = Arc::new(Tasm::open_with_io(dir.path(), index, cfg, io.clone()).expect("open"));
    ingest(&tasm, "v", &scene(256, 160, FRAMES, 47));
    let service = QueryService::start(
        Arc::clone(&tasm),
        ServiceConfig {
            workers: 1,
            queue_depth: 4,
            retile: RetilePolicy::Regret,
            ..Default::default()
        },
    );
    let car = || {
        let handle = service.submit(QueryRequest::new("v", cars(0..10)));
        handle.expect("submit").wait().expect("the query answers");
    };
    io.arm(io.mutating_ops() + 1, FaultKind::Panic);
    car();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while service.stats().retile_errors == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "the daemon never reported the panicked re-tile"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(tasm.current_epoch("v").unwrap(), 0, "nothing committed");
    car();
    let stats = service.shutdown(Shutdown::Drain).stats;
    assert_eq!(stats.retile_errors, 1, "only the injected panic failed");
    assert!(
        stats.retile_ops >= 1,
        "the next observation re-tiled: {stats:?}"
    );
    assert!(tasm.current_epoch("v").unwrap() > 0);
}

/// The reset form runs its reset once, on the first lock after the panic,
/// and leaves the lock clean; the plain form hands the data back as the
/// panic left it.
#[test]
fn soft_state_is_reset_once_and_the_rest_is_taken_as_is() {
    let (soft, kept) = (Mutex::new(vec![1, 2]), Mutex::new(vec![1, 2]));
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        let (mut soft, mut kept) = (sync::lock(&soft), sync::lock(&kept));
        soft.push(3);
        kept.push(3);
        panic!("a panic under both locks");
    }));
    assert!(panicked.is_err() && soft.is_poisoned() && kept.is_poisoned());
    let resets = AtomicU64::new(0);
    let reset = |v: &mut Vec<i32>| {
        resets.fetch_add(1, Ordering::SeqCst);
        v.clear();
    };
    assert!(sync::lock_or_reset(&soft, reset).is_empty());
    assert!(!soft.is_poisoned());
    sync::lock_or_reset(&soft, reset).push(4);
    assert_eq!(*sync::lock_or_reset(&soft, reset), [4]);
    assert_eq!(resets.load(Ordering::SeqCst), 1);
    assert_eq!(*sync::lock(&kept), [1, 2, 3]);
}
