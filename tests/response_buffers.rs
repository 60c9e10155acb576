//! What the serving path keeps between answers, and what it gives back.
//!
//! A store keeps the region canvases of finished answers and an output
//! queue keeps the buffers of frames it has written, each up to a stated
//! constant, so the next answer does not go through the allocator. The
//! contract under test: the bounds hold after multi-MB answers, the two
//! gauges on the metrics page say what is held, a session the write-stall
//! deadline closes with responses half-streamed returns what it held, and
//! none of it shows in another session's answers.
//!
//! The gauges are process-wide, so this file is its own test binary and its
//! tests take turns.

use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tasm_client::Connection;
use tasm_cluster::{NodeInfo, Router, RouterConfig, ShardMap};
use tasm_core::{LabelPredicate, Query, RegionPixels, Tasm, TasmConfig, CANVAS_POOL_BYTES};
use tasm_obs::sync;
use tasm_proto::nio::WIRE_POOL_BYTES;
use tasm_proto::{Message, VERSION};
use tasm_server::{ServerConfig, TasmServer};
use tasm_service::ServiceConfig;
use tasm_suite::{assert_regions_identical, config, ingest, scene, TempDir, TestStore};
use tasm_video::Rect;

const FRAMES: u32 = 60;
const CANVAS_GAUGE: &str = "tasm_response_canvas_bytes_retained";
const WIRE_GAUGE: &str = "tasm_wire_buffer_bytes_retained";

static TURN: Mutex<()> = Mutex::new(());

/// A 256×160 clip with its ground truth and a `whole` box on every frame:
/// a `whole` query returns 60 full frames, 3.7 MB of pixels.
fn store(tag: &str, cache_bytes: u64) -> TestStore {
    let tasm = TestStore::open(
        tag,
        TasmConfig {
            cache_bytes,
            ..config()
        },
    );
    ingest(&tasm, "v", &scene(256, 160, FRAMES, 47));
    for f in 0..FRAMES {
        tasm.add_metadata("v", "whole", f, Rect::new(0, 0, 256, 160))
            .unwrap();
    }
    tasm
}

fn whole() -> Query {
    Query::new(LabelPredicate::label("whole")).frames(0..FRAMES)
}

fn reference(twin: &Tasm, query: &Query) -> Vec<RegionPixels> {
    twin.scan("v", query.predicate(), query.frame_range())
        .expect("twin scan")
        .regions
}

fn assert_answer(conn: &mut Connection, query: &Query, expected: &[RegionPixels], what: &str) {
    let remote = conn.query("v", query).expect(what);
    assert_regions_identical(expected, &remote.regions, what);
}

/// The value the metrics page shows for a gauge.
fn gauge(name: &str) -> i64 {
    let page = tasm_obs::render();
    let line = page
        .lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .unwrap_or_else(|| panic!("{name} is not on the metrics page:\n{page}"));
    line[name.len()..].trim().parse().expect("a gauge value")
}

fn wait_for(what: &str, deadline: Duration, done: impl Fn() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(start.elapsed() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn serve(tasm: &Arc<Tasm>) -> TasmServer {
    TasmServer::bind(
        Arc::clone(tasm),
        ServiceConfig {
            workers: 2,
            ..Default::default()
        },
        ServerConfig {
            max_inflight: 32,
            ..Default::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind")
}

/// Three clients pull 3.7 MB answers at once — two through a router, one
/// from the shard — and everyone goes idle: the store holds canvases, no
/// more than its bound; the queues hold frame buffers, no more than theirs;
/// the gauges agree; and closing everything returns the gauges to zero.
#[test]
fn an_idle_server_and_router_keep_at_most_the_stated_bytes() {
    let _turn = sync::lock(&TURN);
    let twin = store("buffers-idle-twin", 0);
    let expected = reference(&twin, &whole());
    assert!(expected.len() == FRAMES as usize);
    let serving = store("buffers-idle", 64 << 20);
    let shard = serve(&serving);
    let cluster = TempDir::new("buffers-cluster");
    let map_path = cluster.path().join("cluster.json");
    let node = NodeInfo {
        id: "n1".to_string(),
        addr: shard.local_addr().to_string(),
    };
    ShardMap::new(vec![node], 1)
        .unwrap()
        .save(&map_path)
        .unwrap();
    let router = Router::bind(
        RouterConfig {
            map_path,
            route_workers: 2,
            ..Default::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind router");

    let addrs = [router.local_addr(), router.local_addr(), shard.local_addr()];
    let mut conns: Vec<Connection> = std::thread::scope(|scope| {
        let clients: Vec<_> = addrs
            .iter()
            .map(|&addr| {
                let expected = &expected;
                scope.spawn(move || {
                    let mut conn = Connection::connect(addr).expect("connect");
                    for round in 0..2 {
                        assert_answer(&mut conn, &whole(), expected, &format!("round {round}"));
                    }
                    conn
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });

    // Idle: the last response has been dropped once its canvases are back.
    let canvases = serving.store().canvases();
    wait_for("canvases return", Duration::from_secs(10), || {
        canvases.retained_bytes() > CANVAS_POOL_BYTES / 2
    });
    std::thread::sleep(Duration::from_millis(100));
    let kept = canvases.retained_bytes();
    assert!(kept <= CANVAS_POOL_BYTES, "{kept} canvas bytes kept");
    assert_eq!(gauge(CANVAS_GAUGE), kept as i64);
    // Three client sessions and at most two router-to-shard ones.
    let wire = gauge(WIRE_GAUGE);
    assert!(
        wire > 0 && wire <= 5 * WIRE_POOL_BYTES as i64,
        "{wire} frame-buffer bytes kept"
    );
    // What is kept serves the next answers, which are still exact.
    for (i, conn) in conns.iter_mut().enumerate() {
        assert_answer(
            conn,
            &whole(),
            &expected,
            &format!("after idle, client {i}"),
        );
    }

    for conn in conns {
        conn.goodbye().expect("goodbye");
    }
    router.shutdown(false);
    shard.shutdown();
    assert_eq!(gauge(WIRE_GAUGE), 0, "closed queues keep nothing");
    drop(serving);
    assert_eq!(gauge(CANVAS_GAUGE), 0, "a closed store keeps nothing");
}

/// A client that pipelines 30 MB of answers and never reads is closed by
/// the write-stall deadline with responses queued and half-streamed. While
/// it stalls, another session's answers are exact; once it is closed, the
/// canvases it held are back in the store's pool (up to the bound), its
/// queue's buffers are off the gauge, and the other session's answers are
/// still exact.
#[test]
fn a_session_closed_for_a_write_stall_returns_what_it_held() {
    let _turn = sync::lock(&TURN);
    let twin = store("buffers-stall-twin", 0);
    let car = Query::new(LabelPredicate::label("car")).frames(0..FRAMES);
    let (expected_whole, expected_car) = (reference(&twin, &whole()), reference(&twin, &car));
    let serving = store("buffers-stall", 64 << 20);
    let server = serve(&serving);
    let canvases = serving.store().canvases();

    let mut stalled = raw_session(server.local_addr());
    for id in 0..8 {
        Message::Query {
            id,
            video: "v".to_string(),
            query: whole(),
            trace_id: None,
        }
        .write_to(&mut stalled)
        .expect("pipelined query");
    }
    let mut other = Connection::connect(server.local_addr()).expect("connect");
    let stall_began = Instant::now();
    while stall_began.elapsed() < Duration::from_secs(2) {
        assert_answer(&mut other, &car, &expected_car, "beside the stall");
    }
    // The stalled session's answers are queued, not in the pool: it holds
    // what the small answers beside it cycle through, and no more.
    let beside = canvases.retained_bytes();
    assert!(
        beside < CANVAS_POOL_BYTES / 4,
        "{beside} canvas bytes kept mid-stall"
    );

    wait_for(
        "the stalled session is closed",
        Duration::from_secs(30),
        || canvases.retained_bytes() > CANVAS_POOL_BYTES / 2,
    );
    assert!(
        stall_began.elapsed() > Duration::from_secs(5),
        "closed by the write-stall deadline, not before"
    );
    std::thread::sleep(Duration::from_millis(100));
    let kept = canvases.retained_bytes();
    assert!(kept <= CANVAS_POOL_BYTES, "{kept} canvas bytes kept");
    assert_eq!(gauge(CANVAS_GAUGE), kept as i64);
    let wire = gauge(WIRE_GAUGE);
    assert!(
        wire <= WIRE_POOL_BYTES as i64,
        "{wire} frame-buffer bytes kept by the one open session"
    );
    assert_answer(&mut other, &whole(), &expected_whole, "after the stall");
    assert_answer(&mut other, &car, &expected_car, "after the stall");

    drop(stalled);
    other.goodbye().expect("goodbye");
    server.shutdown();
    assert_eq!(gauge(WIRE_GAUGE), 0);
}

fn raw_session(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("raw connect");
    Message::ClientHello { version: VERSION }
        .write_to(&mut stream)
        .expect("hello");
    assert!(matches!(
        Message::read_from(&mut stream).expect("server hello"),
        Message::ServerHello { .. }
    ));
    stream
}
