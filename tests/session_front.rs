//! The session front both `tasm-proto` servers share, byte for byte.
//!
//! A `TasmServer` and a `Router` greet, refuse and close sessions with the
//! same frames, differing only in the name they give themselves and the
//! `max_inflight` they advertise. Each case below speaks raw frames over
//! loopback, half-closes, and compares everything the front sent before it
//! closed with the frames it must have sent.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;
use tasm_cluster::{NodeInfo, Router, RouterConfig, ShardMap};
use tasm_proto::{ErrorCode, Message, VERSION};
use tasm_server::{ServerConfig, TasmServer};
use tasm_service::ServiceConfig;
use tasm_suite::{config, TempDir, TestStore};

/// A payload no message tag decodes.
const GARBAGE: &[u8] = &[0xEE, 1, 2, 3];

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(payload);
    frame
}

fn error(code: ErrorCode, message: &str) -> Vec<u8> {
    Message::Error {
        id: None,
        code,
        message: message.to_string(),
    }
    .encode()
}

fn hello() -> Vec<u8> {
    Message::ClientHello { version: VERSION }.encode()
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

/// Sends `bytes`, half-closes, and returns everything the front sent
/// before it closed the session.
fn exchange(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = connect(addr);
    stream.write_all(bytes).expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("reply, then close");
    reply
}

/// Every case against one front. `name` is what the front calls itself,
/// `max_inflight` what its hello advertises; the front admits one
/// connection at a time.
fn check_front(addr: SocketAddr, name: &str, max_inflight: u32) {
    let server_hello = Message::ServerHello {
        version: VERSION,
        max_inflight,
    }
    .encode();
    let after_hello = |tail: &[u8]| [server_hello.clone(), tail.to_vec()].concat();
    let cases: Vec<(&str, Vec<u8>, Vec<u8>)> = vec![
        (
            "wrong-version hello",
            Message::ClientHello {
                version: VERSION + 1,
            }
            .encode(),
            error(
                ErrorCode::VersionMismatch,
                &format!(
                    "{name} speaks version {VERSION}, client sent {}",
                    VERSION + 1
                ),
            ),
        ),
        (
            "a first frame that is not a hello",
            Message::StatsRequest.encode(),
            error(ErrorCode::Malformed, "expected client hello"),
        ),
        (
            "an undecodable first frame",
            framed(GARBAGE),
            error(ErrorCode::Malformed, "expected client hello"),
        ),
        (
            "an undecodable frame after the hello",
            [hello(), framed(GARBAGE)].concat(),
            after_hello(&error(ErrorCode::Malformed, "undecodable frame")),
        ),
        (
            "a ServerHello from the client",
            [
                hello(),
                Message::ServerHello {
                    version: VERSION,
                    max_inflight: 1,
                }
                .encode(),
            ]
            .concat(),
            after_hello(&error(ErrorCode::Malformed, "unexpected frame")),
        ),
        (
            "Goodbye",
            [hello(), Message::Goodbye.encode()].concat(),
            server_hello.clone(),
        ),
    ];
    for (what, sent, expected) in cases {
        assert_eq!(exchange(addr, &sent), expected, "{name}: {what}");
    }

    // Over the connection cap: the refusal frame, then the close.
    let mut holder = connect(addr);
    holder.write_all(&hello()).expect("hello");
    let mut greeting = vec![0u8; server_hello.len()];
    holder.read_exact(&mut greeting).expect("admitted");
    assert_eq!(greeting, server_hello, "{name}: the admitted session");
    let mut refused = connect(addr);
    let mut reply = Vec::new();
    refused
        .read_to_end(&mut reply)
        .expect("refusal, then close");
    let limit = format!("{name} is at its connection limit");
    assert_eq!(
        reply,
        error(ErrorCode::TooManyConnections, &limit),
        "{name}: an over-cap connect"
    );
    holder
        .write_all(&Message::Goodbye.encode())
        .expect("goodbye");
    holder.shutdown(Shutdown::Write).expect("half-close");
    let mut rest = Vec::new();
    holder.read_to_end(&mut rest).expect("close");
    assert_eq!(rest, Vec::<u8>::new(), "{name}: Goodbye from the holder");

    // Last, since it asks the front to stop.
    let sent = [hello(), Message::ShutdownServer.encode()].concat();
    assert_eq!(
        exchange(addr, &sent),
        after_hello(&Message::Goodbye.encode()),
        "{name}: ShutdownServer"
    );
}

#[test]
fn server_replies_byte_for_byte() {
    let store = TestStore::open("front-server", config());
    let cfg = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let max_inflight = cfg.max_inflight;
    let server = TasmServer::bind(
        store.tasm.clone(),
        ServiceConfig::default(),
        cfg,
        "127.0.0.1:0",
    )
    .expect("bind server");
    check_front(server.local_addr(), "server", max_inflight);
    assert!(server.shutdown_requested());
    server.wait_shutdown_requested();
    let report = server.shutdown();
    // Hellos answered: the undecodable, ServerHello, Goodbye and
    // ShutdownServer cases, and the session holding the only slot.
    assert_eq!(report.sessions_served, 5);
    assert_eq!(report.connection_rejections, 1);
}

#[test]
fn router_replies_byte_for_byte() {
    let dir = TempDir::new("front-router");
    let map_path = dir.path().join("cluster.json");
    let node = NodeInfo {
        id: "n1".to_string(),
        addr: "127.0.0.1:1".to_string(),
    };
    ShardMap::new(vec![node], 1)
        .expect("map")
        .save(&map_path)
        .expect("save map");
    let router = Router::bind(
        RouterConfig {
            map_path,
            max_connections: 1,
            ..RouterConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind router");
    check_front(router.local_addr(), "router", 1);
    router.wait_shutdown_requested();
    let report = router.shutdown(false);
    assert_eq!(report.router.sessions_served, 5);
}
