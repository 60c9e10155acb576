//! Per-connection session threads: handshake, request dispatch, response
//! streaming, and the per-session half of admission control.

use crate::{error_code, lock_clean, ServerShared, SessionGuard};
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use tasm_proto::{ErrorCode, Message, ProtoError, VERSION};
use tasm_service::{QueryRequest, ServiceError};

/// State shared between a session's reader thread and its response
/// waiters.
struct SessionShared {
    /// Write side of the socket; each response is written whole under this
    /// lock, so frames of concurrent in-flight queries never interleave.
    writer: Mutex<TcpStream>,
    /// Queries admitted but not yet fully answered on this session. The
    /// condvar signals each decrement so teardown waits exactly, without
    /// polling.
    inflight: Mutex<u32>,
    drained: Condvar,
    /// Buffers of region frames already written, for the next ones.
    spare: tasm_proto::nio::WireBuffers,
}

impl SessionShared {
    /// Writes one message, swallowing transport errors: a peer that
    /// vanished mid-response is that peer's problem, not the session's.
    fn send(&self, msg: &Message) {
        let mut w = lock_clean(&self.writer);
        let _ = msg.write_to(&mut *w);
    }

    fn inflight(&self) -> u32 {
        *lock_clean(&self.inflight)
    }
}

/// RAII hold on one of the session's in-flight slots: increments at
/// construction, decrements (and signals the drain condvar) on drop —
/// including the drop that unwinding a panicked waiter performs, so a
/// waiter that dies can never strand the teardown's `drained.wait`.
struct InflightGuard {
    session: Arc<SessionShared>,
}

impl InflightGuard {
    fn new(session: &Arc<SessionShared>) -> InflightGuard {
        *lock_clean(&session.inflight) += 1;
        InflightGuard {
            session: Arc::clone(session),
        }
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        let mut n = lock_clean(&self.session.inflight);
        *n = n.saturating_sub(1);
        if *n == 0 {
            self.session.drained.notify_all();
        }
    }
}

/// Runs one connection to completion. `_guard` holds the server's active-
/// session slot for exactly the lifetime of this call.
pub(crate) fn run(shared: &Arc<ServerShared>, stream: TcpStream, _guard: SessionGuard) {
    // On non-Linux platforms accepted sockets inherit the listener's
    // O_NONBLOCK; the session wants blocking reads bounded by the poll
    // timeout below, not a busy-spin.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    // Small response frames must not sit in Nagle's buffer waiting for a
    // delayed ACK — query round trips would stall for tens of ms.
    stream.set_nodelay(true).ok();
    // Poll-style reads: the session revisits the shutdown flag between
    // frames instead of parking forever in `read`.
    if stream
        .set_read_timeout(Some(shared.cfg.poll_interval))
        .is_err()
    {
        return;
    }
    // Bounded writes: a client that stops reading its response must not
    // pin a waiter (and with it the session drain and graceful server
    // shutdown) forever once the socket buffer fills.
    if stream
        .set_write_timeout(Some(MAX_RESPONSE_WRITE_STALL))
        .is_err()
    {
        return;
    }
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let session = Arc::new(SessionShared {
        writer: Mutex::new(stream),
        inflight: Mutex::new(0),
        drained: Condvar::new(),
        spare: tasm_proto::nio::wire_buffers(),
    });

    if !handshake(shared, &mut reader, &session) {
        return;
    }
    shared.count_session();
    let peer = reader
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    tasm_obs::log::debug("session.opened", &[("peer", peer.clone())]);

    // Tile bytes from `StageSot` replication records, held until their
    // commit record lands. Session-local: a replication stream is one
    // primary's connection, and an aborted sync dies with its session.
    let mut staged = tasm_cluster::StagedSots::new();

    loop {
        // Checked every iteration, not only on idle timeouts: a client
        // that keeps frames flowing must not be able to pin the session —
        // and with it a graceful server shutdown — forever.
        if shared.is_shutting_down() {
            break;
        }
        let msg = match Message::read_from_bounded(&mut reader, MAX_REQUEST_FRAME_TIME) {
            Ok(msg) => msg,
            Err(e) if e.is_timeout() => continue,
            // Peer went away (or died mid-frame): nothing to report to.
            Err(ProtoError::Io(_)) | Err(ProtoError::Stalled) => break,
            Err(_) => {
                // Corrupt frame: a length-prefixed stream cannot be
                // resynchronized, so report and close.
                session.send(&Message::Error {
                    id: None,
                    code: ErrorCode::Malformed,
                    message: "undecodable frame".to_string(),
                });
                break;
            }
        };
        match msg {
            Message::Query {
                id,
                video,
                query,
                trace_id,
            } => {
                handle_query(shared, &session, id, video, query, trace_id);
            }
            Message::StatsRequest => {
                session.send(&Message::StatsReply {
                    stats: Box::new(shared.service.stats()),
                });
            }
            Message::Goodbye => break,
            Message::ShutdownServer => {
                shared.request_shutdown();
                session.send(&Message::Goodbye);
                break;
            }
            // Cluster administration. These run synchronously on the
            // reader thread: replication and rebalance streams are
            // strictly sequential (each record is acked before the next
            // is sent), so there is nothing to overlap with.
            Message::Replicate { seq, record } => {
                match tasm_cluster::apply_record(shared.service.tasm(), &mut staged, record) {
                    Ok(()) => session.send(&Message::ReplicateAck { seq }),
                    Err(message) => session.send(&Message::Error {
                        id: Some(seq),
                        code: ErrorCode::Internal,
                        message,
                    }),
                }
            }
            Message::ManifestRequest { video } => {
                match tasm_cluster::manifest_json(shared.service.tasm(), &video) {
                    Ok(manifest) => session.send(&Message::ManifestReply { video, manifest }),
                    Err(message) => session.send(&Message::Error {
                        id: None,
                        code: ErrorCode::UnknownVideo,
                        message,
                    }),
                }
            }
            Message::PushVideo { seq, video, target } => {
                match tasm_cluster::push_video(shared.service.tasm(), &video, &target) {
                    Ok(()) => session.send(&Message::ReplicateAck { seq }),
                    Err(message) => session.send(&Message::Error {
                        id: Some(seq),
                        code: ErrorCode::Internal,
                        message,
                    }),
                }
            }
            Message::RemoveVideo { seq, video } => {
                match shared.service.tasm().remove_video(&video) {
                    Ok(()) => session.send(&Message::ReplicateAck { seq }),
                    Err(e) => session.send(&Message::Error {
                        id: Some(seq),
                        code: ErrorCode::UnknownVideo,
                        message: e.to_string(),
                    }),
                }
            }
            // Anything else is a protocol violation at this point of the
            // session (hellos after the handshake, server-only frames).
            _ => {
                session.send(&Message::Error {
                    id: None,
                    code: ErrorCode::Malformed,
                    message: "unexpected frame".to_string(),
                });
                break;
            }
        }
    }

    // Drain: admitted queries finish and their responses flush before the
    // socket closes (the last waiter's guard signals the condvar — even a
    // panicked waiter, whose unwind runs the guard's drop).
    let mut inflight = lock_clean(&session.inflight);
    while *inflight > 0 {
        inflight = match session.drained.wait(inflight) {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
    }
    drop(inflight);
    tasm_obs::log::debug("session.closed", &[("peer", peer)]);
}

/// Poll timeouts a connection may sit silent before its handshake: with
/// the default 25 ms poll interval, 400 polls ≈ 10 s. Bounding this keeps
/// a connect-and-say-nothing peer (port scanner, health checker, attacker)
/// from pinning one of the `max_connections` slots forever.
const HANDSHAKE_DEADLINE_POLLS: u32 = 400;

/// Wall-clock bound on receiving one request frame once it has started
/// arriving. Requests are small (a query frame is well under a kilobyte),
/// so this is pure slack for real clients while bounding how long a
/// byte-trickling peer can pin a session slot or a graceful shutdown.
const MAX_REQUEST_FRAME_TIME: Duration = Duration::from_secs(30);

/// Socket write timeout for response frames: the longest one `write` may
/// sit on a full send buffer (a peer that stopped reading) before the
/// response is abandoned.
const MAX_RESPONSE_WRITE_STALL: Duration = Duration::from_secs(10);

/// Performs the version handshake. Returns false when the session must
/// close (bad hello, version mismatch, deadline, shutdown, transport
/// error).
fn handshake(
    shared: &Arc<ServerShared>,
    reader: &mut TcpStream,
    session: &Arc<SessionShared>,
) -> bool {
    let mut silent_polls = 0u32;
    let hello = loop {
        match Message::read_from_bounded(reader, MAX_REQUEST_FRAME_TIME) {
            Ok(msg) => break msg,
            Err(e) if e.is_timeout() => {
                if shared.is_shutting_down() {
                    return false;
                }
                silent_polls += 1;
                if silent_polls >= HANDSHAKE_DEADLINE_POLLS {
                    return false;
                }
            }
            Err(ProtoError::Io(_)) => return false,
            Err(_) => {
                session.send(&Message::Error {
                    id: None,
                    code: ErrorCode::Malformed,
                    message: "expected client hello".to_string(),
                });
                return false;
            }
        }
    };
    match hello {
        Message::ClientHello { version } if version == VERSION => {
            session.send(&Message::ServerHello {
                version: VERSION,
                max_inflight: shared.cfg.max_inflight,
            });
            true
        }
        Message::ClientHello { version } => {
            session.send(&Message::Error {
                id: None,
                code: ErrorCode::VersionMismatch,
                message: format!("server speaks version {VERSION}, client sent {version}"),
            });
            false
        }
        _ => {
            session.send(&Message::Error {
                id: None,
                code: ErrorCode::Malformed,
                message: "expected client hello".to_string(),
            });
            false
        }
    }
}

/// Admission control plus asynchronous execution of one query: the reader
/// thread never blocks on the service — a full queue comes back as a typed
/// BUSY frame immediately, and admitted queries complete on a waiter
/// thread so further requests keep being read.
fn handle_query(
    shared: &Arc<ServerShared>,
    session: &Arc<SessionShared>,
    id: u64,
    video: String,
    query: tasm_core::Query,
    trace_id: Option<u64>,
) {
    if shared.is_shutting_down() {
        session.send(&Message::Error {
            id: Some(id),
            code: ErrorCode::ShuttingDown,
            message: "server is shutting down".to_string(),
        });
        return;
    }
    if session.inflight() >= shared.cfg.max_inflight {
        session.send(&Message::Error {
            id: Some(id),
            code: ErrorCode::TooManyInflight,
            message: format!(
                "session already has {} queries in flight",
                shared.cfg.max_inflight
            ),
        });
        return;
    }
    let request = QueryRequest::new(video, query).with_trace_id(trace_id);
    let handle = match shared.service.try_submit(request) {
        Ok(handle) => handle,
        Err(e) => {
            if matches!(e, ServiceError::QueueFull) {
                shared
                    .busy_rejections
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if tasm_obs::enabled() {
                    tasm_obs::counter(
                        "tasm_queries_busy_rejected_total",
                        "Queries refused with a BUSY frame because the service queue was full.",
                    )
                    .inc();
                }
            }
            session.send(&Message::Error {
                id: Some(id),
                code: error_code(&e),
                message: e.to_string(),
            });
            return;
        }
    };
    // One waiter thread per admitted query keeps the reader free; the
    // per-session cap (`max_inflight`) bounds how many exist at once. The
    // spawn cost sits on the serving path — acceptable at this scale, and
    // visible in benches/remote.rs as part of the wire overhead.
    //
    // The in-flight slot is held by an RAII guard that travels into the
    // waiter: whether the waiter finishes, panics, or never spawns (the
    // failed spawn drops the closure), the slot releases exactly once.
    let guard = InflightGuard::new(session);
    let waiter = Arc::clone(session);
    let instance = shared.instance.clone();
    let spawned = std::thread::Builder::new()
        .name("tasm-session-waiter".to_string())
        .spawn(move || {
            let _guard = guard;
            let session = waiter;
            match handle.wait() {
                Ok(outcome) => {
                    let result = &outcome.result;
                    let mut trace = outcome.trace.clone();
                    trace.instance = instance;
                    // The whole response is written under one writer lock
                    // so its frames stay contiguous on the wire. The first
                    // write failure (peer gone, or write timeout against a
                    // peer that stopped reading) abandons the rest — the
                    // stream is dead either way.
                    let mut w = session.writer.lock().expect("writer lock");
                    let stream_start = std::time::Instant::now();
                    let _ = (|| -> std::io::Result<()> {
                        Message::ResultHeader {
                            id,
                            matched: result.matched,
                            regions: result.regions.len() as u32,
                            plan: result.plan,
                            epoch: result.epoch,
                        }
                        .write_to(&mut *w)?;
                        for region in &result.regions {
                            let frame = tasm_proto::encode_region(id, region, &session.spare);
                            w.write_all(&frame)?;
                            session.spare.give(frame);
                        }
                        // The stream phase covers the header and region
                        // frames; ResultDone itself carries the trace, so
                        // its own (tiny) write cannot be part of it.
                        let streamed = stream_start.elapsed();
                        trace.stream_micros = streamed.as_micros() as u64;
                        if tasm_obs::enabled() {
                            tasm_obs::histogram(
                                "tasm_query_stream_seconds",
                                "Time spent streaming result frames to the client.",
                            )
                            .record_micros(trace.stream_micros);
                        }
                        Message::ResultDone {
                            id,
                            summary: tasm_proto::ResultSummary {
                                samples_decoded: result.stats.samples_decoded,
                                samples_reused: result.cache.samples_reused,
                                cache_hits: result.cache.hits,
                                cache_misses: result.cache.misses,
                                shared: result.shared,
                                lookup_micros: result.lookup_time.as_micros() as u64,
                                exec_micros: result.exec_time.as_micros() as u64,
                            },
                            trace: Some(trace),
                        }
                        .write_to(&mut *w)?;
                        w.flush()
                    })();
                }
                Err(e) => {
                    session.send(&Message::Error {
                        id: Some(id),
                        code: error_code(&e),
                        message: e.to_string(),
                    });
                }
            }
        });
    if spawned.is_err() {
        // The OS refused a thread. The dropped closure already released
        // the in-flight slot (the guard moved into it); report a typed
        // failure instead of panicking the session reader (the dropped
        // handle lets the query itself finish unobserved).
        session.send(&Message::Error {
            id: Some(id),
            code: ErrorCode::Internal,
            message: "server could not spawn a response writer".to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn test_session() -> Arc<SessionShared> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        Arc::new(SessionShared {
            writer: Mutex::new(server_side),
            inflight: Mutex::new(0),
            drained: Condvar::new(),
            spare: tasm_proto::nio::wire_buffers(),
        })
    }

    /// Regression: a waiter that panics must still release its in-flight
    /// slot (via the guard's unwind drop), or the session teardown's
    /// `drained.wait` loop waits forever.
    #[test]
    fn inflight_guard_releases_on_waiter_panic() {
        let session = test_session();
        let waiter_session = Arc::clone(&session);
        let waiter = std::thread::spawn(move || {
            let _guard = InflightGuard::new(&waiter_session);
            panic!("injected waiter panic");
        });
        assert!(waiter.join().is_err(), "waiter should have panicked");
        // The teardown drain loop must complete promptly.
        let deadline = Duration::from_secs(5);
        let mut inflight = lock_clean(&session.inflight);
        while *inflight > 0 {
            let (guard, timeout) = match session.drained.wait_timeout(inflight, deadline) {
                Ok(r) => r,
                Err(poisoned) => poisoned.into_inner(),
            };
            assert!(!timeout.timed_out(), "drain stalled: in-flight slot leaked");
            inflight = guard;
        }
        assert_eq!(*inflight, 0);
    }

    /// Regression: a spawn failure path is modeled by dropping the closure
    /// (and the guard inside it) without running — the slot still frees.
    #[test]
    fn inflight_guard_releases_when_closure_dropped_unrun() {
        let session = test_session();
        let guard = InflightGuard::new(&session);
        let closure = move || {
            let _guard = guard;
        };
        assert_eq!(session.inflight(), 1);
        drop(closure);
        assert_eq!(session.inflight(), 0);
    }
}
