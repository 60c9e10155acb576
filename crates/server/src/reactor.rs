//! The serving engine: protocol dispatch for the readiness-driven event
//! loop in `tasm-reactor`.
//!
//! One reactor thread owns every session socket. Admitted queries execute
//! on the `QueryService`'s fixed worker pool and come back through a
//! completion queue + wake pipe — no waiter threads, no parked stacks.
//! Blocking cluster-administration frames (replication, manifest fetch,
//! push, remove) run on one dedicated admin thread; their sessions pause
//! until the ack is queued, preserving the strict request/ack ordering the
//! replication protocol assumes.

use crate::{error_code, lock_clean, sessions_gauge, ServerShared};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;
use tasm_proto::nio::WireBuffers;
use tasm_proto::{encode_region, ErrorCode, Message, ResultSummary, VERSION};
use tasm_reactor::{Ctl, Logic, NextFrame, ResponseSource, Waker};
use tasm_service::{QueryOutcome, QueryRequest, ServiceError};

/// A completed unit of off-loop work, queued for the reactor.
pub(crate) enum Complete {
    /// A query finished on the service's worker pool.
    Query {
        token: u64,
        wire_id: u64,
        result: Box<Result<QueryOutcome, ServiceError>>,
    },
    /// An admin operation finished on the admin thread; the reply frame is
    /// already encoded.
    Admin { token: u64, frame: Vec<u8> },
}

/// Work the admin thread executes for one session.
pub(crate) struct AdminJob {
    token: u64,
    op: AdminOp,
    /// That session's replication staging area (tile bytes held between
    /// `StageSot` and its commit record). Shared with the logic's map so
    /// it dies with the session.
    staged: Arc<Mutex<tasm_cluster::StagedSots>>,
}

enum AdminOp {
    Replicate {
        seq: u64,
        record: tasm_proto::ReplicationRecord,
    },
    Manifest {
        video: String,
    },
    Push {
        seq: u64,
        video: String,
        target: String,
    },
    Remove {
        seq: u64,
        video: String,
    },
}

/// Runs cluster-administration frames in submission order. These do disk
/// and network I/O (a `PushVideo` streams tiles to another shard), which
/// must never block the reactor; one FIFO thread suffices because the
/// protocols are strictly ack-before-next per session, and sessions pause
/// while an op is in flight.
pub(crate) fn admin_loop(
    shared: Arc<ServerShared>,
    rx: mpsc::Receiver<AdminJob>,
    completions: Arc<Mutex<Vec<Complete>>>,
    waker: Waker,
) {
    while let Ok(job) = rx.recv() {
        let reply = match job.op {
            AdminOp::Replicate { seq, record } => {
                let mut staged = lock_clean(&job.staged);
                match tasm_cluster::apply_record(shared.service.tasm(), &mut staged, record) {
                    Ok(()) => Message::ReplicateAck { seq },
                    Err(message) => Message::Error {
                        id: Some(seq),
                        code: ErrorCode::Internal,
                        message,
                    },
                }
            }
            AdminOp::Manifest { video } => {
                match tasm_cluster::manifest_json(shared.service.tasm(), &video) {
                    Ok(manifest) => Message::ManifestReply { video, manifest },
                    Err(message) => Message::Error {
                        id: None,
                        code: ErrorCode::UnknownVideo,
                        message,
                    },
                }
            }
            AdminOp::Push { seq, video, target } => {
                match tasm_cluster::push_video(shared.service.tasm(), &video, &target) {
                    Ok(()) => Message::ReplicateAck { seq },
                    Err(message) => Message::Error {
                        id: Some(seq),
                        code: ErrorCode::Internal,
                        message,
                    },
                }
            }
            AdminOp::Remove { seq, video } => match shared.service.tasm().remove_video(&video) {
                Ok(()) => Message::ReplicateAck { seq },
                Err(e) => Message::Error {
                    id: Some(seq),
                    code: ErrorCode::UnknownVideo,
                    message: e.to_string(),
                },
            },
        };
        lock_clean(&completions).push(Complete::Admin {
            token: job.token,
            frame: reply.encode(),
        });
        waker.wake();
    }
}

/// The server's [`Logic`]: handshake, dispatch, admission control, and
/// completion delivery.
pub(crate) struct ServerLogic {
    shared: Arc<ServerShared>,
    completions: Arc<Mutex<Vec<Complete>>>,
    waker: Waker,
    admin_tx: mpsc::Sender<AdminJob>,
    /// Per-session replication staging, keyed by token.
    staged: HashMap<u64, Arc<Mutex<tasm_cluster::StagedSots>>>,
}

impl ServerLogic {
    pub(crate) fn new(
        shared: Arc<ServerShared>,
        completions: Arc<Mutex<Vec<Complete>>>,
        waker: Waker,
        admin_tx: mpsc::Sender<AdminJob>,
    ) -> ServerLogic {
        ServerLogic {
            shared,
            completions,
            waker,
            admin_tx,
            staged: HashMap::new(),
        }
    }

    fn send_error(ctl: &mut Ctl, token: u64, id: Option<u64>, code: ErrorCode, message: String) {
        ctl.send_frame(token, Message::Error { id, code, message }.encode());
    }

    fn handle_query(
        &mut self,
        ctl: &mut Ctl,
        token: u64,
        id: u64,
        video: String,
        query: tasm_core::Query,
        trace_id: Option<u64>,
    ) {
        if self.shared.is_shutting_down() {
            Self::send_error(
                ctl,
                token,
                Some(id),
                ErrorCode::ShuttingDown,
                "server is shutting down".to_string(),
            );
            return;
        }
        if ctl.inflight(token) >= self.shared.cfg.max_inflight {
            Self::send_error(
                ctl,
                token,
                Some(id),
                ErrorCode::TooManyInflight,
                format!(
                    "session already has {} queries in flight",
                    self.shared.cfg.max_inflight
                ),
            );
            return;
        }
        let request = QueryRequest::new(video, query).with_trace_id(trace_id);
        let completions = Arc::clone(&self.completions);
        let waker = self.waker.clone();
        let submitted = self.shared.service.try_submit_with(request, move |result| {
            lock_clean(&completions).push(Complete::Query {
                token,
                wire_id: id,
                result: Box::new(result),
            });
            waker.wake();
        });
        match submitted {
            Ok(_service_id) => ctl.inflight_inc(token),
            Err(e) => {
                if matches!(e, ServiceError::QueueFull) {
                    self.shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
                    if tasm_obs::enabled() {
                        tasm_obs::counter(
                            "tasm_queries_busy_rejected_total",
                            "Queries refused with a BUSY frame because the service queue was full.",
                        )
                        .inc();
                    }
                }
                Self::send_error(ctl, token, Some(id), error_code(&e), e.to_string());
            }
        }
    }

    /// Hands an admin frame to the admin thread and pauses the session
    /// until its ack returns through the completion queue — the reactor
    /// reads no further frames from it, preserving strict per-session
    /// operation order.
    fn submit_admin(&mut self, ctl: &mut Ctl, token: u64, op: AdminOp) {
        let staged = Arc::clone(
            self.staged
                .entry(token)
                .or_insert_with(|| Arc::new(Mutex::new(tasm_cluster::StagedSots::new()))),
        );
        ctl.set_paused(token, true);
        ctl.inflight_inc(token);
        if self.admin_tx.send(AdminJob { token, op, staged }).is_err() {
            // Admin thread gone (shutdown): fail typed rather than hang.
            ctl.inflight_dec(token);
            ctl.set_paused(token, false);
            Self::send_error(
                ctl,
                token,
                None,
                ErrorCode::ShuttingDown,
                "server is shutting down".to_string(),
            );
        }
    }
}

impl Logic for ServerLogic {
    fn on_accept(&mut self, ctl: &mut Ctl, _token: u64) {
        self.shared.active_sessions.fetch_add(1, Ordering::AcqRel);
        sessions_gauge().set(ctl.active_sessions() as i64);
    }

    fn on_refused(&mut self) {
        self.shared
            .connection_rejections
            .fetch_add(1, Ordering::Relaxed);
        if tasm_obs::enabled() {
            tasm_obs::counter(
                "tasm_connections_rejected_total",
                "Connections refused at the listener for exceeding max_connections.",
            )
            .inc();
        }
    }

    fn refusal_frame(&mut self) -> Vec<u8> {
        Message::Error {
            id: None,
            code: ErrorCode::TooManyConnections,
            message: "server is at its connection limit".to_string(),
        }
        .encode()
    }

    fn on_frame(&mut self, ctl: &mut Ctl, token: u64, payload: Vec<u8>) {
        let msg = match Message::decode_payload(&payload) {
            Ok(msg) => msg,
            Err(_) => {
                let text = if ctl.handshaken(token) {
                    "undecodable frame"
                } else {
                    "expected client hello"
                };
                Self::send_error(ctl, token, None, ErrorCode::Malformed, text.to_string());
                ctl.begin_drain(token);
                return;
            }
        };
        if !ctl.handshaken(token) {
            match msg {
                Message::ClientHello { version } if version == VERSION => {
                    ctl.mark_handshaken(token);
                    self.shared.count_session();
                    ctl.send_frame(
                        token,
                        Message::ServerHello {
                            version: VERSION,
                            max_inflight: self.shared.cfg.max_inflight,
                        }
                        .encode(),
                    );
                }
                Message::ClientHello { version } => {
                    Self::send_error(
                        ctl,
                        token,
                        None,
                        ErrorCode::VersionMismatch,
                        format!("server speaks version {VERSION}, client sent {version}"),
                    );
                    ctl.begin_drain(token);
                }
                _ => {
                    Self::send_error(
                        ctl,
                        token,
                        None,
                        ErrorCode::Malformed,
                        "expected client hello".to_string(),
                    );
                    ctl.begin_drain(token);
                }
            }
            return;
        }
        match msg {
            Message::Query {
                id,
                video,
                query,
                trace_id,
            } => self.handle_query(ctl, token, id, video, query, trace_id),
            Message::StatsRequest => {
                ctl.send_frame(
                    token,
                    Message::StatsReply {
                        stats: Box::new(self.shared.service.stats()),
                    }
                    .encode(),
                );
            }
            Message::Goodbye => ctl.begin_drain(token),
            Message::ShutdownServer => {
                self.shared.request_shutdown();
                ctl.send_frame(token, Message::Goodbye.encode());
                ctl.begin_drain(token);
            }
            Message::Replicate { seq, record } => {
                self.submit_admin(ctl, token, AdminOp::Replicate { seq, record });
            }
            Message::ManifestRequest { video } => {
                self.submit_admin(ctl, token, AdminOp::Manifest { video });
            }
            Message::PushVideo { seq, video, target } => {
                self.submit_admin(ctl, token, AdminOp::Push { seq, video, target });
            }
            Message::RemoveVideo { seq, video } => {
                self.submit_admin(ctl, token, AdminOp::Remove { seq, video });
            }
            // Anything else is a protocol violation at this point of the
            // session (hellos after the handshake, server-only frames).
            _ => {
                Self::send_error(
                    ctl,
                    token,
                    None,
                    ErrorCode::Malformed,
                    "unexpected frame".to_string(),
                );
                ctl.begin_drain(token);
            }
        }
    }

    fn on_wake(&mut self, ctl: &mut Ctl) {
        let batch: Vec<Complete> = lock_clean(&self.completions).drain(..).collect();
        for complete in batch {
            match complete {
                Complete::Query {
                    token,
                    wire_id,
                    result,
                } => {
                    if !ctl.is_open(token) {
                        // Session died first; the outcome has no reader.
                        continue;
                    }
                    ctl.inflight_dec(token);
                    match *result {
                        Ok(outcome) => ctl.send_response(
                            token,
                            Box::new(QueryResponse::new(
                                wire_id,
                                outcome,
                                self.shared.instance.clone(),
                            )),
                        ),
                        Err(e) => {
                            Self::send_error(
                                ctl,
                                token,
                                Some(wire_id),
                                error_code(&e),
                                e.to_string(),
                            );
                        }
                    }
                }
                Complete::Admin { token, frame } => {
                    if !ctl.is_open(token) {
                        continue;
                    }
                    ctl.inflight_dec(token);
                    ctl.set_paused(token, false);
                    ctl.send_frame(token, frame);
                }
            }
        }
    }

    fn on_close(&mut self, token: u64, _handshaken: bool) {
        self.staged.remove(&token);
        let prev = self.shared.active_sessions.fetch_sub(1, Ordering::AcqRel);
        sessions_gauge().set(prev.saturating_sub(1) as i64);
    }
}

/// Streams one query result lazily: header, then regions one frame at a
/// time as socket capacity frees, then — once every region byte reached
/// the socket — the `ResultDone` carrying the trace with its measured
/// stream phase. Peak buffering is the loop's low-water mark plus one
/// frame, regardless of result size.
struct QueryResponse {
    wire_id: u64,
    outcome: QueryOutcome,
    instance: String,
    next_region: usize,
    state: RespState,
    stream_start: Option<Instant>,
}

enum RespState {
    Header,
    Regions,
    Final,
    Done,
}

impl QueryResponse {
    fn new(wire_id: u64, outcome: QueryOutcome, instance: String) -> QueryResponse {
        QueryResponse {
            wire_id,
            outcome,
            instance,
            next_region: 0,
            state: RespState::Header,
            stream_start: None,
        }
    }
}

impl ResponseSource for QueryResponse {
    fn next_frame(&mut self, flushed: bool, spare: &WireBuffers) -> NextFrame {
        loop {
            match self.state {
                RespState::Header => {
                    self.stream_start = Some(Instant::now());
                    self.state = RespState::Regions;
                    let r = &self.outcome.result;
                    return NextFrame::Frame(
                        Message::ResultHeader {
                            id: self.wire_id,
                            matched: r.matched,
                            regions: r.regions.len() as u32,
                            plan: r.plan,
                            epoch: r.epoch,
                        }
                        .encode(),
                    );
                }
                RespState::Regions => {
                    let regions = &self.outcome.result.regions;
                    if self.next_region < regions.len() {
                        let region = &regions[self.next_region];
                        let frame = encode_region(self.wire_id, region, spare);
                        self.next_region += 1;
                        return NextFrame::Frame(frame);
                    }
                    self.state = RespState::Final;
                }
                RespState::Final => {
                    if !flushed {
                        // The stream phase covers the header and region
                        // frames all the way onto the socket; ResultDone
                        // itself carries the trace, so its own (tiny)
                        // write cannot be part of it.
                        return NextFrame::Wait;
                    }
                    let streamed = self.stream_start.map(|t| t.elapsed()).unwrap_or_default();
                    let mut trace = self.outcome.trace.clone();
                    trace.instance = std::mem::take(&mut self.instance);
                    trace.stream_micros = streamed.as_micros() as u64;
                    if tasm_obs::enabled() {
                        tasm_obs::histogram(
                            "tasm_query_stream_seconds",
                            "Time spent streaming result frames to the client.",
                        )
                        .record_micros(trace.stream_micros);
                    }
                    self.state = RespState::Done;
                    let r = &self.outcome.result;
                    return NextFrame::Frame(
                        Message::ResultDone {
                            id: self.wire_id,
                            summary: ResultSummary {
                                samples_decoded: r.stats.samples_decoded,
                                samples_reused: r.cache.samples_reused,
                                cache_hits: r.cache.hits,
                                cache_misses: r.cache.misses,
                                shared: r.shared,
                                lookup_micros: r.lookup_time.as_micros() as u64,
                                exec_micros: r.exec_time.as_micros() as u64,
                            },
                            trace: Some(trace),
                        }
                        .encode(),
                    );
                }
                RespState::Done => return NextFrame::Done,
            }
        }
    }
}
