//! The server's side of the session front in `tasm-reactor`: query
//! admission and dispatch onto the `QueryService`, and the
//! cluster-administration frames.
//!
//! Admitted queries execute on the service's fixed worker pool and their
//! answers come back through the front's [`Completer`](tasm_reactor::Completer);
//! a session may keep up to `max_inflight` of them in flight. The
//! administration frames (replication, manifest fetch, push, remove) do
//! blocking disk and network I/O, so they run on the front's one pool
//! thread in submission order, their sessions paused until the ack is
//! queued — the strict request/ack order the replication protocol assumes.

use crate::{error_code, sessions_gauge, ServerShared};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tasm_cluster::StagedSots;
use tasm_core::Tasm;
use tasm_obs::sync;
use tasm_proto::nio::WireBuffers;
use tasm_proto::{encode_region, ErrorCode, Message, ResultSummary};
use tasm_reactor::{error_frame, Ctl, Logic, NextFrame, ResponseSource};
use tasm_service::{QueryOutcome, QueryRequest, ServiceError};

/// The server's [`Logic`].
pub(crate) struct ServerLogic {
    shared: Arc<ServerShared>,
    /// Per-session replication staging (tile bytes held between `StageSot`
    /// and its commit record), keyed by token, so it dies with the session.
    /// Taken as is on poison: a replication step stages or takes one SOT's
    /// tiles whole.
    staged: HashMap<u64, Arc<Mutex<StagedSots>>>,
}

impl ServerLogic {
    pub(crate) fn new(shared: Arc<ServerShared>) -> ServerLogic {
        ServerLogic {
            shared,
            staged: HashMap::new(),
        }
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
        if ctl.shutting_down() {
            let text = "server is shutting down".to_string();
            ctl.send_frame(token, error_frame(Some(id), ErrorCode::ShuttingDown, text));
            return;
        }
        let max_inflight = self.shared.cfg.max_inflight;
        if ctl.inflight(token) >= max_inflight {
            let text = format!("session already has {max_inflight} queries in flight");
            ctl.send_frame(
                token,
                error_frame(Some(id), ErrorCode::TooManyInflight, text),
            );
            return;
        }
        let request = QueryRequest::new(video, query).with_trace_id(trace_id);
        let done = ctl.completer();
        let instance = self.shared.instance.clone();
        let submitted = self
            .shared
            .service
            .try_submit_with(request, move |result| match result {
                Ok(outcome) => done.complete(token, QueryResponse::new(id, outcome, instance)),
                Err(e) => {
                    let frame = error_frame(Some(id), error_code(&e), e.to_string());
                    done.complete(token, vec![frame].into_iter());
                }
            });
        match submitted {
            Ok(_service_id) => ctl.inflight_inc(token),
            Err(e) => {
                if matches!(e, ServiceError::QueueFull) {
                    self.shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
                }
                ctl.send_frame(token, error_frame(Some(id), error_code(&e), e.to_string()));
            }
        }
    }

    /// Runs an admin operation on the front's pool against the store and
    /// the session's staging area; the session reads nothing more until
    /// the reply is queued.
    fn admin(
        &mut self,
        ctl: &mut Ctl,
        token: u64,
        op: impl FnOnce(&Tasm, &mut StagedSots) -> Message + Send + 'static,
    ) {
        let staged = Arc::clone(self.staged.entry(token).or_default());
        let shared = Arc::clone(&self.shared);
        ctl.offload(token, move |_| {
            let reply = op(shared.service.tasm(), &mut sync::lock(&staged));
            vec![reply.encode()].into_iter()
        });
    }
}

impl Logic for ServerLogic {
    const NAME: &'static str = "server";

    fn max_inflight(&self) -> u32 {
        self.shared.cfg.max_inflight
    }

    fn on_accept(&mut self, active: usize) {
        sessions_gauge().set(active as i64);
    }

    fn on_hello(&mut self) {
        self.shared.sessions_served.fetch_add(1, Ordering::Relaxed);
    }

    fn on_refused(&mut self) {
        self.shared
            .connection_rejections
            .fetch_add(1, Ordering::Relaxed);
    }

    fn on_close(&mut self, token: u64, active: usize) {
        self.staged.remove(&token);
        sessions_gauge().set(active as i64);
    }

    fn on_request(&mut self, ctl: &mut Ctl, token: u64, msg: Message) -> bool {
        match msg {
            Message::Query {
                id,
                video,
                query,
                trace_id,
            } => self.handle_query(ctl, token, id, video, query, trace_id),
            Message::StatsRequest => {
                let stats = Box::new(self.shared.service.stats());
                ctl.send_frame(token, Message::StatsReply { stats }.encode());
            }
            Message::Replicate { seq, record } => {
                self.admin(
                    ctl,
                    token,
                    move |tasm, staged| match tasm_cluster::apply_record(tasm, staged, record) {
                        Ok(()) => Message::ReplicateAck { seq },
                        Err(message) => Message::Error {
                            id: Some(seq),
                            code: ErrorCode::Internal,
                            message,
                        },
                    },
                )
            }
            Message::ManifestRequest { video } => {
                self.admin(
                    ctl,
                    token,
                    move |tasm, _| match tasm_cluster::manifest_json(tasm, &video) {
                        Ok(manifest) => Message::ManifestReply { video, manifest },
                        Err(message) => Message::Error {
                            id: None,
                            code: ErrorCode::UnknownVideo,
                            message,
                        },
                    },
                )
            }
            Message::PushVideo { seq, video, target } => self.admin(ctl, token, move |tasm, _| {
                match tasm_cluster::push_video(tasm, &video, &target) {
                    Ok(()) => Message::ReplicateAck { seq },
                    Err(message) => Message::Error {
                        id: Some(seq),
                        code: ErrorCode::Internal,
                        message,
                    },
                }
            }),
            Message::RemoveVideo { seq, video } => {
                self.admin(ctl, token, move |tasm, _| match tasm.remove_video(&video) {
                    Ok(()) => Message::ReplicateAck { seq },
                    Err(e) => Message::Error {
                        id: Some(seq),
                        code: ErrorCode::UnknownVideo,
                        message: e.to_string(),
                    },
                })
            }
            _ => return false,
        }
        true
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
