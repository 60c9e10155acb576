//! # tasm-client: the blocking TASM wire client
//!
//! Connects to a `tasm-server`, speaks the `tasm-proto` handshake, and
//! executes remote [`Query`]s — the full surface including ROI, stride,
//! limit, and the aggregate modes — returning the same [`RegionPixels`]
//! an in-process `Tasm::query` would, bit for bit.
//!
//! Two layers:
//!
//! * [`Connection`] — one blocking session: `query`, `stats`,
//!   `shutdown_server`, `goodbye`. One query in flight at a time; typed
//!   server rejections (BUSY, in-flight cap, shutdown, …) surface as
//!   [`ClientError::Rejected`] with the wire's [`ErrorCode`].
//! * [`LoadGen`] — a connection-pooled multi-threaded load generator: `n`
//!   worker threads, each with its own connection, drain a shared request
//!   counter and record client-observed latencies into a merged
//!   [`HistogramSnapshot`] ([`LoadReport`]).
//!
//! ```no_run
//! use tasm_client::Connection;
//! use tasm_core::{LabelPredicate, Query};
//!
//! let mut conn = Connection::connect("127.0.0.1:7743").unwrap();
//! let outcome = conn
//!     .query("traffic", &Query::new(LabelPredicate::label("car")).frames(0..300).stride(5))
//!     .unwrap();
//! println!("{} regions in {:?}", outcome.regions.len(), outcome.latency);
//! ```

#![forbid(unsafe_code)]

use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tasm_core::{PlanStats, Query, RegionPixels};
use tasm_proto::nio::{FrameReader, WireBuffers, STREAM_BUF_LEN};
use tasm_proto::{
    relay_result_frame, ErrorCode, Message, ProtoError, ReplicationRecord, ResultFrame,
    ResultSummary, VERSION,
};
use tasm_service::{HistogramSnapshot, ServiceStats};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write).
    Io(std::io::Error),
    /// The peer sent bytes that do not decode as protocol frames.
    Proto(ProtoError),
    /// The server refused the request with a typed error frame.
    Rejected {
        /// The wire error code (BUSY, TooManyInflight, ShuttingDown, …).
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
    /// The server answered with a frame the session state does not allow
    /// (protocol violation).
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Rejected { code, message } => {
                write!(f, "server refused: {code} ({message})")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected server frame: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        match e {
            ProtoError::Io(io) => ClientError::Io(io),
            other => ClientError::Proto(other),
        }
    }
}

impl ClientError {
    /// True when the server sent the typed BUSY rejection (submission
    /// queue full) — the retryable admission-control outcome.
    pub fn is_busy(&self) -> bool {
        matches!(
            self,
            ClientError::Rejected {
                code: ErrorCode::Busy,
                ..
            }
        )
    }
}

/// A completed remote query.
#[derive(Debug, Clone)]
pub struct RemoteOutcome {
    /// Regions matching the query, bit-identical to the in-process
    /// `Tasm::query` result for the same query. Empty for the aggregate
    /// modes, which report [`RemoteOutcome::matched`] without pixels.
    pub regions: Vec<RegionPixels>,
    /// Number of matching regions (label ∧ ROI ∧ stride ∧ limit).
    pub matched: u64,
    /// Server-side planner accounting.
    pub plan: PlanStats,
    /// Server-side decode/cache/dedup accounting.
    pub summary: ResultSummary,
    /// The layout epoch the server executed the query against (the pinned
    /// epoch for `AS OF` queries, otherwise the epoch current at plan
    /// time).
    pub epoch: u64,
    /// Client-observed request latency (send → final frame).
    pub latency: Duration,
    /// The server's per-phase execution trace (queue/plan/decode/stream),
    /// tagged with the serving instance and executed epoch. `None` only
    /// when talking to a pre-tracing server build.
    pub trace: Option<tasm_proto::QueryTrace>,
}

/// One blocking protocol session over TCP.
pub struct Connection {
    stream: TcpStream,
    /// Every inbound frame is assembled here: one `read` takes whatever
    /// burst of frames the socket holds, and payloads are decoded straight
    /// out of its buffer.
    reader: FrameReader,
    /// Server-advertised per-session in-flight cap (informational for a
    /// blocking connection, which keeps at most one).
    max_inflight: u32,
    next_id: u64,
}

impl Connection {
    /// Connects and performs the version handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Connection, ClientError> {
        Connection::handshake(TcpStream::connect(addr)?)
    }

    /// Connects to `addr` with every step bounded by `timeout`: the TCP
    /// connect, the handshake, and each later read and write. How a node
    /// dials a node (the router's shard connections, replication to a
    /// backup): a peer that accepts and never answers costs `timeout`,
    /// never a hang.
    pub fn dial(addr: &str, timeout: Duration) -> Result<Connection, ClientError> {
        let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("address '{addr}' resolves to nothing"),
            )
        })?;
        let stream = TcpStream::connect_timeout(&sock, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Connection::handshake(stream)
    }

    fn handshake(stream: TcpStream) -> Result<Connection, ClientError> {
        stream.set_nodelay(true).ok();
        let mut conn = Connection {
            stream,
            reader: FrameReader::with_capacity(STREAM_BUF_LEN),
            max_inflight: 0,
            next_id: 0,
        };
        Message::ClientHello { version: VERSION }.write_to(&mut conn.stream)?;
        match conn.read_message()? {
            Message::ServerHello {
                version: _,
                max_inflight,
            } => {
                conn.max_inflight = max_inflight;
                Ok(conn)
            }
            Message::Error { code, message, .. } => Err(ClientError::Rejected { code, message }),
            _ => Err(ClientError::Unexpected("handshake reply")),
        }
    }

    /// The per-session in-flight cap the server advertised at handshake.
    pub fn max_inflight(&self) -> u32 {
        self.max_inflight
    }

    /// Executes one query remotely, blocking until the response stream
    /// completes. Typed server rejections (including BUSY under
    /// backpressure) come back as [`ClientError::Rejected`].
    pub fn query(&mut self, video: &str, query: &Query) -> Result<RemoteOutcome, ClientError> {
        self.query_traced(video, query, None)
    }

    /// [`Connection::query`] with a client-chosen trace id stamped on the
    /// request (`None` lets the server assign one at admission). The id
    /// comes back on [`RemoteOutcome::trace`], which lets a caller — the
    /// CLI's `--explain`, for one — correlate its own records with the
    /// server's slow-query log.
    pub fn query_traced(
        &mut self,
        video: &str,
        query: &Query,
        trace_id: Option<u64>,
    ) -> Result<RemoteOutcome, ClientError> {
        let t0 = Instant::now();
        let id = self.send_query(video, query, trace_id)?;

        let (matched, expect_regions, plan, epoch) = match self.read_for(id)? {
            Message::ResultHeader {
                matched,
                regions,
                plan,
                epoch,
                ..
            } => (matched, regions, plan, epoch),
            _ => return Err(ClientError::Unexpected("expected result header")),
        };
        let mut regions = Vec::with_capacity(expect_regions.min(4096) as usize);
        for _ in 0..expect_regions {
            match self.read_for(id)? {
                Message::Region { region, .. } => regions.push(region),
                _ => return Err(ClientError::Unexpected("expected region frame")),
            }
        }
        match self.read_for(id)? {
            Message::ResultDone { summary, trace, .. } => Ok(RemoteOutcome {
                regions,
                matched,
                plan,
                summary,
                epoch,
                latency: t0.elapsed(),
                trace,
            }),
            _ => Err(ClientError::Unexpected("expected result-done frame")),
        }
    }

    /// Executes one query and returns the shard's response stream as
    /// encoded frames re-addressed to `relay_id` — header, regions, done,
    /// each byte-identical to what the server sent except for the request
    /// id (see [`relay_result_frame`]). This is the router's hop: a region
    /// crosses it in one copy, its pixels never decoded. Typed rejections
    /// come back as [`ClientError::Rejected`], exactly as from
    /// [`Connection::query`]. Frames are built in buffers from `spare`, the
    /// free list of the queue they are bound for.
    pub fn relay_query(
        &mut self,
        video: &str,
        query: &Query,
        trace_id: Option<u64>,
        relay_id: u64,
        spare: &WireBuffers,
    ) -> Result<Vec<Vec<u8>>, ClientError> {
        let id = self.send_query(video, query, trace_id)?;
        let mut frames = Vec::new();
        let mut regions_left = 0u32;
        loop {
            let payload = self.reader.read_frame(&mut self.stream)?;
            let Some((kind, frame)) = relay_result_frame(&payload, id, relay_id, spare)? else {
                return Err(match Message::decode_payload(&payload)? {
                    Message::Error { code, message, .. } => ClientError::Rejected { code, message },
                    _ => ClientError::Unexpected("expected a result frame"),
                });
            };
            match kind {
                ResultFrame::Header { regions } if frames.is_empty() => {
                    frames.reserve(regions.min(4096) as usize + 2);
                    regions_left = regions;
                }
                ResultFrame::Region if !frames.is_empty() && regions_left > 0 => regions_left -= 1,
                ResultFrame::Done if !frames.is_empty() && regions_left == 0 => {
                    frames.push(frame);
                    return Ok(frames);
                }
                _ => return Err(ClientError::Unexpected("result frame out of order")),
            }
            frames.push(frame);
        }
    }

    /// Fetches the server's aggregate service statistics (including the
    /// submit→complete latency histogram).
    pub fn stats(&mut self) -> Result<ServiceStats, ClientError> {
        Message::StatsRequest.write_to(&mut self.stream)?;
        match self.read_message()? {
            Message::StatsReply { stats } => Ok(*stats),
            Message::Error { code, message, .. } => Err(ClientError::Rejected { code, message }),
            _ => Err(ClientError::Unexpected("expected stats reply")),
        }
    }

    /// Asks the server to shut down gracefully (drain in-flight queries,
    /// stop the retile daemon, exit). Resolves once the server
    /// acknowledges.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        Message::ShutdownServer.write_to(&mut self.stream)?;
        match self.read_message()? {
            Message::Goodbye => Ok(()),
            Message::Error { code, message, .. } => Err(ClientError::Rejected { code, message }),
            _ => Err(ClientError::Unexpected("expected shutdown ack")),
        }
    }

    /// Ships one replication record and waits for the receiver's durable
    /// acknowledgement (the primary→backup half of cluster replication).
    pub fn replicate(&mut self, record: ReplicationRecord) -> Result<(), ClientError> {
        let seq = self.next_seq();
        Message::Replicate { seq, record }.write_to(&mut self.stream)?;
        self.expect_ack(seq)
    }

    /// Fetches a video's manifest as canonical JSON bytes, for replica
    /// verification (two nodes at the same layout epoch return identical
    /// bytes).
    pub fn manifest(&mut self, video: &str) -> Result<Vec<u8>, ClientError> {
        Message::ManifestRequest {
            video: video.to_string(),
        }
        .write_to(&mut self.stream)?;
        match self.read_message()? {
            Message::ManifestReply { manifest, .. } => Ok(manifest),
            Message::Error { code, message, .. } => Err(ClientError::Rejected { code, message }),
            _ => Err(ClientError::Unexpected("expected manifest reply")),
        }
    }

    /// Asks the node to replicate `video` in full to the node at `target`
    /// (the rebalance copy step, driven by the node that owns the bytes).
    pub fn push_video(&mut self, video: &str, target: &str) -> Result<(), ClientError> {
        let seq = self.next_seq();
        Message::PushVideo {
            seq,
            video: video.to_string(),
            target: target.to_string(),
        }
        .write_to(&mut self.stream)?;
        self.expect_ack(seq)
    }

    /// Asks the node to drop `video` once in-flight queries drain (the
    /// rebalance GC step).
    pub fn remove_video(&mut self, video: &str) -> Result<(), ClientError> {
        let seq = self.next_seq();
        Message::RemoveVideo {
            seq,
            video: video.to_string(),
        }
        .write_to(&mut self.stream)?;
        self.expect_ack(seq)
    }

    fn next_seq(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn expect_ack(&mut self, seq: u64) -> Result<(), ClientError> {
        match self.read_message()? {
            Message::ReplicateAck { seq: got } if got == seq => Ok(()),
            Message::ReplicateAck { .. } => {
                Err(ClientError::Unexpected("ack for a different record"))
            }
            Message::Error { code, message, .. } => Err(ClientError::Rejected { code, message }),
            _ => Err(ClientError::Unexpected("expected replicate ack")),
        }
    }

    /// Closes the session cleanly.
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        Message::Goodbye.write_to(&mut self.stream)?;
        self.stream.flush()?;
        Ok(())
    }

    /// Sends one query frame under a fresh request id, which it returns.
    fn send_query(
        &mut self,
        video: &str,
        query: &Query,
        trace_id: Option<u64>,
    ) -> Result<u64, ClientError> {
        let id = self.next_seq();
        Message::Query {
            id,
            video: video.to_string(),
            query: query.clone(),
            trace_id,
        }
        .write_to(&mut self.stream)?;
        Ok(id)
    }

    /// Reads and decodes the next frame. With a read timeout set
    /// ([`Connection::dial`]), a timeout before a frame's first byte is a
    /// retryable `Io` error that loses nothing; a peer that stalls
    /// mid-frame is [`ProtoError::Stalled`].
    fn read_message(&mut self) -> Result<Message, ClientError> {
        let payload = self.reader.read_frame(&mut self.stream)?;
        Ok(Message::decode_payload(&payload)?)
    }

    /// Reads the next frame belonging to request `id`, unwrapping typed
    /// error frames into [`ClientError::Rejected`].
    fn read_for(&mut self, id: u64) -> Result<Message, ClientError> {
        let msg = self.read_message()?;
        match msg {
            Message::Error { code, message, .. } => Err(ClientError::Rejected { code, message }),
            Message::ResultHeader { id: got, .. }
            | Message::Region { id: got, .. }
            | Message::ResultDone { id: got, .. }
                if got != id =>
            {
                Err(ClientError::Unexpected("response for a different request"))
            }
            other => Ok(other),
        }
    }
}

/// A load generator worker's pause before it retries a query refused BUSY.
const BUSY_BACKOFF: Duration = Duration::from_millis(2);
/// A load generator worker's pause before each reconnect after the first.
const RECONNECT_PAUSE: Duration = Duration::from_millis(10);

/// Configuration of the pooled load generator.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Worker threads, each with its own connection.
    pub connections: usize,
    /// Total requests to issue across the pool.
    pub requests: u64,
    /// Video every request targets.
    pub video: String,
    /// Base query; [`LoadGenConfig::window`] slides its frame range per
    /// request so the pool exercises overlapping-but-distinct work.
    pub query: Query,
    /// Width of the sliding per-request frame window (`0` keeps the base
    /// query's range fixed).
    pub window: u32,
    /// Frame count of the target video (bounds the sliding window).
    pub frames: u32,
    /// Extra reconnect attempts (beyond the first) a worker makes after a
    /// transport failure, pausing 10 ms before each. Router awareness:
    /// during a shard failover or a router restart the listener may refuse
    /// connections for a moment — retrying rides the workload through
    /// instead of abandoning the worker.
    pub reconnect_attempts: u32,
}

/// Aggregate outcome of a load-generation run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadReport {
    /// Requests that completed successfully.
    pub completed: u64,
    /// Typed BUSY rejections observed (each is retried).
    pub busy: u64,
    /// Requests that failed for any other reason.
    pub failed: u64,
    /// Successful reconnects after transport failures (failover events the
    /// pool rode through).
    pub reconnects: u64,
    /// Regions returned across all requests.
    pub regions: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Client-observed per-request latency distribution (merged across
    /// workers).
    pub latency: HistogramSnapshot,
}

impl LoadReport {
    /// Completed requests per second of wall clock.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }
}

/// A connection-pooled, multi-threaded load generator.
pub struct LoadGen {
    cfg: LoadGenConfig,
}

impl LoadGen {
    /// A generator for `cfg`.
    pub fn new(cfg: LoadGenConfig) -> Self {
        LoadGen { cfg }
    }

    /// Runs the workload against `addr`: `connections` workers drain a
    /// shared counter of `requests`, sliding each request's frame window
    /// deterministically, retrying BUSY rejections after a 2 ms pause, and
    /// recording every completed request's latency.
    pub fn run(&self, addr: impl ToSocketAddrs) -> Result<LoadReport, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Io(std::io::Error::other("no address resolved")))?;
        let next = Arc::new(AtomicU64::new(0));
        let t0 = Instant::now();
        let mut report = LoadReport::default();
        // One worker's hard failure (e.g. its connection slot refused, or
        // a reconnect that did not come back) must not discard the results
        // the rest of the pool produced; the error is surfaced only when
        // the whole run achieved nothing.
        let mut first_error: Option<ClientError> = None;
        std::thread::scope(|scope| {
            let mut workers = Vec::new();
            for _ in 0..self.cfg.connections.max(1) {
                let next = Arc::clone(&next);
                let cfg = &self.cfg;
                workers.push(scope.spawn(move || worker(addr, cfg, &next)));
            }
            for w in workers {
                let (partial, error) = w.join().expect("loadgen worker panicked");
                report.completed += partial.completed;
                report.busy += partial.busy;
                report.failed += partial.failed;
                report.reconnects += partial.reconnects;
                report.regions += partial.regions;
                report.latency += partial.latency;
                if first_error.is_none() {
                    first_error = error;
                }
            }
        });
        report.elapsed = t0.elapsed();
        match first_error {
            Some(e) if report.completed == 0 => Err(e),
            _ => Ok(report),
        }
    }
}

/// One pool worker: owns a connection, reconnects once per hard failure.
/// Returns whatever it completed plus the error that stopped it early, if
/// any — partial progress is never discarded.
fn worker(
    addr: std::net::SocketAddr,
    cfg: &LoadGenConfig,
    next: &AtomicU64,
) -> (LoadReport, Option<ClientError>) {
    let mut report = LoadReport::default();
    let mut conn = match Connection::connect(addr) {
        Ok(conn) => conn,
        Err(e) => return (report, Some(e)),
    };
    loop {
        let seq = next.fetch_add(1, Ordering::Relaxed);
        if seq >= cfg.requests {
            break;
        }
        let query = query_for(cfg, seq);
        // Retry BUSY until this request lands; admission control sheds
        // load by making the client wait, not by dropping work.
        loop {
            match conn.query(&cfg.video, &query) {
                Ok(outcome) => {
                    report.completed += 1;
                    report.regions += outcome.regions.len() as u64;
                    report.latency.record(outcome.latency);
                    break;
                }
                Err(e) if e.is_busy() => {
                    report.busy += 1;
                    std::thread::sleep(BUSY_BACKOFF);
                }
                Err(ClientError::Rejected { .. }) => {
                    // A typed rejection leaves the stream on a frame
                    // boundary; the connection stays usable.
                    report.failed += 1;
                    break;
                }
                Err(_) => {
                    // Transport or protocol failure: the stream may be
                    // desynchronized mid-response, so the connection must
                    // not be reused. Reconnect (with the configured number
                    // of retries, riding out failovers); exhausting them
                    // abandons the worker.
                    report.failed += 1;
                    match reconnect(addr, cfg, &mut report) {
                        Ok(c) => conn = c,
                        Err(e) => return (report, Some(e)),
                    }
                    break;
                }
            }
        }
    }
    let _ = conn.goodbye();
    (report, None)
}

/// Re-establishes a worker's connection: the first attempt is immediate,
/// each further attempt (up to `reconnect_attempts`) waits
/// `RECONNECT_PAUSE` first so a restarting listener has time to come back.
fn reconnect(
    addr: std::net::SocketAddr,
    cfg: &LoadGenConfig,
    report: &mut LoadReport,
) -> Result<Connection, ClientError> {
    let mut last;
    match Connection::connect(addr) {
        Ok(c) => {
            report.reconnects += 1;
            return Ok(c);
        }
        Err(e) => last = e,
    }
    for _ in 0..cfg.reconnect_attempts {
        std::thread::sleep(RECONNECT_PAUSE);
        match Connection::connect(addr) {
            Ok(c) => {
                report.reconnects += 1;
                return Ok(c);
            }
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// The `seq`-th request's query: the base query with its frame window slid
/// deterministically across the video.
fn query_for(cfg: &LoadGenConfig, seq: u64) -> Query {
    if cfg.window == 0 || cfg.frames == 0 {
        return cfg.query.clone();
    }
    let window = cfg.window.min(cfg.frames);
    let span = cfg.frames - window;
    let start = if span == 0 {
        0
    } else {
        // Stride by a medium prime so successive requests overlap but
        // don't repeat until the span wraps.
        ((seq * 37) % (span as u64 + 1)) as u32
    };
    cfg.query.clone().frames(start..start + window)
}
