//! # tasm-reactor: the `tasm-proto` session front
//!
//! One thread owns every client socket: a nonblocking listener, a wake
//! pipe, and per-connection state machines. Frames are assembled
//! incrementally (never blocking mid-frame) with
//! [`tasm_proto::nio::FrameReader`], and responses stream out through a
//! resumable [`tasm_proto::nio::FrameQueue`] driven by write-readiness —
//! a peer that stops reading costs a buffer, not a parked thread.
//!
//! The loop speaks the session half of the protocol itself: the hello
//! exchange, `Goodbye`, `ShutdownServer`, and every generic reply — the
//! refusal past the connection cap [`Front::start`] takes,
//! `VersionMismatch`, and `Malformed` for a frame that does not decode or
//! that the front does not serve. It enforces the liveness deadlines
//! (handshake 10 s, mid-frame stall 30 s, write stall 10 s), constants of
//! the loop like its 25 ms poll interval. Every other request goes to the
//! front's [`Logic`]: tasm-server plugs in query dispatch and its admin
//! operations, tasm-cluster's router plugs in shard routing. Logic answers on the spot, hands blocking work
//! to the front's pool with [`Ctl::offload`] (the session reads no further
//! request until the answer is queued), or answers later from a thread of
//! its own through a [`Completer`]. Answers made off the loop re-enter it
//! through the [`Waker`] half of a self-notification pipe.
//!
//! ```text
//!        poll(2) wait ─────────────────────────────────┐
//!          │ listener readable → accept burst          │
//!          │   over cap → refusal frame, linger, close │ one reactor
//!          │ wake pipe readable → queue completions    │ thread + the
//!          │ session readable → FrameReader → hello,   │ offload pool:
//!          │   generic reply, or Logic::on_request     │ O(workers)
//!          │ session writable → FrameQueue resume      │ total threads
//!          └ sweep: encode pump, timers, teardown ─────┘
//! ```
//!
//! [`Front::start`] starts the reactor and pool threads. [`Front::stop`]
//! (or dropping the front) drains every session, joins the reactor, and
//! only then closes and joins the pool, so answers still being computed
//! reach their sessions during the drain.
//!
//! ## Response streaming
//!
//! A response is a [`ResponseSource`]: a lazy sequence of encoded frames.
//! The loop pulls the next frame only while fewer than ~64 KiB sit
//! unwritten, then writes everything pulled in one vectored write — one
//! syscall per burst, not per frame — so a result with hundreds of region
//! frames occupies bounded memory no matter how slowly the peer reads (the
//! 64 MiB frame cap bounds the worst single step). Sources can defer a frame until every
//! previously yielded byte reached the socket (`flushed`), which is how
//! the server measures its stream phase exactly.

#![deny(clippy::undocumented_unsafe_blocks)]

mod poller;

pub use poller::{wake_pipe, Event, Interest, Poller, WakeReader, Waker};

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tasm_obs::sync;
use tasm_proto::nio::{FrameQueue, FrameReader, ReadProgress, WireBuffers, WriteProgress};
use tasm_proto::{ErrorCode, Message, VERSION};

/// Unwritten-byte threshold below which the loop asks sources for more
/// frames. Small enough to bound buffering; and since the queue hands
/// everything it holds to the socket in one `writev`, this is also the
/// size of a burst: a header plus the regions that fit under the mark
/// leave in one syscall, so a response costs about `bytes / LOW_WATER`
/// writes, not one per frame.
const LOW_WATER: usize = 64 * 1024;

/// How long a write may make zero progress against a full socket buffer
/// before the session is abandoned.
const WRITE_STALL: Duration = Duration::from_secs(10);

/// How long a refused connection lingers for the peer to read the refusal
/// frame.
const REFUSE_LINGER: Duration = Duration::from_secs(1);

/// Reserved token for the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Reserved token for the wake pipe.
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// An encoded `Error` frame.
pub fn error_frame(id: Option<u64>, code: ErrorCode, message: String) -> Vec<u8> {
    Message::Error { id, code, message }.encode()
}

/// What a [`ResponseSource`] produced.
pub enum NextFrame {
    /// One encoded frame (length prefix included).
    Frame(Vec<u8>),
    /// Nothing yet — only legal while `flushed` is false; the source is
    /// re-asked once every previously yielded byte reached the socket.
    Wait,
    /// The response is complete.
    Done,
}

/// A lazily encoded response: frames are pulled one at a time as socket
/// capacity frees up, so encoding never races ahead of the peer by more
/// than the low-water mark plus one frame.
pub trait ResponseSource: Send {
    /// The next frame. `flushed` is true when every byte this source
    /// previously yielded has been handed to the socket. `spare` holds the
    /// buffers of frames the session has finished writing; a source that
    /// encodes here takes one to encode into.
    fn next_frame(&mut self, flushed: bool, spare: &WireBuffers) -> NextFrame;
}

/// Frames already encoded, sent in order.
impl ResponseSource for std::vec::IntoIter<Vec<u8>> {
    fn next_frame(&mut self, _flushed: bool, _spare: &WireBuffers) -> NextFrame {
        self.next().map_or(NextFrame::Done, NextFrame::Frame)
    }
}

/// What a front serves beyond the session protocol the loop speaks itself.
/// Every method runs on the reactor thread; none may block.
pub trait Logic: Send + 'static {
    /// What the front calls itself in the frames the loop writes for it.
    const NAME: &'static str;
    /// The per-session in-flight cap its `ServerHello` advertises.
    fn max_inflight(&self) -> u32;
    /// One request from a session past its hello, other than `Goodbye` and
    /// `ShutdownServer`. Returns false for a message this front does not
    /// serve; the loop then answers `Malformed` and closes the session.
    fn on_request(&mut self, ctl: &mut Ctl, token: u64, msg: Message) -> bool;
    /// A connection was admitted; `active` sessions are now held.
    fn on_accept(&mut self, _active: usize) {}
    /// A session completed its hello exchange.
    fn on_hello(&mut self) {}
    /// A connection over the cap was refused.
    fn on_refused(&mut self) {}
    /// A session left the loop, for any reason; `active` sessions remain.
    fn on_close(&mut self, _token: u64, _active: usize) {}
}

/// The loop's clock. Serving always runs [`Timing::SERVING`]; the type
/// exists so this crate's tests can shorten the deadlines.
#[derive(Debug, Clone, Copy)]
struct Timing {
    /// Upper bound on one `wait` — the cadence of the timer sweep and how
    /// fast an idle loop notices the shutdown flag.
    poll: Duration,
    /// How long a connection may sit without completing its handshake.
    handshake: Duration,
    /// Wall-clock bound on receiving one frame once its first byte
    /// arrived (anti-trickle).
    frame: Duration,
}

impl Timing {
    const SERVING: Timing = Timing {
        poll: Duration::from_millis(25),
        handshake: Duration::from_secs(10),
        frame: Duration::from_secs(30),
    };
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    out: FrameQueue,
    pending: VecDeque<Box<dyn ResponseSource>>,
    handshaken: bool,
    /// Reads suspended (an offloaded operation is in flight).
    paused: bool,
    /// No further requests; close once in-flight work drains and the
    /// output flushes.
    draining: bool,
    /// Refused at admission: flush the refusal frame, linger, close.
    refusing: bool,
    /// Write side already shut down (refusal linger).
    half_closed: bool,
    /// Peer closed its write side.
    peer_eof: bool,
    /// Fatal transport error: close at the next sweep.
    closing: bool,
    /// Operations admitted on behalf of this session whose answers have
    /// not been queued yet.
    inflight: u32,
    opened: Instant,
    /// Set while the socket accepts no bytes and output is pending.
    blocked_since: Option<Instant>,
    registered: Interest,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            reader: FrameReader::new(),
            out: FrameQueue::new(),
            pending: VecDeque::new(),
            handshaken: false,
            paused: false,
            draining: false,
            refusing: false,
            half_closed: false,
            peer_eof: false,
            closing: false,
            inflight: 0,
            opened: Instant::now(),
            blocked_since: None,
            registered: Interest::READ,
        }
    }
}

/// One step of the per-connection read pump (computed under the map
/// borrow, acted on outside it).
enum ReadStep {
    Dispatch(Vec<u8>),
    Stop,
}

/// Shutdown state shared by a front's handle and its loop.
#[derive(Default)]
struct Flags {
    /// Set by [`Front::stop`]: the loop drains its sessions and exits.
    shutdown: AtomicBool,
    /// Set when a client sends `ShutdownServer`. A flag, only ever set
    /// whole: taken as is on poison.
    requested: Mutex<bool>,
    requested_cv: Condvar,
}

/// An answer bound for a session, queued from any thread.
struct Completion {
    token: u64,
    response: Box<dyn ResponseSource>,
    /// The answer to an offloaded job: its session reads again.
    resume: bool,
}

/// Hands answers made off the loop thread back to their sessions.
#[derive(Clone)]
pub struct Completer {
    /// Taken as is on poison: answers are pushed and taken whole.
    queue: Arc<Mutex<Vec<Completion>>>,
    waker: Waker,
}

impl Completer {
    /// Queues `response` on session `token` and frees the in-flight slot
    /// [`Ctl::inflight_inc`] reserved for it. The answer to a session that
    /// has closed meanwhile is dropped.
    pub fn complete(&self, token: u64, response: impl ResponseSource + 'static) {
        self.push(token, Box::new(response), false);
    }

    fn push(&self, token: u64, response: Box<dyn ResponseSource>, resume: bool) {
        sync::lock(&self.queue).push(Completion {
            token,
            response,
            resume,
        });
        self.waker.wake();
    }
}

/// An offloaded operation: runs on a pool thread and returns its answer.
type Run = Box<dyn FnOnce(&WireBuffers) -> Box<dyn ResponseSource> + Send>;

/// A blocking operation for one paused session.
struct Job {
    token: u64,
    /// The session's flushed frame buffers, for the answer to encode into.
    spare: Arc<WireBuffers>,
    run: Run,
}

/// The queue the front's pool threads take jobs from. A mutex and condvar
/// so several workers can wait at once; sharing one `mpsc::Receiver` would
/// serialize pickup behind its lock.
#[derive(Default)]
struct Pool {
    /// Queued jobs, and whether the pool has closed. Taken as is on
    /// poison: jobs are pushed and popped whole, the flag set whole.
    state: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
}

impl Pool {
    fn push(&self, job: Job) {
        sync::lock(&self.state).0.push_back(job);
        self.ready.notify_one();
    }

    /// The next job; `None` once the pool has closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut state = sync::lock(&self.state);
        loop {
            if let Some(job) = state.0.pop_front() {
                return Some(job);
            }
            if state.1 {
                return None;
            }
            state = sync::wait(&self.ready, state);
        }
    }

    fn close(&self) {
        sync::lock(&self.state).1 = true;
        self.ready.notify_all();
    }

    /// One pool thread: runs jobs until the pool closes, handing each
    /// answer back to its session. A job that panics is answered with a
    /// typed error, so its session resumes and the thread lives on.
    fn work(&self, done: &Completer) {
        while let Some(Job { token, spare, run }) = self.pop() {
            let response = catch_unwind(AssertUnwindSafe(|| run(&spare))).unwrap_or_else(|_| {
                let frame = error_frame(None, ErrorCode::Internal, "the operation panicked".into());
                Box::new(vec![frame].into_iter())
            });
            done.push(token, response, true);
        }
    }
}

/// The event loop's mutable state, exposed to [`Logic`] callbacks for
/// session operations.
pub struct Ctl {
    poller: Poller,
    listener: TcpListener,
    wake_reader: WakeReader,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Non-refused connections currently in the map.
    active: usize,
    /// Concurrent non-refused connections; beyond this, connects get the
    /// refusal frame and a lingered close.
    max_connections: usize,
    timing: Timing,
    flags: Arc<Flags>,
    completer: Completer,
    pool: Arc<Pool>,
}

impl Ctl {
    /// Builds the loop state: nonblocking listener + wake pipe, both
    /// registered with a fresh poller. Fails where readiness polling is
    /// unsupported (off unix), so serving there is a bind error.
    fn new(listener: TcpListener, max_connections: usize, timing: Timing) -> std::io::Result<Ctl> {
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        let (waker, wake_reader) = wake_pipe()?;
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
            poller.register(wake_reader.raw_fd(), TOKEN_WAKE, Interest::READ)?;
        }
        Ok(Ctl {
            poller,
            listener,
            wake_reader,
            conns: HashMap::new(),
            next_token: 0,
            active: 0,
            max_connections,
            timing,
            flags: Arc::default(),
            completer: Completer {
                queue: Arc::default(),
                waker,
            },
            pool: Arc::default(),
        })
    }

    /// Whether the front is stopping; new work should be refused.
    pub fn shutting_down(&self) -> bool {
        self.flags.shutdown.load(Ordering::SeqCst)
    }

    /// A handle that delivers answers from other threads.
    pub fn completer(&self) -> Completer {
        self.completer.clone()
    }

    /// Queues one encoded frame on a session. Responses are strictly FIFO
    /// per session; frames of different responses never interleave.
    pub fn send_frame(&mut self, token: u64, frame: Vec<u8>) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.pending.push_back(Box::new(vec![frame].into_iter()));
        }
    }

    /// Runs `job` on the front's pool and pauses the session until its
    /// answer is queued: the session reads no further request meanwhile,
    /// so the answer leaves before the next request is even decoded. The
    /// job gets the session's flushed frame buffers to encode into.
    pub fn offload<R: ResponseSource + 'static>(
        &mut self,
        token: u64,
        job: impl FnOnce(&WireBuffers) -> R + Send + 'static,
    ) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.paused = true;
        conn.inflight += 1;
        let run: Run = Box::new(move |spare: &WireBuffers| -> Box<dyn ResponseSource> {
            Box::new(job(spare))
        });
        self.pool.push(Job {
            token,
            spare: Arc::clone(conn.out.spare()),
            run,
        });
    }

    /// Reserves an in-flight slot on the session for an answer a
    /// [`Completer`] will deliver.
    pub fn inflight_inc(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.inflight += 1;
        }
    }

    /// In-flight operations on the session (0 for unknown tokens).
    pub fn inflight(&self, token: u64) -> u32 {
        self.conns.get(&token).map(|c| c.inflight).unwrap_or(0)
    }

    /// Stops reading requests; the session closes once its in-flight
    /// operations complete and the output queue flushes.
    fn begin_drain(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.draining = true;
        }
    }

    /// Answers with a typed error, then closes the session.
    fn fail(&mut self, token: u64, code: ErrorCode, message: String) {
        self.send_frame(token, error_frame(None, code, message));
        self.begin_drain(token);
    }

    /// One complete inbound frame: the hello exchange and the generic
    /// replies here, every other request to the logic.
    fn on_frame<L: Logic>(&mut self, logic: &mut L, token: u64, payload: Vec<u8>) {
        let Some(handshaken) = self.conns.get(&token).map(|c| c.handshaken) else {
            return;
        };
        let Ok(msg) = Message::decode_payload(&payload) else {
            let text = if handshaken {
                "undecodable frame"
            } else {
                "expected client hello"
            };
            return self.fail(token, ErrorCode::Malformed, text.to_string());
        };
        match msg {
            Message::ClientHello { version } if !handshaken && version == VERSION => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.handshaken = true;
                }
                logic.on_hello();
                let hello = Message::ServerHello {
                    version: VERSION,
                    max_inflight: logic.max_inflight(),
                };
                self.send_frame(token, hello.encode());
            }
            Message::ClientHello { version } if !handshaken => {
                let text = format!(
                    "{} speaks version {VERSION}, client sent {version}",
                    L::NAME
                );
                self.fail(token, ErrorCode::VersionMismatch, text);
            }
            _ if !handshaken => {
                self.fail(token, ErrorCode::Malformed, "expected client hello".into())
            }
            Message::Goodbye => self.begin_drain(token),
            Message::ShutdownServer => {
                *sync::lock(&self.flags.requested) = true;
                self.flags.requested_cv.notify_all();
                self.send_frame(token, Message::Goodbye.encode());
                self.begin_drain(token);
            }
            msg => {
                if !logic.on_request(self, token, msg) {
                    // Hellos after the handshake, server-only frames.
                    self.fail(token, ErrorCode::Malformed, "unexpected frame".into());
                }
            }
        }
    }

    /// Queues every answer completed off the loop on its session.
    fn deliver(&mut self) {
        let batch = std::mem::take(&mut *sync::lock(&self.completer.queue));
        for done in batch {
            // A session that closed first has no reader for its answer.
            let Some(conn) = self.conns.get_mut(&done.token) else {
                continue;
            };
            conn.inflight = conn.inflight.saturating_sub(1);
            if done.resume {
                conn.paused = false;
                // A partial frame buffered behind the request that paused
                // the session waited on us, not on the peer.
                conn.reader.restart_frame_clock();
            }
            conn.pending.push_back(done.response);
        }
    }

    fn accept_burst<L: Logic>(&mut self, logic: &mut L) {
        loop {
            if self.shutting_down() {
                return;
            }
            let (stream, _peer) = match self.listener.accept() {
                Ok(conn) => conn,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            // Small response frames must not sit in Nagle's buffer
            // waiting for a delayed ACK.
            stream.set_nodelay(true).ok();
            let over = self.active >= self.max_connections;
            let mut conn = Conn::new(stream);
            conn.refusing = over;
            let token = self.next_token;
            self.next_token += 1;
            #[cfg(unix)]
            let registered = {
                use std::os::fd::AsRawFd;
                self.poller
                    .register(conn.stream.as_raw_fd(), token, Interest::READ)
                    .is_ok()
            };
            #[cfg(not(unix))]
            let registered = false;
            if !registered {
                continue;
            }
            self.conns.insert(token, conn);
            if over {
                // The refusal frame flushes through the normal write pump;
                // inbound bytes (the peer's hello) are read and discarded
                // so the close never turns into an RST that could eat the
                // queued error frame.
                logic.on_refused();
                let text = format!("{} is at its connection limit", L::NAME);
                self.send_frame(
                    token,
                    error_frame(None, ErrorCode::TooManyConnections, text),
                );
            } else {
                self.active += 1;
                logic.on_accept(self.active);
            }
        }
    }

    fn pump_read<L: Logic>(&mut self, logic: &mut L, token: u64) {
        loop {
            let step = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.closing {
                    return;
                }
                if conn.refusing || conn.draining {
                    // Discard inbound bytes; note EOF for teardown.
                    let mut scratch = [0u8; 4096];
                    loop {
                        match conn.stream.read(&mut scratch) {
                            Ok(0) => {
                                conn.peer_eof = true;
                                break;
                            }
                            Ok(_) => continue,
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    std::io::ErrorKind::WouldBlock
                                        | std::io::ErrorKind::Interrupted
                                ) =>
                            {
                                break;
                            }
                            Err(_) => {
                                conn.peer_eof = true;
                                break;
                            }
                        }
                    }
                    return;
                }
                if conn.paused {
                    return;
                }
                match conn.reader.fill_from(&mut conn.stream) {
                    Ok(ReadProgress::Frame(payload)) => ReadStep::Dispatch(payload.into_owned()),
                    Ok(ReadProgress::NeedMore) => ReadStep::Stop,
                    Ok(ReadProgress::Closed) => {
                        // Clean EOF: in-flight work still completes and
                        // flushes (the write pump notices a dead peer).
                        conn.draining = true;
                        conn.peer_eof = true;
                        ReadStep::Stop
                    }
                    Err(e) => {
                        conn.draining = true;
                        if let tasm_proto::ProtoError::Oversized(_) = e {
                            // Report before closing; a length-prefixed
                            // stream cannot resynchronize.
                            let frame =
                                error_frame(None, ErrorCode::Malformed, "undecodable frame".into());
                            conn.pending.push_back(Box::new(vec![frame].into_iter()));
                        } else {
                            conn.peer_eof = true;
                        }
                        ReadStep::Stop
                    }
                }
            };
            match step {
                ReadStep::Dispatch(payload) => self.on_frame(logic, token, payload),
                ReadStep::Stop => return,
            }
        }
    }

    /// Encode pump + write pump for one session (see [`pump`]).
    fn pump_out(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.closing {
            return;
        }
        match pump(&mut conn.pending, &mut conn.out, &mut conn.stream) {
            Ok(WriteProgress::Blocked { progressed: false }) => {
                conn.blocked_since.get_or_insert_with(Instant::now);
            }
            Ok(_) => conn.blocked_since = None,
            Err(_) => conn.closing = true,
        }
    }

    /// Per-iteration housekeeping: output pumps, liveness timers,
    /// teardown, and interest reconciliation.
    fn sweep<L: Logic>(&mut self, logic: &mut L) {
        let now = Instant::now();
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        let mut to_close: Vec<u64> = Vec::new();
        for &token in &tokens {
            // A session paused mid-burst left whole frames in its reader;
            // the socket will not signal bytes it has already given up.
            if self.conns.get(&token).is_some_and(|c| {
                !(c.paused || c.draining || c.refusing || c.closing) && c.reader.frame_ready()
            }) {
                self.pump_read(logic, token);
            }
            self.pump_out(token);
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            // One arm per way a connection can expire, in order of precedence.
            #[allow(clippy::if_same_then_else)]
            let expired = if conn.closing {
                true
            } else if conn.refusing {
                if conn.out.is_empty() && conn.pending.is_empty() && !conn.half_closed {
                    let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                    conn.half_closed = true;
                }
                conn.peer_eof || now.duration_since(conn.opened) > REFUSE_LINGER
            } else if !conn.handshaken && now.duration_since(conn.opened) > self.timing.handshake {
                true
            } else if !conn.paused
                && conn
                    .reader
                    .frame_started()
                    .is_some_and(|t| now.duration_since(t) > self.timing.frame)
            {
                true
            } else if conn
                .blocked_since
                .is_some_and(|t| now.duration_since(t) > WRITE_STALL)
            {
                true
            } else {
                conn.draining
                    && conn.inflight == 0
                    && conn.pending.is_empty()
                    && conn.out.is_empty()
            };
            if expired {
                to_close.push(token);
                continue;
            }
            let want = Interest {
                readable: if conn.refusing || conn.draining {
                    !conn.peer_eof
                } else {
                    !conn.paused
                },
                writable: !conn.out.is_empty(),
            };
            if want != conn.registered {
                #[cfg(unix)]
                {
                    use std::os::fd::AsRawFd;
                    let fd = conn.stream.as_raw_fd();
                    if self.poller.reregister(fd, token, want).is_ok() {
                        conn.registered = want;
                    }
                }
            }
        }
        for token in to_close {
            self.close(logic, token);
        }
    }

    fn close<L: Logic>(&mut self, logic: &mut L, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            #[cfg(unix)]
            {
                use std::os::fd::AsRawFd;
                let _ = self.poller.deregister(conn.stream.as_raw_fd());
            }
            if !conn.refusing {
                self.active -= 1;
                logic.on_close(token, self.active);
            }
        }
    }
}

/// Pulls frames from the front response while fewer than [`LOW_WATER`]
/// bytes sit unwritten, hands the burst to the sink in one vectored write,
/// and repeats until the sink blocks or the responses run dry.
fn pump(
    pending: &mut VecDeque<Box<dyn ResponseSource>>,
    out: &mut FrameQueue,
    sink: &mut impl Write,
) -> std::io::Result<WriteProgress> {
    let mut progressed = false;
    loop {
        while out.queued_bytes() < LOW_WATER {
            let flushed = out.is_empty();
            let Some(src) = pending.front_mut() else {
                break;
            };
            match src.next_frame(flushed, out.spare()) {
                NextFrame::Frame(f) => out.push(f),
                NextFrame::Wait => break,
                NextFrame::Done => {
                    pending.pop_front();
                }
            }
        }
        if out.is_empty() {
            return Ok(WriteProgress::Flushed);
        }
        match out.write_to(sink)? {
            // Sources gated on `flushed` can now continue.
            WriteProgress::Flushed => progressed = true,
            WriteProgress::Blocked { progressed: now } => {
                return Ok(WriteProgress::Blocked {
                    progressed: progressed || now,
                });
            }
        }
    }
}

/// Runs the loop until the shutdown flag is set *and* every session has
/// drained (in-flight operations completed, responses flushed — each
/// bounded by the write-stall deadline against unreachable peers).
fn run<L: Logic>(mut ctl: Ctl, mut logic: L) {
    let mut events: Vec<Event> = Vec::new();
    loop {
        if ctl.shutting_down() {
            for token in ctl.conns.keys().copied().collect::<Vec<_>>() {
                ctl.begin_drain(token);
            }
            if ctl.conns.is_empty() {
                break;
            }
        }
        if ctl.poller.wait(&mut events, ctl.timing.poll).is_err() {
            break;
        }
        let mut woke = false;
        for &ev in &events {
            match ev.token {
                TOKEN_LISTENER => ctl.accept_burst(&mut logic),
                TOKEN_WAKE => {
                    ctl.wake_reader.drain();
                    woke = true;
                }
                token => {
                    if ev.readable || ev.hangup {
                        ctl.pump_read(&mut logic, token);
                    }
                    if ev.writable {
                        ctl.pump_out(token);
                    }
                }
            }
        }
        if woke {
            ctl.deliver();
        }
        ctl.sweep(&mut logic);
    }
    for token in ctl.conns.keys().copied().collect::<Vec<_>>() {
        ctl.close(&mut logic, token);
    }
}

/// A running front: the reactor thread that owns the listener and every
/// session, and the pool that runs offloaded jobs.
pub struct Front {
    flags: Arc<Flags>,
    pool: Arc<Pool>,
    waker: Waker,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Front {
    /// Serves `listener` with `logic` on a reactor thread named
    /// `<name>-reactor`, with `workers` pool threads named
    /// `<name>-worker-<i>` for offloaded jobs. Past `max_connections`
    /// concurrent sessions, a connect gets the refusal frame and a
    /// lingered close. Fails where readiness polling is unsupported (off
    /// unix).
    pub fn start<L: Logic>(
        listener: TcpListener,
        max_connections: usize,
        logic: L,
        name: &str,
        workers: usize,
    ) -> std::io::Result<Front> {
        Self::start_timed(
            listener,
            max_connections,
            Timing::SERVING,
            logic,
            name,
            workers,
        )
    }

    /// [`Front::start`] on the given clock.
    fn start_timed<L: Logic>(
        listener: TcpListener,
        max_connections: usize,
        timing: Timing,
        logic: L,
        name: &str,
        workers: usize,
    ) -> std::io::Result<Front> {
        let ctl = Ctl::new(listener, max_connections, timing)?;
        // Every handle lands in `front` as soon as it exists, so a failed
        // spawn below returns through `Drop`, which closes the pool and
        // joins what did start.
        let mut front = Front {
            flags: Arc::clone(&ctl.flags),
            pool: Arc::clone(&ctl.pool),
            waker: ctl.completer.waker.clone(),
            reactor: None,
            workers: Vec::new(),
        };
        for i in 0..workers {
            let (pool, done) = (Arc::clone(&front.pool), ctl.completer());
            front.workers.push(
                std::thread::Builder::new()
                    .name(format!("{name}-worker-{i}"))
                    .spawn(move || pool.work(&done))?,
            );
        }
        front.reactor = Some(
            std::thread::Builder::new()
                .name(format!("{name}-reactor"))
                .spawn(move || run(ctl, logic))?,
        );
        Ok(front)
    }

    /// True once a client has sent `ShutdownServer`.
    pub fn shutdown_requested(&self) -> bool {
        *sync::lock(&self.flags.requested)
    }

    /// Blocks until a client sends `ShutdownServer`.
    pub fn wait_shutdown_requested(&self) {
        let mut requested = sync::lock(&self.flags.requested);
        while !*requested {
            requested = sync::wait(&self.flags.requested_cv, requested);
        }
    }

    /// Stops the front (idempotent): accepting ends, every session
    /// finishes what it has in flight and flushes, the reactor is joined,
    /// and then the pool closes and its threads are joined.
    pub fn stop(&mut self) {
        self.flags.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(t) = self.reactor.take() {
            let _ = t.join();
        }
        self.pool.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Front {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::IoSlice;
    use std::sync::atomic::AtomicUsize;

    /// Takes everything offered and counts the calls it took.
    #[derive(Default)]
    struct CountingSink {
        calls: usize,
        bytes: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            let n = bufs.iter().map(|b| b.len()).sum();
            self.calls += 1;
            self.bytes += n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Frames in order; the last one only once everything before it has
    /// reached the sink, as a query's `ResultDone` does.
    struct Response(VecDeque<Vec<u8>>);

    impl ResponseSource for Response {
        fn next_frame(&mut self, flushed: bool, _spare: &WireBuffers) -> NextFrame {
            match self.0.len() {
                0 => NextFrame::Done,
                1 if !flushed => NextFrame::Wait,
                _ => NextFrame::Frame(self.0.pop_front().expect("non-empty")),
            }
        }
    }

    /// Deregistering an fd moves the last entry into its place: the moved
    /// fd is still found by fd, and a removed one is not.
    #[cfg(unix)]
    #[test]
    fn the_poller_finds_an_fd_after_another_leaves() {
        use std::os::fd::AsRawFd;
        use std::os::unix::net::UnixStream;
        let pairs: Vec<_> = (0..3).map(|_| UnixStream::pair().unwrap()).collect();
        let fd = |i: usize| pairs[i].0.as_raw_fd();
        let mut poller = Poller::new().unwrap();
        for i in 0..3 {
            poller.register(fd(i), i as u64, Interest::READ).unwrap();
        }
        poller.deregister(fd(0)).unwrap();
        assert!(poller.deregister(fd(0)).is_err());
        assert!(poller.reregister(fd(0), 0, Interest::READ).is_err());
        let write = Interest {
            readable: true,
            writable: true,
        };
        poller.reregister(fd(2), 7, write).unwrap();
        (&pairs[1].1).write_all(b"x").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Duration::from_millis(100))
            .unwrap();
        let mut seen: Vec<_> = events
            .iter()
            .map(|e| (e.token, e.readable, e.writable))
            .collect();
        seen.sort();
        assert_eq!(seen, [(1, true, false), (7, false, true)]);
    }

    /// A header, 40 regions of ~6.9 KB and a done frame — the shape of a
    /// `warm_serve` response, ~270 KB — leave in a write per burst, not a
    /// write per frame.
    #[test]
    fn a_response_costs_a_write_per_burst() {
        let mut frames = VecDeque::from([vec![4u8; 73]]);
        frames.extend((0..40).map(|i| vec![i as u8; 6965]));
        frames.push_back(vec![6u8; 152]);
        let bytes: usize = frames.iter().map(Vec::len).sum();
        let mut pending: VecDeque<Box<dyn ResponseSource>> = VecDeque::new();
        pending.push_back(Box::new(Response(frames)));
        let (mut out, mut sink) = (FrameQueue::new(), CountingSink::default());
        let progress = pump(&mut pending, &mut out, &mut sink).expect("sink never fails");
        assert_eq!(progress, WriteProgress::Flushed);
        assert!(pending.is_empty() && out.is_empty());
        assert_eq!(sink.bytes, bytes);
        assert!(
            sink.calls <= bytes.div_ceil(LOW_WATER) + 2,
            "{} writes for {bytes} bytes in 42 frames",
            sink.calls
        );
    }

    /// A query response as the server builds one: header and closing frame
    /// allocated fresh, every region encoded into a spare buffer.
    struct Encoded {
        sent: usize,
        regions: usize,
    }

    impl ResponseSource for Encoded {
        fn next_frame(&mut self, flushed: bool, spare: &WireBuffers) -> NextFrame {
            let last = self.regions + 1;
            if self.sent > last || (self.sent == last && !flushed) {
                return if self.sent > last {
                    NextFrame::Done
                } else {
                    NextFrame::Wait
                };
            }
            self.sent += 1;
            NextFrame::Frame(match self.sent - 1 {
                0 => vec![4u8; 73],
                n if n == last => vec![6u8; 152],
                n => {
                    let mut frame = spare.take(6000 + n);
                    frame.clear();
                    frame.resize(6000 + n, n as u8);
                    frame
                }
            })
        }
    }

    /// What a session keeps of its flushed frames is a burst's worth, however
    /// many answers it has streamed: the small frames that did not come from
    /// the free list do not displace the ones that did.
    #[test]
    fn a_sessions_spare_buffers_do_not_grow_with_its_answers() {
        let (mut out, mut sink) = (FrameQueue::new(), CountingSink::default());
        let mut pending: VecDeque<Box<dyn ResponseSource>> = VecDeque::new();
        let mut kept = Vec::new();
        for _ in 0..300 {
            pending.push_back(Box::new(Encoded {
                sent: 0,
                regions: 40,
            }));
            let progress = pump(&mut pending, &mut out, &mut sink).expect("sink never fails");
            assert_eq!(progress, WriteProgress::Flushed);
            kept.push(out.spare().retained_bytes());
        }
        assert!(kept[299] > 0 && kept[299] <= 2 * LOW_WATER, "{kept:?}");
        assert_eq!(kept[299], kept[9], "{kept:?}");
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(payload);
        frame
    }

    fn hello() -> Vec<u8> {
        Message::ClientHello { version: VERSION }.encode()
    }

    /// The greeting [`Echo`] answers a hello with.
    fn server_hello() -> Vec<u8> {
        Message::ServerHello {
            version: VERSION,
            max_inflight: 1,
        }
        .encode()
    }

    /// Echoes every request; a `StatsRequest` is echoed by an offloaded job
    /// that takes `hold`, pausing its session as an order-sensitive admin
    /// operation does. Publishes the loop's open-session count.
    struct Echo {
        hold: Duration,
        open: Arc<AtomicUsize>,
    }

    impl Logic for Echo {
        const NAME: &'static str = "echo";

        fn max_inflight(&self) -> u32 {
            1
        }

        fn on_request(&mut self, ctl: &mut Ctl, token: u64, msg: Message) -> bool {
            let frame = msg.encode();
            if matches!(msg, Message::StatsRequest) {
                let hold = self.hold;
                ctl.offload(token, move |_| {
                    std::thread::sleep(hold);
                    vec![frame].into_iter()
                });
            } else {
                ctl.send_frame(token, frame);
            }
            true
        }

        fn on_accept(&mut self, active: usize) {
            self.open.store(active, Ordering::SeqCst);
        }

        fn on_close(&mut self, _token: u64, active: usize) {
            self.open.store(active, Ordering::SeqCst);
        }
    }

    /// A front over [`Echo`] on loopback: its address, its published
    /// open-session count, and the front.
    fn echo_front(
        timing: Timing,
        hold: Duration,
    ) -> (std::net::SocketAddr, Arc<AtomicUsize>, Front) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let open = Arc::new(AtomicUsize::new(0));
        let logic = Echo {
            hold,
            open: open.clone(),
        };
        let front = Front::start_timed(listener, 64, timing, logic, "echo", 1).expect("front");
        (addr, open, front)
    }

    /// A pipelined client's next frame may sit half-received in the read
    /// buffer behind the frame that paused the session. The time the
    /// session spends paused is not the peer trickling: the frame deadline
    /// neither fires during the pause nor the moment it ends.
    #[test]
    fn a_pause_longer_than_the_frame_deadline_keeps_the_session() {
        let timing = Timing {
            poll: Duration::from_millis(5),
            frame: Duration::from_millis(100),
            ..Timing::SERVING
        };
        let (addr, _open, mut front) = echo_front(timing, Duration::from_millis(300));

        let mut client = TcpStream::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        client.write_all(&hello()).expect("hello");
        let mut greeting = vec![0u8; server_hello().len()];
        client.read_exact(&mut greeting).expect("greeting");
        let admin = Message::StatsRequest.encode();
        let next = Message::ManifestRequest {
            video: "the frame behind it".to_string(),
        }
        .encode();
        let mut burst = admin.clone();
        burst.extend_from_slice(&next[..9]);
        client.write_all(&burst).expect("burst");
        let mut echo = vec![0u8; admin.len()];
        client.read_exact(&mut echo).expect("admin echoed");
        // The peer has now sent everything; the rest of the frame waits in
        // the socket until the pause — three deadlines long — is over.
        client.write_all(&next[9..]).expect("rest of the frame");
        let mut echo = vec![0u8; next.len()];
        client
            .read_exact(&mut echo)
            .expect("session survived the pause");
        assert_eq!(echo, next);

        drop(client);
        front.stop();
    }

    /// Both liveness deadlines in the tests below.
    const DEADLINE: Duration = Duration::from_millis(100);
    /// The loop's poll interval, and the client's pace when it trickles.
    const POLL: Duration = Duration::from_millis(5);

    /// A front with both deadlines at [`DEADLINE`].
    fn deadline_front() -> (std::net::SocketAddr, Arc<AtomicUsize>, Front) {
        let timing = Timing {
            poll: POLL,
            handshake: DEADLINE,
            frame: DEADLINE,
        };
        echo_front(timing, Duration::ZERO)
    }

    /// Waits (a bounded while) for the loop to publish `n` open sessions.
    fn await_open(open: &AtomicUsize, n: usize) {
        let start = Instant::now();
        while open.load(Ordering::SeqCst) != n {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "the loop holds {} sessions, expected {n}",
                open.load(Ordering::SeqCst)
            );
            std::thread::sleep(POLL);
        }
    }

    /// Whether a read says the server closed the connection: EOF, or a
    /// reset when bytes it never read were still in flight.
    fn closed(read: &std::io::Result<usize>) -> bool {
        match read {
            Ok(n) => *n == 0,
            Err(e) => matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::ConnectionAborted
            ),
        }
    }

    /// A peer that connects and says nothing is closed once the handshake
    /// deadline passes, and its slot frees.
    #[test]
    fn a_silent_peer_is_closed_at_the_handshake_deadline() {
        let (addr, open, mut front) = deadline_front();
        let start = Instant::now();
        let mut client = TcpStream::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        await_open(&open, 1);
        let mut byte = [0u8; 1];
        let end = client.read(&mut byte);
        assert!(closed(&end), "not closed: {end:?}");
        let waited = start.elapsed();
        assert!(
            waited >= DEADLINE && waited < 5 * DEADLINE,
            "closed after {waited:?}"
        );
        await_open(&open, 0);

        front.stop();
    }

    /// A peer past its hello that sends half a frame and then one byte per
    /// poll — enough to look alive, never enough to finish — is closed once
    /// the frame deadline passes, and its slot frees.
    #[test]
    fn a_trickling_peer_is_closed_at_the_frame_deadline() {
        let (addr, open, mut front) = deadline_front();
        let mut client = TcpStream::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        client.write_all(&hello()).expect("hello");
        let mut greeting = vec![0u8; server_hello().len()];
        client.read_exact(&mut greeting).expect("hello answered");
        await_open(&open, 1);

        // At one byte per poll the rest of this frame would take 5 s.
        let frame = framed(&[7u8; 2000]);
        let (half, rest) = frame.split_at(frame.len() / 2);
        client.set_read_timeout(Some(POLL)).expect("timeout");
        let start = Instant::now();
        client.write_all(half).expect("half a frame");
        let mut byte = [0u8; 1];
        // Each pass waits one poll for the close, then sends one more byte.
        let shut = rest.iter().any(|&b| {
            let read = client.read(&mut byte);
            assert!(!matches!(read, Ok(n) if n > 0), "an answer to no frame");
            closed(&read) || client.write_all(&[b]).is_err()
        });
        let waited = start.elapsed();
        assert!(shut, "the whole frame went through");
        assert!(
            waited >= DEADLINE && waited < 5 * DEADLINE,
            "closed after {waited:?}"
        );
        await_open(&open, 0);

        front.stop();
    }
}
