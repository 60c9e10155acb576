//! # tasm-reactor: readiness-driven session event loop
//!
//! One thread owns every client socket: a nonblocking listener, a wake
//! pipe, and per-connection state machines. Frames are assembled
//! incrementally (never blocking mid-frame) with
//! [`tasm_proto::nio::FrameReader`], and responses stream out through a
//! resumable [`tasm_proto::nio::FrameQueue`] driven by write-readiness —
//! a peer that stops reading costs a buffer, not a parked thread.
//!
//! The loop is protocol-agnostic: it moves frames, enforces admission
//! (`max_connections`) and the liveness deadlines (handshake, mid-frame
//! stall, write stall), and delegates every decoded payload to a
//! [`Logic`] implementation. tasm-server plugs in query dispatch;
//! tasm-cluster's router plugs in shard routing. Completed work re-enters
//! the loop through the [`Waker`] half of a self-notification pipe.
//!
//! ```text
//!        epoll/poll wait ──────────────────────────────┐
//!          │ listener readable → accept burst          │
//!          │   over cap → refusal frame, linger, close │
//!          │ wake pipe readable → Logic::on_wake       │ one reactor
//!          │ session readable → FrameReader            │ thread,
//!          │     → Logic::on_frame (dispatch)          │ O(workers)
//!          │ session writable → FrameQueue resume      │ total threads
//!          └ sweep: encode pump, timers, teardown ─────┘
//! ```
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

mod poller;

pub use poller::{wake_pipe, Event, Interest, Poller, WakeReader, Waker};

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tasm_proto::nio::{FrameQueue, FrameReader, ReadProgress, WireBuffers, WriteProgress};

/// Unwritten-byte threshold below which the loop asks sources for more
/// frames. Small enough to bound buffering; and since the queue hands
/// everything it holds to the socket in one `writev`, this is also the
/// size of a burst: a header plus the regions that fit under the mark
/// leave in one syscall, so a response costs about `bytes / LOW_WATER`
/// writes, not one per frame.
const LOW_WATER: usize = 64 * 1024;

/// Reserved token for the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Reserved token for the wake pipe.
const TOKEN_WAKE: u64 = u64::MAX - 1;

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

/// A single pre-encoded frame as a response.
struct OneFrame(Option<Vec<u8>>);

impl ResponseSource for OneFrame {
    fn next_frame(&mut self, _flushed: bool, _spare: &WireBuffers) -> NextFrame {
        match self.0.take() {
            Some(f) => NextFrame::Frame(f),
            None => NextFrame::Done,
        }
    }
}

/// Protocol hooks the event loop drives. All methods run on the reactor
/// thread; none may block.
pub trait Logic {
    /// A connection was admitted (slot reserved, socket registered).
    fn on_accept(&mut self, ctl: &mut Ctl, token: u64);
    /// One complete inbound frame payload (length prefix stripped).
    fn on_frame(&mut self, ctl: &mut Ctl, token: u64, payload: Vec<u8>);
    /// The wake pipe fired: worker completions are waiting.
    fn on_wake(&mut self, ctl: &mut Ctl);
    /// Every loop iteration, after events. Default: nothing.
    fn on_tick(&mut self, _ctl: &mut Ctl) {}
    /// The frame an over-cap connection is sent before its close.
    fn refusal_frame(&mut self) -> Vec<u8>;
    /// An over-cap connection was refused (counters).
    fn on_refused(&mut self) {}
    /// A session left the loop (any reason). `handshaken` says whether it
    /// ever completed its hello exchange.
    fn on_close(&mut self, token: u64, handshaken: bool);
}

/// Liveness and admission knobs of the loop.
#[derive(Debug, Clone, Copy)]
pub struct LoopConfig {
    /// Concurrent non-refused connections; beyond this, connects get the
    /// logic's refusal frame and a lingered close.
    pub max_connections: usize,
    /// Upper bound on one `wait` — the cadence of the timer sweep and how
    /// fast an idle loop notices the shutdown flag.
    pub poll_interval: Duration,
    /// How long a connection may sit without completing its handshake.
    pub handshake_deadline: Duration,
    /// Wall-clock bound on receiving one frame once its first byte
    /// arrived (anti-trickle).
    pub frame_deadline: Duration,
    /// How long a write may make zero progress against a full socket
    /// buffer before the session is abandoned.
    pub write_stall: Duration,
    /// How long a refused connection lingers for the peer to read the
    /// refusal frame.
    pub refuse_linger: Duration,
}

impl Default for LoopConfig {
    fn default() -> Self {
        LoopConfig {
            max_connections: 64,
            poll_interval: Duration::from_millis(25),
            handshake_deadline: Duration::from_secs(10),
            frame_deadline: Duration::from_secs(30),
            write_stall: Duration::from_secs(10),
            refuse_linger: Duration::from_secs(1),
        }
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    out: FrameQueue,
    pending: VecDeque<Box<dyn ResponseSource>>,
    handshaken: bool,
    /// Reads suspended (an order-sensitive operation is in flight).
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
    /// Operations admitted on behalf of this session and not yet
    /// completed (queries on the worker pool, admin ops).
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

/// The event loop's mutable state, exposed to [`Logic`] callbacks for
/// session operations (send, pause, drain, inflight accounting).
pub struct Ctl {
    poller: Poller,
    listener: TcpListener,
    wake_reader: WakeReader,
    waker: Waker,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Non-refused connections currently in the map.
    active: usize,
    cfg: LoopConfig,
    shutdown: Arc<AtomicBool>,
}

impl Ctl {
    /// Builds the loop state: nonblocking listener + wake pipe, both
    /// registered with a fresh poller. Fails where readiness polling is
    /// unsupported (off unix), so serving there is a bind error.
    pub fn new(
        listener: TcpListener,
        cfg: LoopConfig,
        shutdown: Arc<AtomicBool>,
    ) -> std::io::Result<Ctl> {
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
            waker,
            conns: HashMap::new(),
            next_token: 0,
            active: 0,
            cfg,
            shutdown,
        })
    }

    /// A handle worker threads use to nudge the loop after pushing a
    /// completion.
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Non-refused connections currently held.
    pub fn active_sessions(&self) -> usize {
        self.active
    }

    /// Queues one encoded frame on a session.
    pub fn send_frame(&mut self, token: u64, frame: Vec<u8>) {
        self.send_response(token, Box::new(OneFrame(Some(frame))));
    }

    /// Queues a streaming response on a session. Responses are strictly
    /// FIFO per session; frames of different responses never interleave.
    pub fn send_response(&mut self, token: u64, src: Box<dyn ResponseSource>) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.pending.push_back(src);
        }
    }

    /// The session's flushed frame buffers, for a response encoded off the
    /// loop thread (`None` for unknown tokens).
    pub fn spare_buffers(&self, token: u64) -> Option<Arc<WireBuffers>> {
        self.conns.get(&token).map(|c| Arc::clone(c.out.spare()))
    }

    /// Suspends/resumes reading this session's requests (order-sensitive
    /// admin operations pause their session until the ack is queued).
    pub fn set_paused(&mut self, token: u64, paused: bool) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.paused = paused;
            if !paused {
                // A partial frame buffered behind the one that paused the
                // session waited on us, not on the peer.
                conn.reader.restart_frame_clock();
            }
        }
    }

    /// Stops reading requests; the session closes once its in-flight
    /// operations complete and the output queue flushes.
    pub fn begin_drain(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.draining = true;
        }
    }

    /// Reserves one in-flight operation slot on the session.
    pub fn inflight_inc(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.inflight += 1;
        }
    }

    /// Releases one in-flight slot (its completion was delivered — or
    /// discarded, if the session died first; either way the slot frees).
    pub fn inflight_dec(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.inflight = conn.inflight.saturating_sub(1);
        }
    }

    /// In-flight operations on the session (0 for unknown tokens).
    pub fn inflight(&self, token: u64) -> u32 {
        self.conns.get(&token).map(|c| c.inflight).unwrap_or(0)
    }

    /// Marks the hello exchange complete (stops the handshake timer).
    pub fn mark_handshaken(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.handshaken = true;
        }
    }

    /// Whether the session completed its hello exchange.
    pub fn handshaken(&self, token: u64) -> bool {
        self.conns
            .get(&token)
            .map(|c| c.handshaken)
            .unwrap_or(false)
    }

    /// Whether the session still exists.
    pub fn is_open(&self, token: u64) -> bool {
        self.conns.contains_key(&token)
    }

    fn accept_burst<L: Logic>(&mut self, logic: &mut L) {
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
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
            let over = self.active >= self.cfg.max_connections;
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
                let frame = logic.refusal_frame();
                self.send_frame(token, frame);
            } else {
                self.active += 1;
                logic.on_accept(self, token);
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
                        match e {
                            tasm_proto::ProtoError::Oversized(_) => {
                                // Report before closing; a length-prefixed
                                // stream cannot resynchronize.
                                conn.draining = true;
                                let frame = tasm_proto::Message::Error {
                                    id: None,
                                    code: tasm_proto::ErrorCode::Malformed,
                                    message: "undecodable frame".to_string(),
                                }
                                .encode();
                                conn.pending.push_back(Box::new(OneFrame(Some(frame))));
                            }
                            _ => {
                                conn.draining = true;
                                conn.peer_eof = true;
                            }
                        }
                        ReadStep::Stop
                    }
                }
            };
            match step {
                ReadStep::Dispatch(payload) => logic.on_frame(self, token, payload),
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
                conn.peer_eof || now.duration_since(conn.opened) > self.cfg.refuse_linger
            } else if !conn.handshaken
                && now.duration_since(conn.opened) > self.cfg.handshake_deadline
            {
                true
            } else if !conn.paused
                && conn
                    .reader
                    .frame_started()
                    .is_some_and(|t| now.duration_since(t) > self.cfg.frame_deadline)
            {
                true
            } else if conn
                .blocked_since
                .is_some_and(|t| now.duration_since(t) > self.cfg.write_stall)
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
                logic.on_close(token, conn.handshaken);
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
pub fn run<L: Logic>(mut ctl: Ctl, mut logic: L) {
    let mut events: Vec<Event> = Vec::new();
    loop {
        if ctl.shutdown.load(Ordering::SeqCst) {
            for token in ctl.conns.keys().copied().collect::<Vec<_>>() {
                ctl.begin_drain(token);
            }
            if ctl.conns.is_empty() {
                break;
            }
        }
        if ctl.poller.wait(&mut events, ctl.cfg.poll_interval).is_err() {
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
            logic.on_wake(&mut ctl);
        }
        logic.on_tick(&mut ctl);
        ctl.sweep(&mut logic);
    }
    for token in ctl.conns.keys().copied().collect::<Vec<_>>() {
        ctl.close(&mut logic, token);
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

    /// Echoes every frame; the frame `admin` pauses its session until
    /// `hold` has passed, as an order-sensitive admin operation does.
    struct PauseThenEcho {
        hold: Duration,
        paused_at: Option<(u64, Instant)>,
    }

    impl Logic for PauseThenEcho {
        fn on_accept(&mut self, ctl: &mut Ctl, token: u64) {
            ctl.mark_handshaken(token);
        }

        fn on_frame(&mut self, ctl: &mut Ctl, token: u64, payload: Vec<u8>) {
            if payload == b"admin" {
                ctl.set_paused(token, true);
                self.paused_at = Some((token, Instant::now()));
            }
            ctl.send_frame(token, framed(&payload));
        }

        fn on_wake(&mut self, _ctl: &mut Ctl) {}

        fn on_tick(&mut self, ctl: &mut Ctl) {
            if self
                .paused_at
                .is_some_and(|(_, at)| at.elapsed() >= self.hold)
            {
                let (token, _) = self.paused_at.take().expect("checked");
                ctl.set_paused(token, false);
            }
        }

        fn refusal_frame(&mut self) -> Vec<u8> {
            Vec::new()
        }

        fn on_close(&mut self, _token: u64, _handshaken: bool) {}
    }

    /// A pipelined client's next frame may sit half-received in the read
    /// buffer behind the frame that paused the session. The time the
    /// session spends paused is not the peer trickling: the frame deadline
    /// neither fires during the pause nor the moment it ends.
    #[test]
    fn a_pause_longer_than_the_frame_deadline_keeps_the_session() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let cfg = LoopConfig {
            poll_interval: Duration::from_millis(5),
            frame_deadline: Duration::from_millis(100),
            ..LoopConfig::default()
        };
        let ctl = Ctl::new(listener, cfg, shutdown.clone()).expect("reactor");
        let logic = PauseThenEcho {
            hold: Duration::from_millis(300),
            paused_at: None,
        };
        let server = std::thread::spawn(move || run(ctl, logic));

        let mut client = TcpStream::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let next = framed(b"the frame behind it");
        let mut burst = framed(b"admin");
        burst.extend_from_slice(&next[..9]);
        client.write_all(&burst).expect("burst");
        let mut echo = vec![0u8; 4 + 5];
        client.read_exact(&mut echo).expect("admin echoed");
        // The peer has now sent everything; the rest of the frame waits in
        // the socket until the pause — three deadlines long — is over.
        client.write_all(&next[9..]).expect("rest of the frame");
        let mut echo = vec![0u8; next.len()];
        client
            .read_exact(&mut echo)
            .expect("session survived the pause");
        assert_eq!(echo, next);

        shutdown.store(true, Ordering::SeqCst);
        drop(client);
        server.join().expect("loop exits");
    }

    /// Both liveness deadlines in the tests below.
    const DEADLINE: Duration = Duration::from_millis(100);
    /// The loop's poll interval, and the client's pace when it trickles.
    const POLL: Duration = Duration::from_millis(5);

    /// Takes a session's first frame as its hello and echoes every frame;
    /// publishes the loop's open-session count on every tick.
    struct HelloThenEcho {
        open: Arc<AtomicUsize>,
    }

    impl Logic for HelloThenEcho {
        fn on_accept(&mut self, _ctl: &mut Ctl, _token: u64) {}

        fn on_frame(&mut self, ctl: &mut Ctl, token: u64, payload: Vec<u8>) {
            ctl.mark_handshaken(token);
            ctl.send_frame(token, framed(&payload));
        }

        fn on_wake(&mut self, _ctl: &mut Ctl) {}

        fn on_tick(&mut self, ctl: &mut Ctl) {
            self.open.store(ctl.active_sessions(), Ordering::SeqCst);
        }

        fn refusal_frame(&mut self) -> Vec<u8> {
            Vec::new()
        }

        fn on_close(&mut self, _token: u64, _handshaken: bool) {}
    }

    /// A loop with both deadlines at [`DEADLINE`]: its address, its
    /// shutdown flag, its published open-session count and its thread.
    fn deadline_loop() -> (
        std::net::SocketAddr,
        Arc<AtomicBool>,
        Arc<AtomicUsize>,
        std::thread::JoinHandle<()>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let cfg = LoopConfig {
            poll_interval: POLL,
            handshake_deadline: DEADLINE,
            frame_deadline: DEADLINE,
            ..LoopConfig::default()
        };
        let ctl = Ctl::new(listener, cfg, shutdown.clone()).expect("reactor");
        let open = Arc::new(AtomicUsize::new(0));
        let logic = HelloThenEcho { open: open.clone() };
        (
            addr,
            shutdown,
            open,
            std::thread::spawn(move || run(ctl, logic)),
        )
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
        let (addr, shutdown, open, server) = deadline_loop();
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

        shutdown.store(true, Ordering::SeqCst);
        server.join().expect("loop exits");
    }

    /// A peer past its hello that sends half a frame and then one byte per
    /// poll — enough to look alive, never enough to finish — is closed once
    /// the frame deadline passes, and its slot frees.
    #[test]
    fn a_trickling_peer_is_closed_at_the_frame_deadline() {
        let (addr, shutdown, open, server) = deadline_loop();
        let mut client = TcpStream::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        client.write_all(&framed(b"hello")).expect("hello");
        let mut echo = [0u8; 4 + 5];
        client.read_exact(&mut echo).expect("hello echoed");
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

        shutdown.store(true, Ordering::SeqCst);
        server.join().expect("loop exits");
    }
}
