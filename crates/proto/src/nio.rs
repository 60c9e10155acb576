//! Framing over a byte stream: incremental frame assembly and resumable,
//! vectored frame writes.
//!
//! [`FrameReader`] is the one frame assembler. It owns a fixed receive
//! buffer, so a single `read` yields every frame it holds, and it never
//! blocks mid-frame: a peer that delivers half a length prefix costs
//! nothing but buffered bytes. The reactor feeds it from nonblocking
//! sockets ([`FrameReader::fill_from`]); blocking readers with a read
//! timeout — the client, the router's shard connections — read through the
//! same state machine ([`FrameReader::read_frame`]), and the one-shot
//! helpers ([`read_frame`](crate::read_frame)) are this reader with no
//! read-ahead.
//! [`FrameQueue`] holds encoded frames and hands the queued burst to the
//! sink in one vectored write, resumable at any byte offset when the sink
//! accepts fewer bytes than offered (or none at all, `WouldBlock`). Both
//! are pure byte-level state machines: no sockets, no threads, fully
//! deterministic — which is what makes the partial-read and partial-write
//! property tests possible.

use crate::wire::{ProtoError, MAX_FRAME_LEN};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::sync::Arc;
use std::time::Instant;
use tasm_core::BufferPool;

/// Receive buffer of a session that reads *requests* ([`FrameReader::new`]).
/// A query frame is well under a kilobyte, and a server holds one of these
/// per connection, so it is small; a larger frame (a replication record)
/// takes the own-allocation path.
const REQUEST_BUF_LEN: usize = 1024;

/// Receive buffer for the side that receives *result streams*: large
/// enough that one `read` drains what a server burst left in the socket.
pub const STREAM_BUF_LEN: usize = 256 * 1024;

/// First extent of a frame's own allocation; each later one doubles it, so
/// capacity follows the bytes the peer actually sent.
const OWN_FIRST_EXTENT: usize = 16 * 1024;

/// Consecutive zero-progress timeout reads [`FrameReader::read_frame`]
/// tolerates once a frame has started arriving. A live peer delivers the
/// rest of a frame promptly; this bounds how long a crashed or partitioned
/// peer mid-frame can pin a blocking reader: 200 stalled polls at the
/// socket's read timeout.
const MAX_STALLED_READS: u32 = 200;

/// What one [`FrameReader::fill_from`] pass produced.
#[derive(Debug)]
pub enum ReadProgress<'a> {
    /// A complete frame payload (length prefix stripped): borrowed from
    /// the receive buffer, or owned when the frame was larger than it.
    /// Valid until the reader is used again.
    Frame(Cow<'a, [u8]>),
    /// The reader needs more bytes; the source is drained for now.
    NeedMore,
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
}

/// One step of the assembler: at most one `read`.
enum Step {
    /// A whole frame sits at the front, ready for `take_frame`.
    Ready,
    /// The read delivered bytes; no whole frame yet (or not yet looked).
    Progress,
    /// The source has nothing now (`WouldBlock` / `TimedOut`).
    Blocked,
    /// The source ended.
    Eof,
}

/// Incremental frame assembler over a fixed receive buffer.
///
/// Frames that fit the buffer are assembled in it and yielded as borrowed
/// slices — a burst of pipelined frames costs one `read`, and decoding a
/// pixel plane out of the slice is that pixel's only copy on the receive
/// side. A frame larger than the buffer is read straight into an
/// allocation of its own, which grows with the bytes *received*, never
/// with the declared length: a peer that sends a 64 MiB prefix and then
/// nothing parks a few kilobytes, not 64 MiB.
#[derive(Debug)]
pub struct FrameReader {
    /// `buf[start..end]` holds received bytes not yet yielded.
    buf: Box<[u8]>,
    start: usize,
    end: usize,
    /// The in-progress frame too large for `buf`.
    own: Option<OwnFrame>,
    /// When the incomplete frame at the front was first seen; `None` at a
    /// frame boundary. The reactor's timer sweep uses this to bound how
    /// long a byte-trickling peer can pin a session.
    started: Option<Instant>,
}

/// A frame being received into an allocation of its own.
#[derive(Debug)]
struct OwnFrame {
    /// Declared payload length.
    len: usize,
    /// `data[..filled]` holds received payload; the rest is the zeroed
    /// extent the next reads land in. Never longer than `len`, so a read
    /// cannot run past the frame's last byte. The extent doubles only once
    /// it is full, and is never truncated back, so each byte is zeroed at
    /// most once however small the reads are.
    data: Vec<u8>,
    filled: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader::new()
    }
}

impl FrameReader {
    /// A reader at a frame boundary, sized for a session that receives
    /// requests.
    pub fn new() -> FrameReader {
        FrameReader::with_capacity(REQUEST_BUF_LEN)
    }

    /// A reader whose receive buffer holds `capacity` bytes (at least the
    /// four of a length prefix). Receivers of result streams pass
    /// [`STREAM_BUF_LEN`].
    pub fn with_capacity(capacity: usize) -> FrameReader {
        FrameReader {
            buf: vec![0u8; capacity.max(4)].into_boxed_slice(),
            start: 0,
            end: 0,
            own: None,
            started: None,
        }
    }

    /// A reader that never reads past the frame it is assembling: the
    /// buffer holds a length prefix and nothing else, so every payload
    /// takes the own-allocation path, whose reads stop at the frame's last
    /// byte. For one-shot reads on a stream the caller goes on using.
    pub fn unbuffered() -> FrameReader {
        FrameReader::with_capacity(4)
    }

    /// True while a frame is partially assembled (a stall here is a
    /// protocol violation after the deadline, not an idle session).
    pub fn mid_frame(&self) -> bool {
        self.started.is_some()
    }

    /// When the incomplete frame at the front started arriving.
    pub fn frame_started(&self) -> Option<Instant> {
        self.started
    }

    /// Restarts the clock of an incomplete frame at the front. A session
    /// that stopped reading on purpose (paused) calls this when it resumes:
    /// the time it chose not to read is not the peer's delay.
    pub fn restart_frame_clock(&mut self) {
        if self.started.is_some() {
            self.started = Some(Instant::now());
        }
    }

    /// Memory held for bytes received and not yet yielded: the occupied
    /// part of the receive buffer plus the capacity of an oversized
    /// frame's own allocation.
    pub fn buffered_bytes(&self) -> usize {
        self.end - self.start + self.own.as_ref().map_or(0, |own| own.data.capacity())
    }

    /// True when a whole frame is already buffered, so the next
    /// [`FrameReader::fill_from`] yields it without touching the source. A
    /// reactor that stopped reading a session mid-burst (paused) must ask
    /// this when it resumes: the bytes are here, the socket will not
    /// signal them again.
    pub fn frame_ready(&self) -> bool {
        match &self.own {
            Some(own) => own.filled == own.len,
            None => self
                .front_len()
                .is_some_and(|len| self.end - self.start >= 4 + len as usize),
        }
    }

    /// The declared payload length of the frame at the front of the
    /// buffer, once its prefix is complete.
    fn front_len(&self) -> Option<u32> {
        let prefix = self.buf[self.start..self.end].get(..4)?;
        Some(u32::from_le_bytes(prefix.try_into().expect("len 4")))
    }

    /// Yields at most one complete frame, reading from the source only
    /// when no whole frame is buffered. Call again after
    /// [`ReadProgress::Frame`] — more pipelined frames may already be
    /// buffered. `WouldBlock`/`TimedOut` map to [`ReadProgress::NeedMore`];
    /// EOF at a frame boundary maps to [`ReadProgress::Closed`], EOF
    /// mid-frame to [`ProtoError::Stalled`].
    pub fn fill_from(&mut self, src: &mut impl Read) -> Result<ReadProgress<'_>, ProtoError> {
        loop {
            match self.step(src)? {
                Step::Ready => return Ok(ReadProgress::Frame(self.take_frame())),
                Step::Progress => {}
                Step::Blocked => return Ok(ReadProgress::NeedMore),
                Step::Eof if self.started.is_none() => return Ok(ReadProgress::Closed),
                Step::Eof => return Err(ProtoError::Stalled),
            }
        }
    }

    /// Blocking read of one frame, for sockets with a read timeout set.
    ///
    /// If the timeout fires before *any* byte of the frame arrived, the
    /// timeout `Io` error is returned and nothing is lost — bytes and
    /// frames already buffered stay in the reader, and the call may simply
    /// be repeated. Once a frame has started arriving, timeouts are retried
    /// until it completes, bounded by `MAX_STALLED_READS` zero-progress
    /// polls (a peer that dies mid-frame), which surface as
    /// [`ProtoError::Stalled`]; so a timeout can never tear a frame in
    /// half. A closed stream is an `UnexpectedEof` `Io` error.
    pub fn read_frame(&mut self, src: &mut impl Read) -> Result<Cow<'_, [u8]>, ProtoError> {
        let mut stalled = 0u32;
        loop {
            match self.step(src)? {
                Step::Ready => return Ok(self.take_frame()),
                Step::Progress => stalled = 0,
                Step::Blocked if self.started.is_none() => {
                    return Err(ProtoError::Io(io::ErrorKind::TimedOut.into()));
                }
                Step::Blocked => {
                    stalled += 1;
                    if stalled >= MAX_STALLED_READS {
                        return Err(ProtoError::Stalled);
                    }
                }
                Step::Eof => {
                    return Err(ProtoError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-stream",
                    )));
                }
            }
        }
    }

    fn step(&mut self, src: &mut impl Read) -> Result<Step, ProtoError> {
        let got = if let Some(own) = &mut self.own {
            if own.filled == own.len {
                return Ok(Step::Ready);
            }
            // Straight into the frame's allocation; zeroing the extent is
            // what safe code pays to read into a `Vec`.
            if own.filled == own.data.len() {
                let extent = own.data.len().max(OWN_FIRST_EXTENT);
                own.data.resize((own.filled + extent).min(own.len), 0);
            }
            let got = src.read(&mut own.data[own.filled..]);
            own.filled += *got.as_ref().unwrap_or(&0);
            got
        } else {
            let have = self.end - self.start;
            if let Some(len) = self.front_len() {
                if len > MAX_FRAME_LEN {
                    return Err(ProtoError::Oversized(len));
                }
                let payload = self.start + 4..self.end;
                if payload.len() >= len as usize {
                    return Ok(Step::Ready);
                }
                if 4 + len as usize > self.buf.len() {
                    let data = self.buf[payload].to_vec();
                    (self.start, self.end) = (0, 0);
                    self.own = Some(OwnFrame {
                        len: len as usize,
                        filled: data.len(),
                        data,
                    });
                    return Ok(Step::Progress);
                }
            }
            // The incomplete frame (less than one frame's bytes) moves to
            // the front so the read is offered all the room there is.
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                (self.start, self.end) = (0, have);
            }
            let got = src.read(&mut self.buf[have..]);
            self.end += *got.as_ref().unwrap_or(&0);
            got
        };
        let step = match got {
            Ok(0) => Step::Eof,
            Ok(_) => Step::Progress,
            Err(e) => match e.kind() {
                io::ErrorKind::Interrupted => Step::Progress,
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Step::Blocked,
                _ => return Err(ProtoError::Io(e)),
            },
        };
        let holds_bytes = self.own.is_some() || self.start < self.end;
        if self.started.is_none() && holds_bytes && !self.frame_ready() {
            self.started = Some(Instant::now());
        }
        Ok(step)
    }

    /// Hands out the whole frame at the front (`step` said `Ready`).
    fn take_frame(&mut self) -> Cow<'_, [u8]> {
        self.started = None;
        if let Some(own) = self.own.take() {
            return Cow::Owned(own.data);
        }
        let len = self.front_len().expect("a whole frame is buffered") as usize;
        let payload = self.start + 4..self.start + 4 + len;
        self.start = payload.end;
        if self.start < self.end && !self.frame_ready() {
            self.started = Some(Instant::now());
        }
        Cow::Borrowed(&self.buf[payload])
    }
}

fn retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted | io::ErrorKind::TimedOut
    )
}

/// What one [`FrameQueue::write_to`] pass achieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteProgress {
    /// Every queued byte reached the sink.
    Flushed,
    /// The sink stopped accepting bytes mid-queue. `progressed` says
    /// whether *any* bytes moved this pass — the reactor's write-stall
    /// timer only resets when it did.
    Blocked { progressed: bool },
}

/// Slices offered to one vectored write. A burst under the reactor's
/// low-water mark is a header plus a handful of regions; a longer queue
/// simply takes another write.
const MAX_WRITE_SLICES: usize = 64;

/// Outbound frame queue: one vectored write per burst, resumable at any
/// byte offset.
///
/// Frames are pushed whole (already length-prefixed, from
/// [`Message::encode`](crate::Message::encode) or
/// [`encode_region`](crate::encode_region)) and every write offers the
/// sink all queued frames at once, as one slice per frame. The sink may
/// take any number of bytes per call; the queue tracks a byte offset into
/// its front frame, so a write interrupted after any prefix — inside the
/// 4-byte length, on a slice boundary, mid-plane — resumes exactly where
/// it stopped. The byte stream is therefore identical to a single
/// contiguous write of every pushed frame in order.
#[derive(Debug)]
pub struct FrameQueue {
    frames: VecDeque<Vec<u8>>,
    /// Bytes of the front frame already written.
    offset: usize,
    /// Total unwritten bytes across all queued frames.
    queued: usize,
    /// Buffers of frames that reached the sink.
    spare: Arc<WireBuffers>,
}

/// Most bytes of flushed frames one queue keeps for its next frames. A
/// server's queue holds a burst (tens of KB) at a time, a router's a whole
/// relayed answer (up to a few MB).
pub const WIRE_POOL_BYTES: usize = 1 << 20;

/// A free list of encoded-frame buffers.
pub type WireBuffers = BufferPool<Vec<u8>>;

/// An empty free list for encoded frames, as every [`FrameQueue`] has one.
pub fn wire_buffers() -> WireBuffers {
    BufferPool::new(
        WIRE_POOL_BYTES,
        "tasm_wire_buffer_bytes_retained",
        "Flushed frame buffer bytes kept by output queues for their next frames.",
    )
}

impl Default for FrameQueue {
    fn default() -> Self {
        FrameQueue::new()
    }
}

impl FrameQueue {
    /// An empty queue.
    pub fn new() -> FrameQueue {
        FrameQueue {
            frames: VecDeque::new(),
            offset: 0,
            queued: 0,
            spare: Arc::new(wire_buffers()),
        }
    }

    /// The buffers of frames already written, at most [`WIRE_POOL_BYTES`]
    /// of them: whoever encodes the next frame for this queue — on this
    /// thread or another — takes one to encode into.
    pub fn spare(&self) -> &Arc<WireBuffers> {
        &self.spare
    }

    /// Queues one encoded frame (length prefix included).
    pub fn push(&mut self, frame: Vec<u8>) {
        if !frame.is_empty() {
            self.queued += frame.len();
            self.frames.push_back(frame);
        }
    }

    /// True when no bytes remain to write.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Unwritten bytes across all queued frames.
    pub fn queued_bytes(&self) -> usize {
        self.queued
    }

    /// Writes queued bytes until the sink blocks or the queue empties,
    /// one `write_vectored` over the queued frames per pass (a sink
    /// without vectored support takes the first slice, which is still
    /// correct). `WouldBlock`/`Interrupted` pause the queue (resume on the
    /// next call); any other error is fatal to the connection. A sink that
    /// accepts zero bytes without erroring is treated as blocked.
    pub fn write_to(&mut self, sink: &mut impl Write) -> io::Result<WriteProgress> {
        let mut progressed = false;
        while !self.frames.is_empty() {
            let mut slices = [IoSlice::new(&[]); MAX_WRITE_SLICES];
            let (mut used, mut skip) = (0, self.offset);
            for (slice, frame) in slices.iter_mut().zip(&self.frames) {
                *slice = IoSlice::new(&frame[skip..]);
                (used, skip) = (used + 1, 0);
            }
            match sink.write_vectored(&slices[..used]) {
                Ok(0) => return Ok(WriteProgress::Blocked { progressed }),
                Ok(n) => {
                    progressed = true;
                    self.consume(n);
                }
                Err(e) if retryable(&e) => {
                    return Ok(WriteProgress::Blocked { progressed });
                }
                Err(e) => return Err(e),
            }
        }
        Ok(WriteProgress::Flushed)
    }

    /// Drops `n` written bytes off the front of the queue.
    fn consume(&mut self, mut n: usize) {
        self.queued -= n;
        while let Some(front) = self.frames.front() {
            let left = front.len() - self.offset;
            if n < left {
                self.offset += n;
                return;
            }
            n -= left;
            self.offset = 0;
            let flushed = self.frames.pop_front().expect("front exists");
            self.spare.give(flushed);
        }
    }
}

#[cfg(test)]
mod tests;
