//! Scripted sinks and sources against the two state machines: a write may
//! stop, and a read may end or time out, at every byte offset there is.

use super::*;
use crate::wire::frame;
use crate::{encode_region, Message, ResultSummary};
use proptest::collection::vec;
use proptest::prelude::*;
use tasm_core::{PlanStats, RegionPixels};
use tasm_video::{Frame, Rect};

/// Random cases per framing property: the state machines are cheap to
/// drive, so they get many more than the default 64.
const FRAMING_CASES: u32 = 1024;

/// The frames of one query response — header, `regions` regions of
/// `w`×`h` pixels, done with a trace — encoded as a server sends them.
fn response(regions: u32, w: u32, h: u32) -> Vec<Vec<u8>> {
    let id = 7;
    let (luma, chroma) = Frame::plane_lens(w, h).expect("even dimensions");
    let mut frames = vec![Message::ResultHeader {
        id,
        matched: regions as u64,
        regions,
        plan: PlanStats::default(),
        epoch: 3,
    }
    .encode()];
    for i in 0..regions {
        let plane = |len: usize, salt: u32| (0..len).map(move |p| (p as u32 * 31 + i + salt) as u8);
        let region = RegionPixels {
            frame: i,
            rect: Rect::new(2 * i, 0, w, h),
            pixels: Frame::from_planes(
                w,
                h,
                plane(luma, 0).collect(),
                plane(chroma, 85).collect(),
                plane(chroma, 170).collect(),
            )
            .expect("plane lengths match"),
        };
        frames.push(encode_region(id, &region, &wire_buffers()));
    }
    frames.push(
        Message::ResultDone {
            id,
            summary: ResultSummary::default(),
            trace: Some(crate::QueryTrace {
                instance: "127.0.0.1:7743".into(),
                ..Default::default()
            }),
        }
        .encode(),
    );
    frames
}

/// A warm-serve-sized response: 40 regions, ~270 KB.
fn full_response() -> Vec<Vec<u8>> {
    response(40, 96, 48)
}

fn blocked(kind: io::ErrorKind) -> io::Error {
    io::Error::new(kind, "scripted")
}

// ---------------------------------------------------------------- writes

/// A sink that accepts a scripted number of bytes per call, with
/// `WouldBlock` between calls; once the script runs out it takes
/// everything. With `vectored` it implements `write_vectored` across all
/// offered slices; without, it leaves std's default (first slice only).
struct Dribble {
    taken: Vec<u8>,
    script: VecDeque<usize>,
    block_next: bool,
    vectored: bool,
    calls: usize,
}

impl Dribble {
    fn new(script: impl IntoIterator<Item = usize>, vectored: bool) -> Dribble {
        Dribble {
            taken: Vec::new(),
            script: script.into_iter().collect(),
            block_next: false,
            vectored,
            calls: 0,
        }
    }

    /// The next call's byte allowance, or the scripted `WouldBlock`.
    fn allowance(&mut self) -> io::Result<usize> {
        self.calls += 1;
        if self.block_next {
            self.block_next = false;
            return Err(blocked(io::ErrorKind::WouldBlock));
        }
        self.block_next = !self.script.is_empty();
        Ok(self.script.pop_front().unwrap_or(usize::MAX).max(1))
    }
}

impl Write for Dribble {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.allowance()?.min(buf.len());
        self.taken.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        if !self.vectored {
            let first = bufs.iter().find(|b| !b.is_empty());
            return self.write(first.map_or(&[][..], |b| &b[..]));
        }
        let mut left = self.allowance()?;
        let before = self.taken.len();
        for buf in bufs {
            let n = left.min(buf.len());
            self.taken.extend_from_slice(&buf[..n]);
            left -= n;
        }
        Ok(self.taken.len() - before)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Pushes `frames`, drives the queue to the end, and checks the stream.
fn drain_through(frames: &[Vec<u8>], mut sink: Dribble) -> Dribble {
    let mut q = FrameQueue::new();
    for f in frames {
        q.push(f.clone());
    }
    assert_eq!(q.queued_bytes(), frames.concat().len());
    while q.write_to(&mut sink).expect("no fatal errors") != WriteProgress::Flushed {}
    assert!(q.is_empty());
    assert_eq!(q.queued_bytes(), 0);
    assert_eq!(sink.taken, frames.concat());
    sink
}

#[test]
fn queue_resumes_at_any_offset() {
    let frames = [frame(b"hello"), frame(b"world!")];
    for vectored in [false, true] {
        drain_through(&frames, Dribble::new((1..=4).cycle().take(64), vectored));
    }
}

/// The first write stops after exactly `k` bytes, for every `k` — inside a
/// length prefix, exactly on a slice boundary, mid-plane — and the rest
/// follows after a `WouldBlock`.
#[test]
fn a_write_may_stop_at_every_offset() {
    let frames = response(3, 4, 2);
    let total = frames.concat().len();
    for k in 1..=total {
        for vectored in [false, true] {
            drain_through(&frames, Dribble::new([k], vectored));
        }
    }
}

/// A queued burst leaves in one vectored write when the sink takes it all,
/// and in ⌈frames / MAX_WRITE_SLICES⌉ when it outgrows the slice array.
#[test]
fn a_burst_is_one_vectored_write() {
    let sink = drain_through(&response(10, 16, 8), Dribble::new([], true));
    assert_eq!(sink.calls, 1);
    let many = vec![frame(b"x"); 3 * MAX_WRITE_SLICES + 1];
    assert_eq!(drain_through(&many, Dribble::new([], true)).calls, 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(FRAMING_CASES))]

    /// Random frame sets against random accept sizes, through a vectored
    /// sink and through one with std's default `write_vectored`.
    #[test]
    fn resumed_vectored_writes_match_contiguous(
        sizes in vec(0usize..300, 1..40),
        script in vec(1usize..700, 0..200),
        vectored in proptest::bool::ANY,
    ) {
        let frames: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &len)| frame(&vec![i as u8; len]))
            .collect();
        drain_through(&frames, Dribble::new(script, vectored));
    }
}

// ----------------------------------------------------------------- reads

/// A source that plays a script over `data`: deliver the next `n` bytes (over
/// as many reads as the caller's buffer makes it), or fail once with an
/// error kind. Once the script runs out it delivers
/// whatever is asked for, and `Ok(0)` at the end of `data`.
struct Script {
    data: Vec<u8>,
    pos: usize,
    acts: VecDeque<Act>,
    reads: usize,
}

#[derive(Clone, Copy)]
enum Act {
    Give(usize),
    Fail(io::ErrorKind),
    /// Fail with this kind on this and every later read.
    Dead(io::ErrorKind),
}

impl Script {
    fn new(frames: &[Vec<u8>], acts: impl IntoIterator<Item = Act>) -> Script {
        Script {
            data: frames.concat(),
            pos: 0,
            acts: acts.into_iter().collect(),
            reads: 0,
        }
    }
}

impl Read for Script {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reads += 1;
        let want = match self.acts.pop_front() {
            Some(Act::Fail(kind)) => return Err(blocked(kind)),
            Some(Act::Dead(kind)) => {
                self.acts.push_front(Act::Dead(kind));
                return Err(blocked(kind));
            }
            Some(Act::Give(n)) => n,
            None => usize::MAX,
        };
        let left = self.data.len() - self.pos;
        let n = want.min(buf.len()).min(left);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        if want != usize::MAX && want > n && left > n {
            // The caller's buffer was smaller: the rest is still due.
            self.acts.push_front(Act::Give(want - n));
        }
        Ok(n)
    }
}

/// Reads the whole stream the way a blocking reader does, retrying the
/// between-frames timeouts, and returns the frames re-framed (so equality
/// with what was sent is byte equality) with the number of timeouts that
/// surfaced. Every payload must still decode.
fn read_all(reader: &mut FrameReader, src: &mut Script, expect: usize) -> (Vec<Vec<u8>>, usize) {
    let (mut frames, mut timeouts) = (Vec::new(), 0);
    while frames.len() < expect {
        match reader.read_frame(src) {
            Ok(payload) => {
                Message::decode_payload(&payload).expect("payload decodes");
                frames.push(frame(&payload));
            }
            Err(ProtoError::Io(e)) if e.kind() == io::ErrorKind::TimedOut => {
                assert!(!reader.mid_frame(), "a retryable timeout is between frames");
                timeouts += 1;
            }
            Err(e) => panic!("read failed: {e}"),
        }
    }
    (frames, timeouts)
}

#[test]
fn a_response_arrives_whole_one_byte_at_a_time() {
    let frames = full_response();
    let mut src = Script::new(&frames, vec![Act::Give(1); frames.concat().len()]);
    let mut reader = FrameReader::with_capacity(STREAM_BUF_LEN);
    assert_eq!(read_all(&mut reader, &mut src, frames.len()).0, frames);
}

/// Delivered in one piece, a response costs about one `read` per buffer of
/// bytes, not two per frame.
#[test]
fn a_response_in_one_piece_costs_a_read_per_buffer() {
    let frames = full_response();
    let bytes = frames.concat().len();
    assert!((260_000..300_000).contains(&bytes), "~270 KB, got {bytes}");
    for capacity in [STREAM_BUF_LEN, 64 * 1024, 16 * 1024] {
        let mut src = Script::new(&frames, []);
        let mut reader = FrameReader::with_capacity(capacity);
        assert_eq!(read_all(&mut reader, &mut src, frames.len()).0, frames);
        assert!(
            src.reads <= bytes.div_ceil(capacity) + 2,
            "{} reads for {bytes} bytes through a {capacity}-byte buffer",
            src.reads
        );
    }
}

/// A timeout on a frame boundary surfaces once, retryably, and no byte is
/// lost or duplicated; anywhere else it is ridden out inside the read.
#[test]
fn a_timeout_may_fall_at_every_offset() {
    let frames = response(3, 4, 2);
    let boundaries: Vec<usize> = frames
        .iter()
        .scan(0, |at, f| {
            *at += f.len();
            Some(*at)
        })
        .collect();
    let total = *boundaries.last().expect("frames");
    for kind in [io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut] {
        for k in 0..total {
            for capacity in [4, 32, 4096] {
                let give = (k > 0).then_some(Act::Give(k));
                let mut src = Script::new(&frames, give.into_iter().chain([Act::Fail(kind)]));
                let mut reader = FrameReader::with_capacity(capacity);
                let (got, timeouts) = read_all(&mut reader, &mut src, frames.len());
                assert_eq!(got, frames, "timeout after {k} bytes, capacity {capacity}");
                let on_boundary = k == 0 || boundaries.contains(&k);
                assert_eq!(timeouts, usize::from(on_boundary), "after {k} bytes");
            }
        }
    }
}

#[test]
fn a_timeout_on_every_boundary_of_a_full_response() {
    let frames = full_response();
    let mut acts = Vec::new();
    for f in &frames {
        acts.extend([Act::Fail(io::ErrorKind::TimedOut), Act::Give(f.len())]);
    }
    // A buffer smaller than a region, so every frame takes its own read.
    let mut src = Script::new(&frames, acts);
    let mut reader = FrameReader::with_capacity(4);
    let (got, timeouts) = read_all(&mut reader, &mut src, frames.len());
    assert_eq!(got, frames);
    assert_eq!(timeouts, frames.len());
}

/// A peer that stops mid-frame is `Stalled` after the bounded number of
/// polls — wherever in the frame it stopped — and frames that arrived
/// whole before it are still delivered.
#[test]
fn a_stall_mid_frame_is_stalled() {
    let frames = response(2, 4, 2);
    let first = frames[0].len();
    for k in (first + 1)..(first + frames[1].len()) {
        for capacity in [4, 4096] {
            let dead = Act::Dead(io::ErrorKind::WouldBlock);
            let mut src = Script::new(&frames, [Act::Give(k), dead]);
            let mut reader = FrameReader::with_capacity(capacity);
            let header = reader.read_frame(&mut src).expect("header arrived whole");
            assert_eq!(frame(&header), frames[0]);
            let before = src.reads;
            assert!(matches!(
                reader.read_frame(&mut src),
                Err(ProtoError::Stalled)
            ));
            assert!(src.reads - before <= MAX_STALLED_READS as usize + 2);
        }
    }
}

#[test]
fn a_frame_larger_than_the_buffer_round_trips() {
    let frames = response(2, 96, 48);
    let total = frames.concat().len();
    for give in [1, 7, 1000, total] {
        let mut src = Script::new(&frames, vec![Act::Give(give); total]);
        let mut reader = FrameReader::with_capacity(64);
        assert_eq!(read_all(&mut reader, &mut src, frames.len()).0, frames);
        assert_eq!(reader.buffered_bytes(), 0);
    }
}

/// A declared length costs nothing until bytes arrive: a peer that sends
/// a 64 MiB prefix and then nothing parks one first extent's worth.
#[test]
fn a_huge_prefix_parks_no_memory() {
    for capacity in [4, 1024, STREAM_BUF_LEN] {
        let mut src = Script {
            data: MAX_FRAME_LEN.to_le_bytes().to_vec(),
            pos: 0,
            acts: [Act::Give(4), Act::Dead(io::ErrorKind::WouldBlock)].into(),
            reads: 0,
        };
        let mut reader = FrameReader::with_capacity(capacity);
        for _ in 0..3 {
            assert!(matches!(
                reader.fill_from(&mut src),
                Ok(ReadProgress::NeedMore)
            ));
            assert!(reader.mid_frame());
            assert!(
                reader.buffered_bytes() <= OWN_FIRST_EXTENT + 4,
                "{} bytes parked behind a 64 MiB prefix",
                reader.buffered_bytes()
            );
        }
    }
}

/// A frame far larger than the buffer, arriving a network packet at a time
/// with a `WouldBlock` between packets, is zeroed once. Only growing the
/// frame's extent zeroes memory, so: the extent never shrinks back to the
/// bytes received, it grows a logarithmic number of times, and it never
/// runs ahead of twice what arrived.
#[test]
fn a_large_frame_in_small_reads_is_zeroed_once() {
    let payload: Vec<u8> = (0..8usize << 20).map(|i| (i % 251) as u8).collect();
    let packets = payload.len() / 1460 + 2;
    for mut reader in [FrameReader::new(), FrameReader::unbuffered()] {
        let acts =
            (0..packets).flat_map(|_| [Act::Fail(io::ErrorKind::WouldBlock), Act::Give(1460)]);
        let mut src = Script::new(&[frame(&payload)], acts);
        let (mut extent, mut grown) = (0, 0);
        let got = loop {
            match reader.fill_from(&mut src).expect("clean stream") {
                ReadProgress::Frame(got) => break got.into_owned(),
                ReadProgress::NeedMore => {}
                ReadProgress::Closed => panic!("closed mid-frame"),
            }
            // (The first packets land in the receive buffer.)
            let Some(own) = &reader.own else { continue };
            assert!(own.data.len() >= extent, "the zeroed extent shrank");
            assert!(own.data.len() <= 2 * own.filled + OWN_FIRST_EXTENT);
            grown += usize::from(own.data.len() > extent);
            extent = own.data.len();
        };
        assert!(got == payload, "payload differs");
        assert!(grown <= 12, "the extent grew {grown} times for 8 MiB");
    }
}

#[test]
fn an_oversized_prefix_is_refused_before_any_allocation() {
    let mut src = io::Cursor::new((MAX_FRAME_LEN + 1).to_le_bytes().to_vec());
    let mut reader = FrameReader::new();
    assert!(matches!(
        reader.fill_from(&mut src),
        Err(ProtoError::Oversized(_))
    ));
    assert!(reader.buffered_bytes() <= 4);
}

/// Frames that arrived in one read are served from the buffer: the second
/// needs no read at all, which `frame_ready` reports to a reactor that
/// paused the session in between.
#[test]
fn pipelined_frames_are_served_from_the_buffer() {
    let frames = [frame(b"abcdef"), frame(b"xy"), frame(b"")];
    let dead = Act::Dead(io::ErrorKind::WouldBlock);
    let mut src = Script::new(&frames, [Act::Give(20), dead]);
    let mut reader = FrameReader::new();
    for (i, expect) in [&b"abcdef"[..], b"xy", b""].into_iter().enumerate() {
        assert_eq!(reader.frame_ready(), i > 0);
        match reader.fill_from(&mut src).expect("clean") {
            ReadProgress::Frame(payload) => assert_eq!(&payload[..], expect),
            other => panic!("expected a frame, got {other:?}"),
        }
        assert_eq!(src.reads, 1);
    }
    assert!(!reader.frame_ready());
    assert!(matches!(
        reader.fill_from(&mut src),
        Ok(ReadProgress::NeedMore)
    ));
    assert!(!reader.mid_frame());
}

#[test]
fn eof_is_closed_on_a_boundary_and_stalled_inside_a_frame() {
    let data = frame(b"abcdef");
    for cut in 0..=data.len() {
        let mut src = io::Cursor::new(data[..cut].to_vec());
        let mut reader = FrameReader::new();
        let end = loop {
            match reader.fill_from(&mut src) {
                Ok(ReadProgress::Frame(_)) => continue,
                other => break other.map(|_| ()),
            }
        };
        match cut {
            0 => assert!(end.is_ok()),
            n if n == data.len() => assert!(end.is_ok()),
            _ => assert!(matches!(end, Err(ProtoError::Stalled))),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(FRAMING_CASES))]

    /// Any chunking of the stream, with `WouldBlock`s anywhere, through
    /// any buffer size, re-frames into exactly the frames that were sent.
    #[test]
    fn any_chunking_reframes_exactly(
        chunks in vec(0usize..600, 0..300),
        capacity in 4usize..2048,
    ) {
        let frames = response(5, 16, 8);
        let acts = chunks.iter().map(|&n| match n {
            0 => Act::Fail(io::ErrorKind::WouldBlock),
            n => Act::Give(n),
        });
        let mut src = Script::new(&frames, acts);
        let mut reader = FrameReader::with_capacity(capacity);
        let mut got = Vec::new();
        loop {
            match reader.fill_from(&mut src).expect("clean stream") {
                ReadProgress::Frame(payload) => got.push(frame(&payload)),
                ReadProgress::NeedMore => continue,
                ReadProgress::Closed => break,
            }
        }
        prop_assert_eq!(got, frames);
        prop_assert_eq!(reader.buffered_bytes(), 0);
    }
}
