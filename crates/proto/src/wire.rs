//! Byte-level primitives: the frame envelope, the decode cursor, and the
//! typed error set.
//!
//! Every message travels in one *frame*: a little-endian `u32` payload
//! length followed by the payload (a one-byte message tag plus the message
//! body). Decoding never panics — every malformed input, from a truncated
//! buffer to an oversized length prefix, surfaces as a [`ProtoError`].

use std::io::{self, Read};

/// Largest payload a peer will accept. Caps the allocation a corrupt (or
/// hostile) length prefix can demand; a full-HD region frame is ~3 MiB, so
/// 64 MiB leaves generous headroom.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Errors surfaced while encoding to or decoding from the wire.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying transport failed (includes read timeouts, surfaced
    /// as [`io::ErrorKind::WouldBlock`] / [`io::ErrorKind::TimedOut`]).
    Io(io::Error),
    /// The buffer ended before the field being decoded.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were left.
        available: usize,
    },
    /// A length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// The payload's message tag is not part of this protocol version.
    UnknownMessage(u8),
    /// An error frame carried an unknown error code.
    UnknownErrorCode(u8),
    /// A query frame carried an unknown aggregate-mode tag.
    UnknownQueryMode(u8),
    /// The client hello did not start with the protocol magic.
    BadMagic([u8; 4]),
    /// A structurally invalid field (bad UTF-8, empty predicate clause,
    /// plane lengths disagreeing with the region dimensions, …).
    Malformed(&'static str),
    /// Decoding finished with bytes left over — the peer and this side
    /// disagree about the message layout.
    TrailingBytes(usize),
    /// The peer stopped sending mid-frame (closed the stream, or too many
    /// consecutive zero-progress poll timeouts). Unlike a between-frames
    /// timeout this is not retryable: the stream position is inside a torn
    /// frame.
    Stalled,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "wire i/o error: {e}"),
            ProtoError::Truncated { needed, available } => {
                write!(f, "truncated frame: needed {needed} bytes, had {available}")
            }
            ProtoError::Oversized(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            ProtoError::UnknownMessage(tag) => write!(f, "unknown message tag {tag:#04x}"),
            ProtoError::UnknownErrorCode(code) => write!(f, "unknown error code {code}"),
            ProtoError::UnknownQueryMode(mode) => write!(f, "unknown query mode {mode}"),
            ProtoError::BadMagic(m) => write!(f, "bad protocol magic {m:02x?}"),
            ProtoError::Malformed(what) => write!(f, "malformed frame: {what}"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            ProtoError::Stalled => write!(f, "peer stalled mid-frame"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// A little-endian encoder appending to a byte buffer.
///
/// Infallible: encoding works on in-memory data that is valid by
/// construction; only the transport write can fail, and that happens when
/// the finished frame is handed to a socket.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes, no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.raw(&[v]);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// Appends raw bytes with a `u32` length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.raw(v);
    }

    /// Appends a UTF-8 string with a `u32` length prefix.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Encodes one frame — length prefix plus the payload `body` writes — into
/// one buffer: the prefix is reserved, the payload written behind it, and
/// the prefix patched once the length is known. The single place the
/// envelope is laid out. `payload_hint` sizes the buffer up front; when it
/// is exact (a region: header plus its three planes) the buffer never
/// grows and every pixel is copied exactly once. The frame is written in
/// `buf`'s allocation, whatever it held discarded, so a buffer whose frame
/// has reached the socket can carry the next one.
pub(crate) fn encode_frame(
    buf: Vec<u8>,
    payload_hint: usize,
    body: impl FnOnce(&mut Writer),
) -> Vec<u8> {
    let mut w = Writer { buf };
    w.buf.clear();
    w.buf.reserve(4 + payload_hint);
    w.u32(0);
    body(&mut w);
    let len = w.buf.len() - 4;
    debug_assert!(len <= MAX_FRAME_LEN as usize);
    w.buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
    w.buf
}

/// A bounds-checked little-endian decode cursor over a payload slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(ProtoError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a `u32`-length-prefixed byte string. The length is validated
    /// against the remaining payload before anything is copied, so a
    /// corrupt prefix cannot demand an outsized allocation.
    pub fn bytes(&mut self) -> Result<Vec<u8>, ProtoError> {
        Ok(self.byte_slice()?.to_vec())
    }

    /// [`Reader::bytes`] without the copy: the byte string as it lies in
    /// the payload.
    pub fn byte_slice(&mut self) -> Result<&'a [u8], ProtoError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        std::str::from_utf8(raw)
            .map(|s| s.to_string())
            .map_err(|_| ProtoError::Malformed("invalid UTF-8 in string"))
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(self) -> Result<(), ProtoError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes(self.remaining()))
        }
    }
}

/// A frame around raw payload bytes, for tests that script a byte stream.
#[cfg(test)]
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    encode_frame(Vec::new(), payload.len(), |w| w.raw(payload))
}

/// Reads one frame payload from the transport.
///
/// Timeout semantics (for sockets with a read timeout set): if the timeout
/// fires before *any* byte of the frame arrived, the timeout `Io` error is
/// returned and the stream is positioned to retry cleanly. Once a frame
/// has started arriving, short reads are retried until the frame completes, so
/// a timeout can never tear a frame in half.
///
/// This is [`FrameReader`](crate::nio::FrameReader) with no read-ahead: it
/// asks the transport for the bytes of this frame and not one more (two
/// reads per frame), so it suits a handshake or a caller that owns no
/// reader. A session that receives a result stream keeps a buffered
/// `FrameReader` instead.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ProtoError> {
    crate::nio::FrameReader::unbuffered()
        .read_frame(r)
        .map(|payload| payload.into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(1000);
        w.u32(123_456);
        w.u64(u64::MAX);
        w.str("tile");
        w.bytes(&[1, 2, 3]);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 1000);
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.str().unwrap(), "tile");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(
            r.u32(),
            Err(ProtoError::Truncated {
                needed: 4,
                available: 2
            })
        ));
    }

    #[test]
    fn corrupt_length_prefix_cannot_demand_a_huge_allocation() {
        // A string length prefix pointing far past the payload fails the
        // bounds check before any allocation happens.
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.bytes(), Err(ProtoError::Truncated { .. })));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let r = Reader::new(&[0]);
        assert!(matches!(r.finish(), Err(ProtoError::TrailingBytes(1))));
    }

    #[test]
    fn oversized_frame_is_rejected_before_reading_its_body() {
        let mut stream = std::io::Cursor::new((MAX_FRAME_LEN + 1).to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut stream),
            Err(ProtoError::Oversized(_))
        ));
    }

    #[test]
    fn eof_mid_frame_is_io_not_panic() {
        // Length says 10 bytes, stream has 3.
        let mut bytes = 10u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2, 3]);
        let mut stream = std::io::Cursor::new(bytes);
        assert!(matches!(read_frame(&mut stream), Err(ProtoError::Io(_))));
    }
}
