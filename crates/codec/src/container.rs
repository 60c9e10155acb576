//! The TVF ("tile video file") container format.
//!
//! Each tile of a tiled video is stored as its own TVF container, as the
//! paper stores each tile as a separate video on disk (Figure 1 and §3.4.5).
//! A TVF records the tile dimensions, GOP structure, quantizer, and a frame
//! table, followed by the concatenated frame payloads. The frame table gives
//! random access to any GOP: decoding frame `f` starts at the latest
//! keyframe at or before `f`. A [`TileVideo`] is one container's bytes,
//! parsed once by [`TileVideo::from_bytes`].

use crate::cursor::TileCursor;
use crate::decoder::DecodeError;
use crate::encoder::{EncodedFrame, EncoderConfig};
use crate::stats::DecodeStats;
use std::ops::Range;
use tasm_video::Frame;

/// Magic bytes identifying a TVF stream.
pub const TVF_MAGIC: [u8; 4] = *b"TVF1";

/// The per-tile codec a TVF payload was encoded with.
///
/// Version-1 containers predate the codec-id field and always carry
/// [`TileCodec::Dct`]; version-2 containers record the id explicitly right
/// after the version byte. Ids are stable on disk and in manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TileCodec {
    /// The lossy block codec (DCT + quantization + motion compensation).
    #[default]
    Dct,
    /// The lossless prediction + rANS entropy codec ([`crate::pred`]).
    Pred,
}

impl TileCodec {
    /// The on-disk codec id.
    pub fn id(self) -> u8 {
        match self {
            TileCodec::Dct => 0,
            TileCodec::Pred => 1,
        }
    }

    /// Decodes an on-disk codec id; unknown ids are `None` (the caller
    /// surfaces [`ContainerError::UnsupportedCodec`]).
    pub fn from_id(id: u8) -> Option<TileCodec> {
        match id {
            0 => Some(TileCodec::Dct),
            1 => Some(TileCodec::Pred),
            _ => None,
        }
    }
}

/// Errors raised when parsing a container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// The magic bytes or version did not match.
    BadMagic,
    /// The buffer ended before the declared content.
    Truncated,
    /// The header names a codec id this build does not know.
    UnsupportedCodec(u8),
    /// A header field held an invalid value.
    InvalidHeader(&'static str),
    /// A decode call asked for what the stream cannot give: a reversed or
    /// out-of-bounds frame range, or a resume reference of another size.
    InvalidRequest(&'static str),
    /// Decoding a frame payload failed.
    Decode(DecodeError),
}

impl From<DecodeError> for ContainerError {
    fn from(e: DecodeError) -> Self {
        ContainerError::Decode(e)
    }
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::BadMagic => write!(f, "not a TVF stream"),
            ContainerError::Truncated => write!(f, "container truncated"),
            ContainerError::UnsupportedCodec(id) => write!(f, "unsupported codec id {id}"),
            ContainerError::InvalidHeader(what) => write!(f, "invalid header: {what}"),
            ContainerError::InvalidRequest(what) => write!(f, "invalid request: {what}"),
            ContainerError::Decode(e) => write!(f, "decode failed: {e}"),
        }
    }
}

impl std::error::Error for ContainerError {}

/// The little-endian `u32` at `at`, which the caller has bounds-checked.
fn le_u32(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().expect("four bytes"))
}

/// Length of the fixed header: DCT tiles serialize as version 1 (no codec
/// byte, bit-compatible with pre-codec-id stores); anything else as
/// version 2 with the codec id.
fn fixed_header_len(codec: TileCodec) -> usize {
    match codec {
        TileCodec::Dct => 23,
        _ => 24,
    }
}

/// One frame's entry in the frame table: where its payload lies in the
/// container's buffer, whether it is a keyframe, and its QP.
#[derive(Debug, Clone, PartialEq)]
struct FrameEntry {
    payload: Range<usize>,
    is_key: bool,
    qp: u8,
}

/// One frame of a [`TileVideo`], its payload a slice of the tile's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileFrame<'a> {
    /// True if this frame is a keyframe (starts a GOP).
    pub is_key: bool,
    /// QP this frame was coded with.
    pub qp: u8,
    /// Entropy-coded payload.
    pub data: &'a [u8],
}

/// An encoded single-tile video: the unit TASM stores on disk. It is its
/// TVF container bytes and the header and frame table
/// [`TileVideo::from_bytes`] parsed from them, so the header can be read
/// but never disagree with the bytes, and every payload is a slice of the
/// one buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct TileVideo {
    bytes: Vec<u8>,
    width: u32,
    height: u32,
    gop_len: u32,
    qp: u8,
    deblock: bool,
    codec: TileCodec,
    /// The frame table, in display order.
    frames: Vec<FrameEntry>,
}

impl TileVideo {
    /// The tile of `frames` (display order), `width`×`height` luma pixels
    /// coded with `codec` under `cfg`'s GOP length, QP and deblocking: its
    /// container is serialized once and parsed as any stored one is.
    ///
    /// # Panics
    /// Panics if that container does not parse: a zero dimension or GOP
    /// length, a QP out of range, or a first frame that is not a keyframe.
    pub fn from_frames(
        codec: TileCodec,
        width: u32,
        height: u32,
        cfg: &EncoderConfig,
        frames: &[EncodedFrame],
    ) -> TileVideo {
        // header: magic(4) + version(1) + [codec(1) in v2] + w(4) + h(4) +
        // gop(4) + qp(1) + flags(1) + count(4); per frame: len(4) +
        // flags(1) + qp(1).
        let payload: usize = frames.iter().map(|f| f.data.len()).sum();
        let mut buf = Vec::with_capacity(fixed_header_len(codec) + frames.len() * 6 + payload);
        buf.extend_from_slice(&TVF_MAGIC);
        match codec {
            TileCodec::Dct => buf.push(1), // version 1: implicit DCT
            codec => {
                buf.push(2); // version 2: explicit codec id
                buf.push(codec.id());
            }
        }
        buf.extend_from_slice(&width.to_le_bytes());
        buf.extend_from_slice(&height.to_le_bytes());
        buf.extend_from_slice(&cfg.gop_len.to_le_bytes());
        buf.push(cfg.qp);
        buf.push(u8::from(cfg.deblock));
        buf.extend_from_slice(&(frames.len() as u32).to_le_bytes());
        for f in frames {
            buf.extend_from_slice(&(f.data.len() as u32).to_le_bytes());
            buf.push(u8::from(f.is_key));
            buf.push(f.qp);
        }
        for f in frames {
            buf.extend_from_slice(&f.data);
        }
        TileVideo::from_bytes(buf).expect("encoded frames make a valid container")
    }

    /// Parses a serialized TVF stream, keeping the buffer and copying no
    /// payload: header fields in range, frame table well formed, the first
    /// frame a keyframe, and the buffer exactly as long as the container
    /// declares — a torn tail is [`ContainerError::Truncated`], appended
    /// bytes an invalid header. Every `TileVideo` is one this accepted.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<TileVideo, ContainerError> {
        let data = &bytes[..];
        if data.len() < 23 {
            return Err(ContainerError::Truncated);
        }
        if data[..4] != TVF_MAGIC {
            return Err(ContainerError::BadMagic);
        }
        // Version 1 has no codec-id byte (implicitly DCT); version 2 carries
        // it right after the version. Unknown versions are rejected outright,
        // unknown codec ids as the typed UnsupportedCodec corruption error.
        let codec = match data[4] {
            1 => TileCodec::Dct,
            2 => {
                if data.len() < 24 {
                    return Err(ContainerError::Truncated);
                }
                let id = data[5];
                TileCodec::from_id(id).ok_or(ContainerError::UnsupportedCodec(id))?
            }
            _ => return Err(ContainerError::BadMagic),
        };
        let fixed_len = fixed_header_len(codec);
        let fields = &data[fixed_len - 18..fixed_len];
        // width(4) height(4) gop(4) qp(1) flags(1) count(4) end the header.
        let (width, height, gop_len) = (le_u32(fields, 0), le_u32(fields, 4), le_u32(fields, 8));
        let (qp, deblock) = (fields[12], fields[13] != 0);
        let count = le_u32(fields, 14) as usize;
        if width == 0 || height == 0 {
            return Err(ContainerError::InvalidHeader("zero dimension"));
        }
        if gop_len == 0 {
            return Err(ContainerError::InvalidHeader("zero GOP length"));
        }
        if qp > crate::quant::MAX_QP {
            return Err(ContainerError::InvalidHeader("QP out of range"));
        }
        let Some(entries) = data[fixed_len..].get(..count * 6) else {
            return Err(ContainerError::Truncated);
        };
        let mut end = fixed_len + entries.len();
        let mut frames = Vec::with_capacity(count);
        for entry in entries.chunks_exact(6) {
            let (start, qp) = (end, entry[5]);
            if qp > crate::quant::MAX_QP {
                return Err(ContainerError::InvalidHeader("frame QP out of range"));
            }
            // A payload end past `usize` is past the buffer too.
            let len = le_u32(entry, 0) as usize;
            end = end.checked_add(len).ok_or(ContainerError::Truncated)?;
            frames.push(FrameEntry {
                payload: start..end,
                is_key: entry[4] != 0,
                qp,
            });
        }
        if frames.first().is_some_and(|f| !f.is_key) {
            return Err(ContainerError::InvalidHeader(
                "first frame must be a keyframe",
            ));
        }
        match data.len().cmp(&end) {
            std::cmp::Ordering::Less => Err(ContainerError::Truncated),
            std::cmp::Ordering::Greater => Err(ContainerError::InvalidHeader(
                "trailing bytes after payload",
            )),
            std::cmp::Ordering::Equal => Ok(TileVideo {
                bytes,
                width,
                height,
                gop_len,
                qp,
                deblock,
                codec,
                frames,
            }),
        }
    }

    /// The container bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The container bytes, ending the tile.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Tile width in luma pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Tile height in luma pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// GOP length the stream was encoded with.
    pub fn gop_len(&self) -> u32 {
        self.gop_len
    }

    /// Quantization parameter.
    pub fn qp(&self) -> u8 {
        self.qp
    }

    /// Whether the in-loop deblocking filter is active.
    pub fn deblock(&self) -> bool {
        self.deblock
    }

    /// The codec the frame payloads were encoded with.
    pub fn codec(&self) -> TileCodec {
        self.codec
    }

    /// Number of frames in the stream.
    pub fn frame_count(&self) -> u32 {
        self.frames.len() as u32
    }

    /// Total size of the container, header included.
    pub fn size_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Frame `i` (display order), if the stream has it.
    pub fn frame(&self, i: u32) -> Option<TileFrame<'_>> {
        let entry = self.frames.get(i as usize)?;
        Some(TileFrame {
            is_key: entry.is_key,
            qp: entry.qp,
            data: &self.bytes[entry.payload.clone()],
        })
    }

    /// Index of the latest keyframe at or before `frame`.
    ///
    /// # Panics
    /// Panics if `frame` is out of range.
    pub fn keyframe_before(&self, frame: u32) -> u32 {
        assert!(
            frame < self.frame_count(),
            "frame {frame} out of range ({} frames)",
            self.frame_count()
        );
        (0..=frame)
            .rev()
            .find(|&i| self.frames[i as usize].is_key)
            .expect("stream starts with a keyframe")
    }

    /// Decodes frames `range` (display order), returning the requested
    /// frames and exact accounting of the work performed.
    ///
    /// Decoding starts at the preceding keyframe — as in any GOP-structured
    /// codec, frames between the keyframe and `range.start` must be decoded
    /// and discarded, and that warm-up work is included in the stats. This
    /// is the cost structure TASM's layout optimizer reasons about. A
    /// reversed or out-of-bounds `range` is [`ContainerError::InvalidRequest`].
    ///
    /// No frame is copied to chain the references: a kept frame is handed
    /// out only once the frame after it has been decoded against it, and
    /// warm-up frames are decoded in the cursor's two buffers.
    pub fn decode_range(
        &self,
        range: Range<u32>,
    ) -> Result<(Vec<Frame>, DecodeStats), ContainerError> {
        if range.start > range.end {
            return Err(ContainerError::InvalidRequest("reversed frame range"));
        }
        if range.start >= self.frame_count() || range.end > self.frame_count() {
            return Err(ContainerError::InvalidRequest("frame range out of bounds"));
        }
        if range.is_empty() {
            return Ok((Vec::new(), DecodeStats::new()));
        }
        let mut cursor = TileCursor::resume(self, self.keyframe_before(range.start), None);
        while cursor.position() < range.start {
            cursor.advance()?;
        }
        let mut out: Vec<Frame> = Vec::with_capacity(range.len());
        while cursor.position() < range.end {
            // The frame a decode displaces is the one before it: kept,
            // unless it was warm-up.
            let displaced_is_kept = cursor.position() > range.start;
            let displaced = cursor.advance_keeping()?;
            out.extend(displaced.filter(|_| displaced_is_kept));
        }
        let (last, stats) = cursor.finish();
        out.extend(last);
        Ok((out, stats))
    }

    /// A cursor whose next frame is `from`, for decoding one frame at a
    /// time from there. `from` must be a keyframe, or `reference` must
    /// hold the decoder's reconstruction of frame `from - 1` (e.g. the last
    /// frame of a cached GOP prefix). Resuming from a reference is
    /// bit-exact with a decode that started at the preceding keyframe, but
    /// is charged only for the frames actually decoded — this is what lets
    /// a decoded-GOP cache extend a partial entry without re-paying the
    /// warm-up. A `from` past the last frame and a `reference` of another
    /// size than the tile's are [`ContainerError::InvalidRequest`].
    pub fn cursor_at<'a>(
        &'a self,
        from: u32,
        reference: Option<&'a Frame>,
    ) -> Result<TileCursor<'a>, ContainerError> {
        let first = (self.frames.get(from as usize))
            .ok_or(ContainerError::InvalidRequest("frame range out of bounds"))?;
        if reference.is_some_and(|r| (r.width(), r.height()) != (self.width, self.height)) {
            return Err(ContainerError::InvalidRequest(
                "reference frame size differs from the tile's",
            ));
        }
        if reference.is_none() && !first.is_key {
            return Err(ContainerError::InvalidHeader(
                "resume point is not a keyframe and no reference was supplied",
            ));
        }
        Ok(TileCursor::resume(self, from, reference))
    }

    /// Decodes the whole stream.
    pub fn decode_all(&self) -> Result<(Vec<Frame>, DecodeStats), ContainerError> {
        self.decode_range(0..self.frame_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::TileEncoder;
    use crate::pred;
    use tasm_video::{Plane, Rect};

    fn cfg(gop: u32) -> EncoderConfig {
        EncoderConfig {
            gop_len: gop,
            ..Default::default()
        }
    }

    /// Textured background + a moving patch, so keyframes carry real intra
    /// cost while P-frames mostly skip.
    fn test_frame(i: u32) -> Frame {
        let mut f = Frame::filled(32, 32, 100, 128, 128);
        for y in 0..32 {
            for x in 0..32 {
                f.set_sample(Plane::Y, x, y, ((x * 11 + y * 5) % 200 + 20) as u8);
            }
        }
        f.fill_rect(Rect::new((i * 2) % 24, 4, 8, 8), 220, 90, 160);
        f
    }

    fn encode_test_video(n: u32, gop: u32) -> TileVideo {
        let mut enc = TileEncoder::new(cfg(gop), Rect::new(0, 0, 32, 32));
        let frames: Vec<EncodedFrame> = (0..n).map(|i| enc.encode_next(&test_frame(i))).collect();
        TileVideo::from_frames(TileCodec::Dct, 32, 32, &cfg(gop), &frames)
    }

    fn encode_pred_video(n: u32, gop: u32) -> TileVideo {
        let mut frames = Vec::new();
        let mut prev: Option<Frame> = None;
        for i in 0..n {
            let f = test_frame(i);
            let is_key = i % gop == 0;
            let data = if is_key {
                pred::encode_intra(&f)
            } else {
                pred::encode_inter(&f, prev.as_ref().unwrap())
            };
            frames.push(EncodedFrame {
                is_key,
                qp: 0,
                data,
            });
            prev = Some(f);
        }
        let cfg = EncoderConfig {
            qp: 0,
            deblock: false,
            ..cfg(gop)
        };
        TileVideo::from_frames(TileCodec::Pred, 32, 32, &cfg, &frames)
    }

    /// Frames `from..end` from a cursor at `from`, and the work it did.
    fn walk(
        v: &TileVideo,
        from: u32,
        end: u32,
        reference: Option<&Frame>,
    ) -> Result<(Vec<Frame>, DecodeStats), ContainerError> {
        let mut cursor = v.cursor_at(from, reference)?;
        let mut out = Vec::new();
        while cursor.position() < end {
            out.push(cursor.advance()?.clone());
        }
        Ok((out, *cursor.stats()))
    }

    #[test]
    fn serialization_roundtrip() {
        let v = encode_test_video(10, 4);
        let bytes = v.as_bytes().to_vec();
        assert_eq!(bytes.len() as u64, v.size_bytes());
        let back = TileVideo::from_bytes(bytes).unwrap();
        assert_eq!(v, back);
        assert_eq!(back.into_bytes(), v.as_bytes());
    }

    #[test]
    fn bad_magic_rejected() {
        let v = encode_test_video(2, 2);
        let mut bytes = v.into_bytes();
        bytes[0] = b'X';
        assert_eq!(TileVideo::from_bytes(bytes), Err(ContainerError::BadMagic));
    }

    #[test]
    fn truncation_rejected() {
        let v = encode_test_video(4, 2);
        let bytes = v.as_bytes();
        for cut in [0, 10, 22, bytes.len() - 1] {
            assert!(
                TileVideo::from_bytes(bytes[..cut].to_vec()).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn validate_checks_exact_length() {
        let v = encode_test_video(6, 3);
        let bytes = v.as_bytes();
        let h = TileVideo::from_bytes(bytes.to_vec()).unwrap();
        assert_eq!(h.width(), 32);
        assert_eq!(h.height(), 32);
        assert_eq!(h.gop_len(), 3);
        assert_eq!(h.frame_count(), 6);
        assert_eq!(h.size_bytes(), bytes.len() as u64);
        // A torn tail is truncation; appended garbage is an invalid header.
        assert_eq!(
            TileVideo::from_bytes(bytes[..bytes.len() - 1].to_vec()),
            Err(ContainerError::Truncated)
        );
        let mut longer = bytes.to_vec();
        longer.push(0);
        assert!(matches!(
            TileVideo::from_bytes(longer),
            Err(ContainerError::InvalidHeader(_))
        ));
    }

    #[test]
    fn keyframe_before_finds_gop_start() {
        let v = encode_test_video(10, 4);
        assert_eq!(v.keyframe_before(0), 0);
        assert_eq!(v.keyframe_before(3), 0);
        assert_eq!(v.keyframe_before(4), 4);
        assert_eq!(v.keyframe_before(7), 4);
        assert_eq!(v.keyframe_before(9), 8);
    }

    #[test]
    fn decode_range_includes_warmup_in_stats() {
        let v = encode_test_video(10, 4);
        // Request frames 6..8: decode must start at keyframe 4.
        let (frames, stats) = v.decode_range(6..8).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(stats.frames_decoded, 4); // frames 4,5,6,7
        assert_eq!(stats.tile_chunks_decoded, 4);
        assert!(stats.samples_decoded > 0);
        assert!(stats.bytes_read > 0);
    }

    /// Every counter of a [`DecodeStats`], time left out.
    fn counts(s: &DecodeStats) -> [u64; 5] {
        [
            s.frames_decoded,
            s.samples_decoded,
            s.tile_chunks_decoded,
            s.bytes_read,
            s.blocks_decoded,
        ]
    }

    #[test]
    fn a_cursor_walks_dct_and_pred_tiles_as_decode_all_does() {
        for v in [encode_test_video(10, 4), encode_pred_video(10, 4)] {
            let (all, all_stats) = v.decode_all().unwrap();
            let mut cursor = v.cursor_at(0, None).unwrap();
            for (i, want) in all.iter().enumerate() {
                assert_eq!(cursor.position(), i as u32);
                assert_eq!(cursor.advance().unwrap(), want, "{:?} frame {i}", v.codec);
                assert_eq!(cursor.current(), Some(want));
            }
            assert!(matches!(
                cursor.advance(),
                Err(ContainerError::InvalidRequest(_))
            ));
            // A failed step is not charged.
            let (_, stats) = cursor.finish();
            assert_eq!(counts(&stats), counts(&all_stats), "{:?}", v.codec);
        }
    }

    #[test]
    fn decode_range_matches_decode_all() {
        let v = encode_test_video(8, 4);
        let (all, _) = v.decode_all().unwrap();
        let (some, _) = v.decode_range(5..8).unwrap();
        assert_eq!(all.len(), 8);
        assert_eq!(some.len(), 3);
        for (a, b) in all[5..].iter().zip(&some) {
            assert_eq!(a.plane(Plane::Y), b.plane(Plane::Y));
            assert_eq!(a.plane(Plane::U), b.plane(Plane::U));
        }
    }

    #[test]
    fn a_resumed_cursor_matches_full_decode() {
        let v = encode_test_video(10, 4);
        let (all, _) = v.decode_all().unwrap();
        // Resume mid-GOP using the previous reconstruction as reference.
        let (tail, stats) = walk(&v, 6, 10, Some(&all[5])).unwrap();
        assert_eq!(tail.len(), 4);
        assert_eq!(stats.frames_decoded, 4); // no warm-up charged
        for (a, b) in all[6..].iter().zip(&tail) {
            assert_eq!(a, b, "resumed decode must be bit-identical");
        }
        // Resume at a keyframe needs no reference.
        let (from_key, _) = walk(&v, 4, 8, None).unwrap();
        assert_eq!(&all[4..8], &from_key[..]);
        // Mid-GOP without a reference is an error.
        assert!(v.cursor_at(6, None).is_err());
    }

    #[test]
    fn empty_range_is_free() {
        let v = encode_test_video(4, 2);
        let (frames, stats) = v.decode_range(2..2).unwrap();
        assert!(frames.is_empty());
        assert_eq!(stats, DecodeStats::new());
    }

    #[test]
    fn out_of_bounds_range_is_error() {
        let v = encode_test_video(4, 2);
        assert!(v.decode_range(0..5).is_err());
        assert!(v.decode_range(4..4).is_err());
    }

    #[test]
    fn reversed_range_is_typed_error() {
        let reversed = Err(ContainerError::InvalidRequest("reversed frame range"));
        for v in [encode_test_video(4, 2), encode_pred_video(4, 2)] {
            #[allow(clippy::reversed_empty_ranges)]
            let range = 3..1;
            assert_eq!(v.decode_range(range), reversed);
        }
    }

    #[test]
    fn resume_reference_of_another_size_is_typed_error() {
        let mismatch = Err(ContainerError::InvalidRequest(
            "reference frame size differs from the tile's",
        ));
        for v in [encode_test_video(6, 4), encode_pred_video(6, 4)] {
            let (all, _) = v.decode_all().unwrap();
            for (w, h) in [(48, 32), (32, 16), (16, 48)] {
                let wrong = Frame::black(w, h);
                assert_eq!(walk(&v, 2, 4, Some(&wrong)), mismatch, "{w}x{h}");
            }
            // The right size still resumes.
            assert_eq!(walk(&v, 2, 4, Some(&all[1])).unwrap().0, &all[2..4]);
        }
    }

    #[test]
    fn dct_serializes_as_version_1() {
        // DCT tiles stay bit-compatible with pre-codec-id stores: version
        // byte 1, 23-byte fixed header.
        let v = encode_test_video(2, 2);
        assert_eq!(v.as_bytes()[4], 1);
        let h = TileVideo::from_bytes(v.into_bytes()).unwrap();
        assert_eq!(h.codec(), TileCodec::Dct);
    }

    #[test]
    fn pred_roundtrip_is_lossless_and_versioned() {
        let v = encode_pred_video(10, 4);
        let bytes = v.as_bytes();
        assert_eq!(bytes[4], 2, "non-DCT containers serialize as version 2");
        assert_eq!(bytes[5], TileCodec::Pred.id());
        assert_eq!(bytes.len() as u64, v.size_bytes());
        let back = TileVideo::from_bytes(bytes.to_vec()).unwrap();
        assert_eq!(v, back);
        assert_eq!(back.codec(), TileCodec::Pred);
        // Lossless: decode must reproduce the source frames exactly.
        let (frames, stats) = back.decode_all().unwrap();
        assert_eq!(frames.len(), 10);
        assert_eq!(stats.frames_decoded, 10);
        assert_eq!(frames[0], test_frame(0));
    }

    #[test]
    fn pred_resumed_cursor_matches_full_decode() {
        let v = encode_pred_video(10, 4);
        let (all, _) = v.decode_all().unwrap();
        let (tail, stats) = walk(&v, 6, 10, Some(&all[5])).unwrap();
        assert_eq!(stats.frames_decoded, 4);
        assert_eq!(&all[6..], &tail[..]);
        let (some, warm) = v.decode_range(6..8).unwrap();
        assert_eq!(warm.frames_decoded, 4); // warm-up from keyframe 4
        assert_eq!(&all[6..8], &some[..]);
    }

    #[test]
    fn unknown_codec_id_is_typed_error() {
        let v = encode_pred_video(2, 2);
        let mut bytes = v.into_bytes();
        bytes[5] = 9; // codec id nobody knows
        assert_eq!(
            TileVideo::from_bytes(bytes),
            Err(ContainerError::UnsupportedCodec(9))
        );
    }

    #[test]
    fn unknown_version_is_bad_magic() {
        let v = encode_test_video(2, 2);
        let mut bytes = v.into_bytes();
        bytes[4] = 7;
        assert_eq!(TileVideo::from_bytes(bytes), Err(ContainerError::BadMagic));
    }

    #[test]
    fn corrupt_pred_payload_is_typed_error() {
        let v = encode_pred_video(4, 4);
        let mut bytes = v.into_bytes();
        // Flip a byte deep in the first frame's payload (past its header).
        let off = bytes.len() - 3;
        bytes[off] ^= 0xFF;
        let back = TileVideo::from_bytes(bytes).unwrap();
        match back.decode_all() {
            Ok((frames, _)) => assert_eq!(frames.len(), 4), // flip survived checksum? impossible
            Err(ContainerError::Decode(_)) => {}
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn keyframes_cost_more_than_p_frames() {
        let v = encode_test_video(8, 4);
        let frames: Vec<TileFrame<'_>> = (0..8).map(|i| v.frame(i).unwrap()).collect();
        let avg = |key: bool, n: f64| -> f64 {
            frames
                .iter()
                .filter(|f| f.is_key == key)
                .map(|f| f.data.len() as f64)
                .sum::<f64>()
                / n
        };
        let (key_avg, p_avg) = (avg(true, 2.0), avg(false, 6.0));
        assert!(
            key_avg > 2.0 * p_avg,
            "keyframes ({key_avg:.0}B) should dominate P-frames ({p_avg:.0}B)"
        );
    }
}
