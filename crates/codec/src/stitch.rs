//! Homomorphic stitching.
//!
//! Tiles are stored as separate video files, but a query for a full frame
//! must recover the original picture. Homomorphic stitching (\[17\] in the
//! paper, §2) combines encoded tiles *without an intermediate re-encode*:
//! the stitched artifact interleaves the tiles' encoded bitstreams and adds
//! a layout header telling the decoder how tiles are arranged. Decoding the
//! stitched stream reconstructs each tile independently and composites the
//! planes — no generation loss beyond the tiles' own encoding.

use crate::container::{ContainerError, TileVideo};
use crate::grid::{LayoutError, TileLayout};
use crate::stats::DecodeStats;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::ops::Range;
use std::time::Instant;
use tasm_video::Frame;

/// Magic bytes identifying a stitched stream.
pub const TSF_MAGIC: [u8; 4] = *b"TSF1";

/// The fewest bytes a serialized tile takes: its `u64` length and the
/// shortest TVF header (a version-1 one, with no frames).
const MIN_TILE_BYTES: usize = 8 + 23;

/// A stitched video: a tile layout plus the encoded tile streams, combined
/// without re-encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct StitchedVideo {
    layout: TileLayout,
    tiles: Vec<TileVideo>,
}

/// Errors raised while stitching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StitchError {
    /// The number of tile streams does not match the layout.
    TileCountMismatch { expected: u32, got: u32 },
    /// A tile stream's dimensions disagree with its layout rectangle.
    TileDimsMismatch { index: u32 },
    /// Tile streams disagree on frame count.
    FrameCountMismatch,
    /// A tile stream uses a codec homomorphic stitching cannot splice
    /// (stitching re-frames DCT bitstreams without re-encoding; lossless
    /// tiles must be decoded and composited instead).
    UnsupportedCodec { index: u32 },
    /// The layout itself is invalid.
    Layout(LayoutError),
    /// Container-level failure.
    Container(ContainerError),
}

impl From<LayoutError> for StitchError {
    fn from(e: LayoutError) -> Self {
        StitchError::Layout(e)
    }
}

impl From<ContainerError> for StitchError {
    fn from(e: ContainerError) -> Self {
        StitchError::Container(e)
    }
}

impl std::fmt::Display for StitchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StitchError::TileCountMismatch { expected, got } => {
                write!(f, "layout expects {expected} tiles, got {got}")
            }
            StitchError::TileDimsMismatch { index } => {
                write!(f, "tile {index} dimensions disagree with layout")
            }
            StitchError::FrameCountMismatch => write!(f, "tiles disagree on frame count"),
            StitchError::UnsupportedCodec { index } => {
                write!(f, "tile {index} uses a codec stitching cannot splice")
            }
            StitchError::Layout(e) => write!(f, "layout error: {e}"),
            StitchError::Container(e) => write!(f, "container error: {e}"),
        }
    }
}

impl std::error::Error for StitchError {}

impl StitchedVideo {
    /// Stitches tile streams (raster order) under `layout`. Pure metadata
    /// operation: no pixel is decoded or re-encoded.
    pub fn stitch(layout: TileLayout, tiles: Vec<TileVideo>) -> Result<Self, StitchError> {
        if tiles.len() as u32 != layout.tile_count() {
            return Err(StitchError::TileCountMismatch {
                expected: layout.tile_count(),
                got: tiles.len() as u32,
            });
        }
        for (i, rect) in layout.tiles() {
            let t = &tiles[i as usize];
            if t.width != rect.w || t.height != rect.h {
                return Err(StitchError::TileDimsMismatch { index: i });
            }
            if t.codec != crate::container::TileCodec::Dct {
                return Err(StitchError::UnsupportedCodec { index: i });
            }
        }
        let n = tiles[0].frame_count();
        if tiles.iter().any(|t| t.frame_count() != n) {
            return Err(StitchError::FrameCountMismatch);
        }
        Ok(StitchedVideo { layout, tiles })
    }

    /// The stitched frame width.
    pub fn width(&self) -> u32 {
        self.layout.frame_width()
    }

    /// The stitched frame height.
    pub fn height(&self) -> u32 {
        self.layout.frame_height()
    }

    /// Number of frames.
    pub fn frame_count(&self) -> u32 {
        self.tiles[0].frame_count()
    }

    /// The tile layout.
    pub fn layout(&self) -> &TileLayout {
        &self.layout
    }

    /// Borrow the tile streams.
    pub fn tiles(&self) -> &[TileVideo] {
        &self.tiles
    }

    /// Total serialized size.
    pub fn size_bytes(&self) -> u64 {
        let header = 4 + 1 + 2 + 2 + 4 * (self.layout.cols() as u64 + self.layout.rows() as u64);
        header + self.tiles.iter().map(|t| 8 + t.size_bytes()).sum::<u64>()
    }

    /// Decodes full frames for `range`, compositing every tile. A reversed
    /// or out-of-bounds `range` is [`ContainerError::InvalidRequest`], as
    /// for [`TileVideo::decode_range`], before any frame is allocated.
    pub fn decode_range(
        &self,
        range: Range<u32>,
    ) -> Result<(Vec<Frame>, DecodeStats), ContainerError> {
        // Every tile has the same frames (`stitch` checks), so the first
        // tile's range checks are every tile's.
        self.tiles[0].check_range(&range)?;
        let t0 = Instant::now();
        let mut stats = DecodeStats::new();
        let mut frames: Vec<Frame> = (0..range.len())
            .map(|_| Frame::black(self.width(), self.height()))
            .collect();
        for (i, rect) in self.layout.tiles() {
            let (tile_frames, s) = self.tiles[i as usize].decode_range(range.clone())?;
            stats += s;
            for (dst, src) in frames.iter_mut().zip(&tile_frames) {
                dst.blit(src, src.rect(), rect.x, rect.y);
            }
        }
        stats.decode_time = t0.elapsed();
        Ok((frames, stats))
    }

    /// Decodes the whole stitched stream.
    pub fn decode_all(&self) -> Result<(Vec<Frame>, DecodeStats), ContainerError> {
        self.decode_range(0..self.frame_count())
    }

    /// Serializes the stitched stream: layout header + embedded tile streams.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.size_bytes() as usize);
        buf.put_slice(&TSF_MAGIC);
        buf.put_u8(1);
        buf.put_u16_le(self.layout.cols() as u16);
        buf.put_u16_le(self.layout.rows() as u16);
        for &w in self.layout.col_widths() {
            buf.put_u32_le(w);
        }
        for &h in self.layout.row_heights() {
            buf.put_u32_le(h);
        }
        for t in &self.tiles {
            let b = t.to_bytes();
            buf.put_u64_le(b.len() as u64);
            buf.put_slice(&b);
        }
        buf.freeze()
    }

    /// Parses a serialized stitched stream.
    pub fn from_bytes(mut data: &[u8]) -> Result<Self, StitchError> {
        if data.remaining() < 9 {
            return Err(StitchError::Container(ContainerError::Truncated));
        }
        let mut magic = [0u8; 4];
        data.copy_to_slice(&mut magic);
        if magic != TSF_MAGIC || data.get_u8() != 1 {
            return Err(StitchError::Container(ContainerError::BadMagic));
        }
        let cols = data.get_u16_le() as usize;
        let rows = data.get_u16_le() as usize;
        if data.remaining() < 4 * (cols + rows) {
            return Err(StitchError::Container(ContainerError::Truncated));
        }
        let col_widths: Vec<u32> = (0..cols).map(|_| data.get_u32_le()).collect();
        let row_heights: Vec<u32> = (0..rows).map(|_| data.get_u32_le()).collect();
        let layout = TileLayout::new(col_widths, row_heights)?;
        // Each tile takes at least its length and a container header, so a
        // layout the remaining bytes cannot hold is truncated: a small
        // header must not reserve room for billions of tiles.
        let count = rows * cols;
        if data.remaining() / MIN_TILE_BYTES < count {
            return Err(StitchError::Container(ContainerError::Truncated));
        }
        let mut tiles = Vec::with_capacity(count);
        for _ in 0..count {
            if data.remaining() < 8 {
                return Err(StitchError::Container(ContainerError::Truncated));
            }
            let len = data.get_u64_le() as usize;
            if data.remaining() < len {
                return Err(StitchError::Container(ContainerError::Truncated));
            }
            tiles.push(TileVideo::from_bytes(&data[..len]).map_err(StitchError::Container)?);
            data.advance(len);
        }
        StitchedVideo::stitch(layout, tiles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_video;
    use crate::encoder::EncoderConfig;
    use tasm_video::{psnr_frames, Frame, FrameSource, Rect, VecFrameSource};

    fn source(n: u32) -> VecFrameSource {
        let frames = (0..n)
            .map(|i| {
                let mut f = Frame::filled(64, 64, 90, 128, 128);
                f.fill_rect(Rect::new((i * 6) % 48, 16, 16, 16), 200, 80, 170);
                f
            })
            .collect();
        VecFrameSource::new(frames)
    }

    fn tiled(n: u32, rows: u32, cols: u32) -> (TileLayout, Vec<TileVideo>) {
        let src = source(n);
        let layout = TileLayout::uniform(64, 64, rows, cols).unwrap();
        let (videos, _) = encode_video(&src, &layout, &EncoderConfig::default(), false).unwrap();
        (layout, videos)
    }

    #[test]
    fn stitch_validates_inputs() {
        let (layout, mut tiles) = tiled(4, 2, 2);
        assert!(StitchedVideo::stitch(layout.clone(), tiles[..3].to_vec()).is_err());
        tiles[1].frames.pop();
        assert_eq!(
            StitchedVideo::stitch(layout, tiles).unwrap_err(),
            StitchError::FrameCountMismatch
        );
    }

    #[test]
    fn stitched_decode_approximates_source() {
        let (layout, tiles) = tiled(6, 2, 2);
        let sv = StitchedVideo::stitch(layout, tiles).unwrap();
        assert_eq!(sv.width(), 64);
        assert_eq!(sv.frame_count(), 6);
        let (frames, stats) = sv.decode_all().unwrap();
        assert_eq!(frames.len(), 6);
        assert_eq!(stats.tile_chunks_decoded, 6 * 4);
        let src = source(6);
        for i in 0..6 {
            let r = psnr_frames(&src.frame(i), &frames[i as usize]);
            assert!(r.y > 28.0, "frame {i}: PSNR {:.1}", r.y);
        }
    }

    #[test]
    fn stitched_serialization_roundtrip() {
        let (layout, tiles) = tiled(4, 2, 2);
        let sv = StitchedVideo::stitch(layout, tiles).unwrap();
        let bytes = sv.to_bytes();
        assert_eq!(bytes.len() as u64, sv.size_bytes());
        let back = StitchedVideo::from_bytes(&bytes).unwrap();
        assert_eq!(sv, back);
    }

    #[test]
    fn stitching_is_homomorphic_no_reencode() {
        // The stitched tile payloads are byte-identical to the inputs:
        // stitching never touches encoded data.
        let (layout, tiles) = tiled(4, 2, 2);
        let original_bytes: Vec<Bytes> = tiles.iter().map(|t| t.to_bytes()).collect();
        let sv = StitchedVideo::stitch(layout, tiles).unwrap();
        for (t, orig) in sv.tiles().iter().zip(&original_bytes) {
            assert_eq!(&t.to_bytes(), orig);
        }
    }

    #[test]
    fn corrupt_stitched_stream_rejected() {
        let (layout, tiles) = tiled(2, 1, 2);
        let sv = StitchedVideo::stitch(layout, tiles).unwrap();
        let bytes = sv.to_bytes();
        assert!(StitchedVideo::from_bytes(&bytes[..8]).is_err());
        let mut bad = bytes.to_vec();
        bad[0] = b'Z';
        assert!(StitchedVideo::from_bytes(&bad).is_err());
    }

    /// A 524,289-byte header naming 65535 × 65535 tiles of 16 × 16 holds no
    /// tile at all: it is truncated, and nothing is reserved for the tiles
    /// (the room for them alone would be 171 GB).
    #[test]
    fn hostile_tile_count_is_truncated_not_an_allocation() {
        let mut header = BytesMut::new();
        header.put_slice(&TSF_MAGIC);
        header.put_u8(1);
        header.put_u16_le(u16::MAX);
        header.put_u16_le(u16::MAX);
        for _ in 0..2 * u16::MAX as usize {
            header.put_u32_le(16);
        }
        assert_eq!(header.len(), 524_289);
        assert_eq!(
            StitchedVideo::from_bytes(&header),
            Err(StitchError::Container(ContainerError::Truncated))
        );
        // The bound is the true minimum: two frameless tiles in exactly
        // twice `MIN_TILE_BYTES` parse, and one byte less is truncated.
        let empty = TileVideo {
            width: 32,
            height: 64,
            gop_len: 30,
            qp: 28,
            deblock: true,
            codec: crate::container::TileCodec::Dct,
            frames: Vec::new(),
        };
        let layout = TileLayout::uniform(64, 64, 1, 2).unwrap();
        let sv = StitchedVideo::stitch(layout, vec![empty.clone(), empty]).unwrap();
        let bytes = sv.to_bytes();
        let header = 4 + 1 + 2 + 2 + 4 * 3;
        assert_eq!(bytes.len(), header + 2 * MIN_TILE_BYTES);
        assert_eq!(StitchedVideo::from_bytes(&bytes), Ok(sv));
        assert_eq!(
            StitchedVideo::from_bytes(&bytes[..bytes.len() - 1]),
            Err(StitchError::Container(ContainerError::Truncated))
        );
    }

    #[test]
    fn decode_range_checks_the_range_before_allocating() {
        let (layout, tiles) = tiled(4, 1, 2);
        let sv = StitchedVideo::stitch(layout, tiles).unwrap();
        let ranges = [
            Range { start: 3, end: 1 },
            0..5,
            4..4,
            0..100_000,
            0..u32::MAX,
            u32::MAX..u32::MAX,
        ];
        for range in ranges {
            let want = sv.tiles()[0].decode_range(range.clone()).unwrap_err();
            assert!(matches!(want, ContainerError::InvalidRequest(_)), "{want}");
            assert_eq!(
                sv.decode_range(range.clone()).unwrap_err(),
                want,
                "{range:?}"
            );
        }
        assert!(sv.decode_range(2..2).unwrap().0.is_empty());
        assert_eq!(sv.decode_range(1..4).unwrap().0.len(), 3);
    }
}
