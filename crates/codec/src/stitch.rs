//! Stitching stored tiles back into full frames.
//!
//! Tiles are stored as separate streams (§2 of the paper), and whatever
//! needs a SOT's full frames — a re-tile's encoder, a quality check against
//! the raw video — recovers them without re-encoding: a [`StitchedVideo`]
//! decodes every tile a frame at a time and composites the reconstructions,
//! so no loss is added beyond the tiles' own encoding. It walks forward
//! with one [`TileCursor`] per tile and one canvas, so memory is O(frame)
//! however long the SOT.

use crate::container::{ContainerError, TileVideo};
use crate::cursor::TileCursor;
use crate::grid::TileLayout;
use crate::stats::DecodeStats;
use tasm_video::{Frame, Rect};

/// Tiles under a layout, walked forward frame by frame and composited into
/// full frames. Asking for the frame shown last again is free; asking for
/// an earlier one is an error.
pub struct StitchedVideo<'a> {
    rects: Vec<Rect>,
    cursors: Vec<TileCursor<'a>>,
    /// The composed frame; `None` when one tile is the whole frame, which
    /// is then lent as its cursor decoded it.
    canvas: Option<Frame>,
    /// The frame the cursors (and the canvas) show, once there is one.
    shown: Option<u32>,
    frame_count: u32,
}

/// Tiles that do not fit the layout they are stitched under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StitchError {
    /// The number of tile streams does not match the layout.
    TileCountMismatch { expected: u32, got: u32 },
    /// A tile stream's dimensions disagree with its layout rectangle.
    TileDimsMismatch { index: u32 },
    /// Tile streams disagree on frame count.
    FrameCountMismatch,
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
        }
    }
}

impl std::error::Error for StitchError {}

impl<'a> StitchedVideo<'a> {
    /// A walk over `tiles` (raster order) under `layout`, before its first
    /// frame. Nothing is decoded until a frame is asked for.
    pub fn new(layout: &TileLayout, tiles: &'a [TileVideo]) -> Result<Self, StitchError> {
        if tiles.len() as u32 != layout.tile_count() {
            return Err(StitchError::TileCountMismatch {
                expected: layout.tile_count(),
                got: tiles.len() as u32,
            });
        }
        let rects: Vec<Rect> = layout.tiles().map(|(_, r)| r).collect();
        for ((t, rect), index) in tiles.iter().zip(&rects).zip(0..) {
            if (t.width(), t.height()) != (rect.w, rect.h) {
                return Err(StitchError::TileDimsMismatch { index });
            }
        }
        let frame_count = tiles[0].frame_count();
        if tiles.iter().any(|t| t.frame_count() != frame_count) {
            return Err(StitchError::FrameCountMismatch);
        }
        Ok(StitchedVideo {
            canvas: (tiles.len() > 1)
                .then(|| Frame::black(layout.frame_width(), layout.frame_height())),
            rects,
            cursors: tiles
                .iter()
                .map(|t| TileCursor::resume(t, 0, None))
                .collect(),
            shown: None,
            frame_count,
        })
    }

    /// Number of frames.
    pub fn frame_count(&self) -> u32 {
        self.frame_count
    }

    /// Frame `idx`: every cursor moves forward to it and the tiles are
    /// composed. A frame past the end, or before the one shown last, is
    /// [`ContainerError::InvalidRequest`].
    pub fn frame(&mut self, idx: u32) -> Result<&Frame, ContainerError> {
        if self.shown != Some(idx) {
            if idx >= self.frame_count {
                return Err(ContainerError::InvalidRequest("frame range out of bounds"));
            }
            if self.shown.is_some_and(|shown| shown > idx) {
                return Err(ContainerError::InvalidRequest(
                    "stitched frames are walked forward",
                ));
            }
            for cursor in &mut self.cursors {
                while cursor.position() <= idx {
                    cursor.advance()?;
                }
            }
            if let Some(canvas) = &mut self.canvas {
                for (cursor, rect) in self.cursors.iter().zip(&self.rects) {
                    let tile = cursor.current().expect("the cursor just decoded");
                    canvas.blit(tile, tile.rect(), rect.x, rect.y);
                }
            }
            self.shown = Some(idx);
        }
        Ok(match &self.canvas {
            Some(canvas) => canvas,
            None => self.cursors[0].current().expect("the cursor just decoded"),
        })
    }

    /// The decode work of the walk so far.
    pub fn stats(&self) -> DecodeStats {
        self.cursors
            .iter()
            .fold(DecodeStats::new(), |total, c| total + *c.stats())
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
        let (videos, _) = encode_video(&src, &layout, &EncoderConfig::default()).unwrap();
        (layout, videos)
    }

    #[test]
    fn stitch_validates_inputs() {
        let (layout, mut tiles) = tiled(4, 2, 2);
        assert_eq!(
            StitchedVideo::new(&layout, &tiles[..3]).err(),
            Some(StitchError::TileCountMismatch {
                expected: 4,
                got: 3
            })
        );
        let (_, narrow) = tiled(4, 2, 4);
        assert_eq!(
            StitchedVideo::new(&layout, &narrow[..4]).err(),
            Some(StitchError::TileDimsMismatch { index: 0 })
        );
        tiles[1] = tiled(3, 2, 2).1.swap_remove(1);
        assert_eq!(
            StitchedVideo::new(&layout, &tiles).err(),
            Some(StitchError::FrameCountMismatch)
        );
    }

    #[test]
    fn stitched_decode_approximates_source() {
        let (layout, tiles) = tiled(6, 2, 2);
        let mut sv = StitchedVideo::new(&layout, &tiles).unwrap();
        assert_eq!(sv.frame_count(), 6);
        let src = source(6);
        for i in 0..6 {
            let r = psnr_frames(&src.frame(i), sv.frame(i).unwrap());
            assert!(r.y > 28.0, "frame {i}: PSNR {:.1}", r.y);
        }
        assert_eq!(sv.stats().tile_chunks_decoded, 6 * 4);
    }

    /// Every tile of a stitched frame is exactly that tile's own decode:
    /// stitching composites reconstructions and never re-encodes.
    #[test]
    fn stitching_is_homomorphic_no_reencode() {
        let (layout, tiles) = tiled(4, 2, 2);
        let own: Vec<Vec<Frame>> = tiles.iter().map(|t| t.decode_all().unwrap().0).collect();
        let mut sv = StitchedVideo::new(&layout, &tiles).unwrap();
        for f in 0..4 {
            let frame = sv.frame(f).unwrap();
            for ((_, rect), own) in layout.tiles().zip(&own) {
                assert_eq!(frame.crop(rect), own[f as usize], "frame {f} tile {rect:?}");
            }
        }
        // One tile is the whole frame: lent as decoded.
        let (untiled, one) = tiled(4, 1, 1);
        let mut sv = StitchedVideo::new(&untiled, &one).unwrap();
        assert_eq!(sv.frame(3).unwrap(), &one[0].decode_all().unwrap().0[3]);
    }

    #[test]
    fn frames_past_the_end_or_behind_the_walk_are_invalid_requests() {
        let (layout, tiles) = tiled(4, 1, 2);
        let mut sv = StitchedVideo::new(&layout, &tiles).unwrap();
        for idx in [4, 100_000, u32::MAX] {
            assert!(matches!(
                sv.frame(idx),
                Err(ContainerError::InvalidRequest(_))
            ));
        }
        // Nothing was decoded for them.
        assert_eq!(sv.stats().frames_decoded, 0);
        assert!(sv.frame(2).is_ok());
        assert!(sv.frame(2).is_ok());
        assert!(matches!(
            sv.frame(1),
            Err(ContainerError::InvalidRequest(_))
        ));
        assert_eq!(sv.stats().frames_decoded, 2 * 3);
    }
}
