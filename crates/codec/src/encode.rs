//! Whole-video encoding with a tile layout.
//!
//! [`LayoutEncoder`] is the one encoder of a layout's tiles. Its pass over
//! the video is frame-major: each frame is handed to it once and every
//! tile's encoder reads its rectangle from that one borrow, so a source
//! that renders, copies or decodes a frame does so once per frame, not once
//! per tile. [`encode_video`] drives it from a [`FrameSource`], lending each
//! frame once ([`FrameSource::lend`]). Every tile is a DCT stream.
//!
//! The encoder runs on one thread. Tiles share nothing, but they share each
//! frame; SOTs share nothing at all, so the storage manager's parallel
//! encode hands whole SOTs to its workers and no encode waits on another.

use crate::container::{TileCodec, TileVideo};
use crate::encoder::{EncodedFrame, EncoderConfig, TileEncoder};
use crate::grid::{LayoutError, TileLayout};
use crate::stats::EncodeStats;
use std::time::{Duration, Instant};
use tasm_video::{Frame, FrameSource};

/// Encodes all frames of `src` under `layout`, returning one stream per tile
/// (raster order) plus encode-work accounting.
pub fn encode_video(
    src: &dyn FrameSource,
    layout: &TileLayout,
    cfg: &EncoderConfig,
) -> Result<(Vec<TileVideo>, EncodeStats), LayoutError> {
    layout.check_covers(src.width(), src.height())?;
    assert!(!src.is_empty(), "cannot encode an empty source");
    let mut encoder = LayoutEncoder::new(layout, cfg);
    for i in 0..src.len() {
        src.lend(i, &mut |frame| encoder.encode(frame));
    }
    Ok(encoder.finish())
}

/// A one-pass encoder of every tile of a layout: frames go in, in display
/// order, and each tile's stream comes out at the end.
pub struct LayoutEncoder {
    tiles: Vec<(TileEncoder, Vec<EncodedFrame>)>,
    cfg: EncoderConfig,
    /// Source samples of one full frame, across all planes.
    frame_samples: u64,
    frames: u64,
    /// Time spent in [`LayoutEncoder::encode`].
    encode_time: Duration,
}

impl LayoutEncoder {
    /// An encoder for each tile of `layout`, before the first frame.
    pub fn new(layout: &TileLayout, cfg: &EncoderConfig) -> Self {
        let (w, h) = (layout.frame_width() as u64, layout.frame_height() as u64);
        LayoutEncoder {
            tiles: layout
                .tiles()
                .map(|(_, r)| (TileEncoder::new(*cfg, r), Vec::new()))
                .collect(),
            cfg: *cfg,
            frame_samples: w * h * 3 / 2,
            frames: 0,
            encode_time: Duration::ZERO,
        }
    }

    /// Encodes every tile of the next frame.
    ///
    /// # Panics
    /// Panics if the frame does not contain a tile of the layout.
    pub fn encode(&mut self, frame: &Frame) {
        let t0 = Instant::now();
        for (enc, out) in &mut self.tiles {
            out.push(enc.encode_next(frame));
        }
        self.frames += 1;
        self.encode_time += t0.elapsed();
    }

    /// One stream per tile (raster order) and the work of the pass. Its
    /// `encode_time` is the time spent in [`LayoutEncoder::encode`], so the
    /// time a source takes to produce the frames is not in it.
    pub fn finish(self) -> (Vec<TileVideo>, EncodeStats) {
        let cfg = self.cfg;
        let videos: Vec<TileVideo> = self
            .tiles
            .into_iter()
            .map(|(enc, frames)| TileVideo {
                width: enc.rect().w,
                height: enc.rect().h,
                gop_len: cfg.gop_len,
                qp: cfg.qp,
                deblock: cfg.deblock,
                codec: TileCodec::Dct,
                frames,
            })
            .collect();
        let stats = EncodeStats {
            frames_encoded: self.frames * videos.len() as u64,
            samples_encoded: self.frames * self.frame_samples,
            bytes_produced: videos.iter().map(|v| v.size_bytes()).sum(),
            encode_time: self.encode_time,
        };
        (videos, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use tasm_video::{Frame, Plane, Rect, VecFrameSource};

    fn moving_source(n: u32, w: u32, h: u32) -> VecFrameSource {
        let frames = (0..n)
            .map(|i| {
                let mut f = Frame::filled(w, h, 80, 128, 128);
                f.fill_rect(Rect::new((i * 4) % (w - 16), h / 4, 16, 16), 210, 100, 150);
                f
            })
            .collect();
        VecFrameSource::new(frames)
    }

    /// Counts `frame(i)` and `lend(i, ..)` calls per frame index.
    struct CountingSource {
        inner: VecFrameSource,
        fetches: Vec<AtomicU32>,
    }

    impl CountingSource {
        fn new(inner: VecFrameSource) -> Self {
            let fetches = (0..inner.len()).map(|_| AtomicU32::new(0)).collect();
            CountingSource { inner, fetches }
        }

        fn fetches(&self) -> Vec<u32> {
            self.fetches
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect()
        }
    }

    impl FrameSource for CountingSource {
        fn width(&self) -> u32 {
            self.inner.width()
        }
        fn height(&self) -> u32 {
            self.inner.height()
        }
        fn len(&self) -> u32 {
            self.inner.len()
        }
        fn frame(&self, idx: u32) -> Frame {
            self.fetches[idx as usize].fetch_add(1, Ordering::Relaxed);
            self.inner.frame(idx)
        }
        fn lend(&self, idx: u32, f: &mut dyn FnMut(&Frame)) {
            self.fetches[idx as usize].fetch_add(1, Ordering::Relaxed);
            self.inner.lend(idx, f);
        }
    }

    #[test]
    fn each_frame_is_fetched_once_per_pass_not_once_per_tile() {
        let layout = TileLayout::uniform(96, 64, 3, 4).unwrap();
        let src = CountingSource::new(moving_source(5, 96, 64));
        encode_video(&src, &layout, &EncoderConfig::default()).unwrap();
        assert_eq!(src.fetches(), [1; 5]);
    }

    #[test]
    fn untiled_encode_produces_single_stream() {
        let src = moving_source(6, 64, 48);
        let layout = TileLayout::untiled(64, 48);
        let (videos, stats) = encode_video(&src, &layout, &EncoderConfig::default()).unwrap();
        assert_eq!(videos.len(), 1);
        assert_eq!(videos[0].frame_count(), 6);
        assert!(stats.bytes_produced > 0);
        assert!(stats.encode_time.as_nanos() > 0);
    }

    #[test]
    fn tiled_encode_matches_layout() {
        let src = moving_source(4, 64, 48);
        let layout = TileLayout::new(vec![32, 32], vec![16, 32]).unwrap();
        let (videos, _) = encode_video(&src, &layout, &EncoderConfig::default()).unwrap();
        assert_eq!(videos.len(), 4);
        assert_eq!(videos[0].width, 32);
        assert_eq!(videos[0].height, 16);
        assert_eq!(videos[3].width, 32);
        assert_eq!(videos[3].height, 32);
    }

    #[test]
    fn layout_mismatch_rejected() {
        let src = moving_source(2, 64, 48);
        let layout = TileLayout::untiled(32, 48);
        assert!(encode_video(&src, &layout, &EncoderConfig::default()).is_err());
    }

    #[test]
    fn tiles_reassemble_into_full_frame() {
        let src = moving_source(5, 64, 64);
        let layout = TileLayout::uniform(64, 64, 2, 2).unwrap();
        let cfg = EncoderConfig::default();
        let (videos, _) = encode_video(&src, &layout, &cfg).unwrap();

        // Decode every tile and composite; compare against the source.
        let mut composite = Frame::black(64, 64);
        for (i, rect) in layout.tiles() {
            let (frames, _) = videos[i as usize].decode_range(2..3).unwrap();
            composite.blit(&frames[0], frames[0].rect(), rect.x, rect.y);
        }
        let original = src.frame(2);
        let report = tasm_video::psnr_frames(&original, &composite);
        assert!(report.y > 28.0, "composite PSNR {:.1}", report.y);
        assert!(composite.plane(Plane::Y).iter().any(|&v| v > 150));
    }
}
