//! Whole-video encoding with a tile layout.
//!
//! [`encode_video`] is the entry point TASM's storage manager uses: given a
//! frame source, a [`TileLayout`], and an [`EncoderConfig`], it produces one
//! [`TileVideo`] per tile. Tiles are encoded independently (the paper's
//! prototype encodes them sequentially; we optionally parallelize across
//! tiles since the streams share nothing).
//!
//! Every tile is a DCT stream. The pass over the source is frame-major: a
//! frame is fetched once and every tile's encoder is fed from that one
//! borrowed frame, so a frame source that renders or copies on `frame(i)`
//! is asked once per frame, not once per tile (on the parallel path: once
//! per worker).

use crate::container::{TileCodec, TileVideo};
use crate::encoder::{EncodedFrame, EncoderConfig, TileEncoder};
use crate::grid::{LayoutError, TileLayout};
use crate::stats::EncodeStats;
use std::time::Instant;
use tasm_video::{FrameSource, Rect};

/// Encodes all frames of `src` under `layout`, returning one stream per tile
/// (raster order) plus encode-work accounting.
///
/// Set `parallel` to encode tiles on separate threads; the output is
/// bit-identical either way.
pub fn encode_video(
    src: &dyn FrameSource,
    layout: &TileLayout,
    cfg: &EncoderConfig,
    parallel: bool,
) -> Result<(Vec<TileVideo>, EncodeStats), LayoutError> {
    layout.check_covers(src.width(), src.height())?;
    assert!(!src.is_empty(), "cannot encode an empty source");
    let t0 = Instant::now();

    let rects: Vec<_> = layout.tiles().map(|(_, r)| r).collect();
    let threads = if parallel {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(rects.len())
    } else {
        1
    };
    let tile_frames: Vec<Vec<EncodedFrame>> = if threads > 1 {
        // Each worker owns a run of consecutive tiles and pulls frames from
        // the (Sync) source independently.
        std::thread::scope(|scope| {
            let workers: Vec<_> = rects
                .chunks(rects.len().div_ceil(threads))
                .map(|chunk| scope.spawn(move || encode_tiles(src, chunk, cfg)))
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("tile encode worker panicked"))
                .collect()
        })
    } else {
        encode_tiles(src, &rects, cfg)
    };

    let videos: Vec<TileVideo> = rects
        .iter()
        .zip(tile_frames)
        .map(|(rect, frames)| TileVideo {
            width: rect.w,
            height: rect.h,
            gop_len: cfg.gop_len,
            qp: cfg.qp,
            deblock: cfg.deblock,
            codec: TileCodec::Dct,
            frames,
        })
        .collect();

    let stats = EncodeStats {
        frames_encoded: src.len() as u64 * videos.len() as u64,
        samples_encoded: src.len() as u64 * (src.width() as u64 * src.height() as u64 * 3 / 2),
        bytes_produced: videos.iter().map(|v| v.size_bytes()).sum(),
        encode_time: t0.elapsed(),
    };
    Ok((videos, stats))
}

/// Encodes the tiles at `rects` in one frame-major pass: one
/// `src.frame(i)` per frame, handed by reference to every tile's encoder.
fn encode_tiles(
    src: &dyn FrameSource,
    rects: &[Rect],
    cfg: &EncoderConfig,
) -> Vec<Vec<EncodedFrame>> {
    let mut tiles: Vec<(TileEncoder, Vec<EncodedFrame>)> = rects
        .iter()
        .map(|&r| (TileEncoder::new(*cfg, r), Vec::new()))
        .collect();
    for i in 0..src.len() {
        let frame = src.frame(i);
        for (enc, out) in &mut tiles {
            out.push(enc.encode_next(&frame));
        }
    }
    tiles.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use tasm_video::{Frame, Plane, VecFrameSource};

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

    /// Counts `frame(i)` calls per frame index.
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
    }

    #[test]
    fn each_frame_is_fetched_once_per_pass_not_once_per_tile() {
        let layout = TileLayout::uniform(96, 64, 3, 4).unwrap();
        let workers = std::thread::available_parallelism()
            .map(|n| n.get() as u32)
            .unwrap_or(4);
        let cfg = EncoderConfig::default();
        let clip = moving_source(5, 96, 64);

        let src = CountingSource::new(clip.clone());
        let (serial, _) = encode_video(&src, &layout, &cfg, false).unwrap();
        assert_eq!(src.fetches(), [1; 5], "serial");

        let src = CountingSource::new(clip);
        let (parallel, _) = encode_video(&src, &layout, &cfg, true).unwrap();
        let fetches = src.fetches();
        assert!(
            fetches.iter().all(|&n| (1..=workers).contains(&n)),
            "parallel on {workers} workers: {fetches:?}"
        );
        assert_eq!(serial, parallel);
    }

    #[test]
    fn untiled_encode_produces_single_stream() {
        let src = moving_source(6, 64, 48);
        let layout = TileLayout::untiled(64, 48);
        let (videos, stats) =
            encode_video(&src, &layout, &EncoderConfig::default(), false).unwrap();
        assert_eq!(videos.len(), 1);
        assert_eq!(videos[0].frame_count(), 6);
        assert!(stats.bytes_produced > 0);
        assert!(stats.encode_time.as_nanos() > 0);
    }

    #[test]
    fn tiled_encode_matches_layout() {
        let src = moving_source(4, 64, 48);
        let layout = TileLayout::new(vec![32, 32], vec![16, 32]).unwrap();
        let (videos, _) = encode_video(&src, &layout, &EncoderConfig::default(), false).unwrap();
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
        assert!(encode_video(&src, &layout, &EncoderConfig::default(), false).is_err());
    }

    #[test]
    fn parallel_output_is_bit_identical() {
        let src = moving_source(8, 96, 64);
        let layout = TileLayout::uniform(96, 64, 2, 3).unwrap();
        let cfg = EncoderConfig::default();
        let (seq, _) = encode_video(&src, &layout, &cfg, false).unwrap();
        let (par, _) = encode_video(&src, &layout, &cfg, true).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn tiles_reassemble_into_full_frame() {
        let src = moving_source(5, 64, 64);
        let layout = TileLayout::uniform(64, 64, 2, 2).unwrap();
        let cfg = EncoderConfig::default();
        let (videos, _) = encode_video(&src, &layout, &cfg, false).unwrap();

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
