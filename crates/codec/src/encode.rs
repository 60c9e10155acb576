//! Whole-video encoding with a tile layout.
//!
//! [`encode_video`] is the entry point TASM's storage manager uses: given a
//! frame source, a [`TileLayout`], and an [`EncoderConfig`], it produces one
//! [`TileVideo`] per tile. Tiles are encoded independently (the paper's
//! prototype encodes them sequentially; we optionally parallelize across
//! tiles since the streams share nothing).
//!
//! The loop is frame-major: each source frame is fetched once and every
//! tile's encoder is fed from that one borrowed frame, so a frame source
//! that renders or copies on `frame(i)` is asked once per frame, not once
//! per tile (on the parallel path: once per worker).

use crate::container::{TileCodec, TileVideo};
use crate::encoder::{CodecChoice, EncodedFrame, EncoderConfig, TileEncoder};
use crate::grid::{LayoutError, TileLayout};
use crate::pred;
use crate::stats::EncodeStats;
use bytes::Bytes;
use std::time::Instant;
use tasm_video::{Frame, FrameSource, Rect};

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
    let tile_frames: Vec<(TileCodec, Vec<EncodedFrame>)> = if threads > 1 {
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
        .map(|(rect, (codec, frames))| TileVideo {
            width: rect.w,
            height: rect.h,
            gop_len: cfg.gop_len,
            qp: cfg.qp,
            deblock: cfg.deblock,
            codec,
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

/// Encodes the tiles at `rects`, frame-major: one `src.frame(i)` per frame,
/// handed by reference to every tile's coder in turn.
fn encode_tiles(
    src: &dyn FrameSource,
    rects: &[Rect],
    cfg: &EncoderConfig,
) -> Vec<(TileCodec, Vec<EncodedFrame>)> {
    let mut coders: Vec<TileCoder> = rects.iter().map(|&r| TileCoder::new(r, cfg)).collect();
    for i in 0..src.len() {
        let frame = src.frame(i);
        for coder in &mut coders {
            coder.push(&frame);
        }
    }
    coders.into_iter().map(TileCoder::finish).collect()
}

/// One tile's encoder state under a [`CodecChoice`]: the DCT stream, the
/// lossless stream, or — for the `Auto` size trial — both, of which
/// [`TileCoder::finish`] keeps the smaller.
struct TileCoder {
    dct: Option<(TileEncoder, Vec<EncodedFrame>)>,
    lossless: Option<(PredTileEncoder, Vec<EncodedFrame>)>,
}

impl TileCoder {
    fn new(rect: Rect, cfg: &EncoderConfig) -> Self {
        // Each codec runs unless the choice is the other one alone.
        let (dct, lossless) = (
            cfg.codec != CodecChoice::Pred,
            cfg.codec != CodecChoice::Dct,
        );
        TileCoder {
            dct: dct.then(|| (TileEncoder::new(*cfg, rect), Vec::new())),
            lossless: lossless.then(|| (PredTileEncoder::new(rect, cfg.gop_len), Vec::new())),
        }
    }

    /// Encodes this tile's region of the next source frame.
    fn push(&mut self, frame: &Frame) {
        if let Some((enc, out)) = &mut self.dct {
            out.push(enc.encode_next(frame));
        }
        if let Some((enc, out)) = &mut self.lossless {
            out.push(enc.encode_next(frame));
        }
    }

    fn finish(self) -> (TileCodec, Vec<EncodedFrame>) {
        let payload =
            |frames: &[EncodedFrame]| -> u64 { frames.iter().map(|f| f.data.len() as u64).sum() };
        match (self.dct, self.lossless) {
            (Some((_, dct)), None) => (TileCodec::Dct, dct),
            (None, Some((_, lossless))) => (TileCodec::Pred, lossless),
            // The size trial: payload bytes dominate, so compare those
            // (header size differs by one byte).
            (Some((_, dct)), Some((_, lossless))) => {
                if payload(&lossless) < payload(&dct) {
                    (TileCodec::Pred, lossless)
                } else {
                    (TileCodec::Dct, dct)
                }
            }
            (None, None) => unreachable!("every codec choice runs at least one encoder"),
        }
    }
}

/// Lossless streaming encoder for one tile: crops each frame to the tile
/// rectangle, then per GOP encodes the keyframe intra and P-frames as
/// temporal deltas against the previous *source* tile (the codec is
/// lossless, so source and reconstruction are identical — no drift).
struct PredTileEncoder {
    rect: Rect,
    gop_len: u32,
    prev: Option<Frame>,
    frame_idx: u32,
}

impl PredTileEncoder {
    fn new(rect: Rect, gop_len: u32) -> Self {
        PredTileEncoder {
            rect,
            gop_len,
            prev: None,
            frame_idx: 0,
        }
    }

    fn encode_next(&mut self, src: &Frame) -> EncodedFrame {
        let tile = src.crop(self.rect);
        let is_key = self.frame_idx.is_multiple_of(self.gop_len);
        let data = match &self.prev {
            Some(prev) if !is_key => pred::encode_inter(&tile, prev),
            _ => pred::encode_intra(&tile),
        };
        self.prev = Some(tile);
        self.frame_idx += 1;
        EncodedFrame {
            is_key,
            qp: 0,
            data: Bytes::from(data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use tasm_video::{Plane, VecFrameSource};

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
    fn each_frame_is_fetched_once_not_once_per_tile() {
        let layout = TileLayout::uniform(96, 64, 3, 4).unwrap();
        let workers = std::thread::available_parallelism()
            .map(|n| n.get() as u32)
            .unwrap_or(4);
        for codec in [CodecChoice::Dct, CodecChoice::Pred, CodecChoice::Auto] {
            let cfg = EncoderConfig {
                codec,
                ..Default::default()
            };
            let src = CountingSource::new(moving_source(5, 96, 64));
            let (serial, _) = encode_video(&src, &layout, &cfg, false).unwrap();
            assert_eq!(src.fetches(), [1; 5], "{codec:?} serial");

            let src = CountingSource::new(moving_source(5, 96, 64));
            let (parallel, _) = encode_video(&src, &layout, &cfg, true).unwrap();
            let fetches = src.fetches();
            assert!(
                fetches.iter().all(|&n| (1..=workers).contains(&n)),
                "{codec:?} parallel on {workers} workers: {fetches:?}"
            );
            assert_eq!(serial, parallel, "{codec:?}");
        }
    }

    fn payload(frames: &[EncodedFrame]) -> u64 {
        frames.iter().map(|f| f.data.len() as u64).sum()
    }

    /// The size trial by its definition, sharing nothing with
    /// `encode_tiles`: each tile through both encoders to the last frame,
    /// the lossless stream kept only if its payload is strictly smaller.
    fn unbounded_trial(
        src: &VecFrameSource,
        rects: &[Rect],
        cfg: &EncoderConfig,
    ) -> Vec<(TileCodec, Vec<EncodedFrame>)> {
        rects
            .iter()
            .map(|&rect| {
                let mut enc = TileEncoder::new(*cfg, rect);
                let dct: Vec<_> = src.frames().iter().map(|f| enc.encode_next(f)).collect();
                let mut enc = PredTileEncoder::new(rect, cfg.gop_len);
                let lossless: Vec<_> = src.frames().iter().map(|f| enc.encode_next(f)).collect();
                if payload(&lossless) < payload(&dct) {
                    (TileCodec::Pred, lossless)
                } else {
                    (TileCodec::Dct, dct)
                }
            })
            .collect()
    }

    /// Pseudo-random samples from `seed`, one per call.
    fn lcg(seed: &mut u64) -> u8 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*seed >> 33) as u8
    }

    /// `n` frames of `w`×`h`: columns left of `flat_w` flat and static (a
    /// large enough tile of them is where the lossless stream wins), the
    /// rest textured, with a block moving across the whole frame and —
    /// where `noise` — fresh noise over the textured part every frame.
    fn mixed_source(n: u32, w: u32, h: u32, flat_w: u32, noise: bool, seed: u64) -> VecFrameSource {
        let mut s = seed | 1;
        let texture: Vec<u8> = (0..w * h).map(|_| 60 + lcg(&mut s) % 90).collect();
        let frames = (0..n)
            .map(|t| {
                let mut f = Frame::filled(w, h, 90, 120, 136);
                for y in 0..h {
                    for x in flat_w..w {
                        let v = if noise {
                            lcg(&mut s)
                        } else {
                            texture[(y * w + x) as usize]
                        };
                        f.set_sample(Plane::Y, x, y, v);
                    }
                }
                f.fill_rect(Rect::new((t * 6) % (w - 16), h / 2, 16, 8), 210, 100, 150);
                f
            })
            .collect();
        VecFrameSource::new(frames)
    }

    /// Asserts `encode_video` under `Auto`, serial and parallel, is the
    /// unbounded trial tile for tile — verdict and bytes — and returns the
    /// verdicts.
    fn assert_trial_is_the_unbounded_one(
        src: &VecFrameSource,
        layout: &TileLayout,
        cfg: &EncoderConfig,
        what: &str,
    ) -> Vec<TileCodec> {
        assert_eq!(cfg.codec, CodecChoice::Auto);
        let rects: Vec<Rect> = layout.tiles().map(|(_, r)| r).collect();
        let want = unbounded_trial(src, &rects, cfg);
        assert_eq!(encode_tiles(src, &rects, cfg), want, "{what}");
        for parallel in [false, true] {
            let (videos, _) = encode_video(src, layout, cfg, parallel).unwrap();
            let got: Vec<_> = videos.into_iter().map(|v| (v.codec, v.frames)).collect();
            assert_eq!(got, want, "{what} parallel={parallel}");
        }
        want.into_iter().map(|(codec, _)| codec).collect()
    }

    #[test]
    fn auto_trial_equals_the_unbounded_trial_verdict_and_bytes() {
        let (w, h, flat_w) = (320, 128, 256);
        let layouts = [
            TileLayout::untiled(w, h),
            TileLayout::uniform(w, h, 2, 2).unwrap(),
            TileLayout::new(vec![flat_w, w - flat_w], vec![h]).unwrap(),
            TileLayout::new(vec![flat_w, 16, 48], vec![96, 32]).unwrap(),
        ];
        let mut verdicts = Vec::new();
        for noise in [false, true] {
            let src = mixed_source(7, w, h, flat_w, noise, 0x5eed);
            for layout in &layouts {
                for (qp, gop_len) in [(4, 3), (28, 7), (40, 4)] {
                    let cfg = EncoderConfig {
                        codec: CodecChoice::Auto,
                        qp,
                        gop_len,
                        ..Default::default()
                    };
                    let what = format!("noise={noise} qp={qp} gop={gop_len} {layout:?}");
                    verdicts.extend(assert_trial_is_the_unbounded_one(&src, layout, &cfg, &what));
                }
            }
        }
        // Both verdicts occur, so both ways out of the trial are compared.
        assert!(verdicts.contains(&TileCodec::Pred) && verdicts.contains(&TileCodec::Dct));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Random small clips under 1×1, 2×2 and non-uniform layouts.
            #[test]
            fn prop_auto_trial_equals_the_unbounded_trial(
                seed in any::<u64>(),
                frames in 1u32..7,
                gop_len in 1u32..5,
                qp in 0u8..=51,
                flat_cols in 0u32..5,
                noise in any::<bool>(),
            ) {
                let (w, h) = (64, 48);
                let src = mixed_source(frames, w, h, flat_cols * 16, noise, seed);
                let cfg = EncoderConfig { codec: CodecChoice::Auto, qp, gop_len, ..Default::default() };
                for layout in [
                    TileLayout::untiled(w, h),
                    TileLayout::uniform(w, h, 2, 2).unwrap(),
                    TileLayout::new(vec![16, 32, 16], vec![32, 16]).unwrap(),
                ] {
                    assert_trial_is_the_unbounded_one(&src, &layout, &cfg, "random clip");
                }
            }
        }
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
    fn pred_codec_roundtrips_losslessly_through_encode_video() {
        let src = moving_source(6, 64, 48);
        let layout = TileLayout::uniform(64, 48, 2, 2).unwrap();
        let cfg = EncoderConfig {
            codec: crate::encoder::CodecChoice::Pred,
            ..Default::default()
        };
        let (videos, _) = encode_video(&src, &layout, &cfg, false).unwrap();
        assert!(videos.iter().all(|v| v.codec == TileCodec::Pred));
        // Lossless: composite of decoded tiles equals the source exactly.
        let mut composite = Frame::black(64, 48);
        for (i, rect) in layout.tiles() {
            let (frames, _) = videos[i as usize].decode_range(3..4).unwrap();
            composite.blit(&frames[0], frames[0].rect(), rect.x, rect.y);
        }
        assert_eq!(composite, src.frame(3));
    }

    #[test]
    fn auto_codec_picks_smaller_stream_per_tile() {
        let src = moving_source(6, 64, 48);
        let layout = TileLayout::uniform(64, 48, 2, 2).unwrap();
        let auto_cfg = EncoderConfig {
            codec: crate::encoder::CodecChoice::Auto,
            ..Default::default()
        };
        let dct_cfg = EncoderConfig::default();
        let pred_cfg = EncoderConfig {
            codec: crate::encoder::CodecChoice::Pred,
            ..Default::default()
        };
        let (auto, _) = encode_video(&src, &layout, &auto_cfg, false).unwrap();
        let (dct, _) = encode_video(&src, &layout, &dct_cfg, false).unwrap();
        let (lossless, _) = encode_video(&src, &layout, &pred_cfg, false).unwrap();
        for ((a, d), p) in auto.iter().zip(&dct).zip(&lossless) {
            let expect = if p.payload_bytes() < d.payload_bytes() {
                TileCodec::Pred
            } else {
                TileCodec::Dct
            };
            assert_eq!(a.codec, expect);
            assert_eq!(a.payload_bytes(), d.payload_bytes().min(p.payload_bytes()));
        }
    }

    #[test]
    fn auto_parallel_output_is_bit_identical() {
        let src = moving_source(8, 96, 64);
        let layout = TileLayout::uniform(96, 64, 2, 3).unwrap();
        let cfg = EncoderConfig {
            codec: crate::encoder::CodecChoice::Auto,
            ..Default::default()
        };
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
