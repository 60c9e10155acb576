//! Whole-video encoding with a tile layout.
//!
//! [`encode_video`] is the entry point TASM's storage manager uses: given a
//! frame source, a [`TileLayout`], and an [`EncoderConfig`], it produces one
//! [`TileVideo`] per tile. Tiles are encoded independently (the paper's
//! prototype encodes them sequentially; we optionally parallelize across
//! tiles since the streams share nothing).
//!
//! Each pass over the source is frame-major: a frame is fetched once and
//! every tile's coder is fed from that one borrowed frame, so a frame
//! source that renders or copies on `frame(i)` is asked once per frame per
//! pass, not once per tile (on the parallel path: once per worker). `Dct`
//! and `Pred` take one pass; `Auto` takes a DCT pass and then a lossless
//! one that ends at the frame where no tile's lossless stream can win.

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

/// Encodes the tiles at `rects` in up to two passes over the source. A
/// tile's DCT stream is finished before its lossless one starts, so the
/// size trial knows the total the lossless stream has to beat.
fn encode_tiles(
    src: &dyn FrameSource,
    rects: &[Rect],
    cfg: &EncoderConfig,
) -> Vec<(TileCodec, Vec<EncodedFrame>)> {
    let mut coders: Vec<TileCoder> = rects.iter().map(|&r| TileCoder::new(r, cfg)).collect();
    let dct = |c: &TileCoder| c.dct.is_some();
    let lossless = |c: &TileCoder| c.lossless.is_some();
    pass(src, &mut coders, dct, TileCoder::push_dct);
    pass(src, &mut coders, lossless, TileCoder::push_lossless);
    coders.into_iter().map(TileCoder::finish).collect()
}

/// One frame-major pass: one `src.frame(i)` per frame, handed by reference
/// to every coder's `push` in turn. Frames are fetched only while a coder
/// of this pass is `running` — none at all for a codec the choice leaves
/// out, and none past the frame at which the last size trial is decided.
fn pass(
    src: &dyn FrameSource,
    coders: &mut [TileCoder],
    running: fn(&TileCoder) -> bool,
    push: fn(&mut TileCoder, &Frame),
) {
    for i in 0..src.len() {
        if !coders.iter().any(running) {
            break;
        }
        let frame = src.frame(i);
        coders.iter_mut().for_each(|c| push(c, &frame));
    }
}

/// One tile's encoder state under a [`CodecChoice`]: the DCT stream, the
/// lossless stream, or — for the `Auto` size trial — the DCT stream and,
/// for as long as it is the smaller of the two, the lossless one.
struct TileCoder {
    dct: Option<(TileEncoder, Vec<EncodedFrame>)>,
    lossless: Option<(PredTileEncoder, Vec<EncodedFrame>)>,
    /// Payload bytes the lossless stream may still add and stay the smaller
    /// one: the DCT payload less the lossless payload, both so far (so the
    /// DCT stream must be finished first); no bound where no DCT coder runs.
    room: u64,
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
            room: if dct { 0 } else { u64::MAX },
        }
    }

    /// Encodes this tile's region of the next source frame with the DCT codec.
    fn push_dct(&mut self, frame: &Frame) {
        if let Some((enc, out)) = &mut self.dct {
            let coded = enc.encode_next(frame);
            self.room += coded.data.len() as u64;
            out.push(coded);
        }
    }

    /// Encodes this tile's region of the next source frame losslessly, and
    /// drops the lossless stream at the frame where its payload reaches the
    /// DCT stream's: a payload only grows, so the size trial is lost.
    fn push_lossless(&mut self, frame: &Frame) {
        if let Some((enc, out)) = &mut self.lossless {
            let coded = enc.encode_next(frame);
            self.room = self.room.saturating_sub(coded.data.len() as u64);
            out.push(coded);
            if self.room == 0 {
                self.lossless = None;
            }
        }
    }

    /// The size trial's verdict. Payload bytes dominate, so those were
    /// compared (header size differs by one byte): a lossless stream that
    /// is still here is strictly the smaller one.
    fn finish(self) -> (TileCodec, Vec<EncodedFrame>) {
        match (self.lossless, self.dct) {
            (Some((_, lossless)), _) => (TileCodec::Pred, lossless),
            (None, Some((_, dct))) => (TileCodec::Dct, dct),
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

    /// A tile's lossless stream through `PredTileEncoder` alone.
    fn lossless_stream(src: &VecFrameSource, rect: Rect, gop_len: u32) -> Vec<EncodedFrame> {
        let mut enc = PredTileEncoder::new(rect, gop_len);
        src.frames().iter().map(|f| enc.encode_next(f)).collect()
    }

    #[test]
    fn each_frame_is_fetched_once_per_pass_not_once_per_tile() {
        let layout = TileLayout::uniform(96, 64, 3, 4).unwrap();
        let workers = std::thread::available_parallelism()
            .map(|n| n.get() as u32)
            .unwrap_or(4);
        for codec in [CodecChoice::Dct, CodecChoice::Pred, CodecChoice::Auto] {
            let cfg = EncoderConfig {
                codec,
                ..Default::default()
            };
            // One pass under `Dct` and `Pred`. Under `Auto` a second one that
            // ends with the last of the twelve size trials, here at frame 3.
            let want = match codec {
                CodecChoice::Auto => [2, 2, 2, 1, 1],
                _ => [1; 5],
            };
            let clip = moving_source(5, 96, 64);

            let src = CountingSource::new(clip.clone());
            let (serial, _) = encode_video(&src, &layout, &cfg, false).unwrap();
            assert_eq!(src.fetches(), want, "{codec:?} serial");

            let src = CountingSource::new(clip);
            let (parallel, _) = encode_video(&src, &layout, &cfg, true).unwrap();
            let fetches = src.fetches();
            assert!(
                fetches
                    .iter()
                    .zip(&want)
                    .all(|(&n, &per_worker)| (per_worker..=workers * per_worker).contains(&n)),
                "{codec:?} parallel on {workers} workers: {fetches:?}"
            );
            assert_eq!(serial, parallel, "{codec:?}");
        }
    }

    /// The lossless pass of one untiled tile whose DCT stream is taken to
    /// have been `room` bytes: whether the lossless stream was still there
    /// after each frame, and the verdict.
    fn lossless_pass_with_room(
        src: &VecFrameSource,
        codec: CodecChoice,
        room: Option<u64>,
    ) -> (Vec<bool>, (TileCodec, Vec<EncodedFrame>)) {
        let cfg = EncoderConfig {
            codec,
            gop_len: 3,
            ..Default::default()
        };
        let mut coder = TileCoder::new(src.frames()[0].rect(), &cfg);
        if let Some(room) = room {
            coder.room = room;
        }
        let alive = src
            .frames()
            .iter()
            .map(|f| {
                coder.push_lossless(f);
                coder.lossless.is_some()
            })
            .collect();
        (alive, coder.finish())
    }

    #[test]
    fn lossless_stream_is_dropped_at_the_frame_its_payload_reaches_the_budget() {
        let src = moving_source(5, 64, 48);
        let whole = lossless_stream(&src, src.frames()[0].rect(), 3);
        let total = payload(&whole);
        let auto = |room| lossless_pass_with_room(&src, CodecChoice::Auto, Some(room));
        let alive_for = |frames: usize| (0..5).map(|i| i < frames).collect::<Vec<bool>>();

        // A tie keeps the DCT stream (here an empty one: no DCT pass ran),
        // and is only known at the last frame.
        assert_eq!(auto(total), (alive_for(4), (TileCodec::Dct, vec![])));
        // One byte more to spend and the lossless stream wins, intact.
        assert_eq!(
            auto(total + 1),
            (alive_for(5), (TileCodec::Pred, whole.clone()))
        );
        // Nothing or next to nothing to beat: decided by the keyframe.
        assert_eq!(auto(0).0, alive_for(0));
        assert_eq!(auto(1).0, alive_for(0));
        // Every cut: a budget of exactly the first k frames is reached at
        // frame k, one byte more at frame k + 1.
        let mut spent = 0;
        for (k, frame) in whole.iter().enumerate().take(4) {
            spent += frame.data.len() as u64;
            assert_eq!(
                auto(spent).0,
                alive_for(k),
                "budget = first {} frames",
                k + 1
            );
            assert_eq!(auto(spent + 1).0, alive_for(k + 1), "one byte more");
        }
        // No DCT coder, no budget: `Pred` never stops, whatever it spends.
        let (alive, verdict) = lossless_pass_with_room(&src, CodecChoice::Pred, None);
        assert_eq!((alive, verdict), (alive_for(5), (TileCodec::Pred, whole)));
        // And under `Dct` no lossless coder ever starts.
        let (alive, _) = lossless_pass_with_room(&src, CodecChoice::Dct, None);
        assert_eq!(alive, alive_for(0));
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
                let lossless = lossless_stream(src, rect, cfg.gop_len);
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
