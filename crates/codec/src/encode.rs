//! Whole-video encoding with a tile layout.
//!
//! [`encode_video`] is the entry point TASM's storage manager uses: given a
//! frame source, a [`TileLayout`], and an [`EncoderConfig`], it produces one
//! [`TileVideo`] per tile. Tiles are encoded independently (the paper's
//! prototype encodes them sequentially; we optionally parallelize across
//! tiles since the streams share nothing).
//!
//! Every tile is a DCT stream. The pass over the source is frame-major:
//! each frame is lent once ([`FrameSource::lend`]) and every tile's encoder
//! reads it from that one borrow, so a source that renders, copies or
//! decodes a frame does so once per frame, not once per tile — on the
//! parallel path too, where persistent tile workers share the lent frame in
//! lockstep.

use crate::container::{TileCodec, TileVideo};
use crate::encoder::{EncodedFrame, EncoderConfig, TileEncoder};
use crate::grid::{LayoutError, TileLayout};
use crate::stats::EncodeStats;
use std::sync::mpsc;
use std::time::{Duration, Instant};
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
    let (tile_frames, producing) = encode_lockstep(src, &rects, cfg, threads);

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
        encode_time: t0.elapsed().saturating_sub(producing),
    };
    Ok((videos, stats))
}

/// The encoders of a run of consecutive tiles and what they produced.
struct TileRun(Vec<(TileEncoder, Vec<EncodedFrame>)>);

impl TileRun {
    fn new(rects: &[Rect], cfg: &EncoderConfig) -> Self {
        TileRun(
            rects
                .iter()
                .map(|&r| (TileEncoder::new(*cfg, r), Vec::new()))
                .collect(),
        )
    }

    /// Encodes every tile of `frame`.
    fn encode(&mut self, frame: &Frame) {
        for (enc, out) in &mut self.0 {
            out.push(enc.encode_next(frame));
        }
    }

    fn finish(self) -> Vec<Vec<EncodedFrame>> {
        self.0.into_iter().map(|(_, out)| out).collect()
    }
}

/// A frame lent to a tile worker for one lockstep step.
struct Lent(*const Frame);

// SAFETY: `Frame` is `Sync`, and `encode_lockstep` ends every use of the
// pointer before the borrow it was taken from ends.
unsafe impl Send for Lent {}

/// Encodes the tiles at `rects`, split into `threads` runs of consecutive
/// tiles, in one frame-major pass: each frame is lent once and every run
/// encodes its tiles from that borrow. The first run is encoded on the
/// calling thread, the others on persistent scoped workers. A step ends
/// when every run has encoded the frame, and only then is the next frame
/// produced. Returns each tile's frames and the time spent in `src`
/// producing frames.
fn encode_lockstep(
    src: &dyn FrameSource,
    rects: &[Rect],
    cfg: &EncoderConfig,
    threads: usize,
) -> (Vec<Vec<EncodedFrame>>, Duration) {
    let mut runs = rects.chunks(rects.len().div_ceil(threads.max(1)));
    let mut own = TileRun::new(runs.next().expect("a layout has tiles"), cfg);
    std::thread::scope(move |scope| {
        let (mut lanes, mut workers) = (Vec::new(), Vec::new());
        for run in runs {
            let (frames_tx, frames_rx) = mpsc::channel::<Lent>();
            let (done_tx, done_rx) = mpsc::channel::<()>();
            workers.push(scope.spawn(move || {
                let mut tiles = TileRun::new(run, cfg);
                while let Ok(Lent(frame)) = frames_rx.recv() {
                    // SAFETY: the lending thread waits in `Step::drop` for
                    // this step's `done` (or for this thread's end, which
                    // drops `done_tx`) before its borrow of the frame ends.
                    tiles.encode(unsafe { &*frame });
                    if done_tx.send(()).is_err() {
                        break;
                    }
                }
                tiles.finish()
            }));
            lanes.push((frames_tx, done_rx));
        }
        let mut producing = Duration::ZERO;
        for i in 0..src.len() {
            let mut since = Instant::now();
            src.lend(i, &mut |frame| {
                producing += since.elapsed();
                // Waits for the workers when dropped, also while a panic in
                // `own.encode` unwinds.
                let step = Step {
                    waiting: lanes
                        .iter()
                        .filter(|(tx, _)| tx.send(Lent(frame)).is_ok())
                        .map(|(_, done)| done)
                        .collect(),
                };
                own.encode(frame);
                drop(step);
                since = Instant::now();
            });
            producing += since.elapsed();
        }
        // Closing the lanes ends the workers' loops.
        drop(lanes);
        let mut out = own.finish();
        for w in workers {
            out.extend(w.join().expect("tile encode worker panicked"));
        }
        (out, producing)
    })
}

/// One lockstep step: the workers a frame was lent to.
struct Step<'a> {
    waiting: Vec<&'a mpsc::Receiver<()>>,
}

impl Drop for Step<'_> {
    fn drop(&mut self) {
        for done in &self.waiting {
            // An error means the worker is gone, and with it its borrow.
            let _ = done.recv();
        }
    }
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
        let cfg = EncoderConfig::default();
        let clip = moving_source(5, 96, 64);
        let mut outputs = Vec::new();
        for parallel in [false, true] {
            let src = CountingSource::new(clip.clone());
            outputs.push(encode_video(&src, &layout, &cfg, parallel).unwrap().0);
            assert_eq!(src.fetches(), [1; 5], "parallel: {parallel}");
        }
        assert_eq!(outputs[0], outputs[1]);
    }

    #[test]
    fn lockstep_on_more_runs_than_cores_is_bit_identical() {
        let layout = TileLayout::uniform(96, 64, 2, 3).unwrap();
        let cfg = EncoderConfig::default();
        let src = moving_source(7, 96, 64);
        let rects: Vec<_> = layout.tiles().map(|(_, r)| r).collect();
        let serial = encode_lockstep(&src, &rects, &cfg, 1);
        for threads in [2, 4, 6] {
            assert_eq!(encode_lockstep(&src, &rects, &cfg, threads).0, serial.0);
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
