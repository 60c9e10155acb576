//! Encoding a new video's SOTs: the one unit of parallel encode.
//!
//! A SOT starts at a keyframe and has its own layout and pack, so SOTs
//! share nothing and need no per-frame sync: [`encode_sots`] deals whole
//! SOTs to its encoders, each encodes its SOTs serially, and the calling
//! thread writes them in SOT order.

use crate::storage::{SotEntry, StoreError};
use std::sync::mpsc;
use tasm_codec::{EncodeStats, EncoderConfig, LayoutEncoder, TileVideo};
use tasm_video::FrameSource;

/// Encodes each of `sots` from `src`, hands its tiles to `write` in SOT
/// order on the calling thread, and returns the work of every encode.
///
/// `threads` encoders run, the calling thread and `threads - 1` scoped
/// workers, and SOT `i` is encoded whole by encoder `i % threads`; with
/// `threads == 1` the calling thread encodes and writes each SOT in turn.
/// A worker hands each SOT over through a one-slot channel and starts its
/// next one only once that slot is free, so **no SOT is started more than
/// `2 * threads` SOTs ahead of the next one to write**, and fewer than
/// `2 * threads` SOTs are encoding, waiting or being written at a time,
/// however long the video.
///
/// The output does not depend on `threads`: a SOT's encode reads only its
/// own frames. The first error in SOT order wins: `write` runs in order,
/// and its first `Err` is returned, which ends the workers at their next
/// hand-over.
pub(crate) fn encode_sots(
    src: &dyn FrameSource,
    sots: &[SotEntry],
    cfg: &EncoderConfig,
    threads: usize,
    mut write: impl FnMut(&SotEntry, Vec<TileVideo>) -> Result<(), StoreError>,
) -> Result<EncodeStats, StoreError> {
    let encode = |sot: &SotEntry| {
        let mut encoder = LayoutEncoder::new(&sot.layout, cfg);
        for f in sot.start..sot.end {
            src.lend(f, &mut |frame| encoder.encode(frame));
        }
        encoder.finish()
    };
    std::thread::scope(|scope| {
        // Encoder 0 is the calling thread; the others hand over here.
        let handed: Vec<_> = (1..threads)
            .map(|w| {
                let (tx, rx) = mpsc::sync_channel(1);
                let encode = &encode;
                scope.spawn(move || {
                    for sot in sots.iter().skip(w).step_by(threads) {
                        if tx.send(encode(sot)).is_err() {
                            break;
                        }
                    }
                });
                rx
            })
            .collect();
        let mut total = EncodeStats::default();
        for (i, sot) in sots.iter().enumerate() {
            let (tiles, stats) = match i % threads {
                0 => encode(sot),
                w => handed[w - 1].recv().expect("a SOT encoder panicked"),
            };
            total += stats;
            write(sot, tiles)?;
        }
        Ok(total)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use tasm_codec::TileLayout;
    use tasm_video::{Frame, VecFrameSource};

    const SOT_FRAMES: u32 = 2;

    /// A small clip that records the highest frame lent, and panics on
    /// frame `panic_at`.
    struct Watched {
        inner: VecFrameSource,
        highest: AtomicU32,
        panic_at: u32,
    }

    impl FrameSource for Watched {
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
            assert!(idx != self.panic_at, "the encoder's source fails");
            self.highest.fetch_max(idx, Ordering::SeqCst);
            self.inner.frame(idx)
        }
    }

    /// The clip, and its twelve two-frame SOTs.
    fn setup() -> (Watched, Vec<SotEntry>) {
        let frames = (0..24).map(|i| Frame::filled(32, 32, 10 * i as u8, 128, 128));
        let src = Watched {
            inner: VecFrameSource::new(frames.collect()),
            highest: AtomicU32::new(0),
            panic_at: u32::MAX,
        };
        let sots = (0..12)
            .map(|i| SotEntry {
                start: i * SOT_FRAMES,
                end: (i + 1) * SOT_FRAMES,
                layout: TileLayout::untiled(32, 32),
                retile_count: 0,
                tile_codecs: Vec::new(),
            })
            .collect();
        (src, sots)
    }

    fn cfg() -> EncoderConfig {
        EncoderConfig {
            gop_len: SOT_FRAMES,
            ..Default::default()
        }
    }

    #[test]
    fn writes_keep_sot_order_and_no_sot_starts_past_the_window() {
        let (src, sots) = setup();
        let mut serial = Vec::new();
        for threads in [1, 2, 3, 5] {
            src.highest.store(0, Ordering::SeqCst);
            let mut written = Vec::new();
            let total = encode_sots(&src, &sots, &cfg(), threads, |sot, tiles| {
                // No SOT more than `2 * threads` past this one has been
                // lent a frame.
                let i = sot.start / SOT_FRAMES;
                let reach = (i + 2 * threads as u32 + 1) * SOT_FRAMES;
                assert!(src.highest.load(Ordering::SeqCst) < reach, "{threads}");
                written.push((i, tiles));
                Ok(())
            })
            .unwrap();
            assert_eq!(total.frames_encoded, 24);
            assert!(written.iter().map(|w| w.0).eq(0..12), "{threads}");
            if threads == 1 {
                serial = written;
            } else {
                assert!(written == serial, "{threads} threads moved bytes");
            }
        }
    }

    #[test]
    fn the_first_write_error_is_returned_and_nothing_after_it_is_written() {
        let (src, sots) = setup();
        for threads in [1, 3] {
            let mut calls = 0;
            let err = encode_sots(&src, &sots, &cfg(), threads, |sot, _| {
                calls += 1;
                match sot.start / SOT_FRAMES {
                    4 => Err(StoreError::InvalidConfig("fourth")),
                    _ => Ok(()),
                }
            })
            .unwrap_err();
            assert!(matches!(err, StoreError::InvalidConfig("fourth")));
            assert_eq!(calls, 5);
        }
    }

    /// A panic in the writer or in a worker's encode (SOT 5 of three
    /// encoders' twelve) reaches the caller, and leaves no thread waiting.
    #[test]
    fn a_panicking_writer_or_encoder_reaches_the_caller() {
        let (mut src, sots) = setup();
        let run = |src: &Watched, panicking_writer: bool| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                encode_sots(src, &sots, &cfg(), 3, |sot, _| {
                    assert!(!panicking_writer || sot.start == 0, "the writer fails");
                    Ok(())
                })
            }))
        };
        assert!(run(&src, true).is_err());
        src.panic_at = 5 * SOT_FRAMES;
        assert!(run(&src, false).is_err());
    }
}
