//! A parallel ingest keeps a bounded number of SOTs in flight: no SOT is
//! started more than two per encoder ahead of the next pack to write.
//! Under a counting global allocator, the peak of live heap bytes an
//! ingest with `parallel_encode` adds does not grow with the SOT count:
//! ingesting 12 SOTs peaks less than one raw frame above ingesting 4.
//!
//! One test in this binary, so no other test allocates beside it.

use tasm_codec::TileLayout;
use tasm_core::{StorageConfig, VideoStore};
use tasm_suite::heap::{self, FRAME_BYTES, H, W};
use tasm_suite::TempDir;
use tasm_video::{Frame, FrameSource, Plane};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

const SOT_FRAMES: u32 = 5;

/// A flat field with a band of fresh noise on every frame, rendered on
/// demand. A SOT compresses to about a fifth of a raw frame: small enough
/// that the SOTs in flight at the peak barely move it, large enough that a
/// store holding encoded SOTs until the end would show with eight more.
struct Noise(u32);

impl FrameSource for Noise {
    fn width(&self) -> u32 {
        W
    }
    fn height(&self) -> u32 {
        H
    }
    fn len(&self) -> u32 {
        self.0
    }
    fn frame(&self, idx: u32) -> Frame {
        let mut f = Frame::filled(W, H, 70, 128, 128);
        for y in 64..80_u32 {
            for x in 0..W {
                let mut v = x.wrapping_mul(0x9e37_79b1)
                    ^ y.wrapping_mul(0x85eb_ca6b)
                    ^ idx.wrapping_mul(0xc2b2_ae35);
                v = (v ^ (v >> 15)).wrapping_mul(0x2c1b_3c6d);
                f.set_sample(Plane::Y, x, y, (64 + (v >> 24) % 128) as u8);
            }
        }
        f
    }
}

/// Peak live-heap growth over one parallel ingest of `sots` SOTs, untiled,
/// on a store opened without a cache.
fn ingest_peak_growth(sots: u32) -> usize {
    let dir = TempDir::new(&format!("ingest-memory-{sots}"));
    let store = VideoStore::open(dir.path()).unwrap();
    let cfg = StorageConfig {
        gop_len: SOT_FRAMES,
        sot_frames: SOT_FRAMES,
        parallel_encode: true,
        ..Default::default()
    };
    let clip = Noise(sots * SOT_FRAMES);
    heap::peak_growth(|| {
        store
            .ingest("v", &clip, 30, cfg, |_, _| TileLayout::untiled(W, H))
            .unwrap()
    })
    .1
}

#[test]
fn parallel_ingest_memory_does_not_grow_with_the_sot_count() {
    // Both ingests run as many encoders as the host has cores.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
    let few = cores.max(4);
    // Once first, so what is set up on first use is not counted below.
    ingest_peak_growth(few);
    let short = ingest_peak_growth(few);
    let long = ingest_peak_growth(3 * few);
    assert!(
        long < short + FRAME_BYTES,
        "a {}-SOT ingest peaked {long} B over its start, a {few}-SOT one {short} B: \
         more SOTs cost more than one {FRAME_BYTES} B frame",
        3 * few
    );
}
