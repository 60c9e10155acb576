//! A parallel ingest keeps a bounded number of SOTs in flight: fewer than
//! two per encoder are encoding, waiting or being written at a time
//! (`encode_sots`' contract). Under a counting global allocator, the peak
//! of live heap bytes a long ingest with `parallel_encode` adds stays
//! below what that many SOTs cost on their own, however the encoders are
//! scheduled.
//!
//! One test in this binary, so no other test allocates beside it.

use tasm_codec::TileLayout;
use tasm_core::{StorageConfig, VideoStore};
use tasm_suite::heap::{self, H, W};
use tasm_suite::TempDir;
use tasm_video::{Frame, FrameSource, Plane};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

const SOT_FRAMES: u32 = 5;

/// A flat field with a band of fresh noise on every frame, rendered on
/// demand. A SOT compresses to about a fifth of a raw frame (18 KB), and
/// ingesting one SOT alone peaks at about 300 KB.
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
    // As many encoders as the host has cores, as `VideoStore::ingest` runs.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Once first, so what is set up on first use is not counted below.
    ingest_peak_growth(2 * threads as u32);
    // A lone SOT is encoded and written on the calling thread, so what one
    // SOT in flight costs reads the same on every run.
    let one = ingest_peak_growth(1);
    // Each SOT in flight costs at most what a lone one does, so the
    // contract bounds the peak by `2 * threads` of them whatever the
    // schedule. Forty SOTs per encoder fill every encoder's window many
    // times over, and their tiles alone (40 × 18 KB per encoder) outweigh
    // that bound (2 × 300 KB per encoder): a store that held every SOT's
    // tiles until the end fails here.
    let sots = 40 * threads as u32;
    let long = ingest_peak_growth(sots);
    let bound = 2 * threads * one;
    assert!(
        long < bound,
        "a {sots}-SOT ingest on {threads} encoders peaked {long} B over its start, \
         more than 2 × {threads} SOTs of {one} B in flight"
    );
}
