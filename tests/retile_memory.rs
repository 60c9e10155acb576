//! A re-tile streams its SOT: it holds a few frames at a time, never the
//! whole sequence. Under a counting global allocator, the peak of live heap
//! bytes a `VideoStore::retile` adds grows with the SOT's *compressed*
//! size (the tiles it reads and writes), not with its frame count times the
//! frame size: re-tiling a 40-frame SOT peaks less than one raw frame above
//! re-tiling a 10-frame one.
//!
//! One test in this binary, so no other test allocates beside it.

use tasm_codec::TileLayout;
use tasm_core::{StorageConfig, VideoStore};
use tasm_suite::heap::{self, Crossing, FRAME_BYTES, H, W};
use tasm_suite::TempDir;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Peak live-heap growth over one re-tile of a single `frames`-frame SOT,
/// from untiled to 2×2, on a store opened without a cache.
fn retile_peak_growth(frames: u32) -> usize {
    let dir = TempDir::new(&format!("retile-memory-{frames}"));
    let store = VideoStore::open(dir.path()).unwrap();
    let cfg = StorageConfig {
        gop_len: 10,
        sot_frames: frames,
        parallel_encode: false,
        ..Default::default()
    };
    let (mut manifest, _) = store
        .ingest("v", &Crossing(frames), 30, cfg, |_, _| {
            TileLayout::untiled(W, H)
        })
        .unwrap();
    let layout = TileLayout::uniform(W, H, 2, 2).unwrap();
    heap::peak_growth(|| store.retile(&mut manifest, 0, layout).unwrap()).1
}

#[test]
fn retile_memory_does_not_grow_with_the_sot() {
    // Once first, so what is set up on first use is not counted below.
    retile_peak_growth(10);
    let short = retile_peak_growth(10);
    let long = retile_peak_growth(40);
    assert!(
        long < short + FRAME_BYTES,
        "a 40-frame re-tile peaked {long} B over its start, a 10-frame one {short} B: \
         30 frames more cost more than one {FRAME_BYTES} B frame"
    );
}
