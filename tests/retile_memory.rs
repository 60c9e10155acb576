//! A re-tile streams its SOT: it holds a few frames at a time, never the
//! whole sequence. Under a counting global allocator, the peak of live heap
//! bytes a `VideoStore::retile` adds grows with the SOT's *compressed*
//! size (the tiles it reads and writes), not with its frame count times the
//! frame size: re-tiling a 40-frame SOT peaks less than one raw frame above
//! re-tiling a 10-frame one.
//!
//! One test in this binary, so no other test allocates beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tasm_codec::TileLayout;
use tasm_core::{StorageConfig, VideoStore};
use tasm_suite::TempDir;
use tasm_video::{Frame, FrameSource, Rect};

/// The system allocator, counting live bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::SeqCst) + by;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract, passed on.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract, passed on.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract, passed on.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const W: u32 = 320;
const H: u32 = 192;

/// A box crossing a flat field, rendered on demand: a clip whose
/// compressed size is a small fraction of one raw frame per frame.
struct Crossing(u32);

impl FrameSource for Crossing {
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
        f.fill_rect(Rect::new(16 + idx * 4, 64, 32, 32), 200, 90, 160);
        f
    }
}

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
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    store.retile(&mut manifest, 0, layout).unwrap();
    PEAK.load(Ordering::SeqCst) - base
}

#[test]
fn retile_memory_does_not_grow_with_the_sot() {
    let frame_bytes = (W * H * 3 / 2) as usize;
    // Once first, so what is set up on first use is not counted below.
    retile_peak_growth(10);
    let short = retile_peak_growth(10);
    let long = retile_peak_growth(40);
    assert!(
        long < short + frame_bytes,
        "a 40-frame re-tile peaked {long} B over its start, a 10-frame one {short} B: \
         30 frames more cost more than one {frame_bytes} B frame"
    );
}
