//! An uncached query decodes a tile's span a frame at a time and composes
//! each frame into the answer's regions as it goes: it holds two decoded
//! frames per tile request, never the span. Under a counting global
//! allocator, the peak of live heap bytes a `Tasm::query` adds over a
//! 40-frame span exceeds that over a 10-frame span by less than one tile
//! frame. The answer is the same size at both lengths: boxes only on the
//! span's first and last frames, one GOP, so the planner keeps the whole
//! span.
//!
//! One test in this binary, so no other test allocates beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tasm_core::{LabelPredicate, Query, TasmConfig};
use tasm_suite::{config, TestStore};
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
        f.fill_rect(box_at(idx), 200, 90, 160);
        f
    }
}

fn box_at(frame: u32) -> Rect {
    Rect::new(16 + frame * 4, 64, 32, 32)
}

/// Peak live-heap growth over one query of an untiled, uncached,
/// one-worker store holding one `frames`-frame SOT of one GOP, with boxes
/// on its first and last frames.
fn query_peak_growth(frames: u32) -> usize {
    let mut cfg = TasmConfig {
        workers: 1,
        cache_bytes: 0,
        ..config()
    };
    (cfg.storage.gop_len, cfg.storage.sot_frames) = (frames, frames);
    let store = TestStore::open(&format!("query-memory-{frames}"), cfg);
    store.ingest("v", &Crossing(frames), 30).unwrap();
    for f in [0, frames - 1] {
        store.add_metadata("v", "box", f, box_at(f)).unwrap();
    }
    let query = Query::new(LabelPredicate::label("box"));
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let answer = store.query("v", &query).unwrap();
    let growth = PEAK.load(Ordering::SeqCst) - base;
    assert_eq!(answer.regions.len(), 2);
    assert_eq!(answer.plan.tiles_planned, 1);
    assert_eq!(answer.stats.frames_decoded, frames as u64, "the whole span");
    growth
}

#[test]
fn query_memory_does_not_grow_with_the_span() {
    let frame_bytes = (W * H * 3 / 2) as usize;
    // Once first, so what is set up on first use is not counted below.
    query_peak_growth(10);
    let short = query_peak_growth(10);
    let long = query_peak_growth(40);
    assert!(
        long < short + frame_bytes,
        "a 40-frame span peaked {long} B over its start, a 10-frame one {short} B: \
         30 frames more cost more than one {frame_bytes} B frame"
    );
}
