//! The memory-bound tests' fixture: a counting global allocator and the
//! clip they stream.
//!
//! A binary that bounds a heap peak installs [`Counting`] as its global
//! allocator and holds one test, so no other test allocates beside it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: tasm_suite::heap::Counting = tasm_suite::heap::Counting;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tasm_video::{Frame, FrameSource, Rect};

/// The system allocator, counting live bytes and their peak.
pub struct Counting;

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

/// Runs `f`, and returns what it returned and the peak of live heap bytes
/// over those live when it started. Reads 0 unless [`Counting`] is the
/// binary's global allocator.
pub fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst) - base)
}

/// Width of [`Crossing`]'s frames.
pub const W: u32 = 320;
/// Height of [`Crossing`]'s frames.
pub const H: u32 = 192;
/// Bytes of one raw [`Crossing`] frame.
pub const FRAME_BYTES: usize = (W * H * 3 / 2) as usize;

/// A box crossing a flat field for `.0` frames, rendered on demand: a clip
/// whose compressed size is a small fraction of one raw frame per frame.
pub struct Crossing(pub u32);

impl Crossing {
    /// Where the box is on frame `idx`.
    pub fn box_at(idx: u32) -> Rect {
        Rect::new(16 + idx * 4, 64, 32, 32)
    }
}

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
        f.fill_rect(Crossing::box_at(idx), 200, 90, 160);
        f
    }
}
