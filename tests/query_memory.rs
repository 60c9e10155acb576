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

use tasm_core::{LabelPredicate, Query, TasmConfig};
use tasm_suite::heap::{self, Crossing, FRAME_BYTES};
use tasm_suite::{config, TestStore};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

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
        store
            .add_metadata("v", "box", f, Crossing::box_at(f))
            .unwrap();
    }
    let query = Query::new(LabelPredicate::label("box"));
    let (answer, growth) = heap::peak_growth(|| store.query("v", &query).unwrap());
    assert_eq!(answer.regions.len(), 2);
    assert_eq!(answer.plan.tiles_planned, 1);
    assert_eq!(answer.stats.frames_decoded, frames as u64, "the whole span");
    growth
}

#[test]
fn query_memory_does_not_grow_with_the_span() {
    // Once first, so what is set up on first use is not counted below.
    query_peak_growth(10);
    let short = query_peak_growth(10);
    let long = query_peak_growth(40);
    assert!(
        long < short + FRAME_BYTES,
        "a 40-frame span peaked {long} B over its start, a 10-frame one {short} B: \
         30 frames more cost more than one {FRAME_BYTES} B frame"
    );
}
