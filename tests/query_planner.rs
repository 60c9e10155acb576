//! Pruning by the spatiotemporal query planner: tiles whose boxes miss the
//! ROI, GOPs outside the stride or past a satisfied limit, and every GOP of
//! an aggregate query are never decoded, and `ScanResult::plan` reports the
//! savings, while each answer is still `tasm_suite::Reference`'s. That it
//! is at any worker count and cache state is `tests/contract.rs`'s.

use tasm_core::{LabelPredicate, Query, QueryMode, StorageConfig, TasmConfig};
use tasm_suite::{config, ingest, scene, Reference, TestStore};
use tasm_video::Rect;

const W: u32 = 256;
const H: u32 = 160;
const FRAMES: u32 = 40;

/// A tiled instance (4×4 uniform layout → 64×40 tiles) with short GOPs so
/// both spatial and temporal pruning have units to cut.
fn tiled(tag: &str) -> TestStore {
    let cfg = TasmConfig {
        storage: StorageConfig {
            gop_len: 5,
            ..config().storage
        },
        cache_bytes: 0,
        ..config()
    };
    let tasm = TestStore::open(tag, cfg);
    ingest(&tasm, "v", &scene(W, H, FRAMES, 33));
    for sot_idx in 0..tasm.manifest("v").unwrap().sots.len() {
        let layout = tasm_codec::TileLayout::uniform(W, H, 4, 4).unwrap();
        tasm.retile("v", sot_idx, layout).unwrap();
    }
    tasm
}

/// An ROI over the top-left corner: under 25% of the frame area.
fn corner_roi() -> Rect {
    Rect::new(0, 0, W / 2 - 16, H / 2 - 16)
}

#[test]
fn roi_query_prunes_tiles_and_matches_postfiltered_scan() {
    let tasm = tiled("qplan-roi");
    let pred = LabelPredicate::label("car");
    let full = tasm.scan("v", &pred, 0..FRAMES).unwrap();
    assert!(full.matched > 0, "scene must contain cars");

    let q = Query::new(pred.clone()).frames(0..FRAMES).roi(corner_roi());
    let result = tasm.query("v", &q).unwrap();
    Reference::new(&tasm).check("v", &q, &result, "roi query");

    // The acceptance bar: an ROI under 25% of the frame must prune tiles
    // and decode measurably fewer GOPs than the full scan.
    assert!(
        result.plan.tiles_pruned > 0,
        "corner ROI must prune tiles: {:?}",
        result.plan
    );
    assert!(
        result.plan.gops_planned < full.plan.gops_planned,
        "ROI plan must decode fewer GOPs: {} vs {}",
        result.plan.gops_planned,
        full.plan.gops_planned
    );
    assert!(
        result.stats.samples_decoded < full.stats.samples_decoded,
        "ROI plan must decode fewer samples: {} vs {}",
        result.stats.samples_decoded,
        full.stats.samples_decoded
    );
}

#[test]
fn stride_skips_gops_and_matches_postfiltered_scan() {
    let tasm = tiled("qplan-stride");
    let pred = LabelPredicate::label("car");
    let full = tasm.scan("v", &pred, 0..FRAMES).unwrap();

    // gop_len = 5: a stride of 10 samples at most one frame per GOP and
    // leaves every other GOP without a sampled frame.
    let q = Query::new(pred.clone()).frames(0..FRAMES).stride(10);
    let result = tasm.query("v", &q).unwrap();
    Reference::new(&tasm).check("v", &q, &result, "strided query");
    assert!(
        result.plan.gops_skipped > 0,
        "stride 2×gop_len must skip GOPs: {:?}",
        result.plan
    );
    assert!(result.stats.samples_decoded < full.stats.samples_decoded);
    assert!(result.plan.frames_sampled < full.plan.frames_sampled);
}

#[test]
fn limit_stops_after_first_k_matching_frames() {
    let tasm = tiled("qplan-limit");
    let pred = LabelPredicate::label("car");
    let full = tasm.scan("v", &pred, 0..FRAMES).unwrap();

    let q = Query::new(pred.clone()).frames(0..FRAMES).limit(3);
    let result = tasm.query("v", &q).unwrap();
    Reference::new(&tasm).check("v", &q, &result, "limited query");
    assert_eq!(result.plan.frames_sampled, 3, "first 3 matching frames");
    assert!(
        result.stats.samples_decoded < full.stats.samples_decoded,
        "GOPs past the satisfied limit must never decode"
    );
}

#[test]
fn aggregate_modes_skip_decode_entirely() {
    let tasm = tiled("qplan-aggregate");
    let pred = LabelPredicate::label("car");
    let counting = Query::new(pred.clone())
        .frames(0..FRAMES)
        .mode(QueryMode::Count);
    let count = tasm.query("v", &counting).unwrap();
    Reference::new(&tasm).check("v", &counting, &count, "count");
    assert_eq!(count.stats.samples_decoded, 0, "Count must not decode");
    assert_eq!(count.stats.frames_decoded, 0);
    assert_eq!(count.cache.misses, 0, "Count must not even touch the cache");
    assert!(
        count.plan.tiles_pruned > 0,
        "the whole baseline plan is cut"
    );
    assert_eq!(count.plan.tiles_planned, 0);

    let exists = tasm
        .query(
            "v",
            &Query::new(pred.clone())
                .frames(0..FRAMES)
                .mode(QueryMode::Exists),
        )
        .unwrap();
    assert!(exists.matched > 0);
    assert_eq!(exists.stats.samples_decoded, 0);

    // A label with no detections exists() to false, still without decode.
    let none = tasm
        .query(
            "v",
            &Query::new(LabelPredicate::label("unicorn"))
                .frames(0..FRAMES)
                .mode(QueryMode::Exists),
        )
        .unwrap();
    assert_eq!(none.matched, 0);
    assert_eq!(none.stats.samples_decoded, 0);
}
