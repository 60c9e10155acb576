//! Correctness of the spatiotemporal query planner.
//!
//! The contract under test, from two sides:
//!
//! 1. **Equivalence** — for any ROI/stride/limit combination,
//!    `Tasm::query` returns regions bit-identical to running the unpruned
//!    `Tasm::scan` and filtering its output post-hoc (`post_filter` in
//!    `tasm_suite` is the reference semantics).
//! 2. **Pruning** — the planner provably decodes less: tiles whose boxes
//!    miss the ROI and GOPs outside the stride / past a satisfied limit are
//!    never decoded, the savings are reported in `ScanResult::plan`, and
//!    those counters are identical at any cache state (a pruned GOP served
//!    from the decoded-GOP cache must not change or double-count anything).

use std::sync::Arc;
use tasm_core::{
    LabelPredicate, PartitionConfig, Query, QueryMode, StorageConfig, Tasm, TasmConfig,
};
use tasm_data::{SceneSpec, SyntheticVideo};
use tasm_index::MemoryIndex;
use tasm_suite::{assert_regions_identical, post_filter};
use tasm_video::{FrameSource, Rect};

const W: u32 = 256;
const H: u32 = 160;
const FRAMES: u32 = 40;

fn scene() -> SyntheticVideo {
    SyntheticVideo::new(SceneSpec {
        width: W,
        height: H,
        frames: FRAMES,
        seed: 33,
        ..SceneSpec::test_scene()
    })
}

/// A tiled instance (4×4 uniform layout → 64×40 tiles) with short GOPs so
/// both spatial and temporal pruning have units to cut.
fn tasm_with(tag: &str, cfg_mut: impl FnOnce(&mut TasmConfig)) -> Arc<Tasm> {
    let dir = std::env::temp_dir().join(format!("tasm-qplan-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut cfg = TasmConfig {
        storage: StorageConfig {
            gop_len: 5,
            sot_frames: 10,
            ..Default::default()
        },
        partition: PartitionConfig {
            min_tile_width: 32,
            min_tile_height: 32,
            ..Default::default()
        },
        workers: 1,
        cache_bytes: 0,
        ..Default::default()
    };
    cfg_mut(&mut cfg);
    let tasm = Arc::new(Tasm::open(dir, Box::new(MemoryIndex::in_memory()), cfg).unwrap());
    let video = scene();
    tasm.ingest("v", &video, 30).unwrap();
    for f in 0..video.len() {
        for (l, b) in video.ground_truth(f) {
            tasm.add_metadata("v", l, f, b).unwrap();
        }
        tasm.mark_processed("v", f).unwrap();
    }
    for sot_idx in 0..tasm.manifest("v").unwrap().sots.len() {
        tasm.retile(
            "v",
            sot_idx,
            tasm_codec::TileLayout::uniform(W, H, 4, 4).unwrap(),
        )
        .unwrap();
    }
    tasm
}

/// An ROI over the top-left corner: under 25% of the frame area.
fn corner_roi() -> Rect {
    Rect::new(0, 0, W / 2 - 16, H / 2 - 16)
}

#[test]
fn roi_query_prunes_tiles_and_matches_postfiltered_scan() {
    let tasm = tasm_with("roi", |_| {});
    let pred = LabelPredicate::label("car");
    let full = tasm.scan("v", &pred, 0..FRAMES).unwrap();
    assert!(full.matched > 0, "scene must contain cars");

    let q = Query::new(pred.clone()).frames(0..FRAMES).roi(corner_roi());
    let result = tasm.query("v", &q).unwrap();

    let expected = post_filter(&full, &q, 0);
    assert_regions_identical(&expected, &result.regions, "roi query");
    assert_eq!(result.matched, result.regions.len() as u64);

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
    let tasm = tasm_with("stride", |_| {});
    let pred = LabelPredicate::label("car");
    let full = tasm.scan("v", &pred, 0..FRAMES).unwrap();

    // gop_len = 5: a stride of 10 samples at most one frame per GOP and
    // leaves every other GOP without a sampled frame.
    let q = Query::new(pred.clone()).frames(0..FRAMES).stride(10);
    let result = tasm.query("v", &q).unwrap();

    let expected = post_filter(&full, &q, 0);
    assert_regions_identical(&expected, &result.regions, "strided query");
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
    let tasm = tasm_with("limit", |_| {});
    let pred = LabelPredicate::label("car");
    let full = tasm.scan("v", &pred, 0..FRAMES).unwrap();

    let q = Query::new(pred.clone()).frames(0..FRAMES).limit(3);
    let result = tasm.query("v", &q).unwrap();

    let expected = post_filter(&full, &q, 0);
    assert_regions_identical(&expected, &result.regions, "limited query");
    assert_eq!(result.plan.frames_sampled, 3, "first 3 matching frames");
    assert!(
        result.stats.samples_decoded < full.stats.samples_decoded,
        "GOPs past the satisfied limit must never decode"
    );
}

#[test]
fn combined_roi_stride_limit_matches_postfiltered_scan() {
    let tasm = tasm_with("combined", |_| {});
    let pred = LabelPredicate::any_of(&["car", "person"]);
    let window = 3..FRAMES - 2;
    let full = tasm.scan("v", &pred, window.clone()).unwrap();

    let q = Query::new(pred.clone())
        .frames(window.clone())
        .roi(Rect::new(32, 16, 160, 112))
        .stride(3)
        .limit(4);
    let result = tasm.query("v", &q).unwrap();
    let expected = post_filter(&full, &q, window.start);
    assert_regions_identical(&expected, &result.regions, "combined predicates");
}

#[test]
fn plain_query_is_bit_identical_to_scan() {
    let tasm = tasm_with("plain", |_| {});
    let pred = LabelPredicate::label("person");
    for window in [0..FRAMES, 7..23, 12..13] {
        let full = tasm.scan("v", &pred, window.clone()).unwrap();
        let result = tasm
            .query("v", &Query::new(pred.clone()).frames(window.clone()))
            .unwrap();
        let expected: Vec<_> = full.regions.iter().collect();
        assert_regions_identical(&expected, &result.regions, &format!("window {window:?}"));
        // The per-tile planner never decodes more than the scan planner.
        assert!(result.stats.samples_decoded <= full.stats.samples_decoded);
    }
}

#[test]
fn aggregate_modes_skip_decode_entirely() {
    let tasm = tasm_with("aggregate", |_| {});
    let pred = LabelPredicate::label("car");
    let pixels = tasm
        .query("v", &Query::new(pred.clone()).frames(0..FRAMES))
        .unwrap();

    let count = tasm
        .query(
            "v",
            &Query::new(pred.clone())
                .frames(0..FRAMES)
                .mode(QueryMode::Count),
        )
        .unwrap();
    assert_eq!(
        count.matched, pixels.matched,
        "count must equal the pixel-mode match count"
    );
    assert!(count.regions.is_empty());
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

/// The satellite fix under test: plan counters are computed at plan time
/// from the index alone, so a pruned GOP later served by the decoded-GOP
/// cache (or joined from another query's in-flight decode) must change
/// neither the plan counters nor the owned/joined accounting's total.
#[test]
fn plan_counters_are_identical_across_cache_states() {
    let tasm = tasm_with("cache-consistency", |c| c.cache_bytes = 64 << 20);
    let q = Query::new(LabelPredicate::label("car"))
        .frames(0..FRAMES)
        .roi(corner_roi())
        .stride(2);

    let cold = tasm.query("v", &q).unwrap();
    let warm = tasm.query("v", &q).unwrap();

    assert_eq!(
        cold.plan, warm.plan,
        "plan stats must not depend on cache state"
    );
    assert_eq!(cold.matched, warm.matched);
    assert!(warm.cache.hits > 0, "second run must hit the cache");
    assert_eq!(warm.stats.samples_decoded, 0, "fully warm: no decode work");

    // No double counting: every planned GOP is accounted exactly once per
    // run — either decoded by this query (owned) or served by the cache
    // (hits, which include joins of other queries' decodes).
    for (r, what) in [(&cold, "cold"), (&warm, "warm")] {
        assert_eq!(
            r.shared.owned + r.cache.hits,
            r.plan.gops_planned,
            "{what}: owned + cache hits must equal planned GOPs"
        );
        assert_eq!(r.shared.joined, 0, "single-threaded runs never join");
    }

    // And the pixels are bit-identical either way.
    let expected: Vec<_> = cold.regions.iter().collect();
    assert_regions_identical(&expected, &warm.regions, "cold vs warm");
}

/// Pruned decode plans populate the cache with exactly the prefixes they
/// decode; a later *wider* query must extend them, never trust them too far.
#[test]
fn wider_query_after_pruned_query_stays_correct() {
    let tasm = tasm_with("prefix-extend", |c| c.cache_bytes = 64 << 20);
    let pred = LabelPredicate::label("car");

    // Strided query first: caches short GOP prefixes.
    let strided = Query::new(pred.clone()).frames(0..FRAMES).stride(10);
    tasm.query("v", &strided).unwrap();

    // Full query second: must extend the cached prefixes bit-exactly.
    let reference = tasm_with("prefix-ref", |_| {});
    let expected = reference.scan("v", &pred, 0..FRAMES).unwrap();
    let got = tasm
        .query("v", &Query::new(pred.clone()).frames(0..FRAMES))
        .unwrap();
    let expected_regions: Vec<_> = expected.regions.iter().collect();
    assert_regions_identical(&expected_regions, &got.regions, "prefix extension");
}

/// A cache smaller than one whole-range query's decoded frames: the second
/// pass finds GOPs trimmed to a prefix and must extend them bit-exactly,
/// decoding less than the cold pass, while the cache stays in its budget.
#[test]
fn trimmed_cache_extends_prefixes_exactly_under_eviction_pressure() {
    let pred = LabelPredicate::label("car");
    let q = Query::new(pred.clone()).frames(0..FRAMES);
    let reference = tasm_with("trim-ref", |_| {});
    let expected = reference.scan("v", &pred, 0..FRAMES).unwrap();
    let expected: Vec<_> = expected.regions.iter().collect();
    let uncached = reference.query("v", &q).unwrap();
    // Half an average GOP under what the query decodes: the cache is short
    // by less than one GOP, so a pass leaves most GOPs a prefix to resume.
    let decoded = uncached.stats.samples_decoded;
    let budget = decoded - decoded / uncached.shared.owned / 2;
    let tasm = tasm_with("trim", |c| c.cache_bytes = budget);

    let cache = || tasm.store().decoded_cache().expect("cache attached");

    let first = tasm.query("v", &q).unwrap();
    assert_regions_identical(&expected, &first.regions, "cold pass");
    assert_eq!(first.stats.samples_decoded, decoded);
    assert!(cache().bytes_used() <= budget);

    let second = tasm.query("v", &q).unwrap();
    assert_regions_identical(&expected, &second.regions, "trimmed pass");
    assert!(second.cache.misses > 0, "{:?}", second.cache);
    assert!(second.cache.frames_reused > 0, "{:?}", second.cache);
    assert!(
        second.stats.samples_decoded < first.stats.samples_decoded,
        "resumed prefixes must save decode: {} vs {}",
        second.stats.samples_decoded,
        first.stats.samples_decoded
    );
    assert!(cache().bytes_used() <= budget);
}

/// Worker count must not change pixels or plan counters for pruned plans.
#[test]
fn pruned_plans_are_worker_count_invariant() {
    let serial = tasm_with("workers-1", |c| c.workers = 1);
    let parallel = tasm_with("workers-8", |c| c.workers = 8);
    let q = Query::new(LabelPredicate::any_of(&["car", "person"]))
        .frames(0..FRAMES)
        .roi(Rect::new(16, 16, 128, 96))
        .stride(2)
        .limit(6);
    let a = serial.query("v", &q).unwrap();
    let b = parallel.query("v", &q).unwrap();
    let expected: Vec<_> = a.regions.iter().collect();
    assert_regions_identical(&expected, &b.regions, "worker invariance");
    assert_eq!(a.plan, b.plan);
    assert_eq!(a.matched, b.matched);
    assert_eq!(a.stats.samples_decoded, b.stats.samples_decoded);
}
