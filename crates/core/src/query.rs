//! The spatiotemporal query planner.
//!
//! [`mod@crate::scan`] accepts only a label predicate over a contiguous frame
//! range: every tile overlapping any labeled box is decoded for the whole
//! matched span. This module adds the query shapes the paper's storage
//! manager exists to serve — *subframe, object-centric* retrieval — by
//! planning the decode before touching any bytes:
//!
//! * **Spatial ROI** ([`Query::roi`]) — only labeled boxes intersecting a
//!   region of interest are retrieved. Boxes are tested against the ROI
//!   through [`tasm_index::SpatialGrid`] before planning, so tiles whose
//!   boxes miss the ROI are never decoded.
//! * **Temporal sampling** ([`Query::stride`]) — sample every `n`-th frame
//!   of the window. GOPs containing no sampled frame are never decoded.
//! * **Limit** ([`Query::limit`]) — return only the first `k` matching
//!   frames. The planner knows every match from the semantic index before
//!   decode starts, so GOPs past the satisfied limit are never scheduled;
//!   the early termination is deterministic at any worker count.
//! * **Aggregate modes** ([`Query::mode`]) — [`QueryMode::Count`] and
//!   [`QueryMode::Exists`] answer from the index alone and skip pixel
//!   materialization entirely.
//!
//! The planner turns a [`Query`] into a pruned per-`(SOT, tile, GOP)`
//! decode plan executed by the [`crate::exec`] pipeline, and reports what
//! it cut in [`crate::exec::PlanStats`] (`tiles_pruned`, `gops_skipped`,
//! `frames_sampled`). Plan statistics are computed from the index alone, so
//! they are identical whether the planned GOPs are decoded, served from the
//! decoded-GOP cache, or joined from a concurrent query's in-flight decode
//! — and the §4.1 cost model keeps seeing only real decode work in
//! [`ScanResult::stats`].
//!
//! ## Equivalence contract
//!
//! For any ROI/stride/limit combination, [`crate::Tasm::query`] returns
//! regions *bit-identical* to running the unpruned [`crate::Tasm::scan`]
//! and filtering its output post-hoc (keep regions whose rectangle
//! intersects the ROI, whose frame lies on the stride, and that belong to
//! the first `k` matching frames). This holds at any worker count, any
//! cache state, and across concurrent re-tiles; `tests/contract.rs`
//! asserts it on every query path.

use crate::exec::TileDecodeRequest;
use crate::scan::{align_out, gop_count, Composer, LabelPredicate, ScanError, ScanResult};
use crate::storage::{VideoManifest, VideoStore};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::time::Duration;
use tasm_index::SpatialGrid;
use tasm_video::Rect;

/// Past this many boxes in a frame, ROI filtering goes through the spatial
/// grid instead of testing every box directly.
const GRID_THRESHOLD: usize = 16;

/// What a query returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueryMode {
    /// Materialize the matched regions' pixels (the [`mod@crate::scan`]
    /// behavior). The default.
    #[default]
    Pixels,
    /// Report only the number of matching regions
    /// ([`ScanResult::matched`]); no tile is decoded.
    Count,
    /// Report only whether any region matches (`matched > 0`); no tile is
    /// decoded.
    Exists,
}

/// A spatiotemporal query: a label predicate plus optional region-of-
/// interest, temporal-sampling, and aggregate clauses.
///
/// Built fluently and executed with [`crate::Tasm::query`] (or submitted to
/// `tasm-service`'s `QueryService`):
///
/// ```
/// use tasm_core::{LabelPredicate, Query, QueryMode};
/// use tasm_video::Rect;
///
/// // "Every 5th frame of the first 300 in which a car enters the
/// //  left half of the intersection — stop after 10 matching frames."
/// let q = Query::new(LabelPredicate::label("car"))
///     .frames(0..300)
///     .roi(Rect::new(0, 0, 320, 352))
///     .stride(5)
///     .limit(10);
/// assert_eq!(q.frame_range(), 0..300);
/// assert_eq!(q.query_mode(), QueryMode::Pixels);
///
/// // The same match set, but only its cardinality — decodes nothing.
/// let count = q.clone().mode(QueryMode::Count);
/// assert_eq!(count.query_mode(), QueryMode::Count);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    predicate: LabelPredicate,
    frames: Range<u32>,
    roi: Option<Rect>,
    stride: u32,
    limit: Option<u32>,
    mode: QueryMode,
    as_of: Option<u64>,
}

impl Query {
    /// A query for `predicate` over the whole video, every frame, returning
    /// pixels. Narrow it with the builder methods.
    pub fn new(predicate: LabelPredicate) -> Self {
        Query {
            predicate,
            frames: 0..u32::MAX,
            roi: None,
            stride: 1,
            limit: None,
            mode: QueryMode::Pixels,
            as_of: None,
        }
    }

    /// Restricts the query to a frame window (clamped to the video length
    /// at execution).
    pub fn frames(mut self, frames: Range<u32>) -> Self {
        self.frames = frames;
        self
    }

    /// Keeps only boxes intersecting `roi`. Matching boxes are returned
    /// whole (selection, not clipping), so results stay bit-identical to a
    /// post-filtered full scan.
    pub fn roi(mut self, roi: Rect) -> Self {
        self.roi = Some(roi);
        self
    }

    /// Samples every `stride`-th frame of the window, anchored at its
    /// start. `1` (the default) samples every frame; `0` is treated as `1`.
    pub fn stride(mut self, stride: u32) -> Self {
        self.stride = stride.max(1);
        self
    }

    /// Stops after the first `limit` frames with at least one match. GOPs
    /// past the satisfied limit are never decoded.
    pub fn limit(mut self, limit: u32) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Selects what the query returns (pixels, count, or existence).
    pub fn mode(mut self, mode: QueryMode) -> Self {
        self.mode = mode;
        self
    }

    /// Executes against the named layout `epoch` instead of the current
    /// one (`AS OF <epoch>`). The epoch must still be live — current, or
    /// retired but pinned by a reader — otherwise execution fails with
    /// [`crate::TasmError::EpochNotLive`]. Layout epochs affect *how*
    /// frames are tiled, never their content, so results differ from the
    /// current epoch's only in work accounting — the property the MVCC
    /// tests assert and a consistent-backup reader relies on.
    pub fn as_of(mut self, epoch: u64) -> Self {
        self.as_of = Some(epoch);
        self
    }

    /// The label predicate.
    pub fn predicate(&self) -> &LabelPredicate {
        &self.predicate
    }

    /// The frame window.
    pub fn frame_range(&self) -> Range<u32> {
        self.frames.clone()
    }

    /// The region of interest, if any.
    pub fn roi_rect(&self) -> Option<Rect> {
        self.roi
    }

    /// The sampling stride (≥ 1).
    pub fn stride_len(&self) -> u32 {
        self.stride
    }

    /// The first-k-matching-frames limit, if any.
    pub fn limit_count(&self) -> Option<u32> {
        self.limit
    }

    /// The aggregate mode.
    pub fn query_mode(&self) -> QueryMode {
        self.mode
    }

    /// The `AS OF` layout epoch, if any.
    pub fn as_of_epoch(&self) -> Option<u64> {
        self.as_of
    }
}

/// Applies the spatial and temporal predicates to the index-resolved
/// regions, in the same order a post-hoc filter of scan output would:
/// degenerate boxes out, then ROI, then stride, then limit.
fn filter_regions(
    regions: &mut BTreeMap<u32, Vec<Rect>>,
    manifest: &VideoManifest,
    query: &Query,
    frames: &Range<u32>,
) {
    // Boxes that are empty after chroma alignment and frame clamping never
    // produce a region in scan output; drop them first so `matched` and the
    // `limit` cutoff agree with post-filtered scan results exactly.
    for rects in regions.values_mut() {
        rects.retain(|r| !align_out(r, manifest.width, manifest.height).is_empty());
    }
    if let Some(roi) = query.roi_rect() {
        // The grid stores raw rectangles but discovers candidates through
        // frame-clamped cells; that is exact for a frame-contained ROI (any
        // raw intersection then lies inside the frame, hence inside the
        // box's clamped cells) but would miss overlaps that exist only
        // beyond the frame edge. An ROI reaching past the frame therefore
        // takes the direct path, keeping ROI semantics identical to the
        // post-hoc filter: raw `Rect::intersects`, always.
        let grid_exact =
            roi.right() <= manifest.width && roi.bottom() <= manifest.height && !roi.is_empty();
        for rects in regions.values_mut() {
            if grid_exact && rects.len() > GRID_THRESHOLD {
                let grid = SpatialGrid::from_boxes(manifest.width, manifest.height, rects);
                *rects = grid.query_intersecting(&roi);
            } else {
                rects.retain(|r| r.intersects(&roi));
            }
        }
    }
    let stride = query.stride_len();
    if stride > 1 {
        regions.retain(|&f, _| (f - frames.start).is_multiple_of(stride));
    }
    regions.retain(|_, rects| !rects.is_empty());
    if let Some(limit) = query.limit_count() {
        if regions.len() > limit as usize {
            let cutoff = *regions
                .keys()
                .nth(limit as usize)
                .expect("len > limit implies a frame at index `limit`");
            regions.split_off(&cutoff);
        }
    }
}

/// The decode half of [`crate::Tasm::query`]: plans and executes a query
/// against already-resolved target regions. Split from the index lookup for
/// the same reason as [`crate::scan::scan_prepared`] — the semantic-index
/// lock is released before any decode work starts.
pub(crate) fn query_prepared(
    store: &VideoStore,
    manifest: &VideoManifest,
    mut regions: BTreeMap<u32, Vec<Rect>>,
    query: &Query,
    frames: Range<u32>,
    lookup_time: Duration,
) -> Result<ScanResult, ScanError> {
    let mut result = ScanResult {
        lookup_time,
        epoch: manifest.epoch(),
        ..Default::default()
    };
    let gop_len = manifest.config.gop_len;

    // --- Baseline: the label-only plan `scan` would execute -------------
    // (tiles from aligned boxes, each over the SOT's full matched-frame span).
    // Everything below prunes relative to this.
    let mut baseline: Vec<(usize, BTreeSet<u32>, Range<u32>)> = Vec::new();
    for sot_idx in manifest.sots_for_range(frames.clone()) {
        let sot = &manifest.sots[sot_idx];
        let mut tiles: BTreeSet<u32> = BTreeSet::new();
        let mut first = u32::MAX;
        let mut last = 0u32;
        for (&frame, rects) in regions.range(sot.start..sot.end) {
            for r in rects {
                let aligned = align_out(r, manifest.width, manifest.height);
                tiles.extend(sot.layout.tiles_intersecting(&aligned));
            }
            first = first.min(frame);
            last = last.max(frame);
        }
        if !tiles.is_empty() {
            let span = (first - sot.start)..(last - sot.start + 1);
            baseline.push((sot_idx, tiles, span));
        }
    }

    // --- Prune: ROI ∧ stride ∧ limit ------------------------------------
    filter_regions(&mut regions, manifest, query, &frames);
    result.plan.frames_sampled = regions.len() as u64;
    result.matched = regions.values().map(|v| v.len() as u64).sum();

    if query.query_mode() != QueryMode::Pixels || regions.is_empty() {
        // Aggregate modes answer from the index alone; the entire baseline
        // decode plan is skipped. (Likewise when nothing matched.)
        for (_, tiles, _) in &baseline {
            result.plan.tiles_pruned += tiles.len() as u64;
        }
        return Ok(result);
    }

    // --- Plan: per-(SOT, tile) runs of GOPs that contain sampled frames --
    let mut requests: Vec<TileDecodeRequest> = Vec::new();
    let mut sot_order: Vec<usize> = Vec::new();
    for (sot_idx, base_tiles, base_span) in &baseline {
        let sot = &manifest.sots[*sot_idx];
        // tile → local indices of sampled frames whose boxes touch it.
        let mut per_tile: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        for (&frame, rects) in regions.range(sot.start..sot.end) {
            let local = frame - sot.start;
            for r in rects {
                let aligned = align_out(r, manifest.width, manifest.height);
                for t in sot.layout.tiles_intersecting(&aligned) {
                    per_tile.entry(t).or_default().insert(local);
                }
            }
        }
        result.plan.tiles_pruned += (base_tiles.len() - per_tile.len()) as u64;
        if per_tile.is_empty() {
            continue;
        }
        sot_order.push(*sot_idx);
        let base_gops = gop_count(base_span, gop_len);
        for (tile, locals) in per_tile {
            let gops: BTreeSet<u32> = locals.iter().map(|l| l / gop_len).collect();
            result.plan.tiles_planned += 1;
            result.plan.gops_planned += gops.len() as u64;
            result.plan.gops_skipped += base_gops - gops.len() as u64;
            // One decode request per contiguous run of needed GOPs; GOPs in
            // the gaps are never decoded.
            let mut run: Option<(u32, u32)> = None; // (first gop, last gop)
            let flush = |first_gop: u32, last_gop: u32, requests: &mut Vec<_>| {
                let lo = *locals
                    .range(first_gop * gop_len..)
                    .next()
                    .expect("run contains a sampled frame");
                let hi = *locals
                    .range(..(last_gop + 1) * gop_len)
                    .next_back()
                    .expect("run contains a sampled frame");
                requests.push(TileDecodeRequest {
                    sot_idx: *sot_idx,
                    tile,
                    local_span: lo..hi + 1,
                });
            };
            for &g in &gops {
                run = match run {
                    None => Some((g, g)),
                    Some((first, last)) if g == last + 1 => Some((first, g)),
                    Some((first, last)) => {
                        flush(first, last, &mut requests);
                        Some((g, g))
                    }
                };
            }
            if let Some((first, last)) = run {
                flush(first, last, &mut requests);
            }
        }
    }

    // --- Execute: same fan-out pipeline as scan --------------------------
    let composer = Composer::new(store.canvases(), manifest, &regions, &sot_order);
    result.regions = result.execute(store, manifest, &requests, composer)?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_setters() {
        let q = Query::new(LabelPredicate::label("car"));
        assert_eq!(q.frame_range(), 0..u32::MAX);
        assert_eq!(q.stride_len(), 1);
        assert_eq!(q.limit_count(), None);
        assert_eq!(q.roi_rect(), None);
        assert_eq!(q.query_mode(), QueryMode::Pixels);

        let q = q
            .frames(10..20)
            .roi(Rect::new(0, 0, 64, 64))
            .stride(0) // clamped to 1
            .limit(3)
            .mode(QueryMode::Exists);
        assert_eq!(q.frame_range(), 10..20);
        assert_eq!(q.stride_len(), 1);
        assert_eq!(q.limit_count(), Some(3));
        assert_eq!(q.roi_rect(), Some(Rect::new(0, 0, 64, 64)));
        assert_eq!(q.query_mode(), QueryMode::Exists);
    }

    fn manifest_for_filtering() -> VideoManifest {
        // Only width/height and SOT structure matter to `filter_regions`;
        // build the smallest manifest that carries them.
        VideoManifest {
            name: "v".to_string(),
            width: 128,
            height: 96,
            frame_count: 30,
            fps: 30,
            config: crate::storage::StorageConfig {
                gop_len: 5,
                sot_frames: 10,
                ..Default::default()
            },
            sots: Vec::new(),
        }
    }

    fn boxes(entries: &[(u32, Rect)]) -> BTreeMap<u32, Vec<Rect>> {
        let mut out: BTreeMap<u32, Vec<Rect>> = BTreeMap::new();
        for (f, r) in entries {
            out.entry(*f).or_default().push(*r);
        }
        out
    }

    #[test]
    fn roi_filter_selects_whole_intersecting_boxes() {
        let m = manifest_for_filtering();
        let mut regions = boxes(&[
            (0, Rect::new(0, 0, 10, 10)),
            (0, Rect::new(60, 60, 10, 10)),
            (1, Rect::new(100, 0, 10, 10)),
        ]);
        let q = Query::new(LabelPredicate::label("car")).roi(Rect::new(0, 0, 32, 96));
        filter_regions(&mut regions, &m, &q, &(0..30));
        // Only the box overlapping the left strip survives — unclipped.
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[&0], vec![Rect::new(0, 0, 10, 10)]);
    }

    #[test]
    fn roi_filter_grid_path_matches_direct_path() {
        let m = manifest_for_filtering();
        // More than GRID_THRESHOLD boxes on one frame forces the grid path.
        let many: Vec<(u32, Rect)> = (0..24)
            .map(|i| (0u32, Rect::new((i * 5) % 120, (i * 7) % 90, 6, 6)))
            .collect();
        let roi = Rect::new(20, 10, 40, 40);
        let mut grid_path = boxes(&many);
        let q = Query::new(LabelPredicate::label("car")).roi(roi);
        filter_regions(&mut grid_path, &m, &q, &(0..30));

        let mut direct: Vec<Rect> = many.iter().map(|(_, r)| *r).collect();
        direct.retain(|r| r.intersects(&roi));
        assert_eq!(grid_path.get(&0).cloned().unwrap_or_default(), direct);
    }

    #[test]
    fn roi_beyond_frame_edge_keeps_raw_intersection_semantics() {
        let m = manifest_for_filtering(); // 128x96 frame
                                          // Enough boxes to trigger the grid fast path, plus one extending
                                          // past the right frame edge.
        let mut entries: Vec<(u32, Rect)> = (0..20)
            .map(|i| (0u32, Rect::new((i * 6) % 90, (i * 5) % 80, 4, 4)))
            .collect();
        let overhang = Rect::new(100, 0, 100, 10); // raw right edge at 200
        entries.push((0, overhang));
        let mut regions = boxes(&entries);
        // The ROI overlaps the overhanging box only beyond the frame edge;
        // raw-rectangle semantics (the post-filter reference) must match it
        // regardless of which filtering path runs.
        let roi = Rect::new(150, 0, 20, 10);
        let q = Query::new(LabelPredicate::label("car")).roi(roi);
        filter_regions(&mut regions, &m, &q, &(0..30));
        assert_eq!(regions[&0], vec![overhang]);
    }

    #[test]
    fn stride_is_anchored_at_window_start() {
        let m = manifest_for_filtering();
        let r = Rect::new(0, 0, 8, 8);
        let mut regions = boxes(&[(3, r), (4, r), (5, r), (7, r), (9, r), (11, r)]);
        let q = Query::new(LabelPredicate::label("car")).stride(4);
        filter_regions(&mut regions, &m, &q, &(3..30));
        // Sampled frames: 3, 7, 11 (anchor 3, stride 4).
        assert_eq!(regions.keys().copied().collect::<Vec<_>>(), vec![3, 7, 11]);
    }

    #[test]
    fn limit_keeps_first_k_matching_frames() {
        let m = manifest_for_filtering();
        let r = Rect::new(0, 0, 8, 8);
        let mut regions = boxes(&[(2, r), (2, r), (5, r), (9, r), (20, r)]);
        let q = Query::new(LabelPredicate::label("car")).limit(2);
        filter_regions(&mut regions, &m, &q, &(0..30));
        assert_eq!(regions.keys().copied().collect::<Vec<_>>(), vec![2, 5]);
        assert_eq!(regions[&2].len(), 2, "limit counts frames, not boxes");
    }

    #[test]
    fn degenerate_boxes_are_dropped_before_predicates() {
        let m = manifest_for_filtering();
        let mut regions = boxes(&[
            (0, Rect::new(500, 500, 10, 10)), // fully outside the frame
            (0, Rect::new(4, 4, 0, 0)),       // empty
            (1, Rect::new(0, 0, 8, 8)),
        ]);
        let q = Query::new(LabelPredicate::label("car")).limit(1);
        filter_regions(&mut regions, &m, &q, &(0..30));
        // Frame 0's boxes can never appear in scan output, so the limit
        // must not be spent on them.
        assert_eq!(regions.keys().copied().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn gop_run_grouping_counts() {
        // Pure helper check: gop_count over spans.
        assert_eq!(gop_count(&(0..10), 5), 2);
        assert_eq!(gop_count(&(4..6), 5), 2);
        assert_eq!(gop_count(&(5..6), 5), 1);
        assert_eq!(gop_count(&(3..3), 5), 0);
    }

    // Pruning counters are checked end to end in tests/query_planner.rs,
    // bit-identity with post-filtered scans in tests/contract.rs.
}
