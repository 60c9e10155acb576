//! The spatiotemporal query planner.
//!
//! `Scan` (§3.1, [`crate::Tasm::scan`]) is a label predicate over a
//! contiguous frame range: the query with none of the clauses below. This
//! module plans every read, scan included, and adds the query shapes the
//! paper's storage manager exists to serve — *subframe, object-centric*
//! retrieval — by planning the decode before touching any bytes:
//!
//! * **Spatial ROI** ([`Query::roi`]) — only labeled boxes intersecting a
//!   region of interest are retrieved. Boxes are tested against the ROI
//!   before planning, so tiles whose boxes miss the ROI are never decoded.
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
//! The planner maps boxes to tiles with the read plan (`plan::ReadPlan`),
//! built from the label-only boxes (the baseline) and, when the ROI, stride
//! or limit drop any, again from those they keep. It emits that plan's
//! per-`(SOT, tile)` GOP runs to the [`crate::exec`] pipeline and derives
//! [`crate::exec::PlanStats`] from the two plans, against the baseline read
//! over its span.
//!
//! ## Equivalence contract
//!
//! For any ROI/stride/limit combination, [`crate::Tasm::query`] returns
//! regions *bit-identical* to the post-filtered whole-frame read at its
//! epoch: every box the index holds for the predicate, filtered post-hoc
//! (keep boxes whose rectangle intersects the ROI, whose frame lies on the
//! stride, and that belong to the first `k` matching frames), each cropped
//! from a frame stitched from whole-tile decodes. This holds at any worker
//! count, any cache state, and across concurrent re-tiles;
//! `tests/contract.rs` asserts it on every query path against
//! `tasm_suite::Reference`, which builds that read with no planner,
//! executor, cache or composer.

use crate::exec::PlanStats;
use crate::plan::{align_out, ReadPlan};
use crate::scan::{LabelPredicate, ScanError, ScanResult};
use crate::storage::{VideoManifest, VideoStore};
use crate::tasm::Lookup;
use std::collections::BTreeMap;
use std::ops::Range;
use tasm_video::Rect;

/// What a query returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueryMode {
    /// Materialize the matched regions' pixels (what a scan returns). The
    /// default.
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
pub(crate) fn filter_regions(
    regions: &mut BTreeMap<u32, Vec<Rect>>,
    manifest: &VideoManifest,
    query: &Query,
    frames: &Range<u32>,
) {
    // Boxes empty once aligned and clamped never make a region in scan
    // output: drop them first, so `matched` and the `limit` cutoff agree with
    // the post-filter, whose ROI test is the raw `Rect::intersects`.
    let roi = query.roi_rect();
    for rects in regions.values_mut() {
        rects.retain(|r| {
            !align_out(r, manifest.width, manifest.height).is_empty()
                && roi.is_none_or(|roi| r.intersects(&roi))
        });
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

/// The planning half of [`crate::Tasm::query`] and [`crate::Tasm::price`]:
/// the plan of the boxes [`filter_regions`] keeps, and the plan of all of
/// them (the baseline, which is also the plan when the filters keep every
/// box that makes a region). Aggregate modes answer from the index alone,
/// so they plan no read.
pub(crate) struct QueryPlan<'a> {
    baseline: ReadPlan<'a>,
    /// `None` when the baseline is the plan.
    filtered: Option<ReadPlan<'a>>,
    matched: u64,
    frames_sampled: u64,
}

impl<'a> QueryPlan<'a> {
    pub(crate) fn new(
        manifest: &'a VideoManifest,
        mut regions: BTreeMap<u32, Vec<Rect>>,
        frames: Range<u32>,
        query: &Query,
    ) -> Self {
        let baseline = ReadPlan::new(manifest, &regions, frames.clone());
        filter_regions(&mut regions, manifest, query, &frames);
        let matched: usize = regions.values().map(Vec::len).sum();
        let frames_sampled = regions.len() as u64;
        let pixels = query.query_mode() == QueryMode::Pixels;
        let filtered = (!pixels || matched != baseline.slots.len()).then(|| {
            if !pixels {
                regions.clear();
            }
            ReadPlan::new(manifest, &regions, frames)
        });
        QueryPlan {
            baseline,
            filtered,
            matched: matched as u64,
            frames_sampled,
        }
    }

    /// The plan the query reads.
    pub(crate) fn plan(&self) -> &ReadPlan<'a> {
        self.filtered.as_ref().unwrap_or(&self.baseline)
    }
}

/// The decode half of [`crate::Tasm::query`], run after the index lock is
/// released: reads the GOP runs of the [`QueryPlan`] and counts what it cut
/// against the baseline.
pub(crate) fn query_prepared(
    store: &VideoStore,
    found: Lookup,
    query: &Query,
) -> Result<ScanResult, ScanError> {
    let manifest = found.pin.manifest();
    let planned = QueryPlan::new(manifest, found.regions, found.frames, query);
    let reads = planned.plan().gop_reads(manifest.config.gop_len);
    let mut result = ScanResult {
        lookup_time: found.time,
        epoch: manifest.epoch(),
        matched: planned.matched,
        plan: PlanStats {
            frames_sampled: planned.frames_sampled,
            ..planned.baseline.stats(&reads, manifest.config.gop_len)
        },
        ..Default::default()
    };
    result.execute(store, manifest, planned.plan(), &reads)?;
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

    /// Boxes meeting the ROI survive whole (selection, not clipping), in
    /// order; a frame left without one is dropped. An ROI that meets a box
    /// only beyond the frame edge keeps it, as the post-filtered scan's raw
    /// `Rect::intersects` does.
    #[test]
    fn roi_filter_selects_whole_intersecting_boxes() {
        let m = manifest_for_filtering(); // 128x96 frame
        let many: Vec<Rect> = (0..24)
            .map(|i| Rect::new((i * 5) % 120, (i * 7) % 90, 6, 6))
            .collect();
        let mut small: Vec<Rect> = (0..20)
            .map(|i| Rect::new((i * 6) % 90, (i * 5) % 80, 4, 4))
            .collect();
        let overhang = Rect::new(100, 0, 100, 10); // raw right edge at 200
        small.push(overhang);
        let cases = [
            (
                vec![Rect::new(0, 0, 10, 10), Rect::new(60, 60, 10, 10)],
                Rect::new(0, 0, 32, 96),
                vec![Rect::new(0, 0, 10, 10)],
            ),
            (
                many,
                Rect::new(20, 10, 40, 40),
                [(15, 21), (20, 28), (25, 35), (30, 42), (35, 49)]
                    .map(|(x, y)| Rect::new(x, y, 6, 6))
                    .to_vec(),
            ),
            (small, Rect::new(150, 0, 20, 10), vec![overhang]),
        ];
        for (frame0, roi, want) in cases {
            let mut regions = boxes(&[(1, Rect::new(100, 0, 10, 10))]);
            regions.insert(0, frame0);
            let q = Query::new(LabelPredicate::label("car")).roi(roi);
            filter_regions(&mut regions, &m, &q, &(0..30));
            assert_eq!(regions.len(), 1, "{roi:?}");
            assert_eq!(regions[&0], want, "{roi:?}");
        }
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

    // Pruning counters are checked end to end in tests/query_planner.rs,
    // bit-identity with the post-filtered whole-frame read
    // (`tasm_suite::Reference`) in tests/contract.rs.
}
