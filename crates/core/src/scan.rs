//! The `Scan` access method (§3.1).
//!
//! `Scan(video, L, T)` retrieves the pixels satisfying a CNF predicate `L`
//! over object labels, optionally restricted to a time range `T`. For each
//! disjunctive clause TASM retrieves pixels inside boxes of *any* of its
//! labels; conjunctions intersect the clauses' regions ("red cars" = boxes
//! labelled car ∩ boxes labelled red).
//!
//! A scan is the label-only query ([`crate::Tasm::scan`] runs
//! [`crate::Tasm::query`]): look up boxes in the semantic index, map them to
//! the tiles of each overlapping SOT (the read plan, `plan::ReadPlan`),
//! decode only those tiles over the GOPs that hold their boxes, and crop
//! the requested regions. This module holds what every read shares: the
//! predicate, the result, and the composition of regions as their tiles
//! decode. Reported stats include the index lookup time and the decode
//! work, as the paper's reported query times do.

use crate::exec::{self, CacheStats, PlanStats, SharedScanStats, TileDecodeRequest};
use crate::plan::{ReadPlan, Slot};
use crate::pool::CanvasPool;
use crate::storage::{StoreError, VideoManifest, VideoStore};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};
use tasm_codec::DecodeStats;
use tasm_index::{IndexResult, SemanticIndex};
use tasm_obs::sync;
use tasm_video::{Frame, Rect};

/// A CNF predicate over labels: an AND of OR-clauses.
///
/// `(car ∨ bicycle) ∧ red` retrieves pixels of red cars and red bicycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelPredicate {
    clauses: Vec<Vec<String>>,
}

impl LabelPredicate {
    /// A single-label predicate (the common case in the evaluation).
    pub fn label(label: &str) -> Self {
        LabelPredicate {
            clauses: vec![vec![label.to_string()]],
        }
    }

    /// One disjunctive clause: any of `labels`.
    pub fn any_of(labels: &[&str]) -> Self {
        assert!(!labels.is_empty(), "clause must name at least one label");
        LabelPredicate {
            clauses: vec![labels.iter().map(|l| l.to_string()).collect()],
        }
    }

    /// Conjunction with another clause.
    pub fn and(mut self, labels: &[&str]) -> Self {
        assert!(!labels.is_empty(), "clause must name at least one label");
        self.clauses
            .push(labels.iter().map(|l| l.to_string()).collect());
        self
    }

    /// The clauses.
    pub fn clauses(&self) -> &[Vec<String>] {
        &self.clauses
    }

    /// All labels mentioned anywhere in the predicate.
    pub fn labels(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .clauses
            .iter()
            .flat_map(|c| c.iter().map(|s| s.as_str()))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Evaluates the predicate against the index: per-frame target regions.
    pub fn target_regions(
        &self,
        index: &mut dyn SemanticIndex,
        video: u32,
        frames: Range<u32>,
    ) -> IndexResult<BTreeMap<u32, Vec<Rect>>> {
        // Per clause: per-frame union list of boxes for any clause label.
        let mut per_clause: Vec<BTreeMap<u32, Vec<Rect>>> = Vec::with_capacity(self.clauses.len());
        for clause in &self.clauses {
            let mut frame_boxes: BTreeMap<u32, Vec<Rect>> = BTreeMap::new();
            for label in clause {
                for d in index.query(video, label, frames.clone())? {
                    frame_boxes.entry(d.frame).or_default().push(d.bbox);
                }
            }
            per_clause.push(frame_boxes);
        }
        // Conjunction: fold clause regions by pairwise intersection, in
        // `lhs`-major order (every region of one left box, then the next's).
        let mut iter = per_clause.into_iter();
        let Some(mut acc) = iter.next() else {
            return Ok(BTreeMap::new());
        };
        for clause in iter {
            acc = acc
                .iter()
                .filter_map(|(frame, lhs)| {
                    let rhs = clause.get(frame)?;
                    let regions: Vec<Rect> = lhs
                        .iter()
                        .flat_map(|a| rhs.iter().filter_map(|b| a.intersect(b)))
                        .collect();
                    (!regions.is_empty()).then_some((*frame, regions))
                })
                .collect();
        }
        Ok(acc)
    }
}

/// Pixels returned for one matched region.
#[derive(Debug, Clone)]
pub struct RegionPixels {
    /// Frame the region belongs to.
    pub frame: u32,
    /// The region rectangle in frame coordinates.
    pub rect: Rect,
    /// The decoded pixels (dimensions = `rect` aligned outward to chroma
    /// parity).
    pub pixels: Frame,
}

/// Result of a [`crate::Tasm::query`] (or `Scan`) call.
#[derive(Debug, Default)]
pub struct ScanResult {
    /// Matched regions with their pixels, frame order. Empty for the
    /// aggregate query modes ([`crate::QueryMode::Count`] /
    /// [`crate::QueryMode::Exists`]), which never materialize pixels.
    pub regions: Vec<RegionPixels>,
    /// Number of regions matching the query's predicates (label ∧ ROI ∧
    /// stride ∧ limit). Equal to `regions.len()` in pixel-returning modes;
    /// the aggregate modes report it without decoding anything.
    pub matched: u64,
    /// Planner accounting: decode units scheduled vs. pruned relative to
    /// the label-only baseline plan. Computed at plan time from the index —
    /// identical at any worker count and any cache state.
    pub plan: PlanStats,
    /// Exact decode accounting — only work actually performed; frames
    /// served by the decoded-GOP cache are *not* counted here, so the
    /// §4.1 cost model stays calibrated against real decode effort.
    pub stats: DecodeStats,
    /// Decoded-GOP cache reuse for this scan.
    pub cache: CacheStats,
    /// Shared-scan dedup accounting: GOP decodes this scan performed itself
    /// (`owned`) vs. GOP needs served by joining another in-flight query's
    /// decode (`joined`). Joined work appears in `cache`, never in `stats`,
    /// so the §4.1 cost model stays calibrated under concurrency.
    pub shared: SharedScanStats,
    /// The layout epoch of the manifest snapshot this result was computed
    /// against ([`crate::VideoManifest::epoch`]) — for [`crate::Tasm`]
    /// queries, the epoch pinned at plan time and read to completion.
    pub epoch: u64,
    /// Time spent querying the semantic index.
    pub lookup_time: Duration,
    /// Wall-clock time of the decode execution phase, which composes the
    /// regions as their tiles decode: the blits into the region canvases
    /// are in it. With `workers > 1` this is *elapsed* time, not the sum of
    /// per-worker decode times — `stats.decode_time` holds that sum (the
    /// cost model's work measure).
    pub exec_time: Duration,
}

impl ScanResult {
    /// Total wall-clock seconds (lookup + decode execution), the paper's
    /// reported query time. Parallel decode shortens this without changing
    /// `stats` — query latency and decode work are separate quantities.
    pub fn seconds(&self) -> f64 {
        self.lookup_time.as_secs_f64() + self.exec_time.as_secs_f64()
    }

    /// Runs `reads` of `plan` through the exec pipeline, composing each
    /// frame into the canvases of the plan's slots as it arrives, and adds
    /// the regions and their wall time, decode, cache and shared-scan
    /// accounting to this result.
    pub(crate) fn execute(
        &mut self,
        store: &VideoStore,
        manifest: &VideoManifest,
        plan: &ReadPlan,
        reads: &[TileDecodeRequest],
    ) -> Result<(), ScanError> {
        if reads.is_empty() {
            return Ok(());
        }
        // Taken once per composed frame, by whichever worker has it. Valid
        // at every unwind point, taken as is: a panic under it fails this
        // query, whose canvases are dropped with it.
        let composer = Mutex::new(Composer::new(store.canvases(), manifest, plan));
        let compose = |req: &TileDecodeRequest, local: u32, frame: &Frame| {
            sync::lock(&composer).compose(req.sot_idx, req.tile, local, frame);
        };
        let t1 = Instant::now();
        let (stats, cache, shared) =
            exec::execute(store, manifest, reads, &compose).map_err(ScanError::Store)?;
        self.exec_time = t1.elapsed();
        self.stats += stats;
        self.cache += cache;
        self.shared += shared;
        let composer = composer.into_inner();
        self.regions = composer.unwrap_or_else(PoisonError::into_inner).finish()?;
        Ok(())
    }
}

/// An answer's regions while their tiles decode: each frame a tile request
/// decodes, or the cache serves, is blitted into the canvases of that
/// frame's regions as soon as the request has it ([`Composer::compose`]),
/// so no decoded frame waits for the others.
///
/// Canvases are spare buffers from the store's [`CanvasPool`]
/// ([`recycle_canvases`] returns them), still holding an earlier answer's
/// pixels. Tiles are disjoint and fit their slots once read, so a canvas is
/// whole exactly when the areas blitted into it add up to its own, which
/// [`Composer::finish`] checks: always, while layouts cover the frame, as
/// the plan reads the tiles of each slot's aligned rectangle.
pub(crate) struct Composer<'m> {
    manifest: &'m VideoManifest,
    /// One per slot of the plan, in its order.
    regions: Vec<RegionPixels>,
    slots: &'m [Slot],
    /// Per slot, the area blitted into its canvas so far.
    covered: Vec<u64>,
    /// The regions of frame `first_frame + i` are
    /// `starts[i]..starts[i + 1]`.
    first_frame: u32,
    starts: Vec<usize>,
}

impl<'m> Composer<'m> {
    /// Takes a canvas from `canvases` for each slot of `plan` before any
    /// tile decodes.
    pub(crate) fn new(
        canvases: &CanvasPool,
        manifest: &'m VideoManifest,
        plan: &'m ReadPlan,
    ) -> Self {
        let first_frame = plan.slots.first().map_or(0, |s| s.frame);
        let mut starts = Vec::new();
        let mut regions = Vec::with_capacity(plan.slots.len());
        for (i, slot) in plan.slots.iter().enumerate() {
            starts.resize((slot.frame - first_frame) as usize + 1, i);
            let spare = canvases.take(slot.aligned.area() as usize * 3 / 2);
            regions.push(RegionPixels {
                frame: slot.frame,
                rect: slot.rect,
                pixels: canvas_in(slot.aligned.w, slot.aligned.h, spare),
            });
        }
        starts.push(plan.slots.len());
        Composer {
            manifest,
            regions,
            slots: &plan.slots,
            covered: vec![0; plan.slots.len()],
            first_frame,
            starts,
        }
    }

    /// Blits what tile `tile` of SOT `sot_idx` holds of every region of
    /// the SOT's frame `local` from `frame`, that tile's decode of it. A
    /// frame no region is on is skipped.
    pub(crate) fn compose(&mut self, sot_idx: usize, tile: u32, local: u32, frame: &Frame) {
        let sot = &self.manifest.sots[sot_idx];
        let i = (sot.start + local).checked_sub(self.first_frame);
        let span = i.and_then(|i| self.starts.get(i as usize..i as usize + 2));
        let Some(&[lo, hi]) = span.filter(|s| s[0] < s[1]) else {
            return;
        };
        let trect = sot.layout.tile_rect_by_index(tile);
        let canvases = self.regions[lo..hi].iter_mut().zip(&self.slots[lo..hi]);
        for ((region, slot), covered) in canvases.zip(&mut self.covered[lo..hi]) {
            *covered += blit_tile_overlap(&mut region.pixels, frame, &trect, &slot.aligned);
        }
    }

    /// The regions, once every canvas is whole; a canvas its tiles did not
    /// cover is [`ScanError::Uncovered`], never a region with stale or
    /// black samples.
    pub(crate) fn finish(self) -> Result<Vec<RegionPixels>, ScanError> {
        let mut slots = self.slots.iter().zip(&self.covered);
        match slots.find(|(slot, &covered)| covered != slot.aligned.area()) {
            Some((slot, &covered)) => Err(ScanError::Uncovered {
                frame: slot.frame,
                rect: slot.rect,
                covered,
                area: slot.aligned.area(),
            }),
            None => Ok(self.regions),
        }
    }
}

/// A `w`×`h` frame in `planes`' allocations (Y, U, V). Samples the buffers
/// already held keep their values; only what a plane grows by is written.
fn canvas_in(w: u32, h: u32, planes: [Vec<u8>; 3]) -> Frame {
    let (luma, chroma) = Frame::plane_lens(w, h).expect("aligned regions are even");
    let [y, u, v] = planes;
    let sized = |mut plane: Vec<u8>, len| {
        plane.resize(len, 0);
        plane
    };
    Frame::from_planes(w, h, sized(y, luma), sized(u, chroma), sized(v, chroma))
        .expect("planes sized to the dimensions")
}

/// Gives finished regions' canvases back to the pool composition draws from
/// ([`crate::VideoStore::canvases`]), last region first, so the next answer
/// takes them in the order this one did and an answer of the same shape
/// finds every canvas the right size.
pub fn recycle_canvases(pool: &CanvasPool, regions: Vec<RegionPixels>) {
    for region in regions.into_iter().rev() {
        pool.give(region.pixels.into_planes());
    }
}

/// Copies the part of a decoded tile that overlaps the (chroma-aligned)
/// region rectangle onto the region canvas. Returns the luma area copied,
/// counting whole chroma samples only.
fn blit_tile_overlap(canvas: &mut Frame, tile_frame: &Frame, trect: &Rect, aligned: &Rect) -> u64 {
    let Some(overlap) = trect.intersect(aligned) else {
        return 0;
    };
    let src_rect = Rect::new(
        overlap.x - trect.x,
        overlap.y - trect.y,
        overlap.w,
        overlap.h,
    );
    let src_aligned = align_in(&src_rect);
    if src_aligned.is_empty() {
        return 0;
    }
    let dst_x = overlap.x + (src_aligned.x - src_rect.x) - aligned.x;
    let dst_y = overlap.y + (src_aligned.y - src_rect.y) - aligned.y;
    canvas.blit(tile_frame, src_aligned, dst_x, dst_y);
    // `blit` clips the copy to both frames.
    let src = src_aligned.clamp_to(tile_frame.width(), tile_frame.height());
    let w = canvas.width().saturating_sub(dst_x).min(src.w) & !1;
    let h = canvas.height().saturating_sub(dst_y).min(src.h) & !1;
    w as u64 * h as u64
}

/// Errors from scan execution.
#[derive(Debug)]
pub enum ScanError {
    /// Semantic index failure.
    Index(tasm_index::TreeError),
    /// Storage failure.
    Store(StoreError),
    /// A region's canvas the decoded tiles did not cover: `covered` of its
    /// `area` luma samples (aligned outward) were blitted.
    Uncovered {
        /// The region's frame.
        frame: u32,
        /// The region's rectangle, as the predicate gave it.
        rect: Rect,
        /// Luma samples its tiles covered.
        covered: u64,
        /// Luma samples of the rectangle aligned outward.
        area: u64,
    },
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::Index(e) => write!(f, "scan index error: {e}"),
            ScanError::Store(e) => write!(f, "scan store error: {e}"),
            ScanError::Uncovered {
                frame,
                rect,
                covered,
                area,
            } => write!(
                f,
                "region {rect:?} of frame {frame}: its tiles cover {covered} of {area} samples"
            ),
        }
    }
}

impl std::error::Error for ScanError {}

/// Aligns a rectangle inward to even coordinates.
fn align_in(r: &Rect) -> Rect {
    let x = (r.x + 1) & !1;
    let y = (r.y + 1) & !1;
    let right = r.right() & !1;
    let bottom = r.bottom() & !1;
    Rect::new(x, y, right.saturating_sub(x), bottom.saturating_sub(y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::align_out;
    use tasm_codec::TileLayout;

    #[test]
    fn predicate_constructors() {
        let p = LabelPredicate::label("car");
        assert_eq!(p.clauses().len(), 1);
        assert_eq!(p.labels(), vec!["car"]);

        let p = LabelPredicate::any_of(&["car", "bicycle"]).and(&["red"]);
        assert_eq!(p.clauses().len(), 2);
        assert_eq!(p.labels(), vec!["bicycle", "car", "red"]);
    }

    #[test]
    fn disjunction_unions_boxes() {
        let mut idx = tasm_index::MemoryIndex::in_memory();
        idx.add_metadata(0, "car", 3, Rect::new(0, 0, 10, 10))
            .unwrap();
        idx.add_metadata(0, "bicycle", 3, Rect::new(50, 50, 10, 10))
            .unwrap();
        idx.add_metadata(0, "person", 3, Rect::new(90, 90, 10, 10))
            .unwrap();
        let p = LabelPredicate::any_of(&["car", "bicycle"]);
        let regions = p.target_regions(&mut idx, 0, 0..10).unwrap();
        assert_eq!(regions[&3].len(), 2);
    }

    #[test]
    fn conjunction_intersects_boxes() {
        let mut idx = tasm_index::MemoryIndex::in_memory();
        idx.add_metadata(0, "car", 3, Rect::new(0, 0, 20, 20))
            .unwrap();
        idx.add_metadata(0, "red", 3, Rect::new(10, 10, 20, 20))
            .unwrap();
        idx.add_metadata(0, "red", 4, Rect::new(10, 10, 20, 20))
            .unwrap(); // no car on 4
        let p = LabelPredicate::label("car").and(&["red"]);
        let regions = p.target_regions(&mut idx, 0, 0..10).unwrap();
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[&3], vec![Rect::new(10, 10, 10, 10)]);
    }

    /// However many boxes a frame holds, a conjunction's regions come in
    /// the pairwise order: every region of the first left-hand box, then
    /// the second's.
    #[test]
    fn conjunction_regions_are_lhs_major_however_many_boxes() {
        let mut idx = tasm_index::MemoryIndex::in_memory();
        // 9 cars and 8 red boxes: every pair overlaps, each in its own
        // rectangle.
        for i in 0..9 {
            idx.add_metadata(0, "car", 3, Rect::new(i * 2, 0, 40, 40 + i))
                .unwrap();
        }
        for j in 0..8 {
            idx.add_metadata(0, "red", 3, Rect::new(20 + j, 20 + j * 2, 30, 30))
                .unwrap();
        }
        let boxes = |idx: &mut tasm_index::MemoryIndex, label| -> Vec<Rect> {
            let found = idx.query(0, label, 3..4).unwrap();
            found.iter().map(|d| d.bbox).collect()
        };
        let (cars, reds) = (boxes(&mut idx, "car"), boxes(&mut idx, "red"));
        let pairwise: Vec<Rect> = cars
            .iter()
            .flat_map(|a| reds.iter().map(|b| a.intersect(b).unwrap()))
            .collect();
        assert_eq!(pairwise.len(), 72);
        let distinct: std::collections::BTreeSet<_> =
            pairwise.iter().map(|r| (r.x, r.y, r.w, r.h)).collect();
        assert_eq!(distinct.len(), 72);
        let p = LabelPredicate::label("car").and(&["red"]);
        let regions = p.target_regions(&mut idx, 0, 0..10).unwrap();
        assert_eq!(regions[&3], pairwise);
    }

    #[test]
    fn disjoint_conjunction_is_empty() {
        let mut idx = tasm_index::MemoryIndex::in_memory();
        idx.add_metadata(0, "car", 3, Rect::new(0, 0, 10, 10))
            .unwrap();
        idx.add_metadata(0, "red", 3, Rect::new(50, 50, 10, 10))
            .unwrap();
        let p = LabelPredicate::label("car").and(&["red"]);
        assert!(p.target_regions(&mut idx, 0, 0..10).unwrap().is_empty());
    }

    #[test]
    fn alignment_helpers() {
        assert_eq!(
            align_out(&Rect::new(3, 3, 5, 5), 100, 100),
            Rect::new(2, 2, 6, 6)
        );
        assert_eq!(
            align_out(&Rect::new(0, 0, 4, 4), 100, 100),
            Rect::new(0, 0, 4, 4)
        );
        assert_eq!(align_in(&Rect::new(3, 3, 5, 5)), Rect::new(4, 4, 4, 4));
        assert!(align_in(&Rect::new(3, 3, 1, 1)).is_empty());
    }

    /// A 96×64 video of one two-frame SOT under `layout`, and its full
    /// frames, each sample a function of its frame position, so a
    /// misplaced or missing pixel shows.
    fn one_sot(layout: &TileLayout) -> (VideoManifest, Vec<Frame>) {
        let (w, h) = (layout.frame_width(), layout.frame_height());
        let full: Vec<Frame> = (0..2u32)
            .map(|f| {
                let mut frame = Frame::black(w, h);
                for plane in tasm_video::Plane::ALL {
                    let pw = frame.plane_width(plane);
                    for (i, s) in frame.plane_mut(plane).iter_mut().enumerate() {
                        let (x, y) = (i as u32 % pw, i as u32 / pw);
                        *s = (x * 7 + y * 13 + f * 101 + plane as u32 * 29) as u8 | 1;
                    }
                }
                frame
            })
            .collect();
        let manifest = VideoManifest {
            name: "v".to_string(),
            width: w,
            height: h,
            frame_count: 2,
            fps: 30,
            config: crate::storage::StorageConfig::default(),
            sots: vec![crate::storage::SotEntry {
                start: 0,
                end: 2,
                layout: layout.clone(),
                retile_count: 0,
                tile_codecs: vec![0; layout.tile_count() as usize],
            }],
        };
        (manifest, full)
    }

    /// Composes `regions` in canvases from `pool`, handing the composer
    /// every tile of both frames but `missing`.
    fn compose(
        pool: &CanvasPool,
        manifest: &VideoManifest,
        full: &[Frame],
        regions: &BTreeMap<u32, Vec<Rect>>,
        missing: Option<u32>,
    ) -> Result<Vec<RegionPixels>, ScanError> {
        let plan = ReadPlan::new(manifest, regions, 0..2);
        let mut composer = Composer::new(pool, manifest, &plan);
        for (tile, rect) in manifest.sots[0].layout.tiles() {
            for (local, frame) in full.iter().enumerate() {
                if Some(tile) != missing {
                    composer.compose(0, tile, local as u32, &frame.crop(rect));
                }
            }
        }
        composer.finish()
    }

    /// A pool holding an earlier answer: canvases of assorted sizes, every
    /// sample 0 (no decoded sample is even, none is black).
    fn used_pool() -> CanvasPool {
        let pool = CanvasPool::new(1 << 20, "tasm_test_canvas_bytes", "test");
        for (w, h) in [(96, 64), (8, 8), (40, 20), (2, 2), (64, 64), (30, 50)] {
            for _ in 0..8 {
                pool.give(Frame::filled(w, h, 0, 0, 0).into_planes());
            }
        }
        pool
    }

    fn layouts() -> Vec<TileLayout> {
        vec![
            TileLayout::untiled(96, 64),
            TileLayout::uniform(96, 64, 2, 3).unwrap(),
            TileLayout::new(vec![16, 64, 16], vec![48, 16]).unwrap(),
        ]
    }

    /// Every region composed in a used buffer equals the crop of the full
    /// frame: boxes of every parity at every edge, inside the frame, on its
    /// right and bottom edges and overhanging them.
    #[test]
    fn regions_composed_in_used_canvases_equal_the_frames_crop() {
        for layout in layouts() {
            let (manifest, full) = one_sot(&layout);
            let pool = used_pool();
            let mut boxes = Vec::new();
            for (x, w) in [
                (0, 1),
                (0, 96),
                (15, 2),
                (15, 18),
                (31, 49),
                (80, 16),
                (95, 1),
                (90, 40),
            ] {
                for (y, h) in [(0, 64), (0, 1), (47, 2), (33, 30), (63, 1), (60, 99)] {
                    boxes.push(Rect::new(x, y, w, h));
                }
            }
            let regions: BTreeMap<u32, Vec<Rect>> = (0..2).map(|f| (f, boxes.clone())).collect();
            let out = compose(&pool, &manifest, &full, &regions, None).unwrap();
            assert_eq!(out.len(), 2 * boxes.len());
            for region in &out {
                let aligned = align_out(&region.rect, 96, 64);
                let want = full[region.frame as usize].crop(aligned);
                assert_eq!(region.pixels, want, "{layout:?} {:?}", region.rect);
            }
            // A second answer built in the first one's canvases.
            recycle_canvases(&pool, out);
            for region in compose(&pool, &manifest, &full, &regions, None).unwrap() {
                let aligned = align_out(&region.rect, 96, 64);
                assert_eq!(region.pixels, full[region.frame as usize].crop(aligned));
            }
        }
    }

    /// A canvas a tile under it never reached is an error that names the
    /// region, not a region with stale or black samples.
    #[test]
    fn a_canvas_its_tiles_do_not_cover_is_an_error() {
        let layout = TileLayout::uniform(96, 64, 2, 3).unwrap();
        let (manifest, full) = one_sot(&layout);
        let hole = layout.tile_rect_by_index(4);
        let regions = BTreeMap::from([(1, vec![Rect::new(10, 10, 4, 4), hole])]);
        let got = compose(&used_pool(), &manifest, &full, &regions, Some(4));
        assert!(
            matches!(
                got,
                Err(ScanError::Uncovered { frame: 1, rect, covered: 0, area })
                    if rect == hole && area == hole.area()
            ),
            "{got:?}"
        );
    }

    /// A tile whose container does not fit its slot in the layout (here
    /// 64×48 where the untiled layout has 128×96) fails the answer with a
    /// typed error: scan and query serve no pixel, where a region would
    /// otherwise hold the part the tile covers and black beyond it.
    #[test]
    fn a_tile_that_does_not_fit_its_slot_fails_the_answer() {
        use crate::scratch::{car_source, car_truth, Scratch};
        use crate::{Query, Tasm, TasmError};
        let tasm: Scratch<Tasm> = Scratch::tasm("scan-misfit");
        let src = car_source(10);
        tasm.ingest("v", &src, 30).unwrap();
        // The car lies inside the misfit tile; the second box reaches past
        // it.
        for f in 0..10 {
            for (label, bbox) in car_truth(f) {
                tasm.add_metadata("v", label, f, bbox).unwrap();
            }
            tasm.add_metadata("v", "car", f, Rect::new(48, 40, 40, 32))
                .unwrap();
        }
        let car = LabelPredicate::label("car");
        let small: Vec<Frame> = (src.frames().iter())
            .map(|f| f.crop(Rect::new(0, 0, 64, 48)))
            .collect();
        let cfg = tasm_codec::EncoderConfig {
            gop_len: 5,
            ..Default::default()
        };
        let small = tasm_video::VecFrameSource::new(small);
        let layout = TileLayout::untiled(64, 48);
        let (tiles, _) = tasm_codec::encode_video(&small, &layout, &cfg).unwrap();
        let pack = crate::pack::assemble(std::iter::once(tiles[0].as_bytes()));
        let path = tasm
            .store()
            .root()
            .join("v")
            .join("sot_000000_000010.tiles");
        std::fs::write(path, pack).unwrap();
        let misfit = |got: Result<ScanResult, TasmError>| match got {
            Err(TasmError::Scan(ScanError::Store(StoreError::TileMismatch {
                sot_start: 0,
                tile: 0,
                detail,
            }))) => assert!(detail.contains("64x48"), "{detail}"),
            other => panic!("a misfit tile answered {other:?}"),
        };
        misfit(tasm.scan("v", &car, 0..10));
        misfit(tasm.query("v", &Query::new(car.clone())));
    }

    // Full end-to-end scan tests (with real encoded tiles) live in
    // tests/end_to_end.rs at the workspace level.
}
