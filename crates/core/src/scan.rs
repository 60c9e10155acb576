//! The `Scan` access method (§3.1).
//!
//! `Scan(video, L, T)` retrieves the pixels satisfying a CNF predicate `L`
//! over object labels, optionally restricted to a time range `T`. For each
//! disjunctive clause TASM retrieves pixels inside boxes of *any* of its
//! labels; conjunctions intersect the clauses' regions ("red cars" = boxes
//! labelled car ∩ boxes labelled red).
//!
//! Execution: look up boxes in the semantic index, map them to the tiles of
//! each overlapping SOT, decode only those tiles, and crop the requested
//! regions. Reported stats include the index lookup time and the decode
//! work, as the paper's reported query times do.

use crate::cost::Work;
use crate::exec::{self, CacheStats, DecodedTile, PlanStats, SharedScanStats, TileDecodeRequest};
use crate::pool::CanvasPool;
use crate::storage::{StoreError, VideoManifest, VideoStore};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::time::{Duration, Instant};
use tasm_codec::DecodeStats;
use tasm_index::{IndexResult, SemanticIndex};
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
        // Conjunction: fold clause regions by intersection. Small frames use
        // direct pairwise tests; larger box sets go through the spatial grid
        // the paper proposes for conjunctive predicates (§3.2).
        let mut iter = per_clause.into_iter();
        let Some(mut acc) = iter.next() else {
            return Ok(BTreeMap::new());
        };
        for clause in iter {
            let mut next: BTreeMap<u32, Vec<Rect>> = BTreeMap::new();
            for (frame, lhs) in &acc {
                if let Some(rhs) = clause.get(frame) {
                    let regions = intersect_box_sets(lhs, rhs);
                    if !regions.is_empty() {
                        next.insert(*frame, regions);
                    }
                }
            }
            acc = next;
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

/// Result of a `Scan` (or [`crate::Tasm::query`]) call.
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
    /// Wall-clock time of the decode execution phase. With `workers > 1`
    /// this is *elapsed* time, not the sum of per-worker decode times —
    /// `stats.decode_time` holds that sum (the cost model's work measure).
    pub exec_time: Duration,
    /// Tiles-and-pixels estimate actually incurred (for cost-model
    /// validation): mirrors `stats` in estimator units.
    pub work: Work,
}

impl ScanResult {
    /// Total wall-clock seconds (lookup + decode execution), the paper's
    /// reported query time. Parallel decode shortens this without changing
    /// `stats` — query latency and decode work are separate quantities.
    pub fn seconds(&self) -> f64 {
        self.lookup_time.as_secs_f64() + self.exec_time.as_secs_f64()
    }

    /// Runs `requests` through the exec pipeline and adds what they cost —
    /// wall time, decode work, cache and shared-scan accounting — to this
    /// result: the tail [`scan_prepared`] and the query planner share.
    pub(crate) fn execute(
        &mut self,
        store: &VideoStore,
        manifest: &VideoManifest,
        requests: &[TileDecodeRequest],
    ) -> Result<Vec<DecodedTile>, ScanError> {
        let t1 = Instant::now();
        let (decoded, stats, cache, shared) =
            exec::execute(store, manifest, requests).map_err(ScanError::Store)?;
        self.exec_time = t1.elapsed();
        self.stats += stats;
        self.cache += cache;
        self.shared += shared;
        self.work.pixels += stats.samples_decoded;
        self.work.tile_chunks += stats.tile_chunks_decoded;
        Ok(decoded)
    }
}

/// The decode half of [`crate::Tasm::scan`]: executes against
/// already-resolved target regions, so the caller can release the
/// semantic-index lock after the lookup phase — decode work then runs
/// without serializing concurrent queries on the index.
pub fn scan_prepared(
    store: &VideoStore,
    manifest: &VideoManifest,
    regions: BTreeMap<u32, Vec<Rect>>,
    frames: Range<u32>,
    lookup_time: Duration,
) -> Result<ScanResult, ScanError> {
    let mut result = ScanResult {
        lookup_time,
        epoch: manifest.epoch(),
        ..Default::default()
    };
    if regions.is_empty() {
        return Ok(result);
    }

    // --- Planning: reduce the query to per-(SOT, tile) decode requests ---
    let mut sot_plans: Vec<usize> = Vec::new();
    let mut requests: Vec<TileDecodeRequest> = Vec::new();
    for sot_idx in manifest.sots_for_range(frames.clone()) {
        let sot = &manifest.sots[sot_idx];
        // Needed tiles for this SOT (BTreeSet: dedup + sorted raster order).
        let mut needed: BTreeSet<u32> = BTreeSet::new();
        let mut first_frame = u32::MAX;
        let mut last_frame = 0u32;
        for (&frame, rects) in regions.range(sot.start..sot.end) {
            for r in rects {
                needed.extend(sot.layout.tiles_intersecting(r));
            }
            first_frame = first_frame.min(frame);
            last_frame = last_frame.max(frame);
        }
        if needed.is_empty() {
            continue;
        }
        let local = (first_frame - sot.start)..(last_frame - sot.start + 1);
        result.plan.tiles_planned += needed.len() as u64;
        result.plan.gops_planned +=
            needed.len() as u64 * gop_count(&local, manifest.config.gop_len);
        requests.extend(needed.into_iter().map(|tile| TileDecodeRequest {
            sot_idx,
            tile,
            local_span: local.clone(),
        }));
        sot_plans.push(sot_idx);
    }
    result.plan.frames_sampled = regions.len() as u64;
    if requests.is_empty() {
        return Ok(result);
    }

    // --- Execution: fan the requests out across the store's workers ---
    let decoded = result.execute(store, manifest, &requests)?;
    result.regions = reassemble(store.canvases(), manifest, &regions, sot_plans, &decoded);
    result.matched = result.regions.len() as u64;
    Ok(result)
}

/// Reassembly, for scan and query alike: crops each region of the listed
/// SOTs from that SOT's decoded tiles. `decoded` may hold several pieces
/// per (SOT, tile), one per run of GOPs a pruned plan kept.
///
/// Canvases are built in spare buffers from `canvases`
/// ([`recycle_canvases`] returns them), which still hold an earlier
/// answer's pixels: a canvas is handed out only once its blits have covered
/// every sample. The tiles of a layout are disjoint, so that is so exactly
/// when the areas copied add up to the canvas — always, while layouts cover
/// the frame and decoded tiles have their slot's size (aligning a box grows
/// it by at most one pixel to an even edge and tile edges are even, so it
/// reaches no tile the box did not) — and a canvas that falls short starts
/// over from black, as every canvas once did.
pub(crate) fn reassemble(
    canvases: &CanvasPool,
    manifest: &VideoManifest,
    regions: &BTreeMap<u32, Vec<Rect>>,
    sots: impl IntoIterator<Item = usize>,
    decoded: &[DecodedTile],
) -> Vec<RegionPixels> {
    let mut by_tile: HashMap<(usize, u32), Vec<&DecodedTile>> = HashMap::new();
    for d in decoded {
        by_tile.entry((d.sot_idx, d.tile)).or_default().push(d);
    }
    let mut out = Vec::new();
    for sot_idx in sots {
        let sot = &manifest.sots[sot_idx];
        for (&frame, rects) in regions.range(sot.start..sot.end) {
            let local_idx = frame - sot.start;
            for r in rects {
                let aligned = align_out(r, manifest.width, manifest.height);
                if aligned.is_empty() {
                    continue;
                }
                // Blits every decoded tile under the region; the area copied.
                let compose = |canvas: &mut Frame| -> u64 {
                    let tiles = sot.layout.tiles_intersecting(&aligned).into_iter();
                    tiles
                        .filter_map(|t| {
                            let tile_frame = by_tile.get(&(sot_idx, t))?.iter().find_map(|d| {
                                (d.local_start <= local_idx
                                    && local_idx - d.local_start < d.frames.len() as u32)
                                    .then(|| d.frame_at(local_idx))
                            })?;
                            let trect = sot.layout.tile_rect_by_index(t);
                            Some(blit_tile_overlap(canvas, tile_frame, &trect, &aligned))
                        })
                        .sum()
                };
                let spare = canvases.take(aligned.area() as usize * 3 / 2);
                let mut canvas = canvas_in(aligned.w, aligned.h, spare);
                if compose(&mut canvas) != aligned.area() {
                    canvas = Frame::black(aligned.w, aligned.h);
                    compose(&mut canvas);
                }
                out.push(RegionPixels {
                    frame,
                    rect: *r,
                    pixels: canvas,
                });
            }
        }
    }
    out
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

/// Gives finished regions' canvases back to the pool reassembly draws from
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

/// Number of GOPs a local frame span touches.
pub(crate) fn gop_count(span: &Range<u32>, gop_len: u32) -> u64 {
    if span.is_empty() {
        return 0;
    }
    let first = span.start / gop_len;
    let last = (span.end - 1) / gop_len;
    (last - first + 1) as u64
}

/// Errors from scan execution.
#[derive(Debug)]
pub enum ScanError {
    /// Semantic index failure.
    Index(tasm_index::TreeError),
    /// Storage failure.
    Store(StoreError),
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::Index(e) => write!(f, "scan index error: {e}"),
            ScanError::Store(e) => write!(f, "scan store error: {e}"),
        }
    }
}

impl std::error::Error for ScanError {}

/// Pairwise intersections between two box sets. Beyond a small size product
/// the spatial grid of `tasm-index` prunes the candidate pairs.
fn intersect_box_sets(lhs: &[Rect], rhs: &[Rect]) -> Vec<Rect> {
    const GRID_THRESHOLD: usize = 64;
    if lhs.len() * rhs.len() <= GRID_THRESHOLD {
        let mut out = Vec::new();
        for a in lhs {
            for b in rhs {
                if let Some(i) = a.intersect(b) {
                    out.push(i);
                }
            }
        }
        return out;
    }
    let hull = Rect::hull(lhs.iter().chain(rhs));
    let grid =
        tasm_index::SpatialGrid::from_boxes(hull.right().max(64), hull.bottom().max(64), lhs);
    let mut out = Vec::new();
    for b in rhs {
        out.extend(grid.intersections(b));
    }
    out
}

/// Aligns a rectangle outward to even coordinates (chroma parity), clamped
/// to the frame.
pub(crate) fn align_out(r: &Rect, w: u32, h: u32) -> Rect {
    let x = r.x & !1;
    let y = r.y & !1;
    let right = (r.right() + 1) & !1;
    let bottom = (r.bottom() + 1) & !1;
    Rect::new(x, y, right - x, bottom - y).clamp_to(w, h)
}

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
    use std::sync::Arc;
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

    /// A 96×64 video of one two-frame SOT, its decoded tiles under
    /// `layout` (each sample a function of its frame position, so a
    /// misplaced or missing pixel shows), and the full frames they tile.
    fn decoded_sot(layout: &TileLayout) -> (VideoManifest, Vec<DecodedTile>, Vec<Frame>) {
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
        let decoded = layout
            .tiles()
            .map(|(tile, rect)| DecodedTile {
                sot_idx: 0,
                tile,
                local_start: 0,
                frames: full.iter().map(|f| Arc::new(f.crop(rect))).collect(),
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
        (manifest, decoded, full)
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
            let (manifest, decoded, full) = decoded_sot(&layout);
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
            let out = reassemble(&pool, &manifest, &regions, [0], &decoded);
            assert_eq!(out.len(), 2 * boxes.len());
            for region in &out {
                let aligned = align_out(&region.rect, 96, 64);
                let want = full[region.frame as usize].crop(aligned);
                assert_eq!(region.pixels, want, "{layout:?} {:?}", region.rect);
            }
            // A second answer built in the first one's canvases.
            recycle_canvases(&pool, out);
            for region in reassemble(&pool, &manifest, &regions, [0], &decoded) {
                let aligned = align_out(&region.rect, 96, 64);
                assert_eq!(region.pixels, full[region.frame as usize].crop(aligned));
            }
        }
    }

    /// Where no decoded tile lies under a region, a canvas is black there,
    /// used buffer or not, as a fresh canvas would be.
    #[test]
    fn a_canvas_its_tiles_do_not_cover_starts_from_black() {
        let layout = TileLayout::uniform(96, 64, 2, 3).unwrap();
        let (manifest, mut decoded, full) = decoded_sot(&layout);
        decoded.retain(|d| d.tile != 4);
        let hole = layout.tile_rect_by_index(4);
        let regions = BTreeMap::from([(1, vec![Rect::new(10, 10, 70, 50), hole])]);
        let out = reassemble(&used_pool(), &manifest, &regions, [0], &decoded);
        for region in &out {
            let aligned = align_out(&region.rect, 96, 64);
            let mut want = full[1].crop(aligned);
            let inside = hole.intersect(&aligned).unwrap();
            want.fill_rect(
                Rect::new(
                    inside.x - aligned.x,
                    inside.y - aligned.y,
                    inside.w,
                    inside.h,
                ),
                16,
                128,
                128,
            );
            assert_eq!(region.pixels, want, "{:?}", region.rect);
        }
        assert_eq!(out[1].pixels, Frame::black(hole.w, hole.h));
    }

    // Full end-to-end scan tests (with real encoded tiles) live in
    // tests/end_to_end.rs at the workspace level.
}
