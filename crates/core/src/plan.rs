//! The read plan: `Scan` (§3.1) maps each box to the tiles of its SOT and
//! decodes only those, and [`ReadPlan`] is that mapping, made once. A box
//! touches the tiles of its rectangle aligned outward to even edges
//! ([`box_tiles`]), the rectangle its canvas covers. A query, and so a
//! scan (the label-only query), reads the GOP runs of a plan of the boxes
//! it keeps ([`ReadPlan::gop_reads`]) and derives its [`PlanStats`] against
//! the unfiltered plan read over its span ([`ReadPlan::stats`]). The cost
//! model prices a query under a candidate layout as the decode work of
//! those GOP runs ([`ReadPlan::for_layout`], [`ReadPlan::work`]).

use crate::cost::Work;
use crate::exec::{PlanStats, TileDecodeRequest};
use crate::storage::VideoManifest;
use std::collections::BTreeMap;
use std::ops::Range;
use tasm_codec::TileLayout;
use tasm_video::Rect;

/// One region of the answer: a box whose aligned rectangle is not empty.
#[derive(Debug)]
pub(crate) struct Slot {
    pub frame: u32,
    /// The box as the predicate gave it.
    pub rect: Rect,
    /// `rect` aligned outward and clamped to the frame: its canvas.
    pub aligned: Rect,
}

/// What one SOT reads.
struct SotReads<'a> {
    sot_idx: usize,
    layout: &'a TileLayout,
    /// Local frames from the first with a box to the last, any box.
    span: Range<u32>,
    /// Per tile, the local frames whose boxes touch it, ascending.
    frames: Vec<Vec<u32>>,
}

impl SotReads<'_> {
    /// The tiles read, ascending, with their frames.
    fn tiles(&self) -> impl Iterator<Item = (u32, &[u32])> {
        let tiles = (0u32..).zip(&self.frames);
        tiles.filter_map(|(t, f)| (!f.is_empty()).then_some((t, &f[..])))
    }
}

/// The tiles a set of boxes reads, and the regions it composes.
#[derive(Default)]
pub(crate) struct ReadPlan<'a> {
    /// Each SOT with a tile to read, ascending.
    sots: Vec<SotReads<'a>>,
    /// In output order: frame, then box.
    pub slots: Vec<Slot>,
}

impl<'a> ReadPlan<'a> {
    /// Plans `regions` (frame → boxes) on the SOTs overlapping `frames`.
    pub(crate) fn new(
        manifest: &'a VideoManifest,
        regions: &BTreeMap<u32, Vec<Rect>>,
        frames: Range<u32>,
    ) -> Self {
        let mut plan = ReadPlan::default();
        for sot_idx in manifest.sots_for_range(frames) {
            let (sot, size) = (&manifest.sots[sot_idx], (manifest.width, manifest.height));
            let mut one = ReadPlan::for_layout(sot.start, sot.frames(), &sot.layout, size, regions);
            for reads in &mut one.sots {
                reads.sot_idx = sot_idx;
            }
            plan.sots.append(&mut one.sots);
            plan.slots.append(&mut one.slots);
        }
        plan
    }

    /// Plans the boxes of `regions` on `frames` as the SOT that starts at
    /// `sot_start` reads them under `layout` of a `w`×`h` frame, whatever
    /// layout the SOT has: the plan's one SOT is SOT 0.
    pub(crate) fn for_layout(
        sot_start: u32,
        frames: Range<u32>,
        layout: &'a TileLayout,
        (w, h): (u32, u32),
        regions: &BTreeMap<u32, Vec<Rect>>,
    ) -> Self {
        let mut plan = ReadPlan::default();
        let mut boxes = regions.range(frames).peekable();
        let Some((&first, _)) = boxes.peek() else {
            return plan;
        };
        let mut reads = SotReads {
            sot_idx: 0,
            layout,
            span: first - sot_start..first - sot_start,
            frames: vec![Vec::new(); layout.tile_count() as usize],
        };
        for (&frame, rects) in boxes {
            let local = frame - sot_start;
            reads.span.end = local + 1;
            for &rect in rects {
                let (aligned, tiles) = box_tiles(layout, &rect, w, h);
                for t in tiles {
                    let frames = &mut reads.frames[t as usize];
                    if frames.last() != Some(&local) {
                        frames.push(local);
                    }
                }
                if !aligned.is_empty() {
                    plan.slots.push(Slot {
                        frame,
                        rect,
                        aligned,
                    });
                }
            }
        }
        if reads.tiles().next().is_some() {
            plan.sots.push(reads);
        }
        plan
    }

    /// Per planned tile, one read per run of consecutive GOPs holding a frame
    /// of it, from that run's first such frame to its last: what a scan or
    /// query reads.
    pub(crate) fn gop_reads(&self, gop_len: u32) -> Vec<TileDecodeRequest> {
        let mut reads: Vec<TileDecodeRequest> = Vec::new();
        for sot in &self.sots {
            for (tile, frames) in sot.tiles() {
                let first = reads.len();
                for &f in frames {
                    match reads[first..].last_mut() {
                        Some(run) if f / gop_len <= (run.local_span.end - 1) / gop_len + 1 => {
                            run.local_span.end = f + 1;
                        }
                        _ => reads.push(TileDecodeRequest {
                            sot_idx: sot.sot_idx,
                            tile,
                            local_span: f..f + 1,
                        }),
                    }
                }
            }
        }
        reads
    }

    /// What `reads`, grouped by tile as [`ReadPlan::gop_reads`] emits them,
    /// schedule and cut against the baseline, this plan read over its span:
    /// each of its tiles from its SOT's first box frame to its last.
    /// `frames_sampled` is left to the caller.
    pub(crate) fn stats(&self, reads: &[TileDecodeRequest], gop_len: u32) -> PlanStats {
        let mut stats = PlanStats::default();
        let (mut baseline_gops, mut last) = (0, None);
        for read in reads {
            stats.gops_planned += gop_count(&read.local_span, gop_len);
            if last.replace((read.sot_idx, read.tile)) != Some((read.sot_idx, read.tile)) {
                stats.tiles_planned += 1;
                let sot = self.sots.binary_search_by_key(&read.sot_idx, |s| s.sot_idx);
                let sot = &self.sots[sot.expect("reads lie inside the baseline")];
                baseline_gops += gop_count(&sot.span, gop_len);
            }
        }
        let tiles = self.sots.iter().map(|s| s.tiles().count() as u64);
        stats.tiles_pruned = tiles.sum::<u64>() - stats.tiles_planned;
        stats.gops_skipped = baseline_gops - stats.gops_planned;
        stats
    }

    /// What [`ReadPlan::gop_reads`] decode on a store without a cache:
    /// each read's tile from the keyframe at or before its first frame (a
    /// GOP boundary, as every SOT starts on one) through its last.
    pub(crate) fn work(&self, gop_len: u32) -> Work {
        let mut work = Work::default();
        for read in self.gop_reads(gop_len) {
            let sot = self.sots.iter().find(|s| s.sot_idx == read.sot_idx);
            let layout = sot.expect("a plan reads only its SOTs").layout;
            let keyframe = read.local_span.start / gop_len * gop_len;
            let frames = u64::from(read.local_span.end - keyframe);
            // Samples are luma × 3/2: 4:2:0 chroma.
            work.pixels += frames * layout.tile_rect_by_index(read.tile).area() * 3 / 2;
            work.tile_chunks += frames;
        }
        work
    }
}

/// A box's reads under `layout` of a `w`×`h` frame: the box aligned outward
/// and clamped to the frame, and the tiles it meets. Tile edges are even,
/// so a non-empty box meets the same tiles raw, and a zero-width box at an
/// odd coordinate gets the tile under its 2 px alignment.
pub(crate) fn box_tiles(layout: &TileLayout, rect: &Rect, w: u32, h: u32) -> (Rect, Vec<u32>) {
    let aligned = align_out(rect, w, h);
    (aligned, layout.tiles_intersecting(&aligned))
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

/// Number of GOPs a local frame span touches.
pub(crate) fn gop_count(span: &Range<u32>, gop_len: u32) -> u64 {
    if span.is_empty() {
        return 0;
    }
    let first = span.start / gop_len;
    let last = (span.end - 1) / gop_len;
    (last - first + 1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::estimate_work;
    use crate::query::{filter_regions, Query};
    use crate::scan::LabelPredicate;
    use crate::scratch::{car_source, car_truth, Scratch};
    use crate::storage::{SotEntry, StorageConfig};
    use crate::tasm::{Tasm, TasmConfig};
    use proptest::prelude::*;
    use std::path::Path;
    use tasm_index::{Detection, MemoryIndex};
    use tasm_video::{Frame, Plane, VecFrameSource};

    #[test]
    fn gop_run_grouping_counts() {
        assert_eq!(gop_count(&(0..10), 5), 2);
        assert_eq!(gop_count(&(4..6), 5), 2);
        assert_eq!(gop_count(&(5..6), 5), 1);
        assert_eq!(gop_count(&(3..3), 5), 0);
    }

    /// Tile sizes over `units` 16 px units, a new tile starting at unit `i`
    /// where bit `i` of `cuts` is set.
    fn cut(units: u32, cuts: u64) -> Vec<u32> {
        let mut sizes = vec![16];
        for i in 1..units {
            match cuts >> i & 1 {
                1 => sizes.push(16),
                _ => *sizes.last_mut().unwrap() += 16,
            }
        }
        sizes
    }

    /// A 30-frame video of three 10-frame SOTs, each under its own uniform
    /// or non-uniform layout.
    fn arb_manifest() -> impl Strategy<Value = VideoManifest> {
        (2u32..9, 2u32..7, any::<[u64; 3]>(), 1u32..7).prop_map(|(wu, hu, seeds, gop_len)| {
            let (width, height) = (wu * 16, hu * 16);
            let layout = |seed: u64| match seed & 1 {
                0 => {
                    let (rows, cols) = ((seed >> 1) as u32 % hu, (seed >> 8) as u32 % wu);
                    TileLayout::uniform(width, height, 1 + rows, 1 + cols)
                }
                _ => TileLayout::new(cut(wu, seed >> 1), cut(hu, seed >> 20)),
            };
            let sots = (0u32..3).zip(seeds).map(|(i, seed)| SotEntry {
                start: i * 10,
                end: i * 10 + 10,
                layout: layout(seed).unwrap(),
                retile_count: 0,
                tile_codecs: Vec::new(),
            });
            let config = StorageConfig {
                gop_len,
                sot_frames: 10,
                ..Default::default()
            };
            let name = "v".to_string();
            let sots = sots.collect();
            VideoManifest {
                name,
                width,
                height,
                frame_count: 30,
                fps: 30,
                config,
                sots,
            }
        })
    }

    /// A box on frames 0..30 whose sides are 0 (a quarter of draws), 1 or
    /// 2, or up to 80 px, placed up to past the largest frame's edge.
    fn arb_box() -> impl Strategy<Value = (u32, Rect)> {
        ((0u32..30, 0u32..160, 0u32..120), any::<u32>()).prop_map(|((frame, x, y), sides)| {
            let side = |s: u32| [0, 1 + s / 4 % 2, s / 4 % 80, s / 4 % 80][s as usize % 4];
            (frame, Rect::new(x, y, side(sides), side(sides >> 16)))
        })
    }

    /// A query with an ROI (or none), a stride and a limit (or none).
    fn arb_query() -> impl Strategy<Value = Query> {
        (
            (0u32..140, 0u32..110, 0u32..90, 0u32..70),
            1u32..5,
            0u32..12,
        )
            .prop_map(|((x, y, w, h), stride, limit)| {
                let q = Query::new(LabelPredicate::label("car")).stride(stride);
                let q = if x % 3 == 0 {
                    q
                } else {
                    q.roi(Rect::new(x, y, w, h))
                };
                if limit < 8 {
                    q.limit(limit)
                } else {
                    q
                }
            })
    }

    /// Every slot of `plan` is covered exactly, at its frame, by the tiles
    /// `reads` read there.
    fn assert_slots_covered(m: &VideoManifest, plan: &ReadPlan, reads: &[TileDecodeRequest]) {
        for slot in &plan.slots {
            let sot_idx = (slot.frame / 10) as usize;
            let (local, layout) = (slot.frame % 10, &m.sots[sot_idx].layout);
            let read = reads
                .iter()
                .filter(|r| r.sot_idx == sot_idx && r.local_span.contains(&local));
            let overlaps =
                read.filter_map(|r| layout.tile_rect_by_index(r.tile).intersect(&slot.aligned));
            let covered: u64 = overlaps.map(|overlap| overlap.area()).sum();
            assert_eq!(covered, slot.aligned.area(), "{slot:?} under {layout:?}");
        }
    }

    /// `reads` lie inside `baseline` read over its span (each of its tiles
    /// over its SOT's span), and their counters against it add up to the
    /// baseline's tiles and, per tile read, the GOPs of that span.
    fn assert_inside_baseline(baseline: &ReadPlan, reads: &[TileDecodeRequest], gop_len: u32) {
        let stats = baseline.stats(reads, gop_len);
        let mut tiles = BTreeMap::new();
        for read in reads {
            let sot = baseline.sots.iter().find(|s| s.sot_idx == read.sot_idx);
            let sot = sot.expect("a read lies in a SOT of the baseline");
            assert!(!sot.frames[read.tile as usize].is_empty(), "{read:?}");
            assert!(sot.span.start <= read.local_span.start, "{read:?}");
            assert!(read.local_span.end <= sot.span.end, "{read:?}");
            tiles.insert((read.sot_idx, read.tile), gop_count(&sot.span, gop_len));
        }
        let baseline_tiles: u64 = baseline.sots.iter().map(|s| s.tiles().count() as u64).sum();
        let baseline_gops: u64 = tiles.values().sum();
        assert_eq!(stats.tiles_planned, tiles.len() as u64);
        assert_eq!(stats.tiles_planned + stats.tiles_pruned, baseline_tiles);
        assert_eq!(stats.gops_planned + stats.gops_skipped, baseline_gops);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The label-only plan (the baseline) and a query's pruned plan
        /// each read, at every frame, the tiles that cover each of its
        /// non-empty aligned boxes, inside the baseline read over its span;
        /// the label-only read prunes no tile.
        #[test]
        fn plans_cover_their_boxes_and_prune_inside_the_baseline(
            m in arb_manifest(),
            boxes in proptest::collection::vec(arb_box(), 0..40),
            window in (0u32..20, 5u32..40),
            query in arb_query(),
        ) {
            let frames = window.0.min(window.1)..window.0.max(window.1).min(30);
            let mut regions: BTreeMap<u32, Vec<Rect>> = BTreeMap::new();
            for (f, r) in boxes.iter().filter(|(f, _)| frames.contains(f)) {
                regions.entry(*f).or_default().push(*r);
            }
            let gop_len = m.config.gop_len;
            let baseline = ReadPlan::new(&m, &regions, frames.clone());
            let label_only = baseline.gop_reads(gop_len);
            let aligned = regions.values().flatten().map(|r| align_out(r, m.width, m.height));
            prop_assert_eq!(baseline.slots.len(), aligned.filter(|a| !a.is_empty()).count());
            assert_slots_covered(&m, &baseline, &label_only);
            assert_inside_baseline(&baseline, &label_only, gop_len);
            prop_assert_eq!(baseline.stats(&label_only, gop_len).tiles_pruned, 0);

            let mut kept = regions.clone();
            filter_regions(&mut kept, &m, &query, &frames);
            let plan = ReadPlan::new(&m, &kept, frames.clone());
            let reads = plan.gop_reads(gop_len);
            prop_assert_eq!(plan.slots.len(), kept.values().map(Vec::len).sum::<usize>());
            assert_slots_covered(&m, &plan, &reads);
            if plan.slots.len() == baseline.slots.len() {
                // Every box that makes a region kept: the query reads the
                // baseline's plan instead.
                prop_assert_eq!(&reads, &label_only);
            }
            assert_inside_baseline(&baseline, &reads, gop_len);
        }
    }

    /// Frames in each store [`work_case`] describes, each 64×48 (4×3
    /// tile units).
    const WORK_FRAMES: u32 = 40;

    /// A store with GOPs of 1, 5, 10 or 30 frames and SOTs of one or two
    /// GOPs (at most 30 frames), each SOT under its own uniform or
    /// non-uniform layout, and "car" tracks of 1 to 12 frames, so boxes on
    /// a single frame and gaps longer than a GOP both come up.
    fn work_case() -> impl Strategy<Value = (u32, u32, Vec<u64>, Vec<(u32, Rect)>)> {
        let track = (
            0..WORK_FRAMES,
            1u32..13,
            (0u32..64, 0u32..52),
            (0u32..40, 0u32..30),
        );
        let tracks = proptest::collection::vec(track, 1..10);
        let (gops, seeds) = (0usize..4, proptest::collection::vec(any::<u64>(), 40..41));
        ((gops, 1u32..3), seeds, tracks).prop_map(|((g, m), seeds, tracks)| {
            let gop_len = [1, 5, 10, 30][g];
            // 30 is a multiple of every GOP drawn.
            let sot_frames = (gop_len * m).min(30);
            let boxes = tracks.into_iter().flat_map(|(start, len, (x, y), (w, h))| {
                let frames = start..(start + len).min(WORK_FRAMES);
                frames.map(move |f| (f, Rect::new(x + f % 8, y, w, h)))
            });
            (gop_len, sot_frames, seeds, boxes.collect())
        })
    }

    /// A store at `dir` that decodes on `workers` threads with no cache.
    fn open_uncached(dir: &Path, gop_len: u32, sot_frames: u32, workers: usize) -> Tasm {
        let mut cfg = TasmConfig {
            workers,
            cache_bytes: 0,
            ..TasmConfig::default()
        };
        let storage = &mut cfg.storage;
        (storage.gop_len, storage.sot_frames, storage.parallel_encode) =
            (gop_len, sot_frames, false);
        Tasm::open(dir, Box::new(MemoryIndex::in_memory()), cfg).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The cost model prices what a query decodes: per SOT, the work
        /// `estimate_work` predicts for the label-only query's boxes under
        /// that SOT's layout sums to the samples and chunks `Tasm::query`
        /// decodes without a cache, on one worker and on two,
        /// `Tasm::price` counts the same without decoding, and
        /// `Tasm::scan` of the same window decodes it too.
        #[test]
        fn estimated_work_is_what_an_uncached_query_decodes(
            case in work_case(),
            window in (0u32..45, 0u32..45),
        ) {
            let (gop_len, sot_frames, seeds, boxes) = case;
            let frames = window.0.min(window.1)..window.0.max(window.1);
            let layout = |seed: u64| match seed & 1 {
                0 => TileLayout::uniform(64, 48, 1 + (seed >> 1) as u32 % 3, 1 + (seed >> 8) as u32 % 4),
                _ => TileLayout::new(cut(4, seed >> 1), cut(3, seed >> 20)),
            };
            let layouts: Vec<TileLayout> = seeds.iter().map(|&s| layout(s).unwrap()).collect();
            let mut predicted = Work::default();
            for (sot_idx, start) in (0..WORK_FRAMES).step_by(sot_frames as usize).enumerate() {
                let end = (start + sot_frames).min(WORK_FRAMES);
                let window = frames.start.max(start)..frames.end.min(end);
                let in_window = boxes.iter().filter(|(f, _)| window.contains(f));
                let dets: Vec<Detection> =
                    in_window.map(|&(frame, bbox)| Detection { frame, bbox }).collect();
                if !window.is_empty() {
                    let work = estimate_work(&layouts[sot_idx], &dets, window, start, gop_len);
                    predicted.pixels += work.pixels;
                    predicted.tile_chunks += work.tile_chunks;
                }
            }

            let src = VecFrameSource::new((0..WORK_FRAMES).map(|i| {
                let mut f = Frame::filled(64, 48, 90, 128, 128);
                f.set_sample(Plane::Y, i % 64, i % 48, 200);
                f
            }).collect());
            let dir = Scratch::open("plan-work", |dir| dir);
            let query = Query::new(LabelPredicate::label("car")).frames(frames.clone());
            for workers in [1, 2] {
                let tasm = open_uncached(&dir, gop_len, sot_frames, workers);
                if workers == 1 {
                    tasm.ingest_with("v", &src, 30, |i, _| layouts[i].clone()).unwrap();
                } else {
                    tasm.attach("v").unwrap();
                }
                for &(frame, bbox) in &boxes {
                    tasm.add_metadata("v", "car", frame, bbox).unwrap();
                }
                let decoded = Work::from(&tasm.query("v", &query).unwrap().stats);
                let case = format!("GOP {gop_len}, SOT {sot_frames}, frames {frames:?}, {boxes:?}");
                let price = tasm.price("v", &query).unwrap();
                prop_assert_eq!(price, decoded, "{} workers: {}", workers, &case);
                let scanned = tasm.scan("v", query.predicate(), frames.clone()).unwrap();
                prop_assert_eq!(Work::from(&scanned.stats), price, "scan, {} workers: {}", workers, &case);
                prop_assert_eq!(decoded, predicted, "{} workers: {}", workers, case);
            }
        }
    }

    /// A warm decoded-GOP cache cuts what a query decodes, never its price:
    /// `Tasm::price` counts the plan's reads as an uncached query decodes
    /// them.
    #[test]
    fn price_is_unchanged_on_a_warm_cache() {
        let tasm = Scratch::tasm("plan-price-warm");
        tasm.ingest("v", &car_source(30), 30).unwrap();
        tasm.retile("v", 1, TileLayout::uniform(128, 96, 2, 2).unwrap())
            .unwrap();
        for f in 0..30 {
            for (label, rect) in car_truth(f) {
                tasm.add_metadata("v", label, f, rect).unwrap();
            }
        }
        let query = Query::new(LabelPredicate::label("car")).frames(3..27);
        let cold = tasm.price("v", &query).unwrap();
        let first = tasm.query("v", &query).unwrap();
        assert_eq!(Work::from(&first.stats), cold);
        let warm = tasm.query("v", &query).unwrap();
        assert!(warm.cache.hits > 0, "{:?}", warm.cache);
        assert!(warm.stats.samples_decoded < first.stats.samples_decoded);
        assert_eq!(tasm.price("v", &query).unwrap(), cold);
    }
}
