//! The one reference outside the executor: what a [`Query`] owes at a
//! pinned layout epoch, computed from the semantic index and whole-tile
//! decodes alone.
//!
//! The contract (§3.1's `Scan`, §4.4's "a layout changes what a query
//! costs, never what it returns") is that a query returns the post-filtered
//! whole-frame read at its epoch. [`Reference`] computes exactly that, the
//! long way round:
//!
//! * **Boxes**: each clause of the predicate is the union of its labels'
//!   boxes from
//!   [`SemanticIndex::query`](tasm_index::SemanticIndex::query), in label
//!   order; clauses are
//!   intersected pairwise, left box major.
//! * **Filtering**: boxes whose rectangle is empty once aligned outward to
//!   even edges and clamped to the frame make no region; then the ROI keeps
//!   boxes whose raw rectangle meets it, the stride keeps frames on it
//!   (anchored at the window's start), and the limit keeps the first `k`
//!   frames with a box left.
//! * **Pixels**: each region is the crop, over its aligned rectangle, of its
//!   frame stitched from every tile of its SOT read with
//!   [`VideoStore::read_tile`](tasm_core::VideoStore::read_tile) and
//!   decoded whole.
//!
//! It shares the container decode and the index with the system, and
//! nothing above them: no planner, executor, cache or composer. Every
//! pixel check in the suite holds an answer to it.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use tasm_core::{
    EpochPin, LabelPredicate, Query, QueryMode, RegionPixels, ScanResult, Tasm, VideoManifest,
};
use tasm_video::{Frame, Rect};

/// What a query owes.
#[derive(Debug)]
pub struct Expected {
    /// Boxes matching the predicate, window, ROI, stride and limit.
    pub matched: u64,
    /// Their pixels, frame by frame in box order; empty for the aggregate
    /// modes.
    pub regions: Vec<RegionPixels>,
}

impl Expected {
    /// Asserts an answer's match count and regions, bit for bit, naming the
    /// first difference and `what`.
    pub fn check(&self, matched: u64, regions: &[RegionPixels], what: &str) {
        assert_eq!(matched, self.matched, "{what}: matched");
        crate::assert_regions_identical(&self.regions, regions, what);
    }
}

/// The reference of one store. Frames stitched for one (video, epoch, SOT)
/// are kept for the next answer.
pub struct Reference {
    tasm: Arc<Tasm>,
    stitched: HashMap<(String, u64, usize), Vec<Frame>>,
}

impl Reference {
    /// The reference of `tasm`'s videos.
    pub fn new(tasm: &Arc<Tasm>) -> Self {
        Reference {
            tasm: Arc::clone(tasm),
            stitched: HashMap::new(),
        }
    }

    /// What `query` owes at `pin`'s epoch, of the video `pin` holds. The
    /// query's `AS OF` is not read: the pin names the epoch.
    pub fn answer(&mut self, pin: &EpochPin, query: &Query) -> Expected {
        let manifest = pin.manifest();
        let window = query.frame_range();
        let frames = window.start..window.end.min(manifest.frame_count);
        let (w, h) = (manifest.width, manifest.height);
        let roi = query.roi_rect();
        let mut kept: Vec<(u32, Rect)> = self
            .boxes(&manifest.name, query.predicate(), frames)
            .into_iter()
            .filter(|(_, r)| !aligned(r, w, h).is_empty())
            .filter(|(_, r)| roi.is_none_or(|roi| r.intersects(&roi)))
            .filter(|(f, _)| (f - window.start).is_multiple_of(query.stride_len()))
            .collect();
        if let Some(limit) = query.limit_count() {
            let mut frames: Vec<u32> = kept.iter().map(|&(f, _)| f).collect();
            frames.dedup();
            if let Some(&cutoff) = frames.get(limit as usize) {
                kept.retain(|&(f, _)| f < cutoff);
            }
        }
        let mut regions = Vec::new();
        if query.query_mode() == QueryMode::Pixels {
            for &(frame, rect) in &kept {
                let pixels = self.frame(pin, frame).crop(aligned(&rect, w, h));
                regions.push(RegionPixels {
                    frame,
                    rect,
                    pixels,
                });
            }
        }
        Expected {
            matched: kept.len() as u64,
            regions,
        }
    }

    /// Holds `got`, `query`'s answer on `video`, to [`Reference::answer`]
    /// at the epoch it executed against, which must still be live.
    pub fn check(&mut self, video: &str, query: &Query, got: &ScanResult, what: &str) {
        let pin = self.tasm.pin_epoch(video, Some(got.epoch));
        let expected = self.answer(&pin.expect("the answer's epoch is live"), query);
        expected.check(got.matched, &got.regions, what);
    }

    /// The predicate's boxes on `frames` of `video`, in frame order.
    fn boxes(&self, video: &str, pred: &LabelPredicate, frames: Range<u32>) -> Vec<(u32, Rect)> {
        let id = self.tasm.video_id(video).expect("a registered video");
        let clause = |labels: &[String]| {
            let mut boxes = Vec::new();
            for label in labels {
                let found = self
                    .tasm
                    .with_index(|ix| ix.query(id, label, frames.clone()));
                for d in found.expect("index query") {
                    boxes.push((d.frame, d.bbox));
                }
            }
            // Stable: a frame's boxes stay in label order.
            boxes.sort_by_key(|&(f, _)| f);
            boxes
        };
        let mut clauses = pred.clauses().iter().map(|c| clause(c));
        let first = clauses.next().unwrap_or_default();
        clauses.fold(first, |lhs, rhs| {
            let meets = |&(f, a): &(u32, Rect)| {
                let on_f = rhs.iter().filter(move |&&(g, _)| g == f);
                on_f.filter_map(move |(_, b)| a.intersect(b).map(|r| (f, r)))
            };
            lhs.iter().flat_map(meets).collect()
        })
    }

    /// Frame `f` of `pin`'s epoch, stitched from its SOT's whole-tile
    /// decodes.
    fn frame(&mut self, pin: &EpochPin, f: u32) -> &Frame {
        let manifest = pin.manifest();
        let sot_idx = (manifest.sots.iter())
            .position(|s| s.frames().contains(&f))
            .expect("a SOT holds every frame");
        let key = (manifest.name.clone(), pin.epoch(), sot_idx);
        let tasm = &self.tasm;
        let frames = self
            .stitched
            .entry(key)
            .or_insert_with(|| stitch(tasm, manifest, sot_idx));
        &frames[(f - manifest.sots[sot_idx].start) as usize]
    }
}

/// Every frame of SOT `sot_idx` of `manifest`, stitched from its tiles'
/// whole decodes.
fn stitch(tasm: &Tasm, manifest: &VideoManifest, sot_idx: usize) -> Vec<Frame> {
    let sot = &manifest.sots[sot_idx];
    let mut frames = vec![Frame::black(manifest.width, manifest.height); sot.len() as usize];
    for (t, rect) in sot.layout.tiles() {
        let tile = tasm
            .store()
            .read_tile(manifest, sot_idx, t)
            .expect("a tile");
        let (decoded, _) = tile.decode_all().expect("a tile's decode");
        assert_eq!(decoded.len(), frames.len(), "tile {t} of SOT {sot_idx}");
        for (frame, part) in frames.iter_mut().zip(&decoded) {
            frame.blit(part, Rect::new(0, 0, rect.w, rect.h), rect.x, rect.y);
        }
    }
    frames
}

/// `r` aligned outward to even coordinates and clamped to a `w`×`h` frame.
fn aligned(r: &Rect, w: u32, h: u32) -> Rect {
    let (x, y) = (r.x & !1, r.y & !1);
    let (right, bottom) = ((r.right() + 1) & !1, (r.bottom() + 1) & !1);
    Rect::new(x, y, right - x, bottom - y).clamp_to(w, h)
}
