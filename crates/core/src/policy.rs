//! The layout policy of §4 — KQKO (§4.2), incremental-more (§5.3) and
//! regret-based re-tiling (§4.4) — as one `impl Tasm` block over one state
//! ([`PolicyState`]), one re-tile loop ([`Tasm::retile_sots`]), one α rule
//! ([`worth_tiling`]) and one switch ([`Tasm::observe`]). The state is soft:
//! in memory only, reset on poison and by a replica install. Its lock comes
//! first in the facade's order (policy → commit → epochs → index), so a
//! decision reads the index and the current manifest, then commits, under
//! it.

use crate::cost::{estimate_work, pixel_ratio, CostModel, EncodeModel};
use crate::partition::partition;
use crate::storage::{RetileStats, SotEntry};
use crate::tasm::{Tasm, TasmError, VideoShard};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use tasm_codec::TileLayout;
use tasm_index::Detection;
use tasm_video::Rect;

/// Which incremental layout policy observes completed queries
/// ([`Tasm::observe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetilePolicy {
    /// No re-tiling.
    Off,
    /// The §4.4 regret policy ([`Tasm::observe_regret`]): accumulate
    /// regret per alternative layout and re-tile once it exceeds
    /// `η · R(s, L)`.
    Regret,
    /// The "incremental, more" policy ([`Tasm::observe_more`]): re-tile as
    /// soon as a query for a new object class arrives.
    More,
}

/// Per-SOT policy state.
#[derive(Debug, Default, Clone)]
struct SotPolicy {
    /// The distinct queries that touched this SOT — (label, frame window ∩
    /// SOT) — in first-seen order, each with its number of observations:
    /// at most labels × windows entries, however many queries were served.
    history: Vec<(String, Range<u32>, u64)>,
    /// Accumulated regret per alternative layout, keyed by the sorted
    /// object subset the layout is designed around.
    regret: BTreeMap<Vec<String>, f64>,
}

impl SotPolicy {
    /// Counts one observation of `(label, window)`; returns its entry.
    fn record(&mut self, label: &str, window: &Range<u32>) -> usize {
        let h = &mut self.history;
        let at = h.iter().position(|(l, w, _)| l == label && w == window);
        let at = at.unwrap_or_else(|| {
            h.push((label.to_string(), window.clone(), 0));
            h.len() - 1
        });
        h[at].2 += 1;
        at
    }
}

/// One video's policy state, behind its shard's policy mutex so the
/// policies of two videos never contend.
#[derive(Debug, Default)]
pub(crate) struct PolicyState {
    /// Objects seen in regret-observed queries so far (the paper's `O_Q'`).
    seen_objects: BTreeSet<String>,
    sots: Vec<SotPolicy>,
}

impl PolicyState {
    pub(crate) fn new(n_sots: usize) -> Self {
        PolicyState {
            seen_objects: BTreeSet::new(),
            sots: vec![SotPolicy::default(); n_sots],
        }
    }

    /// Starts over as a restart would have it (the poison rule).
    pub(crate) fn reset(&mut self) {
        *self = PolicyState::new(self.sots.len());
    }

    /// A commit gave `sot_idx` a new layout: its regret, which was relative
    /// to the old one, starts over.
    pub(crate) fn retiled(&mut self, sot_idx: usize) {
        self.sots[sot_idx].regret.clear();
    }
}

/// The not-tiling threshold α (§3.4.4), the paper's value: a layout must
/// decode at most `α · P(ω)` pixels to be considered useful.
pub const ALPHA: f64 = 0.8;

/// The not-tiling rule (§3.4.4), and the only comparison against α
/// ([`ALPHA`] on every call outside tests): a layout is worth tiling for a
/// query over `window` with detections `dets` when it decodes at most
/// `alpha · P(ω)` pixels, `alpha` times what the untiled layout would
/// decode.
fn worth_tiling(
    alpha: f64,
    layout: &TileLayout,
    dets: &[Detection],
    window: Range<u32>,
    sot: &SotEntry,
    gop: u32,
) -> bool {
    pixel_ratio(layout, dets, window, sot.start, gop) <= alpha
}

impl Tasm {
    /// Observes one completed query under `policy` and returns any
    /// transcode cost paid. [`RetilePolicy::Off`] observes nothing.
    pub fn observe(
        &self,
        name: &str,
        policy: RetilePolicy,
        label: &str,
        frames: Range<u32>,
    ) -> Result<RetileStats, TasmError> {
        match policy {
            RetilePolicy::Off => Ok(RetileStats::default()),
            RetilePolicy::Regret => self.observe_regret(name, label, frames),
            RetilePolicy::More => self.observe_more(name, label, frames),
        }
    }

    /// The one re-tile loop: for each SOT of `sots`, asks `decide` for a
    /// layout, skips a layout equal to the current one, and commits the
    /// rest. `pol` is the shard's policy state, so the policy lock is held
    /// throughout. Returns the transcode cost summed.
    fn retile_sots(
        &self,
        shard: &VideoShard,
        pol: &mut PolicyState,
        sots: Range<usize>,
        mut decide: impl FnMut(&mut PolicyState, usize) -> Result<Option<TileLayout>, TasmError>,
    ) -> Result<RetileStats, TasmError> {
        let mut total = RetileStats::default();
        for sot_idx in sots {
            let Some(layout) = decide(pol, sot_idx)? else {
                continue;
            };
            if layout == shard.current_manifest().sots[sot_idx].layout {
                continue;
            }
            let stats = self.retile_shard(shard, pol, sot_idx, layout)?;
            total.decode += stats.decode;
            total.encode += stats.encode;
        }
        Ok(total)
    }

    /// Computes the §4.2 KQKO layout for one SOT around `objects`: a fine-grained
    /// non-uniform layout around their boxes, or `None` when the not-tiling
    /// rule (α) says tiling would not help.
    pub fn kqko_layout(
        &self,
        name: &str,
        sot_idx: usize,
        objects: &[String],
    ) -> Result<Option<TileLayout>, TasmError> {
        let shard = self.shard(name)?;
        self.kqko_layout_shard(&shard, sot_idx, objects)
    }

    fn kqko_layout_shard(
        &self,
        shard: &VideoShard,
        sot_idx: usize,
        objects: &[String],
    ) -> Result<Option<TileLayout>, TasmError> {
        let m = shard.current_manifest();
        let sot = &m.sots[sot_idx];
        let mut view = SotView::new(self, shard.id, sot, m.config.gop_len);
        let Some((layout, dets)) = view.subset_layout(objects, m.width, m.height)? else {
            return Ok(None);
        };
        // The not-tiling rule over the whole-SOT query for these objects.
        let gop = m.config.gop_len;
        let worth = worth_tiling(ALPHA, &layout, &dets, sot.frames(), sot, gop);
        Ok(worth.then_some(layout))
    }

    /// Runs the KQKO optimization over every SOT (the "all objects"/eager
    /// strategy pre-tiles with `objects` = everything detected). Returns the
    /// accumulated transcode cost.
    pub fn kqko_retile_all(
        &self,
        name: &str,
        objects: &[String],
    ) -> Result<RetileStats, TasmError> {
        let shard = self.shard(name)?;
        let mut pol = shard.policy();
        let n_sots = shard.current_manifest().sots.len();
        self.retile_sots(&shard, &mut pol, 0..n_sots, |_, sot_idx| {
            self.kqko_layout_shard(&shard, sot_idx, objects)
        })
    }

    /// Observes a query under the incremental-more policy (§5.3): a SOT
    /// re-tiles around every label queried on it as soon as a new one
    /// arrives. Returns any transcode cost paid.
    pub fn observe_more(
        &self,
        name: &str,
        label: &str,
        frames: Range<u32>,
    ) -> Result<RetileStats, TasmError> {
        let shard = self.shard(name)?;
        let mut pol = shard.policy();
        let manifest = shard.current_manifest();
        let sots = manifest.sots_for_range(frames.clone());
        self.retile_sots(&shard, &mut pol, sots, |pol, sot_idx| {
            let sot = &manifest.sots[sot_idx];
            let window = frames.start.max(sot.start)..frames.end.min(sot.end);
            let state = &mut pol.sots[sot_idx];
            let new = state.history.iter().all(|(l, _, _)| l != label);
            state.record(label, &window);
            if !new {
                return Ok(None);
            }
            // Every label queried here, in sorted order: `partition` sees
            // the boxes in this order.
            let labels: BTreeSet<&String> = state.history.iter().map(|(l, _, _)| l).collect();
            let objects: Vec<String> = labels.into_iter().cloned().collect();
            self.kqko_layout_shard(&shard, sot_idx, &objects)
        })
    }

    /// Observes a query under the §4.4 regret policy: accumulates regret for the
    /// alternative layouts of every touched SOT and re-tiles those whose
    /// best alternative's regret exceeds `η · R(s, L)`. Returns any
    /// transcode cost paid.
    ///
    /// Policy state is sharded per video: concurrent observations on
    /// different videos never contend, while observations on one video
    /// serialize on its policy mutex (regret accumulation is inherently
    /// order-dependent).
    pub fn observe_regret(
        &self,
        name: &str,
        label: &str,
        frames: Range<u32>,
    ) -> Result<RetileStats, TasmError> {
        let shard = self.shard(name)?;
        let mut pol = shard.policy();
        let m = shard.current_manifest();
        let sots = m.sots_for_range(frames.clone());
        let (gop, w, h) = (m.config.gop_len, m.width, m.height);
        let id = shard.id;
        let cfg = self.config();
        pol.seen_objects.insert(label.to_string());
        let alternatives = alternative_subsets(&pol.seen_objects);

        self.retile_sots(&shard, &mut pol, sots, |pol, sot_idx| {
            let sot = shard.current_manifest().sots[sot_idx].clone();
            let window = frames.start.max(sot.start)..frames.end.min(sot.end);
            if window.is_empty() {
                return Ok(None);
            }
            let mut view = SotView::new(self, id, &sot, gop);

            // Record history first (new alternatives replay what came
            // before it).
            let state = &mut pol.sots[sot_idx];
            let now = state.record(label, &window);

            // The layouts this call partitions, for the winner below.
            let mut layouts = Vec::with_capacity(alternatives.len());
            for subset in &alternatives {
                let Some((alt_layout, _)) = view.subset_layout(subset, w, h)? else {
                    continue;
                };
                let is_new = !state.regret.contains_key(subset);
                let mut delta = 0.0;
                if is_new {
                    // Retroactive regret over the query history (§4.4):
                    // one add per observation before this one.
                    for (at, (hl, hw, n)) in state.history.iter().enumerate() {
                        let prior = n - u64::from(at == now);
                        if prior > 0 {
                            let d = view.delta(hl, hw, &alt_layout)?;
                            (0..prior).for_each(|_| delta += d);
                        }
                    }
                }
                delta += view.delta(label, &window, &alt_layout)?;
                *state.regret.entry(subset.clone()).or_insert(0.0) += delta;
                layouts.push((subset, alt_layout));
            }

            // Pick the best alternative exceeding the threshold.
            let threshold = cfg.eta * EncodeModel::CALIBRATED.reencode_cost(w, h, sot.len());
            let best = state
                .regret
                .iter()
                .filter(|(_, &d)| d > threshold)
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(k, _)| k.clone());
            let Some(subset) = best else {
                return Ok(None);
            };
            // A winner from before the subsets were capped is not among
            // this call's alternatives.
            let layout = match layouts.iter().position(|(s, _)| **s == subset) {
                Some(at) => Some(layouts.swap_remove(at).1),
                None => view.subset_layout(&subset, w, h)?.map(|(l, _)| l),
            };
            let Some(layout) = layout else {
                return Ok(None);
            };
            // The α rule over every past query of the SOT (§5.3).
            let mut usable = layout != sot.layout;
            for (hl, hw, _) in &state.history {
                if !usable {
                    break;
                }
                let (dets, _) = view.query(hl, hw)?;
                usable =
                    dets.is_empty() || worth_tiling(ALPHA, &layout, dets, hw.clone(), &sot, gop);
            }
            if usable {
                return Ok(Some(layout));
            }
            // Unusable alternative: forget it so it stops winning the
            // argmax every query.
            state.regret.remove(&subset);
            Ok(None)
        })
    }

    /// Regret accumulated for a subset on a SOT (tests/diagnostics).
    pub fn regret_for(&self, name: &str, sot_idx: usize, subset: &[String]) -> Option<f64> {
        let shard = self.shard(name).ok()?;
        let pol = shard.policy();
        pol.sots.get(sot_idx)?.regret.get(subset).copied()
    }
}

/// What one decision on one SOT reads of the index: each label's
/// detections over the whole SOT, asked once, and each query's share of
/// them (filtered to its window, so the same detections in the same order
/// as asking the index for the window) with its cost under the SOT's
/// current layout, computed once.
struct SotView<'a> {
    tasm: &'a Tasm,
    video_id: u32,
    sot: &'a SotEntry,
    gop: u32,
    labels: BTreeMap<String, Vec<Detection>>,
    /// Keyed by (label, window start, window end).
    queries: BTreeMap<(String, u32, u32), (Vec<Detection>, f64)>,
}

impl<'a> SotView<'a> {
    fn new(tasm: &'a Tasm, video_id: u32, sot: &'a SotEntry, gop: u32) -> Self {
        SotView {
            tasm,
            video_id,
            sot,
            gop,
            labels: BTreeMap::new(),
            queries: BTreeMap::new(),
        }
    }

    /// `label`'s detections over the whole SOT.
    fn label(&mut self, label: &str) -> Result<&[Detection], TasmError> {
        if !self.labels.contains_key(label) {
            let frames = self.sot.frames();
            let dets = self
                .tasm
                .with_index(|ix| ix.query(self.video_id, label, frames))?;
            self.labels.insert(label.to_string(), dets);
        }
        Ok(&self.labels[label])
    }

    /// The detections of the query `(label, window)`, `window` within the
    /// SOT, and their cost under the SOT's current layout.
    fn query(
        &mut self,
        label: &str,
        window: &Range<u32>,
    ) -> Result<&(Vec<Detection>, f64), TasmError> {
        let key = (label.to_string(), window.start, window.end);
        if !self.queries.contains_key(&key) {
            let dets: Vec<Detection> = self
                .label(label)?
                .iter()
                .filter(|d| window.contains(&d.frame))
                .copied()
                .collect();
            let work = estimate_work(
                &self.sot.layout,
                &dets,
                window.clone(),
                self.sot.start,
                self.gop,
            );
            let cur = CostModel::CALIBRATED.cost(work);
            self.queries.insert(key.clone(), (dets, cur));
        }
        Ok(&self.queries[&key])
    }

    /// Estimated improvement `∆(q, L_cur, L_alt)` of the query
    /// `(label, window)`.
    fn delta(
        &mut self,
        label: &str,
        window: &Range<u32>,
        alt: &TileLayout,
    ) -> Result<f64, TasmError> {
        let (start, gop) = (self.sot.start, self.gop);
        let (dets, cur) = self.query(label, window)?;
        let new = estimate_work(alt, dets, window.clone(), start, gop);
        Ok(cur - CostModel::CALIBRATED.cost(new))
    }

    /// Layout around a subset's detected boxes in the SOT, with those
    /// detections, or `None` when no boxes exist or no cut is possible.
    fn subset_layout(
        &mut self,
        subset: &[String],
        w: u32,
        h: u32,
    ) -> Result<Option<(TileLayout, Vec<Detection>)>, TasmError> {
        let mut dets = Vec::new();
        for o in subset {
            dets.extend_from_slice(self.label(o)?);
        }
        if dets.is_empty() {
            return Ok(None);
        }
        let boxes: Vec<Rect> = dets.iter().map(|d| d.bbox).collect();
        let layout = partition(w, h, &boxes, &self.tasm.config().partition);
        Ok((!layout.is_untiled()).then_some((layout, dets)))
    }
}

/// Largest seen-object set for which every subset is considered as an
/// alternative layout; beyond this only singletons and the full set are
/// tracked (the paper enumerates subsets; this caps the blow-up).
const MAX_SUBSET_OBJECTS: usize = 4;

/// Candidate object subsets for alternative layouts: all non-empty subsets
/// while small, singletons + the full set beyond [`MAX_SUBSET_OBJECTS`].
fn alternative_subsets(seen: &BTreeSet<String>) -> Vec<Vec<String>> {
    let seen: Vec<String> = seen.iter().cloned().collect();
    if seen.len() > MAX_SUBSET_OBJECTS {
        let mut out: Vec<Vec<String>> = seen.iter().map(|s| vec![s.clone()]).collect();
        out.push(seen);
        return out;
    }
    let n = seen.len();
    let subset = |mask: u32| {
        (0..n)
            .filter(move |i| mask & (1 << i) != 0)
            .map(|i| seen[i].clone())
    };
    (1u32..1 << n).map(|mask| subset(mask).collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::{car_source, Scratch};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use tasm_index::{IndexResult, MemoryIndex, SemanticIndex};

    /// An in-memory index that counts the `query` calls made of it.
    struct Counted(MemoryIndex, Arc<AtomicUsize>);

    impl SemanticIndex for Counted {
        fn add_metadata(
            &mut self,
            video: u32,
            label: &str,
            frame: u32,
            bbox: Rect,
        ) -> IndexResult<()> {
            self.0.add_metadata(video, label, frame, bbox)
        }
        fn query(
            &mut self,
            video: u32,
            label: &str,
            frames: Range<u32>,
        ) -> IndexResult<Vec<Detection>> {
            self.1.fetch_add(1, Ordering::SeqCst);
            self.0.query(video, label, frames)
        }
        fn labels(&mut self, video: u32) -> IndexResult<Vec<String>> {
            self.0.labels(video)
        }
        fn mark_processed(&mut self, video: u32, frame: u32) -> IndexResult<()> {
            self.0.mark_processed(video, frame)
        }
        fn processed_count(&mut self, video: u32, frames: Range<u32>) -> IndexResult<u32> {
            self.0.processed_count(video, frames)
        }
        fn detection_count(&self) -> u64 {
            self.0.detection_count()
        }
        fn flush(&mut self) -> IndexResult<()> {
            self.0.flush()
        }
    }

    /// A regret observation asks the index once per label seen so far per
    /// SOT it touches, however many alternatives it prices and however
    /// long the history it replays.
    #[test]
    fn observe_regret_asks_the_index_once_per_seen_label_per_sot() {
        let queries = Arc::new(AtomicUsize::new(0));
        let index = Counted(MemoryIndex::in_memory(), queries.clone());
        let t = Scratch::tasm_with("policy-queries", Box::new(index));
        t.ingest("v", &car_source(30), 30).unwrap();
        for f in 0..30 {
            t.add_metadata("v", "car", f, Rect::new((f * 2) % 96, 8, 24, 16))
                .unwrap();
            t.add_metadata("v", "person", f, Rect::new(96, 64, 12, 24))
                .unwrap();
            t.add_metadata("v", "bus", f, Rect::new(8, 48, 40, 24))
                .unwrap();
        }
        // (label, frames, labels seen after it, SOTs touched)
        let calls = [
            ("car", 0..20, 1, 2),
            ("person", 5..25, 2, 3),
            ("car", 0..20, 2, 2),
            ("bus", 0..30, 3, 3),
            ("person", 12..18, 3, 1),
            ("car", 0..30, 3, 3),
        ];
        for (label, frames, seen, sots) in calls {
            let before = queries.load(Ordering::SeqCst);
            t.observe_regret("v", label, frames.clone()).unwrap();
            let asked = queries.load(Ordering::SeqCst) - before;
            assert_eq!(asked, seen * sots, "{label} over {frames:?}");
        }
    }

    /// The α boundary: a layout that decodes exactly `α · P(ω)` pixels is
    /// worth tiling; one a hair above is not.
    #[test]
    fn worth_tiling_accepts_a_ratio_of_exactly_alpha() {
        let layout = TileLayout::uniform(128, 96, 2, 2).unwrap();
        let sot = SotEntry {
            start: 0,
            end: 10,
            layout: layout.clone(),
            retile_count: 0,
            tile_codecs: Vec::new(),
        };
        let dets = [Detection {
            frame: 2,
            bbox: Rect::new(8, 8, 16, 16),
        }];
        let ratio = pixel_ratio(&layout, &dets, 0..10, 0, 5);
        assert!(ratio > 0.0 && ratio < 1.0, "one tile of four: {ratio}");
        let at = |alpha: f64| worth_tiling(alpha, &layout, &dets, 0..10, &sot, 5);
        assert!(at(ratio), "ratio == α is accepted");
        assert!(!at(ratio.next_down()), "ratio just above α is declined");
    }
}
