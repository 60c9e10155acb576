//! Workload execution over the tiling strategies of §5.3.
//!
//! The evaluation compares four strategies on each workload:
//!
//! * **Not tiled** — the baseline; every query decodes full frames.
//! * **All objects** — pre-tile the whole video around everything detected
//!   before queries run (eager detection + KQKO).
//! * **Incremental, more** — after a query for a new object class, re-tile
//!   the touched GOPs around all classes queried so far.
//! * **Incremental, regret** — the §4.4 policy: accumulate estimated
//!   improvements per alternative layout, re-tile when regret exceeds
//!   `η · R(s, L)`.
//!
//! Figure 12 additionally accounts the *initial* detection cost of
//! pre-tiling strategies (full-YOLO or background subtraction up front) and
//! lets pre-tiled videos continue with the regret policy.
//!
//! The runner performs lazy detection at query time for strategies that
//! have no up-front pass, exactly as §4.3's lazy strategy describes:
//! detections are a byproduct of query execution and their (simulated) cost
//! is recorded separately so harnesses can include or exclude it per
//! figure.
//!
//! Decode and re-tile work is recorded as counted, never timed, and priced
//! with §4.1's model under the store's own [`TasmConfig`] — the prices the
//! policy decides with — so the same run gives the same costs.

use crate::cost::Work;
use crate::policy::RetilePolicy;
use crate::scan::LabelPredicate;
use crate::storage::RetileStats;
use crate::tasm::{Tasm, TasmConfig, TasmError};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use tasm_detect::Detector;
use tasm_video::{FrameSource, Rect};

/// A ground-truth oracle: the generator's boxes for a frame. Detectors
/// degrade this; TASM itself never sees it.
pub type TruthFn<'a> = &'a (dyn Fn(u32) -> Vec<(&'static str, Rect)> + Sync);

/// One workload query (label + frame window).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunQuery {
    /// Target object class.
    pub label: String,
    /// Frame window.
    pub frames: Range<u32>,
}

/// The strategy under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Never tile (baseline).
    NotTiled,
    /// Detect everything up front, pre-tile around all objects. When
    /// `then_regret`, continue adapting with the regret policy (Figure 12).
    PretileAllObjects {
        /// Keep adapting after the initial tiling.
        then_regret: bool,
    },
    /// Up-front background subtraction, pre-tile around foreground regions,
    /// then continue with the regret policy (Figure 12).
    PretileForeground,
    /// Re-tile eagerly on queries for new object classes.
    IncrementalMore,
    /// The regret-based policy of §4.4.
    IncrementalRegret,
}

/// Per-query accounting.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// The query executed.
    pub label: String,
    /// Query window start frame.
    pub start_frame: u32,
    /// The re-tiles the policy committed after this query (zero when it
    /// committed none).
    pub retile: RetileStats,
    /// Simulated seconds of lazy detection triggered by this query.
    pub detect_seconds: f64,
    /// Samples decoded by the query (cache reuse excluded).
    pub samples_decoded: u64,
    /// Tile chunks decoded by the query.
    pub tile_chunks: u64,
    /// Decoded-GOP cache hits during the query.
    pub cache_hits: u64,
    /// Samples served from the decoded-GOP cache instead of being decoded.
    pub samples_reused: u64,
}

impl QueryRecord {
    /// Samples the query *needed*, decoded or reused — the quantity the
    /// strategy comparisons of §5.3 reason about (a warm cache shifts work
    /// from `samples_decoded` to `samples_reused` without changing it).
    pub fn samples_touched(&self) -> u64 {
        self.samples_decoded + self.samples_reused
    }

    /// §4.1's price of the query's decode and of the re-tiles after it.
    pub fn cost(&self, cfg: &TasmConfig) -> f64 {
        let work = Work {
            pixels: self.samples_decoded,
            tile_chunks: self.tile_chunks,
        };
        cfg.cost.cost(work) + retile_cost(cfg, &self.retile)
    }
}

/// §4.1's price of a re-tile's counted work: decoding the SOT's old tiles
/// (`C = β·P + γ·T`) plus encoding its samples at the rate `R(s, L)` is
/// estimated with, both under `cfg`'s models.
pub fn retile_cost(cfg: &TasmConfig, retile: &RetileStats) -> f64 {
    let encode = cfg.encode.seconds_per_sample * retile.encode.samples_encoded as f64;
    cfg.cost.cost(Work::from(&retile.decode)) + encode
}

/// Result of running a workload under one strategy.
#[derive(Debug, Clone, Default)]
pub struct WorkloadReport {
    /// Per-query records, in execution order.
    pub records: Vec<QueryRecord>,
    /// Simulated seconds of up-front detection (pre-tile strategies).
    pub initial_detect_seconds: f64,
    /// The up-front tiling of the pre-tile strategies (zero otherwise).
    pub initial_tile: RetileStats,
    /// Total number of SOT re-tile operations performed: the layout
    /// epochs the run committed.
    pub retile_ops: u32,
    /// Total decoded-GOP cache hits across all queries.
    pub cache_hits: u64,
    /// Final on-disk size of the video.
    pub final_size_bytes: u64,
}

impl WorkloadReport {
    /// Priced decode + re-tile seconds, the up-front tiling included (the
    /// quantity plotted in Figure 11).
    pub fn cost(&self, cfg: &TasmConfig) -> f64 {
        let queries: f64 = self.records.iter().map(|r| r.cost(cfg)).sum();
        queries + retile_cost(cfg, &self.initial_tile)
    }
}

/// Runs `queries` over `video` under `strategy`.
///
/// `truth` supplies ground-truth boxes to the (degrading) `detector`;
/// `pixels` is required only for [`Strategy::PretileForeground`].
#[allow(clippy::too_many_arguments)]
pub fn run_workload(
    tasm: &mut Tasm,
    video: &str,
    queries: &[RunQuery],
    strategy: Strategy,
    detector: &mut dyn Detector,
    truth: TruthFn<'_>,
    pixels: Option<&dyn FrameSource>,
) -> Result<WorkloadReport, TasmError> {
    let mut report = WorkloadReport::default();
    let first_epoch = tasm.current_epoch(video)?;
    let frame_count = tasm.manifest(video)?.frame_count;

    // --- up-front phase ---
    match strategy {
        Strategy::PretileAllObjects { .. } => {
            report.initial_detect_seconds =
                detect_frames(tasm, video, 0..frame_count, detector, truth, pixels)?;
            let id = tasm.video_id(video)?;
            let labels = tasm.with_index(|ix| ix.labels(id))?;
            report.initial_tile = tasm.kqko_retile_all(video, &labels)?;
        }
        Strategy::PretileForeground => {
            let src =
                pixels.expect("PretileForeground requires the raw frame source for subtraction");
            let mut bg = tasm_detect::background::BackgroundSubtractor::new();
            for f in 0..frame_count {
                let frame = src.frame(f);
                for det in bg.detect(f, Some(&frame), &[]) {
                    tasm.add_metadata(video, &det.label, f, det.bbox)?;
                }
                report.initial_detect_seconds += bg.seconds_per_frame();
            }
            report.initial_tile = tasm.kqko_retile_all(video, &["foreground".to_string()])?;
        }
        _ => {}
    }
    let policy = match strategy {
        Strategy::NotTiled | Strategy::PretileAllObjects { then_regret: false } => {
            RetilePolicy::Off
        }
        Strategy::IncrementalMore => RetilePolicy::More,
        Strategy::IncrementalRegret
        | Strategy::PretileAllObjects { then_regret: true }
        | Strategy::PretileForeground => RetilePolicy::Regret,
    };

    // --- query phase ---
    for q in queries {
        // Lazy detection: analyze frames the index has not seen yet.
        let detect_seconds = detect_frames(tasm, video, q.frames.clone(), detector, truth, pixels)?;

        let result = tasm.scan(video, &LabelPredicate::label(&q.label), q.frames.clone())?;
        let retile = tasm.observe(video, policy, &q.label, q.frames.clone())?;

        report.cache_hits += result.cache.hits;
        report.records.push(QueryRecord {
            label: q.label.clone(),
            start_frame: q.frames.start,
            retile,
            detect_seconds,
            samples_decoded: result.stats.samples_decoded,
            tile_chunks: result.stats.tile_chunks_decoded,
            cache_hits: result.cache.hits,
            samples_reused: result.cache.samples_reused,
        });
    }

    report.retile_ops = (tasm.current_epoch(video)? - first_epoch) as u32;
    report.final_size_bytes = tasm.video_size_bytes(video)?;
    Ok(report)
}

/// The one detection loop: runs `detector` over the frames of `frames`
/// the index has not processed, stores their boxes and marks them
/// processed. Each unprocessed stretch is preceded by the frames from
/// [`Detector::resume_from`] on, boxes discarded, so a resumed pass stores
/// what an uninterrupted one would. Returns simulated detection seconds.
pub fn detect_frames(
    tasm: &Tasm,
    video: &str,
    frames: Range<u32>,
    detector: &mut dyn Detector,
    truth: TruthFn<'_>,
    pixels: Option<&dyn FrameSource>,
) -> Result<f64, TasmError> {
    // Fast path: everything already analyzed.
    let unprocessed = frames.len() as u32 - tasm.processed_count(video, frames.clone())?;
    if unprocessed == 0 {
        return Ok(0.0);
    }
    let detect = |detector: &mut dyn Detector, f: u32| {
        let source = || pixels.expect("detector needs pixels but no source provided");
        let frame = detector.needs_pixels().then(|| source().frame(f));
        detector.detect(f, frame.as_ref(), &truth(f))
    };
    let mut seconds = 0.0;
    let mut next = None;
    for f in frames {
        if tasm.processed_count(video, f..f + 1)? > 0 {
            continue;
        }
        if next != Some(f) {
            for p in detector.resume_from(f)..f {
                detect(detector, p);
            }
        }
        for det in detect(detector, f) {
            tasm.add_metadata(video, &det.label, f, det.bbox)?;
        }
        tasm.mark_processed(video, f)?;
        seconds += detector.seconds_per_frame();
        next = Some(f + 1);
    }
    Ok(seconds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::{car_source as source, car_truth as truth_at, Scratch};
    use tasm_detect::sampled::SampledDetector;
    use tasm_detect::yolo::SimulatedYolo;

    fn tasm(tag: &str) -> Scratch<Tasm> {
        Scratch::tasm(&format!("runner-{tag}"))
    }

    fn queries(n: u32) -> Vec<RunQuery> {
        (0..n)
            .map(|i| RunQuery {
                label: "car".to_string(),
                frames: (i % 3) * 10..(i % 3) * 10 + 10,
            })
            .collect()
    }

    #[test]
    fn not_tiled_baseline_runs() {
        let mut t = tasm("base");
        let src = source(30);
        t.ingest("v", &src, 30).unwrap();
        let mut det = SimulatedYolo::full(1);
        let report = run_workload(
            &mut t,
            "v",
            &queries(5),
            Strategy::NotTiled,
            &mut det,
            &truth_at,
            None,
        )
        .unwrap();
        assert_eq!(report.records.len(), 5);
        assert_eq!(report.retile_ops, 0);
        assert!(report.cost(t.config()) > 0.0);
        assert!(report
            .records
            .iter()
            .all(|r| r.retile.encode.samples_encoded == 0));
        // First query over each window pays detection; repeats do not.
        assert!(report.records[0].detect_seconds > 0.0);
        assert_eq!(report.records[3].detect_seconds, 0.0);
    }

    #[test]
    fn incremental_regret_eventually_beats_baseline_decode() {
        let mut base = tasm("cmp-base");
        let mut regret = tasm("cmp-regret");
        let src = source(30);
        base.ingest("v", &src, 30).unwrap();
        regret.ingest("v", &src, 30).unwrap();
        let qs = queries(20);

        let mut det1 = SimulatedYolo::full(1);
        let r_base = run_workload(
            &mut base,
            "v",
            &qs,
            Strategy::NotTiled,
            &mut det1,
            &truth_at,
            None,
        )
        .unwrap();
        let mut det2 = SimulatedYolo::full(1);
        let r_reg = run_workload(
            &mut regret,
            "v",
            &qs,
            Strategy::IncrementalRegret,
            &mut det2,
            &truth_at,
            None,
        )
        .unwrap();

        assert!(r_reg.retile_ops > 0, "regret should have re-tiled");
        // After re-tiling, late queries touch fewer samples than baseline.
        // `samples_touched` counts decoded + cache-reused work, so the
        // comparison is cache-warmth-independent.
        let late_base: u64 = r_base.records[15..]
            .iter()
            .map(|r| r.samples_touched())
            .sum();
        let late_reg: u64 = r_reg.records[15..]
            .iter()
            .map(|r| r.samples_touched())
            .sum();
        assert!(
            late_reg < late_base,
            "late regret decode {late_reg} should beat baseline {late_base}"
        );
        assert!(
            r_base.cache_hits > 0,
            "repeated windows should hit the decoded-GOP cache"
        );
    }

    #[test]
    fn pretile_all_objects_pays_up_front() {
        let mut t = tasm("pretile");
        let src = source(30);
        t.ingest("v", &src, 30).unwrap();
        let mut det = SimulatedYolo::full(1);
        let report = run_workload(
            &mut t,
            "v",
            &queries(3),
            Strategy::PretileAllObjects { then_regret: false },
            &mut det,
            &truth_at,
            None,
        )
        .unwrap();
        assert!(report.initial_detect_seconds > 0.0);
        // 30 frames at full-YOLO server speed.
        let expected = 30.0 * SimulatedYolo::full(1).seconds_per_frame();
        assert!((report.initial_detect_seconds - expected).abs() < 1e-9);
        assert!(report.retile_ops > 0, "eager tiling should happen");
        assert!(report.initial_tile.encode.samples_encoded > 0);
        // No lazy detection afterwards.
        assert!(report.records.iter().all(|r| r.detect_seconds == 0.0));
    }

    /// A pre-tile that re-tiles every SOT reports one re-tile per SOT: the
    /// layout epochs the run committed, not the calls that paid.
    #[test]
    fn retile_ops_counts_every_sot_retiled() {
        let mut t = tasm("ops");
        let src = source(30);
        t.ingest("v", &src, 30).unwrap();
        let report = run_workload(
            &mut t,
            "v",
            &[],
            Strategy::PretileAllObjects { then_regret: false },
            &mut SimulatedYolo::full(1),
            &truth_at,
            None,
        )
        .unwrap();
        let epoch = t.manifest("v").unwrap().epoch();
        assert_eq!(epoch, 3, "each of the three SOTs re-tiled once");
        assert_eq!(u64::from(report.retile_ops), epoch);
    }

    /// A sampled pass killed mid-stride and resumed by a fresh process
    /// gives every frame the boxes of an uninterrupted pass, and a pass
    /// over processed frames stores nothing.
    #[test]
    fn a_resumed_sampled_pass_stores_what_an_uninterrupted_one_does() {
        let src = source(20);
        let sampled = || SampledDetector::new(SimulatedYolo::full(1), 3);
        let boxes = |t: &Tasm| {
            let id = t.video_id("v").unwrap();
            t.with_index(|ix| ix.query_all(id, 0..20)).unwrap()
        };
        let whole = tasm("detect-whole");
        whole.ingest("v", &src, 30).unwrap();
        detect_frames(&whole, "v", 0..20, &mut sampled(), &truth_at, None).unwrap();

        let resumed = tasm("detect-resumed");
        resumed.ingest("v", &src, 30).unwrap();
        detect_frames(&resumed, "v", 0..7, &mut sampled(), &truth_at, None).unwrap();
        detect_frames(&resumed, "v", 0..20, &mut sampled(), &truth_at, None).unwrap();
        assert_eq!(boxes(&resumed), boxes(&whole));

        let stored = resumed.with_index(|ix| ix.detection_count());
        let seconds = detect_frames(&resumed, "v", 0..20, &mut sampled(), &truth_at, None);
        assert_eq!(seconds.unwrap(), 0.0);
        assert_eq!(resumed.with_index(|ix| ix.detection_count()), stored);
    }

    #[test]
    fn pretile_foreground_uses_background_subtraction() {
        let mut t = tasm("fg");
        let src = source(30);
        t.ingest("v", &src, 30).unwrap();
        let mut det = SimulatedYolo::full(1);
        let report = run_workload(
            &mut t,
            "v",
            &queries(3),
            Strategy::PretileForeground,
            &mut det,
            &truth_at,
            Some(&src),
        )
        .unwrap();
        assert!(report.initial_detect_seconds > 0.0);
        // Foreground label is in the index.
        let id = t.video_id("v").unwrap();
        let labels = t.with_index(|ix| ix.labels(id)).unwrap();
        assert!(
            labels.iter().any(|l| l == "foreground"),
            "labels: {labels:?}"
        );
    }

    #[test]
    fn report_totals_are_consistent() {
        let mut t = tasm("totals");
        let src = source(20);
        t.ingest("v", &src, 30).unwrap();
        let mut det = SimulatedYolo::full(1);
        let report = run_workload(
            &mut t,
            "v",
            &queries(4),
            Strategy::IncrementalMore,
            &mut det,
            &truth_at,
            None,
        )
        .unwrap();
        let cfg = t.config();
        let manual: f64 = report.records.iter().map(|r| r.cost(cfg)).sum();
        assert_eq!(report.cost(cfg), manual, "no up-front tiling to add");
        assert!(report.final_size_bytes > 0);
        // Each committed re-tile is priced: it decoded the old tiles and
        // encoded the SOT once, at the rate `R(s, L)` is estimated with.
        let retiled: Vec<&QueryRecord> = report
            .records
            .iter()
            .filter(|r| r.retile.encode.samples_encoded > 0)
            .collect();
        assert!(!retiled.is_empty(), "incremental-more re-tiles");
        for r in retiled {
            let encode = cfg.encode.seconds_per_sample * r.retile.encode.samples_encoded as f64;
            assert!(retile_cost(cfg, &r.retile) > encode);
        }
    }
}
