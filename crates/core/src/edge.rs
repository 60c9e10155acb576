//! Edge tiling (§4.3, third strategy).
//!
//! When the object classes queries will target (`O_Q`) are known in advance,
//! the VDBMS communicates them to the edge camera. The camera runs (cheap or
//! sampled) detection as frames are captured and encodes the video *with
//! tiles from the start*, so the VDBMS never pays a re-encode, and the
//! semantic index arrives pre-initialized. Tiling on-camera also lets the
//! camera stream only the tiles containing objects, cutting upload
//! bandwidth — both effects are reported in [`EdgeReport`].

use crate::partition::partition;
use crate::plan::box_tiles;
use crate::runner::TruthFn;
use crate::tasm::{Tasm, TasmError};
use tasm_codec::TileLayout;
use tasm_detect::{Detector, RawDetection};
use tasm_video::{FrameSource, Rect};

/// Configuration of the simulated edge camera.
#[derive(Debug, Clone)]
pub struct EdgeConfig {
    /// Object classes the VDBMS announced (`O_Q`).
    pub target_objects: Vec<String>,
    /// Run the detector every `stride` frames (full YOLOv3 cannot keep up
    /// with capture rate on an embedded GPU; §5.2.4 finds stride 5 works).
    pub detection_stride: u32,
}

impl EdgeConfig {
    /// Camera watching for the given classes, detecting every 5th frame.
    pub fn new(target_objects: &[&str]) -> Self {
        EdgeConfig {
            target_objects: target_objects.iter().map(|s| s.to_string()).collect(),
            detection_stride: 5,
        }
    }
}

/// Outcome of an edge-tiled ingest.
#[derive(Debug, Clone, Default)]
pub struct EdgeReport {
    /// Simulated on-camera detection seconds.
    pub detect_seconds: f64,
    /// Frames the detector actually processed.
    pub frames_processed: u64,
    /// Bytes if the camera streams only tiles containing target objects.
    pub streamed_tile_bytes: u64,
    /// Bytes of the full tiled video.
    pub full_video_bytes: u64,
    /// Number of SOTs that ended up tiled (vs `ω`).
    pub tiled_sots: u32,
}

impl EdgeReport {
    /// Upload saving from streaming only object tiles.
    pub fn bandwidth_saving(&self) -> f64 {
        if self.full_video_bytes == 0 {
            0.0
        } else {
            1.0 - self.streamed_tile_bytes as f64 / self.full_video_bytes as f64
        }
    }
}

/// Simulates capture-time tiling on the camera and ingests the result:
/// the video enters the store already tiled around `O_Q`, and the semantic
/// index is pre-populated with the camera's detections.
pub fn edge_ingest(
    tasm: &mut Tasm,
    name: &str,
    src: &dyn FrameSource,
    fps: u32,
    cfg: &EdgeConfig,
    detector: &mut dyn Detector,
    truth: TruthFn<'_>,
) -> Result<EdgeReport, TasmError> {
    assert!(cfg.detection_stride > 0, "stride must be positive");
    let mut report = EdgeReport::default();
    let sot_frames = tasm.config().storage.sot_frames;
    let (w, h) = (src.width(), src.height());
    let n = src.len();

    // --- capture loop: sampled detection per SOT ---
    let mut per_sot: Vec<Vec<RawDetection>> = Vec::new();
    let mut held: Vec<RawDetection> = Vec::new();
    for f in 0..n {
        if f % sot_frames == 0 {
            per_sot.push(Vec::new());
        }
        if f % cfg.detection_stride == 0 {
            let t = truth(f);
            let frame_storage;
            let frame_ref = if detector.needs_pixels() {
                frame_storage = src.frame(f);
                Some(&frame_storage)
            } else {
                None
            };
            held = detector.detect(f, frame_ref, &t);
            report.frames_processed += 1;
            report.detect_seconds += detector.seconds_per_frame();
        }
        // Held boxes apply to skipped frames too (objects persist).
        let sot = per_sot.last_mut().expect("sot bucket exists");
        for d in &held {
            if cfg.target_objects.contains(&d.label) {
                let mut d = d.clone();
                d.bbox = d.bbox.clamp_to(w, h);
                sot.extend([RawDetection { bbox: d.bbox, ..d }]);
            }
        }
    }

    // --- choose per-SOT layouts before first encode ---
    let partition_cfg = tasm.config().partition;
    let layouts: Vec<TileLayout> = per_sot
        .iter()
        .map(|dets| {
            let boxes: Vec<Rect> = dets.iter().map(|d| d.bbox).collect();
            partition(w, h, &boxes, &partition_cfg)
        })
        .collect();
    report.tiled_sots = layouts.iter().filter(|l| !l.is_untiled()).count() as u32;

    let layouts_for = layouts.clone();
    tasm.ingest_with(name, src, fps, move |i, _| layouts_for[i].clone())?;

    // --- pre-initialize the semantic index with the camera's detections ---
    // (boxes are replayed per frame; held boxes repeat across frames, so
    // deduplicate by (frame bucket) ... the camera reports per frame).
    let mut held: Vec<RawDetection> = Vec::new();
    for f in 0..n {
        if f % cfg.detection_stride == 0 {
            let t = truth(f);
            held = detector.detect(f, None, &t);
        }
        for d in &held {
            tasm.add_metadata(name, &d.label, f, d.bbox.clamp_to(w, h))?;
        }
        tasm.mark_processed(name, f)?;
    }

    // --- bandwidth accounting ---
    let manifest = tasm.manifest(name)?.clone();
    report.full_video_bytes = tasm.store().video_size_bytes(&manifest)?;
    let mut streamed = 0u64;
    let (w, h) = (manifest.width, manifest.height);
    for (sot_idx, (sot, dets)) in manifest.sots.iter().zip(&per_sot).enumerate() {
        let needed = dets
            .iter()
            .flat_map(|d| box_tiles(&sot.layout, &d.bbox, w, h).1);
        for t in needed.collect::<std::collections::BTreeSet<u32>>() {
            streamed += tasm.store().read_tile(&manifest, sot_idx, t)?.size_bytes();
        }
    }
    report.streamed_tile_bytes = streamed;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::LabelPredicate;
    use crate::scratch::{car_source as source, car_truth as truth_at, Scratch};
    use tasm_detect::yolo::{Platform, SimulatedYolo};

    fn tasm(tag: &str) -> Scratch<Tasm> {
        Scratch::tasm(&format!("edge-{tag}"))
    }

    #[test]
    fn edge_ingest_pretiles_and_populates_index() {
        let mut t = tasm("basic");
        let src = source(30);
        let mut det = SimulatedYolo::full(1).on(Platform::EdgeGpu);
        let cfg = EdgeConfig::new(&["car"]);
        let report = edge_ingest(&mut t, "v", &src, 30, &cfg, &mut det, &truth_at).unwrap();

        // Sampled detection: 30 frames / stride 5 = 6 processed.
        assert_eq!(report.frames_processed, 6);
        let expected = 6.0 / 16.0; // edge GPU at 16 fps
        assert!((report.detect_seconds - expected).abs() < 1e-9);
        assert!(report.tiled_sots > 0, "camera should have tiled SOTs");

        // The video arrives tiled: no retile needed for first queries.
        let m = t.manifest("v").unwrap();
        assert!(m.sots.iter().any(|s| !s.layout.is_untiled()));

        // The index is pre-initialized: scans return regions immediately.
        let result = t.scan("v", &LabelPredicate::label("car"), 0..10).unwrap();
        assert!(!result.regions.is_empty());
    }

    #[test]
    fn streaming_only_object_tiles_saves_bandwidth() {
        let mut t = tasm("bw");
        let src = source(30);
        let mut det = SimulatedYolo::full(1).on(Platform::EdgeGpu);
        let cfg = EdgeConfig::new(&["car"]);
        let report = edge_ingest(&mut t, "v", &src, 30, &cfg, &mut det, &truth_at).unwrap();
        assert!(report.streamed_tile_bytes > 0);
        assert!(
            report.streamed_tile_bytes < report.full_video_bytes,
            "object tiles ({}) should be smaller than the full video ({})",
            report.streamed_tile_bytes,
            report.full_video_bytes
        );
        assert!(report.bandwidth_saving() > 0.0);
    }

    #[test]
    fn edge_first_query_needs_no_retile() {
        let mut t = tasm("noretile");
        let src = source(30);
        let mut det = SimulatedYolo::full(1).on(Platform::EdgeGpu);
        let cfg = EdgeConfig::new(&["car"]);
        edge_ingest(&mut t, "v", &src, 30, &cfg, &mut det, &truth_at).unwrap();
        // Compare against a lazily ingested copy: edge decode is cheaper on
        // the very first query.
        let lazy = tasm("noretile-lazy");
        lazy.ingest("v", &src, 30).unwrap();
        for f in 0..30 {
            for (l, b) in truth_at(f) {
                lazy.add_metadata("v", l, f, b).unwrap();
            }
        }
        let edge_scan = t.scan("v", &LabelPredicate::label("car"), 10..20).unwrap();
        let lazy_scan = lazy
            .scan("v", &LabelPredicate::label("car"), 10..20)
            .unwrap();
        assert!(
            edge_scan.stats.samples_decoded < lazy_scan.stats.samples_decoded,
            "edge {} vs lazy {}",
            edge_scan.stats.samples_decoded,
            lazy_scan.stats.samples_decoded
        );
    }
}
