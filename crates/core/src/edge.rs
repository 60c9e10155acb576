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

/// The camera runs its detector on every fifth frame: full YOLOv3 cannot
/// keep up with the capture rate on an embedded GPU, and §5.2.4 finds
/// stride 5 works.
const DETECTION_STRIDE: u32 = 5;

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
/// the video enters the store already tiled around the classes in
/// `targets` (`O_Q`), and the semantic index is pre-populated with every
/// box the camera's detector reported. The detector runs once per sampled
/// frame, at capture.
pub fn edge_ingest(
    tasm: &mut Tasm,
    name: &str,
    src: &dyn FrameSource,
    fps: u32,
    targets: &[&str],
    detector: &mut dyn Detector,
    truth: TruthFn<'_>,
) -> Result<EdgeReport, TasmError> {
    let mut report = EdgeReport::default();
    let sot_frames = tasm.config().storage.sot_frames;
    let (w, h) = (src.width(), src.height());

    // --- capture loop: sampled detection, each frame's boxes kept ---
    // Held boxes apply to skipped frames too (objects persist).
    let mut seen: Vec<Vec<RawDetection>> = Vec::with_capacity(src.len() as usize);
    let mut held: Vec<RawDetection> = Vec::new();
    for f in 0..src.len() {
        if f % DETECTION_STRIDE == 0 {
            let t = truth(f);
            let frame_storage;
            let frame_ref = if detector.needs_pixels() {
                frame_storage = src.frame(f);
                Some(&frame_storage)
            } else {
                None
            };
            held = detector.detect(f, frame_ref, &t);
            for d in &mut held {
                d.bbox = d.bbox.clamp_to(w, h);
            }
            report.frames_processed += 1;
            report.detect_seconds += detector.seconds_per_frame();
        }
        seen.push(held.clone());
    }

    // --- choose per-SOT layouts around the target boxes before first encode ---
    let per_sot: Vec<Vec<Rect>> = seen
        .chunks(sot_frames as usize)
        .map(|frames| {
            let dets = frames.iter().flatten();
            let targeted = dets.filter(|d| targets.contains(&d.label.as_str()));
            targeted.map(|d| d.bbox).collect()
        })
        .collect();
    let partition_cfg = tasm.config().partition;
    let layouts: Vec<TileLayout> = per_sot
        .iter()
        .map(|boxes| partition(w, h, boxes, &partition_cfg))
        .collect();
    report.tiled_sots = layouts.iter().filter(|l| !l.is_untiled()).count() as u32;

    tasm.ingest_with(name, src, fps, move |i, _| layouts[i].clone())?;

    // --- pre-initialize the semantic index with what the camera saw ---
    for (f, dets) in (0..).zip(&seen) {
        for d in dets {
            tasm.add_metadata(name, &d.label, f, d.bbox)?;
        }
        tasm.mark_processed(name, f)?;
    }

    // --- bandwidth accounting ---
    let manifest = tasm.manifest(name)?.clone();
    report.full_video_bytes = tasm.store().video_size_bytes(&manifest)?;
    let mut streamed = 0u64;
    let (w, h) = (manifest.width, manifest.height);
    for (sot_idx, (sot, boxes)) in manifest.sots.iter().zip(&per_sot).enumerate() {
        let needed = boxes.iter().flat_map(|b| box_tiles(&sot.layout, b, w, h).1);
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
    use tasm_detect::background::{BackgroundSubtractor, FOREGROUND_LABEL};
    use tasm_detect::yolo::{Platform, SimulatedYolo};

    fn tasm(tag: &str) -> Scratch<Tasm> {
        Scratch::tasm(&format!("edge-{tag}"))
    }

    #[test]
    fn edge_ingest_pretiles_and_populates_index() {
        let mut t = tasm("basic");
        let src = source(30);
        let mut det = SimulatedYolo::full(1).on(Platform::EdgeGpu);
        let report = edge_ingest(&mut t, "v", &src, 30, &["car"], &mut det, &truth_at).unwrap();

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

    /// A detector that needs pixels runs once per sampled frame, at
    /// capture, and the index holds exactly the boxes it reported there,
    /// each held across the frames up to the next sample.
    #[test]
    fn the_index_holds_the_boxes_the_capture_saw() {
        let mut t = tasm("bg");
        let src = source(30);
        let mut det = BackgroundSubtractor::new();
        let targets = [FOREGROUND_LABEL];
        let report = edge_ingest(&mut t, "v", &src, 30, &targets, &mut det, &|_| Vec::new());
        let report = report.unwrap();
        assert_eq!(report.frames_processed, 6);
        assert!(report.tiled_sots > 0, "the moving car is foreground");

        // What the camera saw: the same subtractor over the sampled frames.
        let mut camera = BackgroundSubtractor::new();
        let (mut held, mut saw) = (Vec::new(), Vec::new());
        for f in 0..30 {
            if f % DETECTION_STRIDE == 0 {
                held = camera.detect(f, Some(&src.frame(f)), &[]);
            }
            saw.extend(held.iter().map(|d| (f, d.bbox.clamp_to(128, 96))));
        }
        assert!(!saw.is_empty());
        let id = crate::tasm::video_id_for("v");
        let stored = t.with_index(|ix| ix.query(id, FOREGROUND_LABEL, 0..30));
        let mut stored: Vec<_> = stored.unwrap().iter().map(|d| (d.frame, d.bbox)).collect();
        let key = |&(f, r): &(u32, Rect)| (f, r.x, r.y, r.w, r.h);
        stored.sort_by_key(key);
        saw.sort_by_key(key);
        assert_eq!(stored, saw);
        assert_eq!(t.processed_count("v", 0..30).unwrap(), 30);
    }

    #[test]
    fn streaming_only_object_tiles_saves_bandwidth() {
        let mut t = tasm("bw");
        let src = source(30);
        let mut det = SimulatedYolo::full(1).on(Platform::EdgeGpu);
        let report = edge_ingest(&mut t, "v", &src, 30, &["car"], &mut det, &truth_at).unwrap();
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
        edge_ingest(&mut t, "v", &src, 30, &["car"], &mut det, &truth_at).unwrap();
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
