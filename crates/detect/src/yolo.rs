//! Simulated YOLO-family detectors.
//!
//! A real network is neither available nor necessary: TASM's behaviour
//! depends only on which boxes come back and what they cost. The simulation
//! degrades ground truth with the failure modes that matter to the paper's
//! evaluation:
//!
//! * **recall** — a fraction of objects is missed (deterministically per
//!   object and frame);
//! * **minimum size** — small objects are missed preferentially (the actual
//!   dominant failure of YOLOv3-tiny, which drives §5.2.4's finding that
//!   tiny-YOLO layouts reach only ~16% improvement);
//! * **jitter** — box corners are perturbed by a fraction of the box size.
//!
//! Cost per frame follows the sources the paper cites: full YOLOv3 runs at
//! ~16 fps on an embedded GPU \[20\] and ~45 fps on a server GPU; tiny at
//! ~220 fps.

use crate::{Detector, RawDetection};
use tasm_video::{Frame, Rect};

/// Where the detector runs — sets the simulated per-frame cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// Server-class GPU (the paper's P5000 testbed).
    ServerGpu,
    /// Embedded GPU on an edge camera.
    EdgeGpu,
}

/// Configuration of a simulated detector.
#[derive(Debug, Clone)]
struct YoloConfig {
    /// Report name.
    name: &'static str,
    /// Probability an object (large enough) is detected on a given frame.
    recall: f64,
    /// Objects smaller than this fraction of the frame area are missed.
    min_area_frac: f64,
    /// Box corners move by up to this fraction of box dimensions.
    jitter_frac: f64,
    /// Seconds per frame on a server GPU.
    server_spf: f64,
    /// Seconds per frame on an edge GPU.
    edge_spf: f64,
}

/// A deterministic simulated YOLO detector.
pub struct SimulatedYolo {
    cfg: YoloConfig,
    platform: Platform,
    seed: u64,
}

impl SimulatedYolo {
    /// Full YOLOv3: high recall, small jitter. ~45 fps server, ~16 fps edge.
    pub fn full(seed: u64) -> Self {
        SimulatedYolo {
            cfg: YoloConfig {
                name: "yolov3",
                recall: 0.95,
                min_area_frac: 0.00005,
                jitter_frac: 0.04,
                server_spf: 1.0 / 45.0,
                edge_spf: 1.0 / 16.0,
            },
            platform: Platform::ServerGpu,
            seed,
        }
    }

    /// YOLOv3-tiny: fast but misses roughly half of the objects, all small
    /// ones, and localizes poorly.
    pub fn tiny(seed: u64) -> Self {
        SimulatedYolo {
            cfg: YoloConfig {
                name: "yolov3-tiny",
                recall: 0.55,
                min_area_frac: 0.002,
                jitter_frac: 0.15,
                server_spf: 1.0 / 220.0,
                edge_spf: 1.0 / 60.0,
            },
            platform: Platform::ServerGpu,
            seed,
        }
    }

    /// Moves the detector to a platform (changes only the cost profile).
    pub fn on(mut self, platform: Platform) -> Self {
        self.platform = platform;
        self
    }
}

#[inline]
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

#[inline]
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

impl Detector for SimulatedYolo {
    fn name(&self) -> &'static str {
        self.cfg.name
    }

    fn seconds_per_frame(&self) -> f64 {
        match self.platform {
            Platform::ServerGpu => self.cfg.server_spf,
            Platform::EdgeGpu => self.cfg.edge_spf,
        }
    }

    fn needs_pixels(&self) -> bool {
        false
    }

    fn detect(
        &mut self,
        frame_idx: u32,
        pixels: Option<&Frame>,
        truth: &[(&'static str, Rect)],
    ) -> Vec<RawDetection> {
        // Frame bounds for jitter clamping: from pixels when available,
        // otherwise from the hull of the truth boxes (jitter stays inside).
        let (fw, fh) = match pixels {
            Some(f) => (f.width(), f.height()),
            None => {
                let hull = Rect::hull(truth.iter().map(|(_, b)| b));
                (hull.right().max(1), hull.bottom().max(1))
            }
        };
        let frame_area = fw as f64 * fh as f64;
        let mut out = Vec::with_capacity(truth.len());
        for (i, (label, bbox)) in truth.iter().enumerate() {
            let h =
                splitmix(self.seed ^ ((frame_idx as u64) << 24) ^ (i as u64) ^ hash_label(label));
            // Size gate: small objects are invisible to this detector.
            if (bbox.area() as f64) < self.cfg.min_area_frac * frame_area {
                continue;
            }
            // Recall gate.
            if unit(splitmix(h ^ 1)) >= self.cfg.recall {
                continue;
            }
            // Jitter each edge independently.
            let jx = (self.cfg.jitter_frac * bbox.w as f64) as i64;
            let jy = (self.cfg.jitter_frac * bbox.h as f64) as i64;
            let dx = jitter(splitmix(h ^ 2), jx);
            let dy = jitter(splitmix(h ^ 3), jy);
            let dw = jitter(splitmix(h ^ 4), jx);
            let dh = jitter(splitmix(h ^ 5), jy);
            let x = (bbox.x as i64 + dx).max(0) as u32;
            let y = (bbox.y as i64 + dy).max(0) as u32;
            let w = ((bbox.w as i64 + dw).max(4)) as u32;
            let hgt = ((bbox.h as i64 + dh).max(4)) as u32;
            let jittered = Rect::new(x, y, w, hgt).clamp_to(fw, fh);
            if jittered.is_empty() {
                continue;
            }
            out.push(RawDetection {
                label: label.to_string(),
                bbox: jittered,
                confidence: 0.5 + 0.5 * unit(splitmix(h ^ 6)),
            });
        }
        out
    }
}

fn hash_label(label: &str) -> u64 {
    label.bytes().fold(0xcbf29ce484222325u64, |acc, b| {
        (acc ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// Signed jitter in [-range, range].
fn jitter(h: u64, range: i64) -> i64 {
    if range == 0 {
        return 0;
    }
    (h % (2 * range as u64 + 1)) as i64 - range
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> Vec<(&'static str, Rect)> {
        vec![
            ("car", Rect::new(100, 100, 64, 40)),
            ("person", Rect::new(300, 200, 20, 52)),
            ("car", Rect::new(500, 80, 60, 36)),
        ]
    }

    #[test]
    fn full_yolo_detects_most_objects() {
        let mut d = SimulatedYolo::full(7);
        let mut total = 0;
        for f in 0..100 {
            total += d.detect(f, None, &truth()).len();
        }
        // recall 0.95 over 300 opportunities.
        assert!((265..=300).contains(&total), "detected {total}/300");
    }

    #[test]
    fn detection_is_deterministic() {
        let mut a = SimulatedYolo::full(7);
        let mut b = SimulatedYolo::full(7);
        assert_eq!(a.detect(5, None, &truth()), b.detect(5, None, &truth()));
    }

    #[test]
    fn tiny_misses_small_objects() {
        let mut tiny = SimulatedYolo::tiny(7);
        // 640x360-ish scene: the 20x52 person is ~0.45% of the frame — above
        // tiny's gate; shrink it below.
        let small = vec![("person", Rect::new(300, 200, 8, 12))];
        let frame = Frame::black(640, 352);
        for f in 0..50 {
            assert!(
                tiny.detect(f, Some(&frame), &small).is_empty(),
                "tiny-YOLO should never see an 8x12 object"
            );
        }
    }

    #[test]
    fn tiny_detects_fewer_than_full() {
        let mut full = SimulatedYolo::full(7);
        let mut tiny = SimulatedYolo::tiny(7);
        let frame = Frame::black(640, 352);
        let (mut nf, mut nt) = (0, 0);
        for f in 0..100 {
            nf += full.detect(f, Some(&frame), &truth()).len();
            nt += tiny.detect(f, Some(&frame), &truth()).len();
        }
        assert!(nt < nf, "tiny ({nt}) should trail full ({nf})");
    }

    #[test]
    fn jitter_keeps_boxes_in_frame_and_overlapping() {
        let mut d = SimulatedYolo::full(3);
        let frame = Frame::black(640, 352);
        let t = truth();
        for f in 0..50 {
            for det in d.detect(f, Some(&frame), &t) {
                assert!(det.bbox.right() <= 640 && det.bbox.bottom() <= 352);
                let overlaps_truth = t
                    .iter()
                    .any(|(l, b)| *l == det.label && det.bbox.iou(b) > 0.3);
                assert!(
                    overlaps_truth,
                    "jittered box {:?} drifted too far",
                    det.bbox
                );
                assert!((0.5..=1.0).contains(&det.confidence));
            }
        }
    }

    #[test]
    fn edge_platform_is_slower() {
        let server = SimulatedYolo::full(1);
        let edge = SimulatedYolo::full(1).on(Platform::EdgeGpu);
        assert!(edge.seconds_per_frame() > server.seconds_per_frame());
        // Paper: embedded GPUs reach up to 16 fps on full YOLOv3.
        assert!((edge.seconds_per_frame() - 1.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn empty_truth_yields_empty() {
        let mut d = SimulatedYolo::full(1);
        assert!(d.detect(0, None, &[]).is_empty());
    }
}
