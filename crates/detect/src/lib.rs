//! Object-detection substrate for the TASM reproduction.
//!
//! TASM never runs neural networks itself — it consumes `(label, bounding
//! box)` streams produced by detectors and reasons about their *cost* and
//! *quality* (§3.3, §4.3, §5.2.4). This crate provides those streams:
//!
//! * [`yolo`] — simulated YOLOv3 / YOLOv3-tiny: ground-truth boxes degraded
//!   by configurable recall, minimum object size, and jitter, with per-frame
//!   cost profiles taken from the figures the paper cites (full YOLOv3 at
//!   ~16 fps on an embedded GPU, faster on a server GPU);
//! * [`background`] — a real running-average background subtractor with
//!   connected-component box extraction, reproducing the §5.2.4 failure
//!   modes (poor boxes, useless under camera motion);
//! * [`sampled`] — run any detector every k-th frame (edge strategy,
//!   §5.2.4).
//!
//! Detectors are deterministic: the same frame yields the same detections.

#![forbid(unsafe_code)]

pub mod background;
pub mod sampled;
pub mod yolo;

use tasm_video::{Frame, Rect};

/// One detector output: a labelled box with a confidence score.
#[derive(Debug, Clone, PartialEq)]
pub struct RawDetection {
    /// Object class label.
    pub label: String,
    /// Bounding box in luma pixels.
    pub bbox: Rect,
    /// Confidence in [0, 1].
    pub confidence: f64,
}

/// A source of object detections.
pub trait Detector {
    /// Short name for reports ("yolov3", "yolov3-tiny", "bg-subtraction").
    fn name(&self) -> &'static str;

    /// Simulated inference cost per processed frame, in seconds. Used by the
    /// harness to account for detection time (Figure 12) without actually
    /// running a network.
    fn seconds_per_frame(&self) -> f64;

    /// True if [`Detector::detect`] reads pixels (callers can skip rendering
    /// frames for detectors that only consume ground truth).
    fn needs_pixels(&self) -> bool;

    /// The first frame a pass starting at `frame` must feed the detector for
    /// `frame` to get what an uninterrupted pass gives it.
    fn resume_from(&self, frame: u32) -> u32 {
        frame
    }

    /// Detects objects on one frame.
    ///
    /// `truth` carries the generator's ground-truth boxes (what a perfect
    /// detector would output); pixel-based detectors ignore it and use
    /// `pixels` instead. Deterministic per (detector state, frame_idx).
    fn detect(
        &mut self,
        frame_idx: u32,
        pixels: Option<&Frame>,
        truth: &[(&'static str, Rect)],
    ) -> Vec<RawDetection>;
}

impl<D: Detector + ?Sized> Detector for Box<D> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn seconds_per_frame(&self) -> f64 {
        (**self).seconds_per_frame()
    }

    fn needs_pixels(&self) -> bool {
        (**self).needs_pixels()
    }

    fn resume_from(&self, frame: u32) -> u32 {
        (**self).resume_from(frame)
    }

    fn detect(
        &mut self,
        frame_idx: u32,
        pixels: Option<&Frame>,
        truth: &[(&'static str, Rect)],
    ) -> Vec<RawDetection> {
        (**self).detect(frame_idx, pixels, truth)
    }
}

#[cfg(test)]
mod tests {
    use super::yolo::SimulatedYolo;
    use super::*;

    #[test]
    fn trait_object_usable() {
        let mut d: Box<dyn Detector> = Box::new(SimulatedYolo::full(1));
        let out = d.detect(0, None, &[("car", Rect::new(10, 10, 40, 30))]);
        assert_eq!(d.name(), "yolov3");
        assert!(!out.is_empty());
    }
}
