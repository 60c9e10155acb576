//! Frame-sampled detection.
//!
//! Edge cameras cannot run a heavy detector at capture rate (§4.3, §5.2.4):
//! "executing object detection every few frames yields tile layouts that
//! perform similarly to layouts created around detections from every frame".
//! [`SampledDetector`] wraps any detector and runs it on every k-th frame,
//! returning the last detections (held boxes) for skipped frames.

use crate::{Detector, RawDetection};
use tasm_video::{Frame, Rect};

/// Runs an inner detector every `stride` frames.
pub struct SampledDetector<D: Detector> {
    inner: D,
    stride: u32,
    /// Detections from the most recent processed frame, replayed on
    /// skipped frames (objects persist across a few frames).
    held: Vec<RawDetection>,
    processed: u64,
    offered: u64,
}

impl<D: Detector> SampledDetector<D> {
    /// Wraps `inner`, running it on frames where `frame_idx % stride == 0`.
    ///
    /// # Panics
    /// Panics if `stride` is zero.
    pub fn new(inner: D, stride: u32) -> Self {
        assert!(stride > 0, "stride must be positive");
        SampledDetector {
            inner,
            stride,
            held: Vec::new(),
            processed: 0,
            offered: 0,
        }
    }

    /// Frames actually run through the inner detector.
    pub fn frames_processed(&self) -> u64 {
        self.processed
    }

    /// Total detection cost so far in simulated seconds (only processed
    /// frames cost anything).
    pub fn total_cost_seconds(&self) -> f64 {
        self.processed as f64 * self.inner.seconds_per_frame()
    }

    /// Access the wrapped detector.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: Detector> Detector for SampledDetector<D> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn seconds_per_frame(&self) -> f64 {
        // Amortized: inner cost spread over the stride.
        self.inner.seconds_per_frame() / self.stride as f64
    }

    fn needs_pixels(&self) -> bool {
        self.inner.needs_pixels()
    }

    /// The last sampled frame: a skipped frame replays its boxes.
    fn resume_from(&self, frame: u32) -> u32 {
        frame - frame % self.stride
    }

    fn detect(
        &mut self,
        frame_idx: u32,
        pixels: Option<&Frame>,
        truth: &[(&'static str, Rect)],
    ) -> Vec<RawDetection> {
        self.offered += 1;
        if frame_idx.is_multiple_of(self.stride) {
            self.held = self.inner.detect(frame_idx, pixels, truth);
            self.processed += 1;
        }
        self.held.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::yolo::SimulatedYolo;

    fn truth(x: u32) -> Vec<(&'static str, Rect)> {
        vec![("car", Rect::new(x, 50, 60, 40))]
    }

    #[test]
    fn processes_every_kth_frame() {
        let mut d = SampledDetector::new(SimulatedYolo::full(1), 5);
        for f in 0..20 {
            d.detect(f, None, &truth(f * 2));
        }
        assert_eq!(d.frames_processed(), 4); // frames 0, 5, 10, 15
    }

    #[test]
    fn holds_boxes_between_samples() {
        let mut d = SampledDetector::new(SimulatedYolo::full(1), 5);
        let at0 = d.detect(0, None, &truth(100));
        // Frame 3: object moved, but held boxes are from frame 0.
        let at3 = d.detect(3, None, &truth(130));
        assert_eq!(at0, at3);
        // Frame 5: re-detected at the new position.
        let at5 = d.detect(5, None, &truth(150));
        assert_ne!(at3, at5);
    }

    #[test]
    fn amortized_cost_scales_with_stride() {
        let every = SampledDetector::new(SimulatedYolo::full(1), 1);
        let fifth = SampledDetector::new(SimulatedYolo::full(1), 5);
        assert!((every.seconds_per_frame() / fifth.seconds_per_frame() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn total_cost_counts_only_processed() {
        let mut d = SampledDetector::new(SimulatedYolo::full(1), 2);
        for f in 0..10 {
            d.detect(f, None, &truth(f));
        }
        let expected = 5.0 * SimulatedYolo::full(1).seconds_per_frame();
        assert!((d.total_cost_seconds() - expected).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn zero_stride_rejected() {
        let _ = SampledDetector::new(SimulatedYolo::full(1), 0);
    }
}
