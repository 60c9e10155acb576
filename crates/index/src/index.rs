//! The semantic index: TASM's store of object metadata (§3.2–3.3).
//!
//! The index maps `(video, label, time)` to object bounding boxes. It is
//! populated incrementally through `AddMetadata` as the query processor (or
//! an edge camera) detects objects, and queried by the storage manager both
//! to answer `Scan` calls and to design tile layouts.
//!
//! Alongside detections, the index records which frames a detector has
//! *processed*: TASM's lazy strategies must distinguish "no objects found on
//! this frame" from "this frame was never analyzed" (§4.3).

use crate::key::{RecordKey, FIRST_LABEL, MAX_LABEL_LEN, PROCESSED_LABEL};
use std::collections::BTreeMap;
use std::io;
use std::ops::Range;
use tasm_video::Rect;

/// Errors from the semantic index.
#[derive(Debug)]
pub enum TreeError {
    /// Backend I/O failure.
    Io(io::Error),
    /// A file is not a valid index or is structurally inconsistent.
    Corrupt(&'static str),
    /// `add_metadata` refused a label longer than [`MAX_LABEL_LEN`] bytes
    /// (the byte length it was given).
    LabelTooLong(usize),
    /// A write to a [`crate::TieredIndex`] handle that opened beside the
    /// directory's owner while that owner still lives.
    ReadOnly,
}

impl From<io::Error> for TreeError {
    fn from(e: io::Error) -> Self {
        TreeError::Io(e)
    }
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::Io(e) => write!(f, "index I/O error: {e}"),
            TreeError::Corrupt(what) => write!(f, "index corrupt: {what}"),
            TreeError::ReadOnly => {
                write!(
                    f,
                    "index is owned by another open handle; this one only reads"
                )
            }
            TreeError::LabelTooLong(len) => {
                write!(
                    f,
                    "label of {len} bytes exceeds the {MAX_LABEL_LEN}-byte limit"
                )
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// Result alias for index operations.
pub type IndexResult<T> = Result<T, TreeError>;

/// Refuses a label no index can store (checked before interning).
pub(crate) fn check_label(label: &str) -> IndexResult<()> {
    if label.len() > MAX_LABEL_LEN {
        return Err(TreeError::LabelTooLong(label.len()));
    }
    Ok(())
}

/// A detection returned for a specific queried label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// Frame the object appears on.
    pub frame: u32,
    /// Object bounding box in luma pixel coordinates.
    pub bbox: Rect,
}

/// A detection with its label, for whole-video queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledDetection {
    /// Object class.
    pub label: String,
    /// Frame the object appears on.
    pub frame: u32,
    /// Object bounding box in luma pixel coordinates.
    pub bbox: Rect,
}

/// Object-safe interface the storage manager programs against.
pub trait SemanticIndex {
    /// Records one bounding box for `label` on `frame` of `video`
    /// (the paper's `AddMetadata`).
    fn add_metadata(&mut self, video: u32, label: &str, frame: u32, bbox: Rect) -> IndexResult<()>;

    /// All detections of `label` in `frames`, ordered by frame.
    fn query(&mut self, video: u32, label: &str, frames: Range<u32>)
        -> IndexResult<Vec<Detection>>;

    /// All detections of any label in `frames`, label by label in
    /// [`labels`](Self::labels) order.
    fn query_all(&mut self, video: u32, frames: Range<u32>) -> IndexResult<Vec<LabeledDetection>> {
        let mut out = Vec::new();
        for label in self.labels(video)? {
            for d in self.query(video, &label, frames.clone())? {
                out.push(LabeledDetection {
                    label: label.clone(),
                    frame: d.frame,
                    bbox: d.bbox,
                });
            }
        }
        Ok(out)
    }

    /// Distinct labels with at least one detection in `video`.
    fn labels(&mut self, video: u32) -> IndexResult<Vec<String>>;

    /// Marks `frame` as processed by a detector.
    fn mark_processed(&mut self, video: u32, frame: u32) -> IndexResult<()>;

    /// Number of frames in `frames` already processed by a detector.
    fn processed_count(&mut self, video: u32, frames: Range<u32>) -> IndexResult<u32>;

    /// Total detections stored (all videos), excluding processed markers.
    fn detection_count(&self) -> u64;

    /// Persists buffered state.
    fn flush(&mut self) -> IndexResult<()>;
}

/// The in-memory reference index: one ordered map over the same
/// `(video, label, frame, seq)` keys [`crate::TieredIndex`] stores. Tests
/// use it as the oracle the tier must match; examples and figures use it as
/// a throwaway index.
#[derive(Default)]
pub struct MemoryIndex {
    records: BTreeMap<RecordKey, Rect>,
    /// `labels[i]` is the label with id `FIRST_LABEL + i`.
    labels: Vec<String>,
    /// Insertion sequence: the key uniquifier for detections.
    seq: u64,
    /// Detections stored (excludes processed markers).
    detections: u64,
}

impl MemoryIndex {
    /// Creates an empty in-memory index.
    pub fn in_memory() -> Self {
        Self::default()
    }

    fn label_id(&self, label: &str) -> Option<u32> {
        let pos = self.labels.iter().position(|n| n == label)?;
        Some(FIRST_LABEL + pos as u32)
    }
}

impl SemanticIndex for MemoryIndex {
    fn add_metadata(&mut self, video: u32, label: &str, frame: u32, bbox: Rect) -> IndexResult<()> {
        check_label(label)?;
        let label_id = match self.label_id(label) {
            Some(id) => id,
            None => {
                self.labels.push(label.to_string());
                FIRST_LABEL + self.labels.len() as u32 - 1
            }
        };
        self.seq += 1;
        let key = RecordKey::new(video, label_id, frame, self.seq as u32);
        self.records.insert(key, bbox);
        self.detections += 1;
        Ok(())
    }

    fn query(
        &mut self,
        video: u32,
        label: &str,
        frames: Range<u32>,
    ) -> IndexResult<Vec<Detection>> {
        let Some(label_id) = self.label_id(label) else {
            return Ok(Vec::new());
        };
        if frames.start >= frames.end {
            return Ok(Vec::new());
        }
        let lo = RecordKey::range_start(video, label_id, frames.start);
        let hi = RecordKey::range_start(video, label_id, frames.end);
        Ok(self
            .records
            .range(lo..hi)
            .map(|(k, &bbox)| Detection {
                frame: k.frame,
                bbox,
            })
            .collect())
    }

    fn labels(&mut self, video: u32) -> IndexResult<Vec<String>> {
        // Skip-scan: jump from label to label instead of reading every record.
        let mut out = Vec::new();
        let mut probe = RecordKey::new(video, FIRST_LABEL, 0, 0);
        while let Some(k) = self.records.range(probe..).next().map(|(k, _)| *k) {
            if k.video != video {
                break;
            }
            out.push(self.labels[(k.label - FIRST_LABEL) as usize].clone());
            let Some(next_label) = k.label.checked_add(1) else {
                break;
            };
            probe = RecordKey::new(video, next_label, 0, 0);
        }
        Ok(out)
    }

    fn mark_processed(&mut self, video: u32, frame: u32) -> IndexResult<()> {
        // Idempotent: seq 0, so re-marking overwrites the same record.
        let key = RecordKey::new(video, PROCESSED_LABEL, frame, 0);
        self.records.insert(key, Rect::new(0, 0, 0, 0));
        Ok(())
    }

    fn processed_count(&mut self, video: u32, frames: Range<u32>) -> IndexResult<u32> {
        if frames.start >= frames.end {
            return Ok(0);
        }
        let lo = RecordKey::range_start(video, PROCESSED_LABEL, frames.start);
        let hi = RecordKey::range_start(video, PROCESSED_LABEL, frames.end);
        Ok(self.records.range(lo..hi).count() as u32)
    }

    fn detection_count(&self) -> u64 {
        self.detections
    }

    fn flush(&mut self) -> IndexResult<()> {
        Ok(())
    }
}

#[cfg(test)]
impl MemoryIndex {
    /// Every record, in key order (the tier's tests compare against it).
    pub(crate) fn records(&self) -> impl Iterator<Item = (&RecordKey, &Rect)> {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bbox(n: u32) -> Rect {
        Rect::new(n * 10, n * 10, 32, 32)
    }

    #[test]
    fn add_and_query_single_label() {
        let mut idx = MemoryIndex::in_memory();
        idx.add_metadata(1, "car", 10, bbox(1)).unwrap();
        idx.add_metadata(1, "car", 12, bbox(2)).unwrap();
        idx.add_metadata(1, "car", 30, bbox(3)).unwrap();
        let hits = idx.query(1, "car", 0..20).unwrap();
        assert_eq!(hits.len(), 2);
        assert_eq!(
            hits[0],
            Detection {
                frame: 10,
                bbox: bbox(1)
            }
        );
        assert_eq!(
            hits[1],
            Detection {
                frame: 12,
                bbox: bbox(2)
            }
        );
    }

    #[test]
    fn multiple_boxes_same_frame_kept() {
        let mut idx = MemoryIndex::in_memory();
        idx.add_metadata(0, "person", 5, bbox(1)).unwrap();
        idx.add_metadata(0, "person", 5, bbox(2)).unwrap();
        idx.add_metadata(0, "person", 5, bbox(3)).unwrap();
        assert_eq!(idx.query(0, "person", 5..6).unwrap().len(), 3);
        assert_eq!(idx.detection_count(), 3);
    }

    #[test]
    fn unknown_label_and_video_return_empty() {
        let mut idx = MemoryIndex::in_memory();
        idx.add_metadata(0, "car", 1, bbox(1)).unwrap();
        assert!(idx.query(0, "giraffe", 0..100).unwrap().is_empty());
        assert!(idx.query(7, "car", 0..100).unwrap().is_empty());
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = 50..10;
        assert!(idx.query(0, "car", inverted).unwrap().is_empty());
    }

    #[test]
    fn labels_are_per_video() {
        let mut idx = MemoryIndex::in_memory();
        idx.add_metadata(0, "car", 1, bbox(1)).unwrap();
        idx.add_metadata(0, "person", 2, bbox(2)).unwrap();
        idx.add_metadata(1, "bird", 3, bbox(3)).unwrap();
        let mut l0 = idx.labels(0).unwrap();
        l0.sort();
        assert_eq!(l0, vec!["car", "person"]);
        assert_eq!(idx.labels(1).unwrap(), vec!["bird"]);
        assert!(idx.labels(2).unwrap().is_empty());
    }

    #[test]
    fn labels_come_back_in_interning_order() {
        let mut idx = MemoryIndex::in_memory();
        for label in ["person", "car", "person", "bird"] {
            idx.add_metadata(0, label, 1, bbox(1)).unwrap();
        }
        // Ids are FIRST_LABEL + first-seen position; a repeat reuses its id.
        assert_eq!(idx.labels(0).unwrap(), vec!["person", "car", "bird"]);
        assert_eq!(idx.query(0, "person", 0..2).unwrap().len(), 2);
    }

    #[test]
    fn query_all_includes_every_label() {
        let mut idx = MemoryIndex::in_memory();
        idx.add_metadata(0, "car", 1, bbox(1)).unwrap();
        idx.add_metadata(0, "person", 1, bbox(2)).unwrap();
        idx.add_metadata(0, "person", 50, bbox(3)).unwrap();
        let all = idx.query_all(0, 0..10).unwrap();
        assert_eq!(all.len(), 2);
        assert!(all.iter().any(|d| d.label == "car" && d.frame == 1));
        assert!(all.iter().any(|d| d.label == "person" && d.frame == 1));
    }

    #[test]
    fn processed_markers_do_not_pollute_labels_or_counts() {
        let mut idx = MemoryIndex::in_memory();
        idx.mark_processed(0, 1).unwrap();
        idx.mark_processed(0, 2).unwrap();
        idx.mark_processed(0, 2).unwrap(); // idempotent
        idx.add_metadata(0, "car", 1, bbox(1)).unwrap();
        assert_eq!(idx.labels(0).unwrap(), vec!["car"]);
        assert_eq!(idx.detection_count(), 1);
        assert_eq!(idx.processed_count(0, 0..10).unwrap(), 2);
        assert_eq!(idx.processed_count(0, 3..10).unwrap(), 0);
        assert_eq!(idx.processed_count(1, 0..10).unwrap(), 0);
    }

    #[test]
    fn large_volume_query_window() {
        let mut idx = MemoryIndex::in_memory();
        // 20k detections across two labels and 2000 frames.
        for f in 0..2000u32 {
            for i in 0..5 {
                idx.add_metadata(0, if i % 2 == 0 { "car" } else { "person" }, f, bbox(i))
                    .unwrap();
            }
        }
        let cars = idx.query(0, "car", 500..600).unwrap();
        assert_eq!(cars.len(), 3 * 100);
        assert!(cars.windows(2).all(|w| w[0].frame <= w[1].frame));
    }
}
