//! Composite keys for the semantic index.
//!
//! The paper's index is "a B-tree clustered on (video, label, time)" (§3.2).
//! [`RecordKey`] implements that clustering: keys compare first by video,
//! then label, then frame, with a sequence number to disambiguate multiple
//! detections of the same label on the same frame. Keys serialize to 16
//! big-endian bytes so that byte-wise comparison equals logical comparison.

use tasm_video::Rect;

/// Byte length of an encoded key.
pub const KEY_LEN: usize = 16;

/// Byte length of an encoded value (a bounding box).
pub const VALUE_LEN: usize = 16;

/// Reserved label id marking frames a detector has processed, so that "no
/// boxes" can be told apart from "never looked" (§4.3).
pub const PROCESSED_LABEL: u32 = 0;

/// First id handed out to a real label.
pub const FIRST_LABEL: u32 = 1;

/// Longest label name, in bytes, the index accepts: the tier writes a
/// name's length as a `u16` in WAL records and run dictionaries.
pub const MAX_LABEL_LEN: usize = u16::MAX as usize;

/// Composite key: `(video, label, frame, seq)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordKey {
    /// Video identifier.
    pub video: u32,
    /// Label identifier (from the label dictionary).
    pub label: u32,
    /// Frame number within the video.
    pub frame: u32,
    /// Insertion sequence number (uniquifier).
    pub seq: u32,
}

impl RecordKey {
    /// Creates a key.
    pub fn new(video: u32, label: u32, frame: u32, seq: u32) -> Self {
        RecordKey {
            video,
            label,
            frame,
            seq,
        }
    }

    /// Smallest key for `(video, label)` — the start of a clustered range.
    pub fn range_start(video: u32, label: u32, frame: u32) -> Self {
        RecordKey::new(video, label, frame, 0)
    }

    /// Encodes as 16 big-endian bytes; byte order equals key order.
    pub fn encode(&self) -> [u8; KEY_LEN] {
        let mut out = [0u8; KEY_LEN];
        out[0..4].copy_from_slice(&self.video.to_be_bytes());
        out[4..8].copy_from_slice(&self.label.to_be_bytes());
        out[8..12].copy_from_slice(&self.frame.to_be_bytes());
        out[12..16].copy_from_slice(&self.seq.to_be_bytes());
        out
    }

    /// Decodes from 16 big-endian bytes.
    pub fn decode(bytes: &[u8]) -> Self {
        assert_eq!(bytes.len(), KEY_LEN, "key must be {KEY_LEN} bytes");
        let be = |r: std::ops::Range<usize>| u32::from_be_bytes(bytes[r].try_into().unwrap());
        RecordKey {
            video: be(0..4),
            label: be(4..8),
            frame: be(8..12),
            seq: be(12..16),
        }
    }
}

/// Encodes a bounding box value as 16 little-endian bytes.
pub fn encode_value(rect: &Rect) -> [u8; VALUE_LEN] {
    let mut out = [0u8; VALUE_LEN];
    out[0..4].copy_from_slice(&rect.x.to_le_bytes());
    out[4..8].copy_from_slice(&rect.y.to_le_bytes());
    out[8..12].copy_from_slice(&rect.w.to_le_bytes());
    out[12..16].copy_from_slice(&rect.h.to_le_bytes());
    out
}

/// Decodes a bounding box value.
pub fn decode_value(bytes: &[u8]) -> Rect {
    assert_eq!(bytes.len(), VALUE_LEN, "value must be {VALUE_LEN} bytes");
    let le = |r: std::ops::Range<usize>| u32::from_le_bytes(bytes[r].try_into().unwrap());
    Rect::new(le(0..4), le(4..8), le(8..12), le(12..16))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let k = RecordKey::new(7, 3, 1000, 42);
        assert_eq!(RecordKey::decode(&k.encode()), k);
    }

    #[test]
    fn byte_order_matches_logical_order() {
        let keys = [
            RecordKey::new(0, 0, 0, 0),
            RecordKey::new(0, 0, 0, 1),
            RecordKey::new(0, 0, 255, 0),
            RecordKey::new(0, 0, 256, 0),
            RecordKey::new(0, 1, 0, 0),
            RecordKey::new(1, 0, 0, 0),
            RecordKey::new(1, 0, u32::MAX, 0),
            RecordKey::new(u32::MAX, u32::MAX, u32::MAX, u32::MAX),
        ];
        for pair in keys.windows(2) {
            assert!(pair[0] < pair[1]);
            assert!(
                pair[0].encode() < pair[1].encode(),
                "byte order broken between {:?} and {:?}",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn clustering_groups_video_then_label_then_frame() {
        // All detections for (video=2, label=5) sort between the range
        // markers — the property range scans rely on.
        let lo = RecordKey::range_start(2, 5, 0);
        let hi = RecordKey::range_start(2, 6, 0);
        let inside = RecordKey::new(2, 5, 999, 7);
        let outside = RecordKey::new(2, 6, 0, 0);
        assert!(lo <= inside && inside < hi);
        assert!(outside >= hi);
    }

    #[test]
    fn value_roundtrip() {
        let r = Rect::new(10, 20, 30, 40);
        assert_eq!(decode_value(&encode_value(&r)), r);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_key_roundtrip(v in any::<u32>(), l in any::<u32>(), f in any::<u32>(), s in any::<u32>()) {
            let k = RecordKey::new(v, l, f, s);
            prop_assert_eq!(RecordKey::decode(&k.encode()), k);
        }

        #[test]
        fn prop_byte_order_total(a in any::<[u32; 4]>(), b in any::<[u32; 4]>()) {
            let ka = RecordKey::new(a[0], a[1], a[2], a[3]);
            let kb = RecordKey::new(b[0], b[1], b[2], b[3]);
            prop_assert_eq!(ka.cmp(&kb), ka.encode().cmp(&kb.encode()));
        }

        #[test]
        fn prop_value_roundtrip(x in any::<u32>(), y in any::<u32>(), w in any::<u32>(), h in any::<u32>()) {
            let r = Rect::new(x, y, w, h);
            prop_assert_eq!(decode_value(&encode_value(&r)), r);
        }
    }
}
