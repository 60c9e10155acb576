//! Composite keys for the semantic index.
//!
//! The paper's index is "a B-tree clustered on (video, label, time)" (§3.2).
//! [`RecordKey`] implements that clustering: keys compare first by video,
//! then label, then frame, with a sequence number to disambiguate multiple
//! detections of the same label on the same frame. Keys serialize to 16
//! big-endian bytes so that byte-wise comparison equals logical comparison.
//!
//! The numbers of a record beside its key (WAL fields, boxes) are
//! varints: unsigned LEB128 ([`put_varint`]), with zigzag ([`put_delta`])
//! for the signed difference from a previous value. `FORMAT.md` at the
//! repository root lays out the files built from them.

use crate::index::TreeError;
use tasm_video::Rect;

/// Byte length of an encoded key.
pub const KEY_LEN: usize = 16;

/// Byte length of a fixed-width box ([`decode_value`]); also what the
/// tier counts per memtable entry beside the key.
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

/// Decodes a bounding box stored as 16 bytes: x, y, w, h as
/// little-endian `u32` (the box of a v1 WAL record and of a `TSR1` run
/// entry; this build writes [`put_value_varint`]).
pub fn decode_value(bytes: &[u8]) -> Rect {
    assert_eq!(bytes.len(), VALUE_LEN, "value must be {VALUE_LEN} bytes");
    let le = |r: std::ops::Range<usize>| u32::from_le_bytes(bytes[r].try_into().unwrap());
    Rect::new(le(0..4), le(4..8), le(8..12), le(12..16))
}

/// Longest varint: ten groups of seven bits hold a `u64`.
const MAX_VARINT_LEN: usize = 10;

/// Appends `v` as an unsigned LEB128 varint: seven bits a byte, the low
/// group first, the high bit set on every byte but the last.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads the varint at `*pos` and moves `*pos` past it. `None` when the
/// varint is cut off by the end of `data` or overlong (more than ten
/// bytes, or bits past the 64th); `*pos` is then unchanged and nothing
/// past `data` was read.
pub fn get_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    for (i, &b) in data.get(*pos..)?.iter().take(MAX_VARINT_LEN).enumerate() {
        if i == MAX_VARINT_LEN - 1 && b > 1 {
            return None;
        }
        v |= u64::from(b & 0x7F) << (7 * i);
        if b < 0x80 {
            *pos += i + 1;
            return Some(v);
        }
    }
    None
}

/// Zigzag-maps a signed value so that small magnitudes of either sign
/// make small varints: 0, -1, 1, -2 … become 0, 1, 2, 3 ….
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverts [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

/// Appends `v` as the zigzag varint of its difference from `prev`
/// (wrapping, so any two `u64` round-trip through [`get_delta`]).
pub fn put_delta(out: &mut Vec<u8>, prev: u64, v: u64) {
    put_varint(out, zigzag(v.wrapping_sub(prev) as i64));
}

/// Reads a value [`put_delta`] wrote against `prev`.
pub fn get_delta(data: &[u8], pos: &mut usize, prev: u64) -> Option<u64> {
    get_varint(data, pos).map(|z| prev.wrapping_add(unzigzag(z) as u64))
}

/// Appends a bounding box as four varints: x, y, w, h.
pub fn put_value_varint(out: &mut Vec<u8>, rect: &Rect) {
    for v in [rect.x, rect.y, rect.w, rect.h] {
        put_varint(out, u64::from(v));
    }
}

/// Reads a box [`put_value_varint`] wrote; `None` when a varint is cut
/// off, overlong, or too large for a `u32`.
pub fn get_value_varint(data: &[u8], pos: &mut usize) -> Option<Rect> {
    let mut start = *pos;
    let mut v = [0u32; 4];
    for slot in &mut v {
        *slot = u32::try_from(get_varint(data, &mut start)?).ok()?;
    }
    *pos = start;
    Some(Rect::new(v[0], v[1], v[2], v[3]))
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a run's or a WAL frame's fields front to back; a read past the
/// end of its bytes is [`TreeError::Corrupt`].
pub(crate) struct Cursor<'a> {
    data: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], TreeError> {
        if self.data.len() - self.pos < n {
            return Err(TreeError::Corrupt("run region truncated"));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// A `u32` count of items at least `min_len` bytes each, refused
    /// when the rest of the bytes cannot hold that many.
    pub(crate) fn count(&mut self, min_len: usize) -> Result<usize, TreeError> {
        let n = self.u32()? as usize;
        if n > (self.data.len() - self.pos) / min_len {
            return Err(TreeError::Corrupt("run count exceeds its region"));
        }
        Ok(n)
    }

    pub(crate) fn u16(&mut self) -> Result<u16, TreeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, TreeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, TreeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn varint(&mut self) -> Result<u64, TreeError> {
        get_varint(self.data, &mut self.pos).ok_or(TreeError::Corrupt("varint cut off or overlong"))
    }

    /// A value coded as a [`put_delta`] from `prev`.
    pub(crate) fn delta(&mut self, prev: u64) -> Result<u64, TreeError> {
        get_delta(self.data, &mut self.pos, prev)
            .ok_or(TreeError::Corrupt("varint cut off or overlong"))
    }

    /// A `u32` coded as a [`put_delta`] from `prev`.
    pub(crate) fn delta_u32(&mut self, prev: u32) -> Result<u32, TreeError> {
        u32::try_from(self.delta(u64::from(prev))?)
            .map_err(|_| TreeError::Corrupt("varint delta out of range"))
    }

    pub(crate) fn value(&mut self) -> Result<Rect, TreeError> {
        get_value_varint(self.data, &mut self.pos).ok_or(TreeError::Corrupt(
            "varint box cut off, overlong or out of range",
        ))
    }
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
        let bytes = [10, 0, 0, 0, 20, 0, 0, 0, 30, 0, 0, 0, 0x28, 0x01, 0, 0];
        assert_eq!(decode_value(&bytes), Rect::new(10, 20, 30, 296));
    }

    #[test]
    fn varints_take_seven_bits_a_byte() {
        for (v, bytes) in [
            (0u64, &[0x00][..]),
            (127, &[0x7F]),
            (128, &[0x80, 0x01]),
            (300, &[0xAC, 0x02]),
            (u32::MAX as u64, &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]),
            (
                u64::MAX,
                &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01],
            ),
        ] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            assert_eq!(out, bytes, "{v}");
            let mut pos = 0;
            assert_eq!(get_varint(&out, &mut pos), Some(v));
            assert_eq!(pos, out.len());
        }
        assert_eq!(
            [0, -1, 1, -2, i64::MAX, i64::MIN].map(zigzag),
            [0, 1, 2, 3, u64::MAX - 1, u64::MAX]
        );
    }

    #[test]
    fn cut_off_and_overlong_varints_read_as_none() {
        for bad in [
            &[][..],
            &[0x80],
            &[0xFF, 0xFF],
            // Eleven bytes, and ten whose last sets bits past the 64th.
            &[
                0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00,
            ],
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02],
        ] {
            let mut pos = 0;
            assert_eq!(get_varint(bad, &mut pos), None, "{bad:?}");
            assert_eq!(pos, 0);
        }
        // A box coordinate past u32::MAX.
        let mut out = Vec::new();
        put_varint(&mut out, 1 << 32);
        out.extend([0, 0, 0]);
        assert_eq!(get_value_varint(&out, &mut 0), None);
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
        fn prop_delta_roundtrip(prev in any::<u64>(), v in any::<u64>()) {
            let mut out = Vec::new();
            put_delta(&mut out, prev, v);
            let mut pos = 0;
            prop_assert_eq!(get_delta(&out, &mut pos, prev), Some(v));
            prop_assert_eq!(pos, out.len());
        }

        #[test]
        fn prop_varint_value_roundtrip(x in any::<u32>(), y in any::<u32>(), w in any::<u32>(), h in any::<u32>()) {
            let r = Rect::new(x, y, w, h);
            let mut out = Vec::new();
            put_value_varint(&mut out, &r);
            let mut pos = 0;
            prop_assert_eq!(get_value_varint(&out, &mut pos), Some(r));
            prop_assert_eq!(pos, out.len());
        }

        #[test]
        fn prop_value_roundtrip(x in any::<u32>(), y in any::<u32>(), w in any::<u32>(), h in any::<u32>()) {
            let bytes: Vec<u8> = [x, y, w, h].iter().flat_map(|v| v.to_le_bytes()).collect();
            prop_assert_eq!(decode_value(&bytes), Rect::new(x, y, w, h));
        }
    }
}
