//! Decode-work accounting.
//!
//! TASM's cost model (§4.1 of the paper) is `C = β·P + γ·T`, where `P` is the
//! number of pixels decoded and `T` the number of tiles decoded. Decoders in
//! this crate report both exactly, along with bytes and blocks, so the cost
//! model can be fit and validated against real measurements rather than
//! assumed.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign};
use std::time::Duration;

/// Exact accounting of work performed by a decode operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DecodeStats {
    /// Number of frame-sized units reconstructed (per tile, per frame).
    pub frames_decoded: u64,
    /// Total samples reconstructed across all planes (the paper's `P`,
    /// counting luma + chroma).
    pub samples_decoded: u64,
    /// Tile-chunk decode units processed (the paper's `T`): one per tile per
    /// frame, capturing per-tile bitstream/context overhead.
    pub tile_chunks_decoded: u64,
    /// Compressed bytes consumed.
    pub bytes_read: u64,
    /// 8×8 blocks reconstructed.
    pub blocks_decoded: u64,
    /// Wall-clock time spent decoding (zero if not measured).
    #[serde(with = "duration_micros")]
    pub decode_time: Duration,
}

impl DecodeStats {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decode time in seconds as a float (for model fitting).
    pub fn seconds(&self) -> f64 {
        self.decode_time.as_secs_f64()
    }
}

impl Add for DecodeStats {
    type Output = DecodeStats;

    fn add(self, rhs: DecodeStats) -> DecodeStats {
        DecodeStats {
            frames_decoded: self.frames_decoded + rhs.frames_decoded,
            samples_decoded: self.samples_decoded + rhs.samples_decoded,
            tile_chunks_decoded: self.tile_chunks_decoded + rhs.tile_chunks_decoded,
            bytes_read: self.bytes_read + rhs.bytes_read,
            blocks_decoded: self.blocks_decoded + rhs.blocks_decoded,
            decode_time: self.decode_time + rhs.decode_time,
        }
    }
}

impl AddAssign for DecodeStats {
    fn add_assign(&mut self, rhs: DecodeStats) {
        *self = *self + rhs;
    }
}

/// Accounting of work performed by an encode operation. Re-encoding a
/// sequence of tiles is the `R(s, L)` cost in the paper's incremental tiling
/// policy (§4.4): re-tiling only pays off once accumulated regret exceeds it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EncodeStats {
    /// Tile-frames encoded (frames × tiles).
    pub frames_encoded: u64,
    /// Source samples consumed across all planes.
    pub samples_encoded: u64,
    /// Compressed bytes produced, container headers included.
    pub bytes_produced: u64,
    /// Wall-clock encode time, less the time the source spent producing
    /// frames (rendering, or a re-tile's decode, which its
    /// [`DecodeStats`] already counts).
    #[serde(with = "duration_micros")]
    pub encode_time: Duration,
}

impl EncodeStats {
    /// Encode time in seconds as a float (for model fitting).
    pub fn seconds(&self) -> f64 {
        self.encode_time.as_secs_f64()
    }
}

impl Add for EncodeStats {
    type Output = EncodeStats;

    fn add(self, rhs: EncodeStats) -> EncodeStats {
        EncodeStats {
            frames_encoded: self.frames_encoded + rhs.frames_encoded,
            samples_encoded: self.samples_encoded + rhs.samples_encoded,
            bytes_produced: self.bytes_produced + rhs.bytes_produced,
            encode_time: self.encode_time + rhs.encode_time,
        }
    }
}

impl AddAssign for EncodeStats {
    fn add_assign(&mut self, rhs: EncodeStats) {
        *self = *self + rhs;
    }
}

/// Serialize `Duration` as integer microseconds so stats files stay compact
/// and language-agnostic.
mod duration_micros {
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::time::Duration;

    pub fn serialize<S: Serializer>(d: &Duration, s: S) -> Result<S::Ok, S::Error> {
        (d.as_micros() as u64).serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Duration, D::Error> {
        Ok(Duration::from_micros(u64::deserialize(d)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_all_fields() {
        let a = DecodeStats {
            frames_decoded: 1,
            samples_decoded: 100,
            tile_chunks_decoded: 2,
            bytes_read: 50,
            blocks_decoded: 4,
            decode_time: Duration::from_millis(3),
        };
        let b = DecodeStats {
            frames_decoded: 2,
            samples_decoded: 200,
            tile_chunks_decoded: 3,
            bytes_read: 60,
            blocks_decoded: 8,
            decode_time: Duration::from_millis(7),
        };
        let c = a + b;
        assert_eq!(c.frames_decoded, 3);
        assert_eq!(c.samples_decoded, 300);
        assert_eq!(c.tile_chunks_decoded, 5);
        assert_eq!(c.bytes_read, 110);
        assert_eq!(c.blocks_decoded, 12);
        assert_eq!(c.decode_time, Duration::from_millis(10));

        let mut acc = DecodeStats::new();
        acc += a;
        acc += b;
        assert_eq!(acc, c);
    }

    #[test]
    fn serde_roundtrip_preserves_duration() {
        let s = DecodeStats {
            decode_time: Duration::from_micros(12345),
            ..DecodeStats::new()
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: DecodeStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back.decode_time, Duration::from_micros(12345));
    }
}
