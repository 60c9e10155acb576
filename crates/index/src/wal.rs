//! The write-ahead log (`FORMAT.md`'s "Write-ahead log"): frames of
//! `[len][crc32][payload]`, one per durable append. This build writes
//! records whose numbers are zigzag varint deltas from the record before
//! them in the same frame (tags 2 and 3) and still replays the
//! fixed-width records of tags 0 and 1. Tags and delta coding are this
//! module's alone; the tier sees [`WalRecord`]s.

use crate::crc::crc32;
use crate::index::TreeError;
use crate::key::{
    decode_value, put_delta, put_u32, put_value_varint, put_varint, Cursor, RecordKey, FIRST_LABEL,
    KEY_LEN, MAX_LABEL_LEN, VALUE_LEN,
};
use tasm_video::Rect;

/// A record with fixed-width fields: tag, u64 opseq, 16-byte key, 16-byte
/// box. Still replayed; this build writes [`WAL_TAG_INSERT`].
const WAL_TAG_INSERT_V1: u8 = 0;
/// A label record with fixed-width fields: tag, u64 opseq, u32 id, u16
/// name length, name. Still replayed; this build writes [`WAL_TAG_LABEL`].
const WAL_TAG_LABEL_V1: u8 = 1;
/// An insert coded against the record before it in the frame: zigzag
/// varint deltas of opseq, video, label and frame, seq as a delta from
/// the low 32 bits of its own opseq, then the box as four varints.
const WAL_TAG_INSERT: u8 = 2;
/// A label record: opseq as a zigzag varint delta, then varint id,
/// varint name length, name.
const WAL_TAG_LABEL: u8 = 3;

/// One logical WAL record, buffered until the next durable append.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalRecord {
    Insert {
        opseq: u64,
        key: RecordKey,
        value: Rect,
    },
    Label {
        opseq: u64,
        id: u32,
        name: String,
    },
}

impl WalRecord {
    fn opseq(&self) -> u64 {
        match self {
            WalRecord::Insert { opseq, .. } | WalRecord::Label { opseq, .. } => *opseq,
        }
    }
}

/// What a record's deltas are taken from: the previous record of its
/// frame (its opseq, and the key of the last insert), zero at a frame's
/// head, so every frame decodes on its own.
struct Prev {
    opseq: u64,
    key: RecordKey,
}

impl Prev {
    fn start() -> Self {
        Prev {
            opseq: 0,
            key: RecordKey::new(0, 0, 0, 0),
        }
    }

    fn advance(&mut self, r: &WalRecord) {
        self.opseq = r.opseq();
        if let WalRecord::Insert { key, .. } = r {
            self.key = *key;
        }
    }
}

pub(crate) fn encode_wal_frame(records: &[WalRecord]) -> Vec<u8> {
    let mut payload = Vec::new();
    let mut prev = Prev::start();
    for r in records {
        match r {
            WalRecord::Insert { opseq, key, value } => {
                payload.push(WAL_TAG_INSERT);
                put_delta(&mut payload, prev.opseq, *opseq);
                let seq_base = *opseq as u32;
                for (was, is) in [
                    (prev.key.video, key.video),
                    (prev.key.label, key.label),
                    (prev.key.frame, key.frame),
                    (seq_base, key.seq),
                ] {
                    put_delta(&mut payload, u64::from(was), u64::from(is));
                }
                put_value_varint(&mut payload, value);
            }
            WalRecord::Label { opseq, id, name } => {
                payload.push(WAL_TAG_LABEL);
                put_delta(&mut payload, prev.opseq, *opseq);
                put_varint(&mut payload, u64::from(*id));
                put_varint(&mut payload, name.len() as u64);
                payload.extend_from_slice(name.as_bytes());
            }
        }
        prev.advance(r);
    }
    let mut frame = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut frame, payload.len() as u32);
    put_u32(&mut frame, crc32(&payload));
    frame.extend_from_slice(&payload);
    frame
}

/// Parses WAL bytes into frames of records, returning the records and the
/// byte length of the valid prefix. A torn or corrupt tail (the expected
/// residue of a crash mid-append) simply ends the log there, and so does
/// a frame whose checksum holds but whose records do not decode.
pub(crate) fn parse_wal(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= 8 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if bytes.len() - pos - 8 < len {
            break; // torn frame
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            break; // corrupt frame
        }
        let Ok(frame_records) = parse_wal_payload(payload) else {
            break;
        };
        records.extend(frame_records);
        pos += 8 + len;
    }
    (records, pos)
}

fn parse_wal_payload(payload: &[u8]) -> Result<Vec<WalRecord>, TreeError> {
    let mut out = Vec::new();
    let mut c = Cursor::new(payload);
    let mut prev = Prev::start();
    let label_name = |c: &mut Cursor, len: usize| -> Result<String, TreeError> {
        if len > MAX_LABEL_LEN {
            return Err(TreeError::Corrupt("WAL label name too long"));
        }
        let name = std::str::from_utf8(c.take(len)?)
            .map_err(|_| TreeError::Corrupt("WAL label name not UTF-8"))?;
        Ok(name.to_string())
    };
    while c.pos < payload.len() {
        let record = match c.take(1)?[0] {
            WAL_TAG_INSERT_V1 => WalRecord::Insert {
                opseq: c.u64()?,
                key: RecordKey::decode(c.take(KEY_LEN)?),
                value: decode_value(c.take(VALUE_LEN)?),
            },
            WAL_TAG_LABEL_V1 => {
                let opseq = c.u64()?;
                let id = c.u32()?;
                let len = c.u16()? as usize;
                let name = label_name(&mut c, len)?;
                WalRecord::Label { opseq, id, name }
            }
            WAL_TAG_INSERT => {
                let opseq = c.delta(prev.opseq)?;
                let key = RecordKey::new(
                    c.delta_u32(prev.key.video)?,
                    c.delta_u32(prev.key.label)?,
                    c.delta_u32(prev.key.frame)?,
                    c.delta_u32(opseq as u32)?,
                );
                let value = c.value()?;
                WalRecord::Insert { opseq, key, value }
            }
            WAL_TAG_LABEL => {
                let opseq = c.delta(prev.opseq)?;
                let id = u32::try_from(c.varint()?)
                    .map_err(|_| TreeError::Corrupt("WAL label id out of range"))?;
                let len = usize::try_from(c.varint()?).unwrap_or(usize::MAX);
                let name = label_name(&mut c, len)?;
                WalRecord::Label { opseq, id, name }
            }
            _ => return Err(TreeError::Corrupt("unknown WAL record tag")),
        };
        if matches!(record, WalRecord::Label { id, .. } if id < FIRST_LABEL) {
            return Err(TreeError::Corrupt("WAL label id below the first label"));
        }
        prev.advance(&record);
        out.push(record);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format_md::{format_md_block, format_md_cars};
    use crate::key::PROCESSED_LABEL;
    use proptest::prelude::*;

    #[test]
    fn format_md_examples_of_the_wal_decode_and_match_the_encoder() {
        let [(k1, b1), (k2, b2)] = format_md_cars();
        let records = vec![
            WalRecord::Label {
                opseq: 1,
                id: 1,
                name: "car".to_string(),
            },
            WalRecord::Insert {
                opseq: 2,
                key: k1,
                value: b1,
            },
            WalRecord::Insert {
                opseq: 3,
                key: RecordKey::new(7, PROCESSED_LABEL, 10, 0),
                value: Rect::new(0, 0, 0, 0),
            },
            WalRecord::Insert {
                opseq: 4,
                key: k2,
                value: b2,
            },
        ];
        let v2 = format_md_block("wal-v2");
        assert_eq!(encode_wal_frame(&records), v2);
        for bytes in [format_md_block("wal-v1"), v2] {
            assert_eq!(parse_wal(&bytes), (records.clone(), bytes.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any records round-trip through a v2 WAL frame, whatever their
        /// order: deltas of either sign, and every field's full range.
        #[test]
        fn prop_wal_frames_roundtrip(
            raw in proptest::collection::vec((any::<bool>(), any::<u64>(), any::<[u32; 4]>(), any::<[u32; 4]>()), 0..40),
        ) {
            let records: Vec<WalRecord> = raw
                .into_iter()
                .map(|(label, opseq, k, b)| match label {
                    true => WalRecord::Label {
                        opseq,
                        id: k[1].max(FIRST_LABEL),
                        name: "x".repeat(k[0] as usize % 200),
                    },
                    false => WalRecord::Insert {
                        opseq,
                        key: RecordKey::new(k[0], k[1], k[2], k[3]),
                        value: Rect::new(b[0], b[1], b[2], b[3]),
                    },
                })
                .collect();
            let bytes = encode_wal_frame(&records);
            prop_assert_eq!(parse_wal(&bytes), (records, bytes.len()));
        }
    }
}
