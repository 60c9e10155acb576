//! Sorted run files (`FORMAT.md`'s "Sorted run"): the immutable,
//! prefix-compressed `(video, label, frame, seq)` records a flush or a
//! compaction writes, with the restart index, range table, label
//! dictionary and compaction inputs a [`Run`] keeps resident. The
//! footer's layout and the range table are this module's alone.

use crate::crc::crc32;
use crate::index::TreeError;
use crate::key::{
    decode_value, put_u32, put_u64, put_value_varint, Cursor, RecordKey, KEY_LEN, PROCESSED_LABEL,
    VALUE_LEN,
};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::PathBuf;
use tasm_video::Rect;

/// Entries between full-key restart points in a run's data region.
pub const RESTART_INTERVAL: usize = 16;

/// Magic at the head of a run file this build writes: each entry's box
/// is four varints.
const RUN_MAGIC: [u8; 4] = *b"TSR2";

/// Magic of a run whose boxes are 16 fixed bytes. Still read; the
/// compaction that merges it writes [`RUN_MAGIC`].
const RUN_MAGIC_V1: [u8; 4] = *b"TSR1";

/// Magic at the tail of a run footer.
const FOOTER_MAGIC: [u8; 4] = *b"TSRF";

/// Fixed footer length: 8 × u64 + crc32 + magic.
const FOOTER_LEN: usize = 8 * 8 + 4 + 4;

/// Resident per-`(video, label)` summary: frame bounds and entry count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RangeFilter {
    video: u32,
    label: u32,
    min_frame: u32,
    max_frame: u32,
    count: u64,
}

/// The resident part of one immutable sorted run: everything needed to
/// decide whether a lookup must read the file, plus the restart index that
/// turns a read into a bounded scan. The prefix-compressed data region
/// itself stays on disk.
pub(crate) struct Run {
    pub(crate) id: u64,
    pub(crate) path: PathBuf,
    /// A `TSR1` run: fixed 16-byte boxes.
    pub(crate) v1: bool,
    pub(crate) file_len: u64,
    data_len: u64,
    pub(crate) entry_count: u64,
    pub(crate) max_opseq: u64,
    pub(crate) detections_cum: u64,
    restarts: Vec<(RecordKey, u32)>,
    /// Sorted by `(video, label)`, one entry per pair.
    ranges: Vec<RangeFilter>,
    /// Run ids this run was compacted from (roll-forward deletes them).
    pub(crate) inputs: Vec<u64>,
    /// Cumulative label-dictionary snapshot at flush time, in id order.
    pub(crate) dict: Vec<String>,
}

pub(crate) fn run_file_name(id: u64) -> String {
    format!("run_{id:08}.sst")
}

pub(crate) fn parse_run_name(name: &str) -> Option<u64> {
    let body = name.strip_prefix("run_")?.strip_suffix(".sst")?;
    if body.len() != 8 {
        return None;
    }
    body.parse().ok()
}

/// Serializes a sorted set of records into run-file bytes.
pub(crate) fn encode_run(
    entries: &BTreeMap<RecordKey, Rect>,
    max_opseq: u64,
    detections_cum: u64,
    inputs: &[u64],
    dict: &[String],
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&RUN_MAGIC);

    // Data region: prefix-compressed keys, varint boxes.
    let data_start = out.len();
    let mut restarts: Vec<([u8; KEY_LEN], u32)> = Vec::new();
    let mut prev = [0u8; KEY_LEN];
    for (i, (key, rect)) in entries.iter().enumerate() {
        let enc = key.encode();
        let offset = (out.len() - data_start) as u32;
        let shared = if i % RESTART_INTERVAL == 0 {
            restarts.push((enc, offset));
            0
        } else {
            enc.iter()
                .zip(prev.iter())
                .take_while(|(a, b)| a == b)
                .count()
        };
        out.push(shared as u8);
        out.push((KEY_LEN - shared) as u8);
        out.extend_from_slice(&enc[shared..]);
        put_value_varint(&mut out, rect);
        prev = enc;
    }
    let data_len = (out.len() - data_start) as u64;

    // Restart index.
    let index_off = out.len() as u64;
    put_u32(&mut out, restarts.len() as u32);
    for (key, offset) in &restarts {
        out.extend_from_slice(key);
        put_u32(&mut out, *offset);
    }

    // Filter: the range table, one entry per (video, label), in key order.
    let filter_off = out.len() as u64;
    let mut ranges: Vec<RangeFilter> = Vec::new();
    for (key, _) in entries.iter() {
        match ranges.last_mut() {
            Some(r) if r.video == key.video && r.label == key.label => {
                r.min_frame = r.min_frame.min(key.frame);
                r.max_frame = r.max_frame.max(key.frame);
                r.count += 1;
            }
            _ => ranges.push(RangeFilter {
                video: key.video,
                label: key.label,
                min_frame: key.frame,
                max_frame: key.frame,
                count: 1,
            }),
        }
    }
    put_u32(&mut out, ranges.len() as u32);
    for r in &ranges {
        put_u32(&mut out, r.video);
        put_u32(&mut out, r.label);
        put_u32(&mut out, r.min_frame);
        put_u32(&mut out, r.max_frame);
        put_u64(&mut out, r.count);
    }

    // Cumulative label dictionary snapshot.
    let dict_off = out.len() as u64;
    put_u32(&mut out, dict.len() as u32);
    for name in dict {
        let bytes = name.as_bytes();
        out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
        out.extend_from_slice(bytes);
    }

    // Compaction provenance.
    let inputs_off = out.len() as u64;
    put_u32(&mut out, inputs.len() as u32);
    for &id in inputs {
        put_u64(&mut out, id);
    }

    // Footer.
    put_u64(&mut out, data_len);
    put_u64(&mut out, index_off);
    put_u64(&mut out, filter_off);
    put_u64(&mut out, dict_off);
    put_u64(&mut out, inputs_off);
    put_u64(&mut out, entries.len() as u64);
    put_u64(&mut out, max_opseq);
    put_u64(&mut out, detections_cum);
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out.extend_from_slice(&FOOTER_MAGIC);
    out
}

impl Run {
    /// Parses a run file's resident metadata (restart index, filters, dict,
    /// footer) — everything except the data region, which is re-read on
    /// demand by lookups that pass the filters.
    pub(crate) fn parse(id: u64, path: PathBuf, bytes: &[u8]) -> Result<Run, TreeError> {
        let magic = bytes.get(0..4).filter(|_| bytes.len() >= 4 + FOOTER_LEN);
        let v1 = match magic {
            Some(m) if *m == RUN_MAGIC => false,
            Some(m) if *m == RUN_MAGIC_V1 => true,
            _ => return Err(TreeError::Corrupt("run file too short or bad magic")),
        };
        if bytes[bytes.len() - 4..] != FOOTER_MAGIC {
            return Err(TreeError::Corrupt("run footer magic missing"));
        }
        let crc_field = bytes.len() - FOOTER_LEN + 8 * 8;
        let declared = u32::from_le_bytes(bytes[crc_field..crc_field + 4].try_into().unwrap());
        if crc32(&bytes[..crc_field]) != declared {
            return Err(TreeError::Corrupt("run checksum mismatch"));
        }
        let mut f = Cursor::new(&bytes[bytes.len() - FOOTER_LEN..crc_field]);
        let data_len = f.u64()?;
        let index_off = f.u64()? as usize;
        let filter_off = f.u64()? as usize;
        let dict_off = f.u64()? as usize;
        let inputs_off = f.u64()? as usize;
        let entry_count = f.u64()?;
        let max_opseq = f.u64()?;
        let detections_cum = f.u64()?;
        if index_off.checked_sub(4) != Some(data_len as usize)
            || index_off > filter_off
            || filter_off > dict_off
            || dict_off > inputs_off
            || inputs_off > bytes.len() - FOOTER_LEN
        {
            return Err(TreeError::Corrupt("run regions out of order"));
        }

        let mut c = Cursor::new(&bytes[index_off..filter_off]);
        let n = c.count(KEY_LEN + 4)?;
        let mut restarts = Vec::with_capacity(n);
        for _ in 0..n {
            let key = RecordKey::decode(c.take(KEY_LEN)?);
            let off = c.u32()?;
            if off as u64 >= data_len.max(1) {
                return Err(TreeError::Corrupt("restart offset out of range"));
            }
            restarts.push((key, off));
        }
        // A lookup reads from one restart to a later one.
        if restarts
            .windows(2)
            .any(|w| w[0].0 >= w[1].0 || w[0].1 >= w[1].1)
        {
            return Err(TreeError::Corrupt("run restart index out of order"));
        }

        let mut c = Cursor::new(&bytes[filter_off..dict_off]);
        let n = c.count(24)?;
        let mut ranges = Vec::with_capacity(n);
        for _ in 0..n {
            ranges.push(RangeFilter {
                video: c.u32()?,
                label: c.u32()?,
                min_frame: c.u32()?,
                max_frame: c.u32()?,
                count: c.u64()?,
            });
        }
        if ranges
            .windows(2)
            .any(|w| (w[0].video, w[0].label) >= (w[1].video, w[1].label))
        {
            return Err(TreeError::Corrupt("run range table out of order"));
        }
        // What follows the table is not read: the Bloom filter of a run
        // written before the table stood alone (the file CRC covers it).

        let mut c = Cursor::new(&bytes[dict_off..inputs_off]);
        let n = c.count(2)?;
        let mut dict = Vec::with_capacity(n);
        for _ in 0..n {
            let len = c.u16()? as usize;
            let name = std::str::from_utf8(c.take(len)?)
                .map_err(|_| TreeError::Corrupt("run dict name not UTF-8"))?;
            dict.push(name.to_string());
        }

        let mut c = Cursor::new(&bytes[inputs_off..bytes.len() - FOOTER_LEN]);
        let n = c.count(8)?;
        let mut inputs = Vec::with_capacity(n);
        for _ in 0..n {
            inputs.push(c.u64()?);
        }

        Ok(Run {
            id,
            path,
            v1,
            file_len: bytes.len() as u64,
            data_len,
            entry_count,
            max_opseq,
            detections_cum,
            restarts,
            ranges,
            inputs,
            dict,
        })
    }

    /// Whether a lookup for `(video, label)` over `frames` must read this
    /// run: the range table holds the pair, with frames in `frames`.
    pub(crate) fn may_overlap(&self, video: u32, label: u32, frames: &Range<u32>) -> bool {
        self.ranges
            .binary_search_by_key(&(video, label), |r| (r.video, r.label))
            .is_ok_and(|i| {
                let r = &self.ranges[i];
                r.min_frame < frames.end && r.max_frame >= frames.start
            })
    }

    /// The labels this run holds for `video`, [`PROCESSED_LABEL`] aside:
    /// resident, from the range table.
    pub(crate) fn labels(&self, video: u32) -> impl Iterator<Item = u32> + '_ {
        self.ranges
            .iter()
            .filter(move |r| r.video == video && r.label != PROCESSED_LABEL)
            .map(|r| r.label)
    }

    /// Bytes this run keeps resident (restart index + filters + dict).
    pub(crate) fn resident_bytes(&self) -> u64 {
        (self.restarts.len() * (KEY_LEN + 4)) as u64
            + (self.ranges.len() * 24) as u64
            + self.dict.iter().map(|s| s.len() as u64 + 2).sum::<u64>()
    }

    /// The bytes of the file a lookup for keys in `[lo, hi)` reads: the
    /// data region from the last restart at or below `lo` up to the first
    /// restart at or past `hi`, which holds no key below `hi`.
    pub(crate) fn slice(&self, lo: &RecordKey, hi: &RecordKey) -> Range<u64> {
        let offset = |i: usize| {
            self.restarts
                .get(i)
                .map_or(self.data_len, |r| u64::from(r.1))
        };
        let start = match self.restarts.partition_point(|(k, _)| k <= lo) {
            0 => 0,
            n => offset(n - 1),
        };
        let end = offset(self.restarts.partition_point(|(k, _)| k < hi));
        4 + start..4 + end
    }

    /// Decodes `region`, whole entries of the data region starting at a
    /// restart point, appending those with keys in `[lo, hi)` (`hi = None`
    /// means unbounded) to `out` in key order.
    pub(crate) fn scan(
        &self,
        region: &[u8],
        lo: &RecordKey,
        hi: Option<&RecordKey>,
        out: &mut Vec<(RecordKey, Rect)>,
    ) -> Result<(), TreeError> {
        let mut c = Cursor::new(region);
        let mut cur = [0u8; KEY_LEN];
        let mut first = true;
        while c.pos < region.len() {
            let head = c.take(2)?;
            let (shared, unshared) = (head[0] as usize, head[1] as usize);
            if shared + unshared != KEY_LEN || (first && shared != 0) {
                return Err(TreeError::Corrupt("run entry key lengths invalid"));
            }
            cur[shared..].copy_from_slice(c.take(unshared)?);
            let value = if self.v1 {
                decode_value(c.take(VALUE_LEN)?)
            } else {
                c.value()?
            };
            let key = RecordKey::decode(&cur);
            if hi.is_some_and(|hi| key >= *hi) {
                break;
            }
            if key >= *lo {
                out.push((key, value));
            }
            first = false;
        }
        Ok(())
    }

    /// Decodes every entry of the data region (compaction, verification);
    /// `data` is the whole file.
    pub(crate) fn scan_all(&self, data: &[u8]) -> Result<Vec<(RecordKey, Rect)>, TreeError> {
        let region = data
            .get(4..4 + self.data_len as usize)
            .ok_or(TreeError::Corrupt("run data region truncated"))?;
        let mut out = Vec::new();
        self.scan(region, &RecordKey::new(0, 0, 0, 0), None, &mut out)?;
        if out.len() as u64 != self.entry_count {
            return Err(TreeError::Corrupt("run entry count disagrees with footer"));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format_md::{format_md_block, format_md_cars};
    use proptest::prelude::*;

    fn bbox(n: u32) -> Rect {
        Rect::new(n * 10, n * 7, 32, 32)
    }

    #[test]
    fn run_roundtrip_and_scan() {
        let mut entries = BTreeMap::new();
        for f in 0..1000u32 {
            entries.insert(RecordKey::new(1, 2, f, f), bbox(f));
        }
        let dict = vec!["car".to_string()];
        let bytes = encode_run(&entries, 42, 1000, &[], &dict);
        let run = Run::parse(0, PathBuf::from("run_00000000.sst"), &bytes).unwrap();
        assert_eq!(run.entry_count, 1000);
        assert_eq!(run.max_opseq, 42);
        assert_eq!(run.detections_cum, 1000);
        assert_eq!(run.dict, dict);
        assert_eq!(run.ranges.len(), 1);
        assert_eq!(run.ranges[0].min_frame, 0);
        assert_eq!(run.ranges[0].max_frame, 999);
        // Prefix compression must beat the raw encoding substantially.
        assert!(
            (bytes.len() as u64) < 1000 * (KEY_LEN + VALUE_LEN) as u64,
            "run not compressed: {} bytes",
            bytes.len()
        );
        let (lo, hi) = (
            RecordKey::range_start(1, 2, 100),
            RecordKey::range_start(1, 2, 200),
        );
        // A lookup reads the restart intervals around its range only.
        let slice = run.slice(&lo, &hi);
        assert!(slice.end - slice.start < run.data_len / 8, "{slice:?}");
        let mut out = Vec::new();
        let region = &bytes[slice.start as usize..slice.end as usize];
        run.scan(region, &lo, Some(&hi), &mut out).unwrap();
        assert_eq!(out.len(), 100);
        assert_eq!(out[0], (RecordKey::new(1, 2, 100, 100), bbox(100)));
        let all: Vec<_> = entries.into_iter().collect();
        assert_eq!(run.scan_all(&bytes).unwrap(), all);
    }

    #[test]
    fn format_md_examples_of_runs_decode_and_match_the_encoder() {
        let mut entries = BTreeMap::from(format_md_cars());
        entries.insert(
            RecordKey::new(7, PROCESSED_LABEL, 10, 0),
            Rect::new(0, 0, 0, 0),
        );
        let dict = vec!["car".to_string()];
        let v2 = format_md_block("run-v2");
        assert_eq!(encode_run(&entries, 4, 2, &[], &dict), v2);
        let all: Vec<_> = entries.into_iter().collect();
        for (bytes, v1) in [(format_md_block("run-v1"), true), (v2, false)] {
            let run = Run::parse(0, PathBuf::new(), &bytes).unwrap();
            assert_eq!((run.v1, run.max_opseq, run.detections_cum), (v1, 4, 2));
            assert_eq!((run.dict.as_slice(), run.ranges.len()), (&dict[..], 2));
            assert_eq!(run.scan_all(&bytes).unwrap(), all);
        }
    }

    #[test]
    fn run_rejects_corruption() {
        let mut entries = BTreeMap::new();
        for f in 0..100u32 {
            entries.insert(RecordKey::new(0, 1, f, f), bbox(f));
        }
        let bytes = encode_run(&entries, 1, 100, &[], &[]);
        for cut in [0, 3, 10, bytes.len() - 1] {
            assert!(Run::parse(0, PathBuf::new(), &bytes[..cut]).is_err());
        }
        let mut bad = bytes.clone();
        bad[10] ^= 0xFF;
        assert!(matches!(
            Run::parse(0, PathBuf::new(), &bad),
            Err(TreeError::Corrupt(_))
        ));
    }

    /// Lookups binary-search the range table, so a table out of key order
    /// (with a valid CRC) is corrupt, not a run that skips what it holds.
    #[test]
    fn run_with_an_unsorted_range_table_is_corrupt() {
        let entries = BTreeMap::from([
            (RecordKey::new(1, 2, 0, 0), bbox(0)),
            (RecordKey::new(1, 3, 0, 0), bbox(1)),
        ]);
        let mut bytes = encode_run(&entries, 1, 2, &[], &[]);
        let footer = bytes.len() - FOOTER_LEN;
        let filter_off = u64::from_le_bytes(bytes[footer + 16..footer + 24].try_into().unwrap());
        let table = filter_off as usize + 4;
        let (first, second) = bytes[table..table + 48].split_at_mut(24);
        first.swap_with_slice(second);
        let crc = crc32(&bytes[..footer + 64]);
        bytes[footer + 64..footer + 68].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Run::parse(0, PathBuf::new(), &bytes),
            Err(TreeError::Corrupt("run range table out of order"))
        ));
    }

    /// A count field its region cannot hold, or an `index_off` below the
    /// magic, is corrupt, with the checksum made to hold: not an allocation
    /// that aborts the process, nor an overflow that panics. So is a
    /// directory that holds such a run, to `TieredIndex::open`.
    #[test]
    fn a_hostile_count_or_index_offset_is_corrupt() {
        let entries = BTreeMap::from([(RecordKey::new(1, 2, 0, 0), bbox(0))]);
        let bytes = encode_run(&entries, 1, 1, &[3], &["car".to_string()]);
        let footer = bytes.len() - FOOTER_LEN;
        let field = |i: usize| footer + 8 * i..footer + 8 * i + 8;
        let resealed = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut b = bytes.clone();
            edit(&mut b);
            let crc = crc32(&b[..footer + 64]);
            b[footer + 64..footer + 68].copy_from_slice(&crc.to_le_bytes());
            b
        };
        let mut hostile = Vec::new();
        // The counts heading the restart index, range table, dictionary
        // and inputs, whose offsets are footer fields 1–4.
        for i in 1..=4 {
            let off = u64::from_le_bytes(bytes[field(i)].try_into().unwrap()) as usize;
            let count = resealed(&|b| b[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes()));
            hostile.push((count, "run count exceeds its region"));
        }
        for index_off in 0..4u64 {
            let off = resealed(&|b| b[field(1)].copy_from_slice(&index_off.to_le_bytes()));
            hostile.push((off, "run regions out of order"));
        }
        let dir = std::env::temp_dir().join(format!(
            "tasm-run-hostile-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        for (bytes, what) in &hostile {
            let parsed = Run::parse(0, PathBuf::new(), bytes);
            assert!(
                matches!(parsed, Err(TreeError::Corrupt(w)) if w == *what),
                "{what}"
            );
            std::fs::write(dir.join(run_file_name(0)), bytes).unwrap();
            assert!(crate::TieredIndex::open(&dir).is_err(), "{what}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn filters_skip_non_overlapping_runs() {
        let mut entries = BTreeMap::new();
        for f in 500..600u32 {
            entries.insert(RecordKey::new(3, 1, f, f), bbox(f));
        }
        let bytes = encode_run(&entries, 1, 100, &[], &[]);
        let run = Run::parse(0, PathBuf::new(), &bytes).unwrap();
        assert!(run.may_overlap(3, 1, &(550..560)));
        assert!(run.may_overlap(3, 1, &(0..501)));
        assert!(!run.may_overlap(3, 1, &(0..500)), "range filter must skip");
        assert!(!run.may_overlap(3, 1, &(600..700)));
        assert!(
            !run.may_overlap(4, 1, &(550..560)),
            "an absent pair must skip"
        );
        assert!(!run.may_overlap(3, 2, &(550..560)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any entries round-trip through a `TSR2` run, and a lookup's
        /// restart-bounded slice answers a key range as the whole map does.
        #[test]
        fn prop_runs_roundtrip(
            raw in proptest::collection::vec((any::<[u32; 4]>(), any::<[u32; 4]>()), 1..80),
            bounds in any::<[u32; 4]>(),
        ) {
            let entries: BTreeMap<RecordKey, Rect> = raw
                .into_iter()
                .map(|(k, b)| {
                    // Few distinct videos and labels, so prefixes share.
                    let key = RecordKey::new(k[0] % 3, k[1] % 3, k[2], k[3]);
                    (key, Rect::new(b[0], b[1], b[2], b[3]))
                })
                .collect();
            let bytes = encode_run(&entries, 9, 9, &[], &[]);
            let run = Run::parse(0, PathBuf::new(), &bytes).unwrap();
            let all: Vec<_> = entries.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(run.scan_all(&bytes).unwrap(), all);
            let lo = RecordKey::range_start(bounds[0] % 3, bounds[1] % 3, bounds[2]);
            let hi = RecordKey::range_start(lo.video, lo.label, bounds[3].max(lo.frame));
            let slice = run.slice(&lo, &hi);
            let mut out = Vec::new();
            run.scan(&bytes[slice.start as usize..slice.end as usize], &lo, Some(&hi), &mut out)
                .unwrap();
            let want: Vec<_> = entries.range(lo..hi).map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(out, want);
        }
    }
}
