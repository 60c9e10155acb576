//! The disk-resident tier of the semantic index: an LSM/SSTable design.
//!
//! At production scale the semantic index is billions of labeled boxes — far
//! too large to keep resident, and dominated by *append* traffic (detectors
//! emit boxes in frame order). [`TieredIndex`] stores the index the way
//! log-structured storage engines do:
//!
//! * a **memtable** (ordered map) absorbs writes; every mutation is also
//!   buffered for the **write-ahead log**, appended durably at [`flush`]
//!   time so a crash never loses acknowledged state;
//! * when the memtable exceeds its limit it is written as an **immutable
//!   sorted run** with prefix-compressed `(video, label, frame)` keys
//!   (restart points every [`RESTART_INTERVAL`] entries keep random seeks
//!   cheap);
//! * each run carries a resident **range table**: every `(video, label)`
//!   pair it holds with its frame bounds, so planner lookups skip runs
//!   without touching disk;
//! * **size-tiered compaction** merges the smallest runs when the run count
//!   exceeds [`MAX_RUNS`], bounding read amplification.
//!
//! Every byte written goes through the process's one durable-write shim,
//! [`StorageIo`] (see [`crate::io`]), the same one tile commits and
//! `cluster.json` saves use, so `tasm_suite::crash::sweep` can crash any
//! WAL append, run publish or compaction step, and any step of the
//! recovery after it. Recovery (temp reaping, run roll-forward, WAL replay
//! with an operation-sequence watermark) lands in the state after some
//! prefix of the operations that holds every one a [`flush`] acknowledged.
//!
//! [`flush`]: SemanticIndex::flush

use crate::index::{check_label, Detection, IndexResult, SemanticIndex, TreeError};
use crate::io::{RealIo, StorageIo, TMP_SUFFIX};
use crate::key::{
    decode_value, encode_value, RecordKey, FIRST_LABEL, KEY_LEN, PROCESSED_LABEL, VALUE_LEN,
};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tasm_video::Rect;

/// Entries between full-key restart points in a run's data region.
pub const RESTART_INTERVAL: usize = 16;

/// Memtable entries that trigger a flush to a sorted run.
pub const DEFAULT_MEMTABLE_LIMIT: usize = 32_768;

/// Maximum runs before size-tiered compaction merges the smallest
/// [`COMPACTION_FANIN`] of them.
pub const MAX_RUNS: usize = 4;

/// Runs merged per compaction.
pub const COMPACTION_FANIN: usize = 4;

/// Magic at the head of a run file.
const RUN_MAGIC: [u8; 4] = *b"TSR1";

/// Magic at the tail of a run footer.
const FOOTER_MAGIC: [u8; 4] = *b"TSRF";

/// Fixed footer length: 8 × u64 + crc32 + magic.
const FOOTER_LEN: usize = 8 * 8 + 4 + 4;

/// The write-ahead log file name.
const WAL_NAME: &str = "wal.log";

// ---------------------------------------------------------------------
// CRC32 (IEEE), table built at compile time
// ---------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE, reflected polynomial `0xEDB88320`): the checksum of WAL
/// records and run footers here, and of `cluster.json` in `tasm-cluster`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Run files
// ---------------------------------------------------------------------

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
struct Run {
    id: u64,
    path: PathBuf,
    file_len: u64,
    data_len: u64,
    entry_count: u64,
    max_opseq: u64,
    detections_cum: u64,
    restarts: Vec<(RecordKey, u32)>,
    /// Sorted by `(video, label)`, one entry per pair.
    ranges: Vec<RangeFilter>,
    /// Run ids this run was compacted from (roll-forward deletes them).
    inputs: Vec<u64>,
    /// Cumulative label-dictionary snapshot at flush time, in id order.
    dict: Vec<String>,
}

fn run_file_name(id: u64) -> String {
    format!("run_{id:08}.sst")
}

fn parse_run_name(name: &str) -> Option<u64> {
    let body = name.strip_prefix("run_")?.strip_suffix(".sst")?;
    if body.len() != 8 {
        return None;
    }
    body.parse().ok()
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TreeError> {
        if self.data.len() - self.pos < n {
            return Err(TreeError::Corrupt("run region truncated"));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, TreeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, TreeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, TreeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Serializes a sorted set of records into run-file bytes.
#[allow(clippy::too_many_arguments)]
fn encode_run(
    entries: &BTreeMap<RecordKey, Rect>,
    max_opseq: u64,
    detections_cum: u64,
    inputs: &[u64],
    dict: &[String],
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&RUN_MAGIC);

    // Data region: prefix-compressed keys, fixed 16-byte values.
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
        out.extend_from_slice(&encode_value(rect));
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
    fn parse(id: u64, path: PathBuf, bytes: &[u8]) -> Result<Run, TreeError> {
        if bytes.len() < 4 + FOOTER_LEN || bytes[0..4] != RUN_MAGIC {
            return Err(TreeError::Corrupt("run file too short or bad magic"));
        }
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
        if data_len as usize != index_off - 4
            || index_off > filter_off
            || filter_off > dict_off
            || dict_off > inputs_off
            || inputs_off > bytes.len() - FOOTER_LEN
        {
            return Err(TreeError::Corrupt("run regions out of order"));
        }

        let mut c = Cursor::new(&bytes[index_off..filter_off]);
        let n = c.u32()? as usize;
        let mut restarts = Vec::with_capacity(n);
        for _ in 0..n {
            let key = RecordKey::decode(c.take(KEY_LEN)?);
            let off = c.u32()?;
            if off as u64 >= data_len.max(1) {
                return Err(TreeError::Corrupt("restart offset out of range"));
            }
            restarts.push((key, off));
        }

        let mut c = Cursor::new(&bytes[filter_off..dict_off]);
        let n = c.u32()? as usize;
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
        let n = c.u32()? as usize;
        let mut dict = Vec::with_capacity(n);
        for _ in 0..n {
            let len = c.u16()? as usize;
            let name = std::str::from_utf8(c.take(len)?)
                .map_err(|_| TreeError::Corrupt("run dict name not UTF-8"))?;
            dict.push(name.to_string());
        }

        let mut c = Cursor::new(&bytes[inputs_off..bytes.len() - FOOTER_LEN]);
        let n = c.u32()? as usize;
        let mut inputs = Vec::with_capacity(n);
        for _ in 0..n {
            inputs.push(c.u64()?);
        }

        Ok(Run {
            id,
            path,
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
    fn may_overlap(&self, video: u32, label: u32, frames: &Range<u32>) -> bool {
        self.ranges
            .binary_search_by_key(&(video, label), |r| (r.video, r.label))
            .is_ok_and(|i| {
                let r = &self.ranges[i];
                r.min_frame < frames.end && r.max_frame >= frames.start
            })
    }

    /// Bytes this run keeps resident (restart index + filters + dict).
    fn resident_bytes(&self) -> u64 {
        (self.restarts.len() * (KEY_LEN + 4)) as u64
            + (self.ranges.len() * 24) as u64
            + self.dict.iter().map(|s| s.len() as u64 + 2).sum::<u64>()
    }

    /// Scans the data region for keys in `[lo, hi)` (`hi = None` means
    /// unbounded), appending to `out`. `data` is the full file contents
    /// (read on demand by the caller).
    fn scan_range(
        &self,
        data: &[u8],
        lo: &RecordKey,
        hi: Option<&RecordKey>,
        out: &mut BTreeMap<RecordKey, Rect>,
    ) -> Result<(), TreeError> {
        if data.len() < 4 + self.data_len as usize {
            return Err(TreeError::Corrupt("run data region truncated"));
        }
        let region = &data[4..4 + self.data_len as usize];
        // Start at the last restart whose key is <= lo.
        let start = match self.restarts.partition_point(|(k, _)| k <= lo) {
            0 => 0usize,
            n => self.restarts[n - 1].1 as usize,
        };
        let mut pos = start;
        let mut cur = [0u8; KEY_LEN];
        let mut first = true;
        while pos < region.len() {
            if region.len() - pos < 2 {
                return Err(TreeError::Corrupt("run entry header truncated"));
            }
            let shared = region[pos] as usize;
            let unshared = region[pos + 1] as usize;
            pos += 2;
            if shared + unshared != KEY_LEN || (first && shared != 0) {
                return Err(TreeError::Corrupt("run entry key lengths invalid"));
            }
            if region.len() - pos < unshared + VALUE_LEN {
                return Err(TreeError::Corrupt("run entry body truncated"));
            }
            cur[shared..].copy_from_slice(&region[pos..pos + unshared]);
            pos += unshared;
            let key = RecordKey::decode(&cur);
            if hi.is_some_and(|hi| key >= *hi) {
                break;
            }
            if key >= *lo {
                out.insert(key, decode_value(&region[pos..pos + VALUE_LEN]));
            }
            pos += VALUE_LEN;
            first = false;
        }
        Ok(())
    }

    /// Decodes every entry of the data region (compaction, verification).
    fn scan_all(&self, data: &[u8]) -> Result<BTreeMap<RecordKey, Rect>, TreeError> {
        let mut out = BTreeMap::new();
        self.scan_range(data, &RecordKey::new(0, 0, 0, 0), None, &mut out)?;
        if out.len() as u64 != self.entry_count {
            return Err(TreeError::Corrupt("run entry count disagrees with footer"));
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Write-ahead log
// ---------------------------------------------------------------------

const WAL_TAG_INSERT: u8 = 0;
const WAL_TAG_LABEL: u8 = 1;

/// One logical WAL record, buffered until the next durable append.
enum WalRecord {
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

fn encode_wal_frame(records: &[WalRecord]) -> Vec<u8> {
    let mut payload = Vec::new();
    for r in records {
        match r {
            WalRecord::Insert { opseq, key, value } => {
                payload.push(WAL_TAG_INSERT);
                put_u64(&mut payload, *opseq);
                payload.extend_from_slice(&key.encode());
                payload.extend_from_slice(&encode_value(value));
            }
            WalRecord::Label { opseq, id, name } => {
                payload.push(WAL_TAG_LABEL);
                put_u64(&mut payload, *opseq);
                put_u32(&mut payload, *id);
                payload.extend_from_slice(&(name.len() as u16).to_le_bytes());
                payload.extend_from_slice(name.as_bytes());
            }
        }
    }
    let mut frame = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut frame, payload.len() as u32);
    put_u32(&mut frame, crc32(&payload));
    frame.extend_from_slice(&payload);
    frame
}

/// Parses WAL bytes into frames of records, returning the records and the
/// byte length of the valid prefix. A torn or corrupt tail (the expected
/// residue of a crash mid-append) simply ends the log there.
fn parse_wal(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
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
        let Some(frame_records) = parse_wal_payload(payload) else {
            break;
        };
        records.extend(frame_records);
        pos += 8 + len;
    }
    (records, pos)
}

fn parse_wal_payload(payload: &[u8]) -> Option<Vec<WalRecord>> {
    let mut out = Vec::new();
    let mut c = Cursor::new(payload);
    while c.pos < payload.len() {
        let tag = *c.take(1).ok()?.first()?;
        match tag {
            WAL_TAG_INSERT => {
                let opseq = c.u64().ok()?;
                let key = RecordKey::decode(c.take(KEY_LEN).ok()?);
                let value = decode_value(c.take(VALUE_LEN).ok()?);
                out.push(WalRecord::Insert { opseq, key, value });
            }
            WAL_TAG_LABEL => {
                let opseq = c.u64().ok()?;
                let id = c.u32().ok()?;
                let len = c.u16().ok()? as usize;
                let name = std::str::from_utf8(c.take(len).ok()?).ok()?.to_string();
                out.push(WalRecord::Label { opseq, id, name });
            }
            _ => return None,
        }
    }
    Some(out)
}

// ---------------------------------------------------------------------
// The tiered index
// ---------------------------------------------------------------------

/// Counters and sizes the `tasm stats --storage` report and benches read.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Immutable sorted runs on disk.
    pub run_count: usize,
    /// Entries across all runs.
    pub run_entries: u64,
    /// Entries currently in the memtable.
    pub memtable_entries: usize,
    /// On-disk bytes across run files and the WAL.
    pub disk_bytes: u64,
    /// Bytes kept resident (memtable + per-run filters and restart index).
    pub resident_bytes: u64,
    /// Per-run filter probes made by queries.
    pub filter_probes: u64,
    /// Probes the range tables answered without touching disk.
    pub filter_skips: u64,
    /// Run files actually read by queries.
    pub runs_read: u64,
}

impl TierStats {
    /// Fraction of filter probes that skipped a disk read.
    pub fn filter_hit_rate(&self) -> f64 {
        if self.filter_probes == 0 {
            0.0
        } else {
            self.filter_skips as f64 / self.filter_probes as f64
        }
    }
}

/// One problem [`TieredIndex::verify`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierIssue {
    /// The affected file (store-relative name).
    pub file: String,
    /// What is wrong.
    pub detail: String,
}

/// The disk-resident [`SemanticIndex`]: WAL'd memtable over immutable
/// prefix-compressed sorted runs with resident range tables
/// and size-tiered compaction. See the module docs for the design.
pub struct TieredIndex {
    io: Arc<dyn StorageIo>,
    dir: PathBuf,
    /// The memtable: every record not yet in a run.
    mem: BTreeMap<RecordKey, Rect>,
    /// Records acknowledged but not yet appended to the WAL.
    wal_buf: Vec<WalRecord>,
    /// Bytes of valid WAL on disk.
    wal_len: u64,
    /// Immutable runs, oldest first by id.
    runs: Vec<Run>,
    next_run_id: u64,
    /// Global operation sequence (watermark for WAL replay).
    opseq: u64,
    /// Detections persisted into runs (cumulative).
    detections_flushed: u64,
    /// Detections currently only in the memtable/WAL.
    detections_mem: u64,
    /// Label dictionary: id = FIRST_LABEL + position.
    label_names: Vec<String>,
    label_ids: BTreeMap<String, u32>,
    /// Memtable entries that trigger a run flush.
    memtable_limit: usize,
    filter_probes: u64,
    filter_skips: u64,
    runs_read: u64,
}

impl TieredIndex {
    /// Opens (or creates) a tiered index in `dir` with production I/O.
    pub fn open(dir: &Path) -> IndexResult<Self> {
        Self::open_with_io(dir, Arc::new(RealIo))
    }

    /// Opens (or creates) a tiered index with an injectable I/O shim —
    /// recovery (temp-file removal, compaction roll-forward, WAL replay)
    /// runs before this returns.
    pub fn open_with_io(dir: &Path, io: Arc<dyn StorageIo>) -> IndexResult<Self> {
        io.create_dir_all(dir)?;
        let mut idx = TieredIndex {
            io,
            dir: dir.to_path_buf(),
            mem: BTreeMap::new(),
            wal_buf: Vec::new(),
            wal_len: 0,
            runs: Vec::new(),
            next_run_id: 0,
            opseq: 0,
            detections_flushed: 0,
            detections_mem: 0,
            label_names: Vec::new(),
            label_ids: BTreeMap::new(),
            memtable_limit: DEFAULT_MEMTABLE_LIMIT,
            filter_probes: 0,
            filter_skips: 0,
            runs_read: 0,
        };
        idx.recover()?;
        Ok(idx)
    }

    /// Overrides the memtable flush threshold (tests and benches force
    /// small runs to exercise flush and compaction).
    pub fn set_memtable_limit(&mut self, limit: usize) {
        self.memtable_limit = limit.max(1);
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_NAME)
    }

    /// Startup recovery: remove in-flight temp files, roll compactions
    /// forward (delete inputs a published merged run supersedes), load run
    /// metadata, replay the WAL above the run watermark, and rewrite the
    /// WAL if a torn tail is found — leaving exactly the state of the last
    /// completed `flush`.
    fn recover(&mut self) -> IndexResult<()> {
        let entries = self.io.list_dir(&self.dir)?;
        // 1. Temp files are in-flight run writes or WAL rewrites that never
        //    published.
        for path in &entries {
            if path.to_string_lossy().ends_with(TMP_SUFFIX) {
                self.io.remove_file(path)?;
            }
        }
        // 2. Load every published run's resident metadata.
        let mut runs = Vec::new();
        for path in &entries {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(id) = parse_run_name(name) else {
                continue;
            };
            let bytes = self.io.read(path)?;
            let run = Run::parse(id, path.clone(), &bytes)?;
            runs.push(run);
        }
        runs.sort_by_key(|r| r.id);
        // 3. Compaction roll-forward: a published merged run supersedes its
        //    inputs; delete any that survived the crash.
        let superseded: Vec<u64> = runs.iter().flat_map(|r| r.inputs.iter().copied()).collect();
        if !superseded.is_empty() {
            let mut kept = Vec::new();
            for run in runs {
                if superseded.contains(&run.id) {
                    self.io.remove_file(&run.path)?;
                } else {
                    kept.push(run);
                }
            }
            runs = kept;
        }
        self.next_run_id = runs.iter().map(|r| r.id + 1).max().unwrap_or(0);
        // 4. Restore cumulative state from the newest run.
        if let Some(newest) = runs.iter().max_by_key(|r| r.max_opseq) {
            self.opseq = newest.max_opseq;
            self.label_names = newest.dict.clone();
        }
        self.detections_flushed = runs.iter().map(|r| r.detections_cum).max().unwrap_or(0);
        self.label_ids = self
            .label_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), FIRST_LABEL + i as u32))
            .collect();
        let watermark = runs.iter().map(|r| r.max_opseq).max().unwrap_or(0);
        self.runs = runs;
        // 5. Replay the WAL above the watermark; drop any torn tail.
        let wal_path = self.wal_path();
        if self.io.exists(&wal_path) {
            let bytes = self.io.read(&wal_path)?;
            let (records, valid_len) = parse_wal(&bytes);
            for r in records {
                match r {
                    WalRecord::Insert { opseq, key, value } => {
                        if opseq > watermark {
                            self.mem.insert(key, value);
                            if key.label != PROCESSED_LABEL {
                                self.detections_mem += 1;
                            }
                            self.opseq = self.opseq.max(opseq);
                        }
                    }
                    WalRecord::Label { opseq, id, name } => {
                        if opseq > watermark {
                            let slot = (id - FIRST_LABEL) as usize;
                            if slot >= self.label_names.len() {
                                self.label_names.resize(slot + 1, String::new());
                            }
                            self.label_names[slot] = name.clone();
                            self.label_ids.insert(name, id);
                            self.opseq = self.opseq.max(opseq);
                        }
                    }
                }
            }
            if valid_len < bytes.len() {
                // Rewrite without the torn tail so the log is clean again,
                // under a temp name: a crash mid-rewrite must keep the log.
                let tmp = self.dir.join(format!("{WAL_NAME}{TMP_SUFFIX}"));
                self.io.write(&tmp, &bytes[..valid_len])?;
                self.io.rename(&tmp, &wal_path)?;
            }
            self.wal_len = valid_len as u64;
        }
        Ok(())
    }

    fn next_opseq(&mut self) -> u64 {
        self.opseq += 1;
        self.opseq
    }

    fn intern(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.label_ids.get(label) {
            return id;
        }
        let id = FIRST_LABEL + self.label_names.len() as u32;
        self.label_names.push(label.to_string());
        self.label_ids.insert(label.to_string(), id);
        let opseq = self.next_opseq();
        self.wal_buf.push(WalRecord::Label {
            opseq,
            id,
            name: label.to_string(),
        });
        id
    }

    /// Appends buffered records to the WAL — the durability point for
    /// everything acknowledged since the previous append.
    fn append_wal(&mut self) -> IndexResult<()> {
        if self.wal_buf.is_empty() {
            return Ok(());
        }
        let frame = encode_wal_frame(&self.wal_buf);
        self.io.append(&self.wal_path(), &frame)?;
        self.wal_len += frame.len() as u64;
        self.wal_buf.clear();
        Ok(())
    }

    /// Writes the memtable as a new immutable run (publish by atomic
    /// rename), then truncates the WAL it supersedes.
    fn flush_memtable_to_run(&mut self) -> IndexResult<()> {
        if self.mem.is_empty() {
            return Ok(());
        }
        let detections_cum = self.detections_flushed + self.detections_mem;
        let bytes = encode_run(
            &self.mem,
            self.opseq,
            detections_cum,
            &[],
            &self.label_names,
        );
        let run = self.publish_run(&bytes)?;
        self.runs.push(run);
        self.mem.clear();
        self.detections_flushed = detections_cum;
        self.detections_mem = 0;
        // The WAL only covered records now durable in the run.
        self.io.write(&self.wal_path(), &[])?;
        self.wal_len = 0;
        tasm_obs::counter(
            "tasm_wal_flushes_total",
            "Semantic-index memtable flushes: WAL truncations after a run was made durable.",
        )
        .inc();
        Ok(())
    }

    /// Publishes `bytes` as the next run: written under a temp name,
    /// renamed into place (the commit point), the directory synced, then
    /// parsed back.
    fn publish_run(&mut self, bytes: &[u8]) -> IndexResult<Run> {
        let id = self.next_run_id;
        let final_path = self.dir.join(run_file_name(id));
        let tmp_path = self
            .dir
            .join(format!("{}{}", run_file_name(id), TMP_SUFFIX));
        self.io.write(&tmp_path, bytes)?;
        self.io.rename(&tmp_path, &final_path)?;
        self.io.sync_dir(&self.dir)?;
        let run = Run::parse(id, final_path, bytes)?;
        self.next_run_id += 1;
        Ok(run)
    }

    /// Inserts one record into the memtable and buffers its WAL record; at
    /// the memtable limit, [`SemanticIndex::flush`]es.
    fn insert(&mut self, opseq: u64, key: RecordKey, value: Rect) -> IndexResult<()> {
        self.mem.insert(key, value);
        self.wal_buf.push(WalRecord::Insert { opseq, key, value });
        if self.mem.len() >= self.memtable_limit {
            self.flush()?;
        }
        Ok(())
    }

    /// Size-tiered compaction: while too many runs exist, merge the
    /// smallest [`COMPACTION_FANIN`] into one (recording their ids so a
    /// crash between publish and input deletion rolls forward).
    fn maybe_compact(&mut self) -> IndexResult<()> {
        while self.runs.len() > MAX_RUNS {
            let mut order: Vec<usize> = (0..self.runs.len()).collect();
            order.sort_by_key(|&i| (self.runs[i].file_len, self.runs[i].id));
            let mut victims: Vec<usize> = order.into_iter().take(COMPACTION_FANIN).collect();
            victims.sort_unstable();
            // Merge oldest-to-newest so newer values win on duplicate keys.
            let mut merged = BTreeMap::new();
            let mut max_opseq = 0u64;
            let mut detections_cum = 0u64;
            let mut inputs = Vec::new();
            let mut dict: &[String] = &[];
            let mut ordered: Vec<usize> = victims.clone();
            ordered.sort_by_key(|&i| self.runs[i].max_opseq);
            for &i in &ordered {
                let run = &self.runs[i];
                let data = self.io.read(&run.path)?;
                merged.extend(run.scan_all(&data)?);
                max_opseq = max_opseq.max(run.max_opseq);
                detections_cum = detections_cum.max(run.detections_cum);
                inputs.push(run.id);
                if run.dict.len() >= dict.len() {
                    dict = &run.dict;
                }
            }
            let dict = dict.to_vec();
            let bytes = encode_run(&merged, max_opseq, detections_cum, &inputs, &dict);
            let run = self.publish_run(&bytes)?;
            // Delete superseded inputs (recovery redoes this if we crash).
            for i in victims.iter().rev() {
                let victim = self.runs.remove(*i);
                self.io.remove_file(&victim.path)?;
            }
            self.runs.push(run);
        }
        Ok(())
    }

    /// Merges every source (runs oldest-first, memtable last) for keys in
    /// `[lo, hi)`. Exact-key duplicates collapse newest-wins, matching
    /// [`crate::MemoryIndex`]'s insert-overwrites semantics.
    fn merged_range(
        &mut self,
        lo: RecordKey,
        hi: RecordKey,
    ) -> IndexResult<BTreeMap<RecordKey, Rect>> {
        let frames = lo.frame..hi.frame.max(lo.frame);
        let mut out = BTreeMap::new();
        let mut hits: Vec<usize> = Vec::new();
        for (i, run) in self.runs.iter().enumerate() {
            self.filter_probes += 1;
            let overlap = if lo.video == hi.video && lo.label == hi.label {
                run.may_overlap(lo.video, lo.label, &frames)
            } else {
                // Multi-label scans give the filters a video-only chance.
                run.ranges.iter().any(|r| r.video == lo.video)
            };
            if overlap {
                hits.push(i);
            } else {
                self.filter_skips += 1;
            }
        }
        for i in hits {
            let run = &self.runs[i];
            let data = self.io.read(&run.path)?;
            run.scan_range(&data, &lo, Some(&hi), &mut out)?;
            self.runs_read += 1;
        }
        for (k, v) in self.mem.range(lo..hi) {
            out.insert(*k, *v);
        }
        Ok(out)
    }

    /// Storage statistics for the CLI report and benches.
    pub fn stats(&self) -> TierStats {
        TierStats {
            run_count: self.runs.len(),
            run_entries: self.runs.iter().map(|r| r.entry_count).sum(),
            memtable_entries: self.mem.len(),
            disk_bytes: self.runs.iter().map(|r| r.file_len).sum::<u64>() + self.wal_len,
            resident_bytes: self.resident_bytes(),
            filter_probes: self.filter_probes,
            filter_skips: self.filter_skips,
            runs_read: self.runs_read,
        }
    }

    /// Bytes held in memory: memtable records plus each run's resident
    /// restart index, filters, and dictionary snapshot. Comparable with
    /// `entries × (KEY_LEN + VALUE_LEN)` for a fully resident map.
    pub fn resident_bytes(&self) -> u64 {
        self.mem.len() as u64 * (KEY_LEN + VALUE_LEN) as u64
            + self.runs.iter().map(|r| r.resident_bytes()).sum::<u64>()
    }

    /// Per-run `(id, entries, file bytes)` in id order (the CLI's level
    /// listing).
    pub fn run_summaries(&self) -> Vec<(u64, u64, u64)> {
        self.runs
            .iter()
            .map(|r| (r.id, r.entry_count, r.file_len))
            .collect()
    }

    /// Structural integrity check: every run re-reads, checksums, and
    /// re-counts cleanly; the WAL parses without residue. The tier-level
    /// analogue of the store's fsck.
    pub fn verify(&self) -> IndexResult<Vec<TierIssue>> {
        let mut issues = Vec::new();
        for run in &self.runs {
            let name = run
                .path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            match self.io.read(&run.path) {
                Err(e) => issues.push(TierIssue {
                    file: name,
                    detail: format!("unreadable: {e}"),
                }),
                Ok(bytes) => match Run::parse(run.id, run.path.clone(), &bytes) {
                    Err(e) => issues.push(TierIssue {
                        file: name,
                        detail: e.to_string(),
                    }),
                    Ok(parsed) => {
                        if let Err(e) = parsed.scan_all(&bytes) {
                            issues.push(TierIssue {
                                file: name,
                                detail: e.to_string(),
                            });
                        }
                    }
                },
            }
        }
        let wal_path = self.wal_path();
        if self.io.exists(&wal_path) {
            let bytes = self.io.read(&wal_path)?;
            let (_, valid_len) = parse_wal(&bytes);
            if valid_len != bytes.len() {
                issues.push(TierIssue {
                    file: WAL_NAME.to_string(),
                    detail: format!("torn tail: {} of {} bytes valid", valid_len, bytes.len()),
                });
            }
        }
        Ok(issues)
    }
}

impl SemanticIndex for TieredIndex {
    fn add_metadata(&mut self, video: u32, label: &str, frame: u32, bbox: Rect) -> IndexResult<()> {
        check_label(label)?;
        let label_id = self.intern(label);
        let opseq = self.next_opseq();
        let key = RecordKey::new(video, label_id, frame, (opseq & 0xFFFF_FFFF) as u32);
        self.detections_mem += 1;
        self.insert(opseq, key, bbox)
    }

    fn query(
        &mut self,
        video: u32,
        label: &str,
        frames: Range<u32>,
    ) -> IndexResult<Vec<Detection>> {
        let Some(&label_id) = self.label_ids.get(label) else {
            return Ok(Vec::new());
        };
        if frames.start >= frames.end {
            return Ok(Vec::new());
        }
        let lo = RecordKey::range_start(video, label_id, frames.start);
        let hi = RecordKey::range_start(video, label_id, frames.end);
        Ok(self
            .merged_range(lo, hi)?
            .into_iter()
            .map(|(k, bbox)| Detection {
                frame: k.frame,
                bbox,
            })
            .collect())
    }

    fn labels(&mut self, video: u32) -> IndexResult<Vec<String>> {
        // Label presence is resident: run range tables + a memtable scan.
        let mut ids: Vec<u32> = Vec::new();
        for run in &self.runs {
            for r in &run.ranges {
                if r.video == video && r.label != PROCESSED_LABEL {
                    ids.push(r.label);
                }
            }
        }
        let lo = RecordKey::new(video, 0, 0, 0);
        let hi = RecordKey::new(video.saturating_add(1), 0, 0, 0);
        let mem_range: Box<dyn Iterator<Item = (&RecordKey, &Rect)>> = if video == u32::MAX {
            Box::new(self.mem.range(lo..))
        } else {
            Box::new(self.mem.range(lo..hi))
        };
        for (k, _) in mem_range {
            if k.label != PROCESSED_LABEL {
                ids.push(k.label);
            }
        }
        ids.sort_unstable();
        ids.dedup();
        Ok(ids
            .into_iter()
            .filter_map(|id| self.label_names.get((id - FIRST_LABEL) as usize).cloned())
            .collect())
    }

    fn mark_processed(&mut self, video: u32, frame: u32) -> IndexResult<()> {
        // Idempotent: seq 0 means re-marking overwrites the same key.
        let opseq = self.next_opseq();
        let key = RecordKey::new(video, PROCESSED_LABEL, frame, 0);
        self.insert(opseq, key, Rect::new(0, 0, 0, 0))
    }

    fn processed_count(&mut self, video: u32, frames: Range<u32>) -> IndexResult<u32> {
        if frames.start >= frames.end {
            return Ok(0);
        }
        let lo = RecordKey::range_start(video, PROCESSED_LABEL, frames.start);
        let hi = RecordKey::range_start(video, PROCESSED_LABEL, frames.end);
        Ok(self.merged_range(lo, hi)?.len() as u32)
    }

    fn detection_count(&self) -> u64 {
        self.detections_flushed + self.detections_mem
    }

    fn flush(&mut self) -> IndexResult<()> {
        self.append_wal()?;
        if self.mem.len() >= self.memtable_limit {
            self.flush_memtable_to_run()?;
            self.maybe_compact()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tasm-tiered-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn bbox(n: u32) -> Rect {
        Rect::new(n * 10, n * 7, 32, 32)
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
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
        let mut out = BTreeMap::new();
        run.scan_range(
            &bytes,
            &RecordKey::range_start(1, 2, 100),
            Some(&RecordKey::range_start(1, 2, 200)),
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 100);
        assert_eq!(out.values().next(), Some(&bbox(100)));
        assert_eq!(run.scan_all(&bytes).unwrap(), entries);
    }

    /// A run file as the encoder wrote it while runs carried a Bloom filter
    /// after the range table (540 bytes: video 7's `car` at frames 10–13,
    /// marked processed, and `person` at 20–21; video 9's `car` at 0–1).
    /// It still opens, and answers from the table alone.
    #[test]
    fn a_run_written_with_a_bloom_filter_opens_and_answers() {
        let dir = temp_dir("bloom-run");
        std::fs::create_dir_all(&dir).unwrap();
        let old = include_bytes!("../testdata/run_with_bloom.sst");
        std::fs::write(dir.join(run_file_name(0)), old).unwrap();
        let mut idx = TieredIndex::open(&dir).unwrap();
        assert!(idx.verify().unwrap().is_empty());
        assert_eq!(idx.run_summaries(), vec![(0, 12, old.len() as u64)]);
        let frames = |d: Vec<Detection>| d.into_iter().map(|d| d.frame).collect::<Vec<_>>();
        assert_eq!(
            frames(idx.query(7, "car", 0..100).unwrap()),
            [10, 11, 12, 13]
        );
        assert_eq!(
            idx.query(7, "person", 21..22).unwrap(),
            [Detection {
                frame: 21,
                bbox: Rect::new(40, 2, 6, 18)
            }]
        );
        assert_eq!(frames(idx.query(9, "car", 0..10).unwrap()), [0, 1]);
        assert_eq!(idx.processed_count(7, 0..100).unwrap(), 4);
        assert_eq!(idx.labels(7).unwrap(), ["car", "person"]);
        let stats = idx.stats();
        assert_eq!((stats.filter_probes, stats.runs_read), (4, 4));
        assert!(idx.query(9, "person", 0..100).unwrap().is_empty());
        assert!(idx.query(7, "car", 14..100).unwrap().is_empty());
        assert_eq!(idx.stats().filter_skips, 2);
        std::fs::remove_dir_all(&dir).ok();
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

    #[test]
    fn basic_semantics_match_memory_index() {
        use crate::index::MemoryIndex;
        let dir = temp_dir("semantics");
        let mut tiered = TieredIndex::open(&dir).unwrap();
        tiered.set_memtable_limit(16); // force runs + compactions
        let mut shadow = MemoryIndex::in_memory();
        for f in 0..300u32 {
            let label = ["car", "person", "bird"][(f % 3) as usize];
            tiered.add_metadata(1, label, f, bbox(f)).unwrap();
            shadow.add_metadata(1, label, f, bbox(f)).unwrap();
            if f % 2 == 0 {
                tiered.mark_processed(1, f).unwrap();
                shadow.mark_processed(1, f).unwrap();
            }
        }
        tiered.flush().unwrap();
        assert!(tiered.stats().run_count >= 1, "must have flushed runs");
        for range in [0..300u32, 50..60, 299..300, 0..1, 250..1000] {
            assert_eq!(
                tiered.query(1, "car", range.clone()).unwrap(),
                shadow.query(1, "car", range.clone()).unwrap()
            );
            assert_eq!(
                tiered.processed_count(1, range.clone()).unwrap(),
                shadow.processed_count(1, range.clone()).unwrap()
            );
            assert_eq!(
                tiered.query_all(1, range.clone()).unwrap(),
                shadow.query_all(1, range).unwrap()
            );
        }
        assert_eq!(tiered.labels(1).unwrap(), shadow.labels(1).unwrap());
        assert_eq!(tiered.detection_count(), shadow.detection_count());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn state_survives_reopen() {
        let dir = temp_dir("reopen");
        {
            let mut idx = TieredIndex::open(&dir).unwrap();
            idx.set_memtable_limit(32);
            for f in 0..100u32 {
                idx.add_metadata(7, "car", f, bbox(f)).unwrap();
            }
            idx.add_metadata(7, "person", 5, bbox(5)).unwrap();
            idx.mark_processed(7, 5).unwrap();
            idx.flush().unwrap();
        }
        {
            let mut idx = TieredIndex::open(&dir).unwrap();
            assert_eq!(idx.detection_count(), 101);
            assert_eq!(idx.query(7, "car", 0..100).unwrap().len(), 100);
            assert_eq!(idx.query(7, "person", 0..10).unwrap().len(), 1);
            assert_eq!(idx.processed_count(7, 0..10).unwrap(), 1);
            assert_eq!(idx.labels(7).unwrap(), vec!["car", "person"]);
            // The sequence watermark restored: new inserts keep unique keys.
            idx.add_metadata(7, "car", 5, bbox(999)).unwrap();
            assert_eq!(idx.detection_count(), 102);
            assert!(idx.verify().unwrap().is_empty());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unflushed_records_are_lost_but_flushed_survive() {
        let dir = temp_dir("durability");
        {
            let mut idx = TieredIndex::open(&dir).unwrap();
            idx.add_metadata(0, "car", 1, bbox(1)).unwrap();
            idx.flush().unwrap();
            idx.add_metadata(0, "car", 2, bbox(2)).unwrap();
            // No flush: record 2 is only in the memtable + wal_buf.
        }
        {
            let mut idx = TieredIndex::open(&dir).unwrap();
            assert_eq!(idx.query(0, "car", 0..10).unwrap().len(), 1);
            assert_eq!(idx.detection_count(), 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overlong_label_is_refused_and_loses_nothing() {
        let dir = temp_dir("long-label");
        let long = "x".repeat(70_000);
        {
            let mut idx = TieredIndex::open(&dir).unwrap();
            let mut shadow = crate::index::MemoryIndex::in_memory();
            idx.add_metadata(0, "car", 1, bbox(1)).unwrap();
            for ix in [&mut idx as &mut dyn SemanticIndex, &mut shadow] {
                assert!(matches!(
                    ix.add_metadata(0, &long, 2, bbox(2)),
                    Err(TreeError::LabelTooLong(70_000))
                ));
            }
            // No label id, WAL record or memtable entry for the refused call.
            assert_eq!(idx.label_names, ["car"]);
            assert_eq!((idx.wal_buf.len(), idx.mem.len()), (2, 1));
            idx.add_metadata(0, "car", 3, bbox(3)).unwrap();
            idx.flush().unwrap();
        }
        let mut idx = TieredIndex::open(&dir).unwrap();
        assert_eq!(idx.query(0, "car", 0..10).unwrap().len(), 2);
        assert_eq!(idx.detection_count(), 2);
        assert_eq!(idx.labels(0).unwrap(), vec!["car"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_wal_tail_is_dropped_and_rewritten() {
        let dir = temp_dir("torn");
        {
            let mut idx = TieredIndex::open(&dir).unwrap();
            idx.add_metadata(0, "car", 1, bbox(1)).unwrap();
            idx.flush().unwrap();
            idx.add_metadata(0, "car", 2, bbox(2)).unwrap();
            idx.flush().unwrap();
        }
        // Tear the last frame.
        let wal = dir.join(WAL_NAME);
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();
        {
            let mut idx = TieredIndex::open(&dir).unwrap();
            // First frame replayed; torn second frame dropped.
            assert_eq!(idx.query(0, "car", 0..10).unwrap().len(), 1);
            assert!(idx.verify().unwrap().is_empty(), "WAL rewritten clean");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_bounds_run_count_and_preserves_data() {
        let dir = temp_dir("compact");
        let mut idx = TieredIndex::open(&dir).unwrap();
        idx.set_memtable_limit(10);
        for f in 0..400u32 {
            idx.add_metadata(2, "car", f, bbox(f)).unwrap();
        }
        idx.flush().unwrap();
        let stats = idx.stats();
        assert!(
            stats.run_count <= MAX_RUNS,
            "compaction must bound runs, got {}",
            stats.run_count
        );
        assert_eq!(idx.query(2, "car", 0..400).unwrap().len(), 400);
        assert_eq!(idx.detection_count(), 400);
        assert!(idx.verify().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn filter_hit_rate_counts_skips() {
        let dir = temp_dir("filters");
        let mut idx = TieredIndex::open(&dir).unwrap();
        idx.set_memtable_limit(50);
        for f in 0..100u32 {
            idx.add_metadata(0, "car", f, bbox(f)).unwrap();
        }
        for f in 0..100u32 {
            idx.add_metadata(1, "person", f, bbox(f)).unwrap();
        }
        idx.flush().unwrap();
        assert!(idx.stats().run_count >= 2);
        // Query a (video, label) that only one run's tier can hold.
        idx.query(0, "car", 0..100).unwrap();
        let stats = idx.stats();
        assert!(stats.filter_probes > 0);
        assert!(
            stats.filter_skips > 0,
            "the range tables should skip the person-only runs"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resident_bytes_fraction_of_full_map() {
        let dir = temp_dir("resident");
        let mut idx = TieredIndex::open(&dir).unwrap();
        idx.set_memtable_limit(1000);
        let n = 20_000u32;
        for f in 0..n {
            idx.add_metadata(0, "car", f, bbox(f)).unwrap();
        }
        idx.flush().unwrap();
        let full_map = n as u64 * (KEY_LEN + VALUE_LEN) as u64;
        let resident = idx.resident_bytes();
        assert!(
            resident * 4 <= full_map,
            "resident {resident} should be <= 1/4 of {full_map}"
        );
        // And the data still answers correctly.
        assert_eq!(idx.query(0, "car", 0..n).unwrap().len(), n as usize);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::index::MemoryIndex;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The tiered index must answer exactly like the in-memory index
        /// on random workloads, across memtable, runs, and compactions.
        #[test]
        fn prop_equivalent_to_memory_index(
            ops in proptest::collection::vec(
                (0u32..3, 0u32..4, 0u32..200, 0u32..50),
                1..250
            ),
            limit in 4usize..40,
        ) {
            let dir = std::env::temp_dir().join(format!(
                "tasm-tiered-prop-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let mut tiered = TieredIndex::open(&dir).unwrap();
            tiered.set_memtable_limit(limit);
            let mut shadow = MemoryIndex::in_memory();
            let labels = ["car", "person", "bird", "bus"];
            for (op, label, frame, video_seed) in ops {
                let video = video_seed % 3;
                match op {
                    0 | 1 => {
                        let label = labels[label as usize];
                        let bbox = Rect::new(frame, frame * 2, 8 + label.len() as u32, 8);
                        tiered.add_metadata(video, label, frame, bbox).unwrap();
                        shadow.add_metadata(video, label, frame, bbox).unwrap();
                    }
                    _ => {
                        tiered.mark_processed(video, frame).unwrap();
                        shadow.mark_processed(video, frame).unwrap();
                    }
                }
            }
            tiered.flush().unwrap();
            for video in 0..3u32 {
                prop_assert_eq!(
                    tiered.labels(video).unwrap(),
                    shadow.labels(video).unwrap()
                );
                for range in [0u32..200, 50..120, 0..1, 190..400] {
                    for label in labels {
                        prop_assert_eq!(
                            tiered.query(video, label, range.clone()).unwrap(),
                            shadow.query(video, label, range.clone()).unwrap()
                        );
                    }
                    prop_assert_eq!(
                        tiered.processed_count(video, range.clone()).unwrap(),
                        shadow.processed_count(video, range.clone()).unwrap()
                    );
                    prop_assert_eq!(
                        tiered.query_all(video, range.clone()).unwrap(),
                        shadow.query_all(video, range).unwrap()
                    );
                }
            }
            prop_assert_eq!(tiered.detection_count(), shadow.detection_count());
            prop_assert!(tiered.verify().unwrap().is_empty());
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
