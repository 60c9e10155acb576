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
//!   sorted run** with prefix-compressed `(video, label, frame, seq)` keys
//!   and varint boxes (restart points every [`RESTART_INTERVAL`] entries
//!   bound what a lookup reads to the restarts around its range);
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
//! Only the directory's owner repairs it: a handle holds an exclusive
//! advisory lock on `index.lock` for its lifetime (the tile store's rule
//! for its own directory). A handle opened beside a live owner, such as
//! `tasm fsck` beside `tasm serve`, replays the runs and the WAL's valid
//! prefix into memory, removes, rolls forward and rewrites nothing, and
//! refuses writes with [`TreeError::ReadOnly`] while that owner lives.
//! Once it has gone, the handle's next write takes the lock and reloads
//! the directory as an owning open would, repairs included, so a server
//! that started beside a short-lived reader still writes.
//!
//! The run file and the WAL are `run.rs` and `wal.rs`, and the checksum
//! both use is `crc.rs`. `FORMAT.md` at the repository root gives both
//! files byte by byte, in the layout this build writes (`TSR2` runs, WAL
//! tags 2 and 3) beside the one it still reads (`TSR1` runs, WAL tags 0
//! and 1, fixed-width fields).
//!
//! [`flush`]: SemanticIndex::flush

pub use crate::crc::crc32;
use crate::index::{check_label, Detection, IndexResult, SemanticIndex, TreeError};
use crate::io::{read_exact_range, RealIo, StorageIo, TMP_SUFFIX};
use crate::key::{RecordKey, FIRST_LABEL, KEY_LEN, PROCESSED_LABEL, VALUE_LEN};
pub use crate::run::RESTART_INTERVAL;
use crate::run::{encode_run, parse_run_name, run_file_name, Run};
use crate::wal::{encode_wal_frame, parse_wal, WalRecord};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tasm_video::Rect;

/// Memtable entries that trigger a flush to a sorted run.
pub const DEFAULT_MEMTABLE_LIMIT: usize = 32_768;

/// Maximum runs before size-tiered compaction merges the smallest
/// [`COMPACTION_FANIN`] of them.
pub const MAX_RUNS: usize = 4;

/// Runs merged per compaction.
pub const COMPACTION_FANIN: usize = 4;

/// The write-ahead log file name.
const WAL_NAME: &str = "wal.log";

/// The lock file whose holder owns the directory.
const LOCK_NAME: &str = "index.lock";

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
    /// Runs still in the `TSR1` layout (fixed 16-byte boxes); compaction
    /// rewrites each it merges as `TSR2`.
    pub v1_runs: usize,
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
    /// The lock on [`LOCK_NAME`], held for this handle's lifetime when
    /// acquired (see [`crate::io::lock_owner`]).
    _lock: Option<std::fs::File>,
    /// Another live handle owned the directory when this one opened or
    /// last tried to write: this one repaired nothing and writes nothing
    /// until it takes the lock.
    read_only: bool,
}

impl TieredIndex {
    /// Opens (or creates) a tiered index in `dir` with production I/O.
    pub fn open(dir: &Path) -> IndexResult<Self> {
        Self::open_with_io(dir, Arc::new(RealIo))
    }

    /// Opens (or creates) a tiered index with an injectable I/O shim —
    /// recovery (temp-file removal, compaction roll-forward, WAL replay)
    /// runs before this returns. Beside a live owner of `dir` the handle
    /// only replays, and refuses writes.
    pub fn open_with_io(dir: &Path, io: Arc<dyn StorageIo>) -> IndexResult<Self> {
        io.create_dir_all(dir)?;
        let (lock, read_only) = crate::io::lock_owner(&dir.join(LOCK_NAME));
        Self::load(dir, io, lock, read_only)
    }

    /// A handle on `dir` holding `lock`, loaded by [`TieredIndex::recover`].
    fn load(
        dir: &Path,
        io: Arc<dyn StorageIo>,
        lock: Option<std::fs::File>,
        read_only: bool,
    ) -> IndexResult<Self> {
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
            _lock: lock,
            read_only,
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
    /// completed `flush`. A read-only handle loads and replays the same
    /// state and changes no file: its temp files and torn tail may be the
    /// owner's writes in flight.
    fn recover(&mut self) -> IndexResult<()> {
        let repair = !self.read_only;
        let entries = self.io.list_dir(&self.dir)?;
        // 1. Temp files are in-flight run writes or WAL rewrites that never
        //    published.
        for path in &entries {
            if repair && path.to_string_lossy().ends_with(TMP_SUFFIX) {
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
        let (gone, kept): (Vec<Run>, Vec<Run>) =
            runs.into_iter().partition(|r| superseded.contains(&r.id));
        if repair {
            for run in &gone {
                self.io.remove_file(&run.path)?;
            }
        }
        runs = kept;
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
                            // Ids are handed out in order, and the
                            // newest run's dictionary holds every id below
                            // the watermark: a gap is not this index's log.
                            let slot = (id - FIRST_LABEL) as usize;
                            if slot > self.label_names.len() {
                                return Err(TreeError::Corrupt("WAL label id out of sequence"));
                            }
                            if slot == self.label_names.len() {
                                self.label_names.push(String::new());
                            }
                            self.label_names[slot] = name.clone();
                            self.label_ids.insert(name, id);
                            self.opseq = self.opseq.max(opseq);
                        }
                    }
                }
            }
            if repair && valid_len < bytes.len() {
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

    /// Lets a write through on the directory's owner. A handle that opened
    /// beside a live owner takes the lock now if that owner has gone, and
    /// then reloads the directory as an owning open would, repairs
    /// included, before it writes (it wrote nothing while it only read);
    /// while the owner lives the write is refused.
    fn check_owner(&mut self) -> IndexResult<()> {
        if !self.read_only {
            return Ok(());
        }
        let (Some(lock), _) = crate::io::lock_owner(&self.dir.join(LOCK_NAME)) else {
            return Err(TreeError::ReadOnly);
        };
        let mut owner = Self::load(&self.dir, Arc::clone(&self.io), Some(lock), false)?;
        owner.memtable_limit = self.memtable_limit;
        (owner.filter_probes, owner.filter_skips, owner.runs_read) =
            (self.filter_probes, self.filter_skips, self.runs_read);
        *self = owner;
        Ok(())
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
            // The merged run answers for its inputs before any is deleted,
            // so a failed delete loses no record from this handle; the
            // merged run's footer lists what is left for recovery.
            let gone: Vec<Run> = victims.iter().rev().map(|&i| self.runs.remove(i)).collect();
            self.runs.push(run);
            for victim in gone {
                self.io.remove_file(&victim.path)?;
            }
        }
        Ok(())
    }

    /// Every record of `(video, label)` on `frames`, in key order: the
    /// memtable's and those of each run its range table does not rule
    /// out. A run is read from the restart at or below the range to the
    /// restart at or past its end, not whole. An exact key held by several
    /// sources keeps the newest value (runs oldest first, the memtable
    /// last), matching [`crate::MemoryIndex`]'s insert-overwrites
    /// semantics.
    fn range(
        &mut self,
        video: u32,
        label: u32,
        frames: Range<u32>,
    ) -> IndexResult<Vec<(RecordKey, Rect)>> {
        let lo = RecordKey::range_start(video, label, frames.start);
        let hi = RecordKey::range_start(video, label, frames.end);
        let mut out = Vec::new();
        let mut runs_hit = 0;
        for run in &self.runs {
            self.filter_probes += 1;
            if !run.may_overlap(video, label, &frames) {
                self.filter_skips += 1;
                continue;
            }
            let file = self.io.open(&run.path)?;
            let region = read_exact_range(&file, run.slice(&lo, &hi))?;
            run.scan(&region, &lo, Some(&hi), &mut out)?;
            self.runs_read += 1;
            runs_hit += 1;
        }
        out.extend(self.mem.range(lo..hi).map(|(k, v)| (*k, *v)));
        if runs_hit > 0 {
            // Stable, so equal keys stay oldest source first; the newest wins.
            out.sort_by_key(|(k, _)| *k);
            out.dedup_by(|newer, kept| {
                let same = newer.0 == kept.0;
                if same {
                    *kept = *newer;
                }
                same
            });
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
            v1_runs: self.runs.iter().filter(|r| r.v1).count(),
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
        self.check_owner()?;
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
        Ok(self
            .range(video, label_id, frames)?
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
            ids.extend(run.labels(video));
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
        self.check_owner()?;
        // Idempotent: seq 0 means re-marking overwrites the same key.
        let opseq = self.next_opseq();
        let key = RecordKey::new(video, PROCESSED_LABEL, frame, 0);
        self.insert(opseq, key, Rect::new(0, 0, 0, 0))
    }

    fn processed_count(&mut self, video: u32, frames: Range<u32>) -> IndexResult<u32> {
        if frames.start >= frames.end {
            return Ok(0);
        }
        Ok(self.range(video, PROCESSED_LABEL, frames)?.len() as u32)
    }

    fn detection_count(&self) -> u64 {
        self.detections_flushed + self.detections_mem
    }

    fn flush(&mut self) -> IndexResult<()> {
        self.check_owner()?;
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
    use crate::key::{put_u32, put_varint};

    /// The tags of `FORMAT.md`'s v2 WAL insert and label records.
    const WAL_TAG_INSERT: u8 = 2;
    const WAL_TAG_LABEL: u8 = 3;

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

    /// A directory holding `files`, as a store's index directory.
    fn dir_with(tag: &str, files: &[(String, &[u8])]) -> PathBuf {
        let dir = temp_dir(tag);
        std::fs::create_dir_all(&dir).unwrap();
        for (name, bytes) in files {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        dir
    }

    const WAL_V1: &[u8] = include_bytes!("../testdata/wal_v1.log");
    const RUN_V1: &[u8] = include_bytes!("../testdata/run_v1.sst");

    /// What both v1 fixtures hold, as the encoder of fixed-width records
    /// wrote them: video 7's `car` on frames 10–13, each marked processed
    /// (the WAL's first frame), then `person` on 20–21 and video 9's `car`
    /// on frame 1, then 0 (its second).
    fn assert_fixture_answers(idx: &mut TieredIndex) {
        let det = |frame, bbox| Detection { frame, bbox };
        let cars: Vec<_> = (10..14)
            .map(|f| det(f, Rect::new(100 + f, 50, 24, 16)))
            .collect();
        assert_eq!(idx.query(7, "car", 0..100).unwrap(), cars);
        assert_eq!(
            idx.query(7, "person", 0..100).unwrap(),
            [
                det(20, Rect::new(40, 0, 6, 18)),
                det(21, Rect::new(40, 2, 6, 18))
            ]
        );
        assert_eq!(
            idx.query(9, "car", 0..10).unwrap(),
            [
                det(0, Rect::new(128, 127, 200, 130)),
                det(1, Rect::new(600, 300, 40, 30))
            ]
        );
        assert_eq!(idx.processed_count(7, 0..100).unwrap(), 4);
        assert_eq!(idx.labels(7).unwrap(), ["car", "person"]);
        assert_eq!(idx.labels(9).unwrap(), ["car"]);
    }

    #[test]
    fn a_v1_wal_replays_and_a_v1_run_opens() {
        for (name, bytes) in [(WAL_NAME.to_string(), WAL_V1), (run_file_name(0), RUN_V1)] {
            let dir = dir_with("v1-fixture", &[(name.clone(), bytes)]);
            let mut idx = TieredIndex::open(&dir).unwrap();
            assert!(idx.verify().unwrap().is_empty(), "{name}");
            assert_fixture_answers(&mut idx);
            assert_eq!(idx.detection_count(), 8);
            assert_eq!(idx.stats().v1_runs, usize::from(bytes == RUN_V1));
            drop(idx);
            assert_eq!(std::fs::read(dir.join(&name)).unwrap(), bytes, "{name}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_wal_of_v1_frames_then_v2_frames_replays() {
        let dir = dir_with("v1-then-v2", &[(WAL_NAME.to_string(), WAL_V1)]);
        {
            let mut idx = TieredIndex::open(&dir).unwrap();
            idx.add_metadata(8, "bus", 3, Rect::new(u32::MAX, 0, 128, 127))
                .unwrap();
            idx.mark_processed(8, 3).unwrap();
            idx.flush().unwrap();
        }
        let bytes = std::fs::read(dir.join(WAL_NAME)).unwrap();
        assert_eq!(&bytes[..WAL_V1.len()], WAL_V1);
        assert_eq!(bytes[WAL_V1.len() + 8], WAL_TAG_LABEL, "a v2 frame follows");
        let mut idx = TieredIndex::open(&dir).unwrap();
        assert!(idx.verify().unwrap().is_empty());
        assert_fixture_answers(&mut idx);
        assert_eq!(
            idx.query(8, "bus", 0..10).unwrap(),
            [Detection {
                frame: 3,
                bbox: Rect::new(u32::MAX, 0, 128, 127)
            }]
        );
        assert_eq!(idx.processed_count(8, 0..10).unwrap(), 1);
        assert_eq!(idx.detection_count(), 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compacting_v1_runs_writes_tsr2() {
        let files: Vec<_> = (0..4).map(|id| (run_file_name(id), RUN_V1)).collect();
        let dir = dir_with("v1-compact", &files);
        let mut idx = TieredIndex::open(&dir).unwrap();
        assert_eq!(idx.stats().v1_runs, 4);
        // A fifth run larger than the fixture's, so the four v1 runs are
        // the ones compaction merges.
        idx.set_memtable_limit(200);
        for f in 0..200u32 {
            idx.add_metadata(11, "car", f, bbox(f)).unwrap();
        }
        let stats = idx.stats();
        assert_eq!((stats.run_count, stats.v1_runs), (2, 0));
        for path in idx.io.list_dir(&dir).unwrap() {
            let head = std::fs::read(&path).unwrap();
            assert!(
                path.ends_with(WAL_NAME) || path.ends_with(LOCK_NAME) || head.starts_with(b"TSR2"),
                "{path:?}"
            );
        }
        assert!(idx.verify().unwrap().is_empty());
        assert_fixture_answers(&mut idx);
        assert_eq!(idx.query(11, "car", 0..200).unwrap().len(), 200);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A frame whose CRC holds but whose records do not decode ends replay
    /// at its start, like a torn one: nothing after it is read, nothing
    /// panics, and recovery rewrites the log as the frames before it.
    #[test]
    fn a_frame_with_a_bad_varint_ends_replay_there() {
        let good = encode_wal_frame(&[
            WalRecord::Label {
                opseq: 1,
                id: 1,
                name: "car".to_string(),
            },
            WalRecord::Insert {
                opseq: 2,
                key: RecordKey::new(0, 1, 5, 2),
                value: Rect::new(1, 2, 3, 4),
            },
        ]);
        let later = encode_wal_frame(&[WalRecord::Insert {
            opseq: 3,
            key: RecordKey::new(0, 1, 6, 3),
            value: Rect::new(1, 2, 3, 4),
        }]);
        let frame = |payload: &[u8]| {
            let mut f = Vec::new();
            put_u32(&mut f, payload.len() as u32);
            put_u32(&mut f, crc32(payload));
            f.extend_from_slice(payload);
            f
        };
        let mut overlong = vec![WAL_TAG_INSERT];
        overlong.extend([0x80; 10]);
        overlong.push(0x00);
        let mut video_past_u32 = vec![WAL_TAG_INSERT, 0x02];
        put_varint(&mut video_past_u32, 1 << 33); // zigzag of +2^32
        video_past_u32.extend([0, 0, 0, 1, 2, 3, 4]);
        let mut box_past_u32 = vec![WAL_TAG_INSERT, 0x02, 0, 2, 10, 0];
        put_varint(&mut box_past_u32, 1 << 32);
        box_past_u32.extend([2, 3, 4]);
        let bad_payloads: [&[u8]; 7] = [
            &[WAL_TAG_INSERT, 0x02, 0x80],     // cut off by the frame's end
            &[WAL_TAG_INSERT, 0x02, 0, 2, 10], // box missing
            &overlong,
            &video_past_u32,
            &box_past_u32,
            &[WAL_TAG_LABEL, 0x02, 0x00, 0x01, b'x'], // label id 0
            &[WAL_TAG_LABEL, 0x02, 0x02, 0x05, b'x'], // name cut off
        ];
        for bad in bad_payloads {
            let mut bytes = good.clone();
            bytes.extend(frame(bad));
            bytes.extend(&later);
            assert_eq!(parse_wal(&bytes).1, good.len(), "{bad:?}");
            let dir = dir_with("bad-varint", &[(WAL_NAME.to_string(), &bytes)]);
            let mut idx = TieredIndex::open(&dir).unwrap();
            assert_eq!(idx.query(0, "car", 0..10).unwrap().len(), 1, "{bad:?}");
            assert!(idx.verify().unwrap().is_empty());
            assert_eq!(std::fs::read(dir.join(WAL_NAME)).unwrap(), good);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A label record whose id skips ahead of the dictionary is refused
    /// with a typed error, not a dictionary grown to that id.
    #[test]
    fn a_wal_label_id_out_of_sequence_is_corrupt() {
        let bytes = encode_wal_frame(&[WalRecord::Label {
            opseq: 1,
            id: u32::MAX,
            name: "car".to_string(),
        }]);
        let dir = dir_with("label-gap", &[(WAL_NAME.to_string(), &bytes)]);
        assert!(matches!(
            TieredIndex::open(&dir),
            Err(TreeError::Corrupt("WAL label id out of sequence"))
        ));
        std::fs::remove_dir_all(&dir).ok();
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

    /// A second open of a directory whose owner is live repairs nothing:
    /// the temp file of a run the owner may be publishing and a WAL tail
    /// the owner may be appending stay as they are.
    #[test]
    fn a_second_open_beside_a_live_owner_repairs_nothing() {
        let dir = temp_dir("second-open");
        let mut owner = TieredIndex::open(&dir).unwrap();
        owner.add_metadata(0, "car", 1, bbox(1)).unwrap();
        owner.flush().unwrap();
        let tmp = dir.join(format!("{}{TMP_SUFFIX}", run_file_name(7)));
        std::fs::write(&tmp, b"a run being written").unwrap();
        let wal = dir.join(WAL_NAME);
        let mut wal_bytes = std::fs::read(&wal).unwrap();
        wal_bytes.extend_from_slice(&[9, 0, 0, 0, 0xAB, 0xCD]);
        std::fs::write(&wal, &wal_bytes).unwrap();

        let mut second = TieredIndex::open(&dir).unwrap();
        let tmp_kept = tmp.exists();
        let wal_kept = std::fs::read(&wal).unwrap() == wal_bytes;
        assert!(
            tmp_kept && wal_kept,
            "tmp_kept={tmp_kept} wal_kept={wal_kept}"
        );
        assert_eq!(second.query(0, "car", 0..10).unwrap().len(), 1);
        drop(second);
        drop(owner);
        // With the owner gone, the next open owns the directory and repairs.
        let idx = TieredIndex::open(&dir).unwrap();
        assert!(!tmp.exists());
        assert!(idx.verify().unwrap().is_empty(), "WAL rewritten clean");
        drop(idx);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A handle beside a live owner reads what the owner holds at a
    /// quiescent point and refuses every write with a typed error.
    #[test]
    fn a_handle_beside_a_live_owner_reads_and_refuses_writes() {
        let dir = temp_dir("reader");
        let mut owner = TieredIndex::open(&dir).unwrap();
        owner.set_memtable_limit(4);
        for f in 0..10 {
            owner.add_metadata(0, "car", f, bbox(f)).unwrap();
        }
        owner.flush().unwrap();
        let mut reader = TieredIndex::open(&dir).unwrap();
        assert_eq!(reader.stats(), owner.stats());
        assert!(matches!(
            reader.add_metadata(0, "car", 10, bbox(10)),
            Err(TreeError::ReadOnly)
        ));
        assert!(matches!(
            reader.mark_processed(0, 0),
            Err(TreeError::ReadOnly)
        ));
        assert!(matches!(reader.flush(), Err(TreeError::ReadOnly)));
        assert_eq!(reader.detection_count(), 10);
        assert_eq!(reader.query(0, "car", 0..10).unwrap().len(), 10);
        drop(reader);
        owner.add_metadata(0, "car", 10, bbox(10)).unwrap();
        owner.flush().unwrap();
        drop(owner);
        let mut next = TieredIndex::open(&dir).unwrap();
        assert_eq!(next.detection_count(), 11);
        next.mark_processed(0, 0).unwrap();
        next.flush().unwrap();
        drop(next);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A handle that opened beside a live owner is read-only only while
    /// that owner lives: its first write after the owner has gone takes
    /// the lock, repairs what the owner left, and lands.
    #[test]
    fn a_reader_takes_over_once_the_owner_has_gone() {
        let dir = temp_dir("takeover");
        let mut owner = TieredIndex::open(&dir).unwrap();
        owner.add_metadata(0, "car", 1, bbox(1)).unwrap();
        owner.flush().unwrap();
        let mut reader = TieredIndex::open(&dir).unwrap();
        assert!(matches!(reader.flush(), Err(TreeError::ReadOnly)));
        owner.add_metadata(0, "car", 2, bbox(2)).unwrap();
        owner.flush().unwrap();
        drop(owner);
        let tmp = dir.join(format!("{}{TMP_SUFFIX}", run_file_name(7)));
        std::fs::write(&tmp, b"a run that never published").unwrap();

        reader.add_metadata(0, "car", 3, bbox(3)).unwrap();
        reader.flush().unwrap();
        assert!(!tmp.exists(), "the takeover repairs as an owning open");
        assert_eq!(reader.query(0, "car", 0..10).unwrap().len(), 3);
        drop(reader);
        let mut idx = TieredIndex::open(&dir).unwrap();
        assert_eq!(idx.query(0, "car", 0..10).unwrap().len(), 3);
        drop(idx);
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

    /// Values at the edges of the varint widths: one and two bytes, two
    /// and three, and the largest `u32`s.
    const EDGES: [u32; 8] = [0, 1, 127, 128, 16_383, 16_384, u32::MAX - 1, u32::MAX];

    /// `EDGES[bits & 7]`, then the next three bits for the next draw.
    fn edge(bits: &mut u64) -> u32 {
        let v = EDGES[(*bits & 7) as usize];
        *bits >>= 3;
        v
    }

    /// What an index holds, in key order, without the seq uniquifiers
    /// (the tier's are opseqs, the oracle's count inserts).
    fn contents<'a>(
        records: impl Iterator<Item = (&'a RecordKey, &'a Rect)>,
    ) -> Vec<(u32, u32, u32, Rect)> {
        records
            .map(|(k, r)| (k.video, k.label, k.frame, *r))
            .collect()
    }

    /// Every record the tier holds, newest value per key.
    fn tier_records(idx: &TieredIndex) -> BTreeMap<RecordKey, Rect> {
        let mut all = BTreeMap::new();
        for run in &idx.runs {
            let bytes = std::fs::read(&run.path).unwrap();
            all.extend(run.scan_all(&bytes).unwrap());
        }
        all.extend(idx.mem.iter().map(|(k, v)| (*k, *v)));
        all
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Edge values survive every path a record takes: v2 WAL frames
        /// whose videos and frames go down as well as up, a reopen's
        /// replay, flushes to runs, and compaction.
        #[test]
        fn prop_edge_values_survive_the_wal_runs_and_compaction(
            ops in proptest::collection::vec((0u8..6, any::<u64>()), 1..120),
            limit in 2usize..12,
        ) {
            let dir = std::env::temp_dir().join(format!(
                "tasm-tiered-edges-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let open = || {
                let mut idx = TieredIndex::open(&dir).unwrap();
                idx.set_memtable_limit(limit);
                idx
            };
            let mut tiered = open();
            let mut shadow = MemoryIndex::in_memory();
            let labels = ["car", "person", "bus"];
            for (op, mut bits) in ops {
                let (video, frame) = (edge(&mut bits), edge(&mut bits));
                match op {
                    0..=2 => {
                        let label = labels[op as usize];
                        let bbox = Rect::new(edge(&mut bits), edge(&mut bits), edge(&mut bits), edge(&mut bits));
                        tiered.add_metadata(video, label, frame, bbox).unwrap();
                        shadow.add_metadata(video, label, frame, bbox).unwrap();
                    }
                    3 => {
                        tiered.mark_processed(video, frame).unwrap();
                        shadow.mark_processed(video, frame).unwrap();
                    }
                    4 => tiered.flush().unwrap(),
                    _ => {
                        tiered.flush().unwrap();
                        drop(tiered);
                        tiered = open();
                    }
                }
            }
            tiered.flush().unwrap();
            drop(tiered);
            let mut tiered = open();
            prop_assert!(tiered.verify().unwrap().is_empty());
            prop_assert_eq!(
                contents(tier_records(&tiered).iter()),
                contents(shadow.records())
            );
            prop_assert_eq!(tiered.detection_count(), shadow.detection_count());
            for video in EDGES {
                prop_assert_eq!(tiered.labels(video).unwrap(), shadow.labels(video).unwrap());
                prop_assert_eq!(
                    tiered.query_all(video, 0..u32::MAX).unwrap(),
                    shadow.query_all(video, 0..u32::MAX).unwrap()
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

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
