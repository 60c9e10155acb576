//! Crash safety: the injectable I/O shim, the deterministic fault
//! injector, and the walks that repair and check a store — startup
//! recovery and `fsck` — beside the rule they sort entries by.
//!
//! TASM's storage manager re-organizes tile layouts continuously in the
//! background (§3.4.5, §4 incremental policies), so a crash can land in the
//! middle of a re-tile or a manifest update. This module supplies the
//! mechanism the commit rule in [`crate::storage`] is built on:
//!
//! * [`StorageIo`] — the narrow filesystem surface every manifest, pack,
//!   index and `cluster.json` write goes through, so durability is
//!   testable — and [`RealIo`], its production implementation (durable
//!   writes, renames with the parent directory fsynced). Both are defined
//!   once, in `tasm_index::io`, and re-exported here;
//! * [`FaultIo`] — a deterministic fault injector that counts mutating
//!   operations and crashes at the Nth one, fail-stop or torn (after which
//!   every operation fails, so no cleanup code can run — exactly like
//!   `kill -9`), or fails or panics that one operation alone;
//! * `classify_entry` — what a video directory's entry is to its manifest:
//!   what recovery removes and [`VideoStore::fsck`] flags — and
//!   [`Tasm::attach_stored`], which of the root's directories are videos;
//! * [`RecoveryReport`] / [`FsckReport`] — what startup recovery did and
//!   what an integrity check found.
//!
//! `tasm_suite::crash::sweep` crashes every mutating operation of ingest,
//! re-tile, epoch GC and a manifest save, and of the recovering open after
//! each crash, and holds the reopened store to a fault-free twin after `k`
//! of its operations, `k` at least the number acknowledged.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::pack::{check_tile, parse_pack_name, PackReader, PACK_SUFFIX};
use crate::storage::{PackId, StoreError, VideoManifest, VideoStore};
use crate::tasm::{Tasm, TasmError};
pub use tasm_index::io::{RealIo, StorageIo};
use tasm_obs::sync;

/// How an injected fault manifests at the target operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The crash lands just *before* the operation: nothing happens on
    /// disk, the call fails.
    FailStop,
    /// The crash lands in the *middle* of the operation: a write persists
    /// only a prefix of its data (no fsync), a directory removal unlinks
    /// only half its entries. Operations that are atomic at the syscall
    /// level (rename, create, single-file remove) degrade to
    /// [`FaultKind::FailStop`].
    TornWrite,
    /// The operation fails before it runs, and the process lives on: every
    /// other operation goes through and [`FaultIo::crashed`] stays false.
    Error,
    /// As [`FaultKind::Error`], but the operation panics instead.
    Panic,
}

/// A deterministic fault-injecting [`StorageIo`] for crash testing.
///
/// Mutating operations are numbered 1, 2, 3, … across the life of the
/// injector. [`FaultIo::arm`] picks the operation that faults; from that
/// moment the injector behaves like a crashed process — every subsequent
/// operation, reads and cleanup removals included, fails — so error paths
/// cannot tidy up, exactly as if the process had been killed. The test
/// harness then reopens the directory with [`RealIo`] and checks recovery.
/// [`FaultKind::Error`] and [`FaultKind::Panic`] stop the one operation
/// instead. Every write that completes persists with its directory entry:
/// the loss of entries never synced, as at a power cut, is not modelled.
///
/// ```no_run
/// # use std::sync::{Arc, Mutex};
/// # use tasm_core::durable::{FaultIo, FaultKind};
/// # use tasm_core::VideoStore;
/// let fault = FaultIo::new();
/// let store = VideoStore::open_with_io("/tmp/s", 0, 0, fault.clone()).unwrap();
/// // ... set up state ...
/// fault.arm(fault.mutating_ops() + 3, FaultKind::TornWrite);
/// // the third mutating operation from now tears, then everything fails
/// ```
pub struct FaultIo {
    inner: RealIo,
    ops: AtomicU64,
    fail_at: AtomicU64,
    /// A `Copy` value, only ever replaced whole: taken as is on poison.
    kind: Mutex<FaultKind>,
    crashed: AtomicBool,
}

impl FaultIo {
    /// A disarmed injector: counts mutating operations, never faults.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> Arc<FaultIo> {
        Arc::new(FaultIo {
            inner: RealIo,
            ops: AtomicU64::new(0),
            fail_at: AtomicU64::new(u64::MAX),
            kind: Mutex::new(FaultKind::FailStop),
            crashed: AtomicBool::new(false),
        })
    }

    /// Arms the injector: the `at_op`-th mutating operation (1-based,
    /// counted from the injector's construction) faults with `kind`.
    pub fn arm(&self, at_op: u64, kind: FaultKind) {
        *sync::lock(&self.kind) = kind;
        self.fail_at.store(at_op, Ordering::SeqCst);
    }

    /// Mutating operations attempted so far.
    pub fn mutating_ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Whether the fault has fired (the simulated process is dead).
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    fn crash_error() -> io::Error {
        io::Error::other("injected crash: storage I/O halted")
    }

    /// Accounts one mutating operation. `Ok(None)` means proceed normally;
    /// `Ok(Some(kind))` means this is the faulting operation (the caller
    /// performs the torn half-effect, if any, then fails).
    fn step(&self) -> io::Result<Option<FaultKind>> {
        if self.crashed() {
            return Err(Self::crash_error());
        }
        let n = self.ops.fetch_add(1, Ordering::SeqCst) + 1;
        if n != self.fail_at.load(Ordering::SeqCst) {
            return Ok(None);
        }
        let kind = *sync::lock(&self.kind);
        match kind {
            FaultKind::Error => Err(io::Error::other("injected I/O error")),
            FaultKind::Panic => panic!("injected panic at mutating operation {n}"),
            _ => {
                self.crashed.store(true, Ordering::SeqCst);
                Ok(Some(kind))
            }
        }
    }

    fn observe(&self) -> io::Result<()> {
        if self.crashed() {
            return Err(Self::crash_error());
        }
        Ok(())
    }
}

impl StorageIo for FaultIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.observe()?;
        self.inner.read(path)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        match self.step()? {
            None => self.inner.write(path, data),
            Some(FaultKind::TornWrite) => {
                // Persist an unsynced prefix: the classic torn write.
                let _ = fs::write(path, &data[..data.len() / 2]);
                Err(Self::crash_error())
            }
            Some(_) => Err(Self::crash_error()),
        }
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        match self.step()? {
            None => self.inner.append(path, data),
            Some(FaultKind::TornWrite) => {
                // Append an unsynced prefix: a torn log record.
                if let Ok(mut f) = fs::OpenOptions::new().create(true).append(true).open(path) {
                    let _ = f.write_all(&data[..data.len() / 2]);
                }
                Err(Self::crash_error())
            }
            Some(_) => Err(Self::crash_error()),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.step()? {
            None => self.inner.rename(from, to),
            Some(_) => Err(Self::crash_error()), // rename is atomic
        }
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        match self.step()? {
            None => self.inner.create_dir_all(path),
            Some(_) => Err(Self::crash_error()),
        }
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        match self.step()? {
            None => self.inner.remove_dir_all(path),
            Some(FaultKind::TornWrite) => {
                // Unlink half the entries: a removal interrupted midway.
                if let Ok(entries) = self.inner.list_dir(path) {
                    for e in entries.iter().take(entries.len().div_ceil(2)) {
                        if e.is_dir() {
                            let _ = fs::remove_dir_all(e);
                        } else {
                            let _ = fs::remove_file(e);
                        }
                    }
                }
                Err(Self::crash_error())
            }
            Some(_) => Err(Self::crash_error()),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.step()? {
            None => self.inner.remove_file(path),
            Some(_) => Err(Self::crash_error()),
        }
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        match self.step()? {
            None => self.inner.sync_dir(path),
            Some(_) => Err(Self::crash_error()), // the barrier never ran
        }
    }

    fn exists(&self, path: &Path) -> bool {
        !self.crashed() && self.inner.exists(path)
    }

    fn is_dir(&self, path: &Path) -> bool {
        !self.crashed() && self.inner.is_dir(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.observe()?;
        self.inner.list_dir(path)
    }

    fn open(&self, path: &Path) -> io::Result<fs::File> {
        self.observe()?;
        self.inner.open(path)
    }
}

// ---------------------------------------------------------------------
// On-disk names
// ---------------------------------------------------------------------

pub(crate) use tasm_index::io::TMP_SUFFIX;

/// The file whose atomic replacement commits every mutation of a video.
pub(crate) const MANIFEST_FILE: &str = "manifest.json";

/// What one entry of a video directory is, relative to the video's
/// manifest: the one rule startup recovery acts on and `fsck` reports by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EntryClass {
    /// `manifest.json`.
    Manifest,
    /// A pack the manifest names, or any pack when there is no manifest.
    LivePack,
    /// A pack of a SOT the manifest holds, at another layout epoch.
    OtherEpochPack(PackId),
    /// A temp file of an interrupted (or in-flight) atomic write.
    Temp,
    /// What the re-tile protocol of older builds left: a staging
    /// directory or a commit record.
    LegacyResidue,
    /// A SOT stored by older builds as a directory of one file per tile.
    LegacySotDir,
    /// Anything else, a pack of a SOT the manifest does not hold included.
    Other,
}

/// Sorts the video-directory entry `name` (a directory when `is_dir`)
/// relative to `manifest`, `None` when there is none that can be read: a
/// pack is reclaimable only when a readable manifest does not name it.
pub(crate) fn classify_entry(
    name: &str,
    is_dir: bool,
    manifest: Option<&VideoManifest>,
) -> EntryClass {
    if name == MANIFEST_FILE {
        return EntryClass::Manifest;
    }
    if !is_dir && name.ends_with(TMP_SUFFIX) {
        return EntryClass::Temp;
    }
    if name.starts_with("staging_sot_")
        || (name.starts_with("commit_sot_") && name.ends_with(".json"))
    {
        return EntryClass::LegacyResidue;
    }
    if is_dir && parse_pack_name(&format!("{name}{PACK_SUFFIX}")).is_some() {
        return EntryClass::LegacySotDir;
    }
    let Some(id) = parse_pack_name(name).filter(|_| !is_dir) else {
        return EntryClass::Other;
    };
    let range = id.sot_start..id.sot_end;
    match manifest {
        None => EntryClass::LivePack,
        Some(m) if m.names_pack(id) => EntryClass::LivePack,
        Some(m) if m.sots.iter().any(|s| s.frames() == range) => EntryClass::OtherEpochPack(id),
        Some(_) => EntryClass::Other,
    }
}

// ---------------------------------------------------------------------
// Recovery and fsck reports
// ---------------------------------------------------------------------

/// One repair startup recovery performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryAction {
    /// A pack at a layout epoch the manifest does not name was removed: a
    /// superseded epoch, retired by a committed re-tile but not yet
    /// reclaimed when the process died, or the unpublished epoch of a
    /// re-tile that died before its manifest rename. No reader can hold an
    /// epoch pin across a restart, so every pack other than the manifest's
    /// current epoch set is garbage at startup.
    ReclaimedEpoch {
        /// Video the pack belonged to.
        video: String,
        /// First frame of the SOT.
        sot_start: u32,
        /// Past-the-end frame of the SOT.
        sot_end: u32,
        /// The reclaimed pack's layout epoch (`retile_count`).
        epoch: u32,
    },
    /// A stray `*.tmp` file from an interrupted atomic write was removed.
    RemovedTemp {
        /// Video directory the file was found in.
        video: String,
        /// The removed file name.
        file: String,
    },
    /// A staging directory or commit record of the re-tile protocol older
    /// builds ran was discarded. Safe whichever side of that protocol's
    /// commit point it died on: the manifest still names an epoch whose
    /// tiles exist, and a re-tile is a physical reorganisation — rolling
    /// one back loses work, never data.
    DiscardedLegacyResidue {
        /// Video directory the entry was found in.
        video: String,
        /// The removed entry's name.
        entry: String,
    },
    /// A video directory without a manifest — an ingest that crashed before
    /// publishing — was removed.
    RemovedPartialVideo {
        /// The half-ingested video.
        video: String,
    },
}

impl std::fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryAction::ReclaimedEpoch {
                video,
                sot_start,
                sot_end,
                epoch,
            } => write!(
                f,
                "reclaimed unreferenced layout epoch {epoch} of '{video}' SOT {sot_start}..{sot_end}"
            ),
            RecoveryAction::RemovedTemp { video, file } => {
                write!(f, "removed interrupted temp file '{file}' of '{video}'")
            }
            RecoveryAction::DiscardedLegacyResidue { video, entry } => write!(
                f,
                "discarded '{entry}' of '{video}', left by an older build's re-tile"
            ),
            RecoveryAction::RemovedPartialVideo { video } => {
                write!(f, "removed partially ingested video '{video}'")
            }
        }
    }
}

/// What startup recovery did when the store was opened. Empty on a clean
/// shutdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The repairs, in the order they were applied.
    pub actions: Vec<RecoveryAction>,
    /// True when recovery did not run because another live handle holds
    /// the store lock — that handle already recovered the store (or owns
    /// the in-flight operations that look like crash residue), so this
    /// open deliberately repaired nothing.
    pub deferred: bool,
}

impl RecoveryReport {
    /// True when the store needed no repair.
    pub fn is_clean(&self) -> bool {
        self.actions.is_empty()
    }
}

/// One inconsistency `fsck` found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsckIssue {
    /// `manifest.json` is missing or does not parse.
    ManifestUnreadable {
        /// The affected video.
        video: String,
        /// Why it could not be read.
        detail: String,
    },
    /// The manifest's SOT entries do not tile `0..frame_count` contiguously.
    SotChainBroken {
        /// The affected video.
        video: String,
        /// What is wrong with the chain.
        detail: String,
    },
    /// A SOT's pack is unreadable, or its table is not one a pack of that
    /// SOT's layout can have: nothing can be said of the tiles in it.
    PackCorrupt {
        /// The affected video.
        video: String,
        /// First frame of the SOT.
        sot_start: u32,
        /// What is wrong with the pack.
        detail: String,
    },
    /// A tile named by the manifest is missing: its SOT's pack does not
    /// exist.
    MissingTile {
        /// The affected video.
        video: String,
        /// First frame of the SOT.
        sot_start: u32,
        /// Raster index of the missing tile.
        tile: u32,
    },
    /// A tile's bytes failed container validation (bad magic, torn tail,
    /// invalid header, a length other than the pack table gives it).
    TileCorrupt {
        /// The affected video.
        video: String,
        /// First frame of the SOT.
        sot_start: u32,
        /// Raster index of the corrupt tile.
        tile: u32,
        /// The container error.
        detail: String,
    },
    /// A tile parses but disagrees with the manifest (dimensions, GOP
    /// length, frame count, or codec).
    TileMismatch {
        /// The affected video.
        video: String,
        /// First frame of the SOT.
        sot_start: u32,
        /// Raster index of the mismatched tile.
        tile: u32,
        /// The disagreement.
        detail: String,
    },
    /// A SOT stored as a directory of one file per tile, by a build from
    /// before packs. This build does not read it; the video must be
    /// ingested again.
    LegacySotDirectory {
        /// The affected video.
        video: String,
        /// Store-relative path of the directory.
        path: String,
    },
    /// A file or directory the manifest does not account for (a pack at an
    /// epoch it does not name, stray files) — recovery should have removed
    /// it.
    Stray {
        /// The affected video.
        video: String,
        /// Store-relative path of the stray entry.
        path: String,
    },
}

impl std::fmt::Display for FsckIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsckIssue::ManifestUnreadable { video, detail } => {
                write!(f, "'{video}': manifest unreadable: {detail}")
            }
            FsckIssue::SotChainBroken { video, detail } => {
                write!(f, "'{video}': SOT chain broken: {detail}")
            }
            FsckIssue::PackCorrupt {
                video,
                sot_start,
                detail,
            } => write!(f, "'{video}': SOT @{sot_start}: pack corrupt: {detail}"),
            FsckIssue::MissingTile {
                video,
                sot_start,
                tile,
            } => write!(f, "'{video}': SOT @{sot_start}: tile {tile} missing"),
            FsckIssue::TileCorrupt {
                video,
                sot_start,
                tile,
                detail,
            } => write!(
                f,
                "'{video}': SOT @{sot_start}: tile {tile} corrupt: {detail}"
            ),
            FsckIssue::TileMismatch {
                video,
                sot_start,
                tile,
                detail,
            } => write!(
                f,
                "'{video}': SOT @{sot_start}: tile {tile} disagrees with manifest: {detail}"
            ),
            FsckIssue::LegacySotDirectory { video, path } => write!(
                f,
                "'{video}': '{path}' holds one file per tile, as builds before packs \
                 stored a SOT; this build cannot read it (ingest the video again)"
            ),
            FsckIssue::Stray { video, path } => {
                write!(f, "'{video}': stray entry '{path}'")
            }
        }
    }
}

/// The result of a store integrity check ([`crate::VideoStore::fsck`]):
/// every manifest validated against its on-disk packs and the container
/// headers of the tiles in them.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Videos examined.
    pub videos_checked: u32,
    /// Tiles whose containers were validated.
    pub tiles_checked: u64,
    /// Everything found wrong, in discovery order.
    pub issues: Vec<FsckIssue>,
}

impl FsckReport {
    /// True when no issues were found.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

// ---------------------------------------------------------------------
// Startup recovery and fsck
// ---------------------------------------------------------------------

impl VideoStore {
    /// Scans every video directory for residue of interrupted operations
    /// and removes what no manifest names. Idempotent: recovery itself can
    /// crash at any operation and the next open finishes the job. Runs only
    /// at open, before the store's own decoded-GOP cache holds anything.
    pub(crate) fn recover_all(&self) -> Result<RecoveryReport, StoreError> {
        let mut report = RecoveryReport::default();
        for (video, dir) in self.video_dirs()? {
            self.recover_video_dir(&dir, &video, &mut report)?;
        }
        Ok(report)
    }

    /// Every directory of the store root, by name, in name order: what
    /// recovery repairs and fsck checks. The videos the store holds are
    /// the ones with a manifest ([`Tasm::attach_stored`]).
    fn video_dirs(&self) -> Result<Vec<(String, PathBuf)>, StoreError> {
        let entries = self.io().list_dir(self.root())?.into_iter();
        let dirs = entries.filter(|entry| self.io().is_dir(entry));
        Ok(dirs.map(|dir| (entry_name(&dir), dir)).collect())
    }

    fn recover_video_dir(
        &self,
        dir: &Path,
        video: &str,
        report: &mut RecoveryReport,
    ) -> Result<(), StoreError> {
        let has_manifest = self.io().exists(&dir.join(MANIFEST_FILE));
        let manifest = self.load_manifest(video).ok();
        let entries: Vec<(PathBuf, String, EntryClass)> = self
            .io()
            .list_dir(dir)?
            .into_iter()
            .map(|entry| {
                let name = entry_name(&entry);
                let class = classify_entry(&name, self.io().is_dir(&entry), manifest.as_ref());
                (entry, name, class)
            })
            .collect();
        // 0. Only touch directories that are recognizably ours: a manifest,
        //    tile-store residue (packs, a manifest temp, an older build's
        //    staging directory or commit record), or a completely empty
        //    directory (an ingest that died at its first operation). A
        //    foreign directory — e.g. the store was opened at a wrong or
        //    shared path — is left strictly alone.
        let manifest_tmp = format!("{MANIFEST_FILE}{TMP_SUFFIX}");
        let is_ours = has_manifest
            || entries.is_empty()
            || entries.iter().any(|(_, name, class)| {
                *name == manifest_tmp
                    || matches!(
                        class,
                        EntryClass::LivePack
                            | EntryClass::OtherEpochPack(_)
                            | EntryClass::LegacyResidue
                    )
            });
        if !is_ours {
            return Ok(());
        }

        for (entry, name, class) in &entries {
            match class {
                // 1. Interrupted atomic writes: the temp file never became
                //    visible under its final name, so it holds no committed
                //    state.
                EntryClass::Temp => {
                    self.io().remove_file(entry)?;
                    report.actions.push(RecoveryAction::RemovedTemp {
                        video: video.to_string(),
                        file: name.clone(),
                    });
                }
                // 2. What a re-tile of an older build left mid-protocol
                //    (see `RecoveryAction::DiscardedLegacyResidue` for why
                //    discarding it is safe on either side of its commit).
                EntryClass::LegacyResidue => {
                    if self.io().is_dir(entry) {
                        self.io().remove_dir_all(entry)?;
                    } else {
                        self.io().remove_file(entry)?;
                    }
                    report.actions.push(RecoveryAction::DiscardedLegacyResidue {
                        video: video.to_string(),
                        entry: name.clone(),
                    });
                }
                _ => {}
            }
        }

        // 3. Packs at epochs the manifest does not name: a retired epoch
        //    whose GC was interrupted (or deferred and never run — no
        //    process survived to hold a pin on it), or the epoch a re-tile
        //    wrote and died before publishing. Reclaim it so the crash
        //    lands in exactly one epoch set. Ranges the manifest does not
        //    hold are left for fsck to flag, and nothing is reclaimed
        //    without a readable manifest.
        for (entry, _, class) in &entries {
            if let EntryClass::OtherEpochPack(pack) = *class {
                self.io().remove_file(entry)?;
                report.actions.push(RecoveryAction::ReclaimedEpoch {
                    video: video.to_string(),
                    sot_start: pack.sot_start,
                    sot_end: pack.sot_end,
                    epoch: pack.retile_count,
                });
            }
        }

        // 4. No manifest: an ingest crashed before its publish point — the
        //    video never existed.
        if !has_manifest {
            self.io().remove_dir_all(dir)?;
            report.actions.push(RecoveryAction::RemovedPartialVideo {
                video: video.to_string(),
            });
        }
        Ok(())
    }

    /// Validates every video in the store: manifest readable, SOT chain
    /// contiguous, every SOT's pack present with a sound table that
    /// accounts for every byte of it, every tile in it passing the check
    /// every read applies (`pack::check_tile`), and no unaccounted files. `allowed_extras` names the sidecar files a caller
    /// places inside video directories (e.g. the CLI's scene spec), which
    /// are not flagged as stray; the core store itself needs none.
    /// Read-only.
    pub fn fsck(&self, allowed_extras: &[&str]) -> Result<FsckReport, StoreError> {
        let mut report = FsckReport::default();
        for (video, _) in self.video_dirs()? {
            self.fsck_video_into(&video, allowed_extras, &mut report);
        }
        Ok(report)
    }

    /// [`VideoStore::fsck`] restricted to one video. Errors if the video's
    /// directory does not exist at all.
    pub fn fsck_video(
        &self,
        name: &str,
        allowed_extras: &[&str],
    ) -> Result<FsckReport, StoreError> {
        if !self.io().is_dir(&self.root().join(name)) {
            return Err(StoreError::NotFound(format!("video '{name}'")));
        }
        let mut report = FsckReport::default();
        self.fsck_video_into(name, allowed_extras, &mut report);
        Ok(report)
    }

    fn fsck_video_into(&self, video: &str, allowed_extras: &[&str], report: &mut FsckReport) {
        report.videos_checked += 1;
        let dir = self.root().join(video);
        // The packs checked are the ones in this directory, whatever name
        // the manifest gives its video.
        let manifest = match self.load_manifest(video) {
            Ok(m) => VideoManifest {
                name: video.to_string(),
                ..m
            },
            Err(e) => {
                report.issues.push(FsckIssue::ManifestUnreadable {
                    video: video.to_string(),
                    detail: e.to_string(),
                });
                return;
            }
        };

        for detail in manifest.chain_breaks() {
            let video = video.to_string();
            report
                .issues
                .push(FsckIssue::SotChainBroken { video, detail });
        }

        // Packs vs manifest, every tile held to its slot: one open per SOT.
        let gop_len = manifest.config.gop_len;
        for (i, sot) in manifest.sots.iter().enumerate() {
            let (tiles, sot_start) = (sot.layout.tile_count(), sot.start);
            let pack = PackReader::open(self, &manifest, i).and_then(PackReader::whole);
            let video = video.to_string();
            let pack = match pack {
                Ok(pack) => pack,
                Err(StoreError::NotFound(_)) => {
                    report
                        .issues
                        .extend((0..tiles).map(|tile| FsckIssue::MissingTile {
                            video: video.clone(),
                            sot_start,
                            tile,
                        }));
                    continue;
                }
                Err(e) => {
                    let detail = e.to_string();
                    report.issues.push(FsckIssue::PackCorrupt {
                        video,
                        sot_start,
                        detail,
                    });
                    continue;
                }
            };
            for tile in 0..tiles {
                let corrupt = |detail| FsckIssue::TileCorrupt {
                    video: video.clone(),
                    sot_start,
                    tile,
                    detail,
                };
                match pack.parse(tile) {
                    Ok(parsed) => {
                        report.tiles_checked += 1;
                        let mismatch = |detail| FsckIssue::TileMismatch {
                            video: video.clone(),
                            sot_start,
                            tile,
                            detail,
                        };
                        let found = check_tile(&parsed, sot, tile, gop_len);
                        report.issues.extend(found.into_iter().map(mismatch));
                    }
                    // A container error is reported as the container
                    // states it, without the store error's prefix.
                    Err(StoreError::Container(e)) => report.issues.push(corrupt(e.to_string())),
                    Err(e) => report.issues.push(corrupt(e.to_string())),
                }
            }
        }

        // Unaccounted entries in the video directory: anything other than
        // the manifest, allow-listed extras, and the manifest's packs.
        if let Ok(entries) = self.io().list_dir(&dir) {
            for entry in entries {
                let name = entry_name(&entry);
                if allowed_extras.contains(&name.as_str()) {
                    continue;
                }
                let video = video.to_string();
                match classify_entry(&name, self.io().is_dir(&entry), Some(&manifest)) {
                    EntryClass::Manifest | EntryClass::LivePack => {}
                    // When recovery was deferred (another live handle holds
                    // the store lock), a temp file or a pack of a manifest
                    // SOT at another epoch is plausibly that handle's: a
                    // manifest being replaced, an epoch a re-tile has
                    // written and not yet published, or a retired epoch
                    // its readers still pin. A concurrent fsck must not
                    // call a healthy live store dirty.
                    EntryClass::Temp | EntryClass::OtherEpochPack(_)
                        if self.recovery_report().deferred => {}
                    EntryClass::LegacySotDir => report
                        .issues
                        .push(FsckIssue::LegacySotDirectory { video, path: name }),
                    _ => report.issues.push(FsckIssue::Stray { video, path: name }),
                }
            }
        }
    }
}

/// The one rule for which videos a store holds, beside the listing
/// recovery and fsck walk.
impl Tasm {
    /// Attaches every video the store holds and returns their names in
    /// name order. A video is a directory of the store root with a
    /// manifest, whether ingested, received by replication or copied in by
    /// a rebalance; after recovery a directory without one is not the
    /// store's. A manifest that does not load fails the call with
    /// [`TasmError::ManifestUnreadable`].
    pub fn attach_stored(&self) -> Result<Vec<String>, TasmError> {
        let names = stored_videos(self.store())?;
        for video in &names {
            self.attach(video).map_err(|e| match e {
                TasmError::Store(e) => TasmError::ManifestUnreadable(video.clone(), e),
                e => e,
            })?;
        }
        Ok(names)
    }

    /// True if the store holds a video named `name`, by the rule of
    /// [`Tasm::attach_stored`].
    pub fn has_stored_video(&self, name: &str) -> bool {
        stored_videos(self.store()).is_ok_and(|names| names.iter().any(|n| n == name))
    }
}

fn stored_videos(store: &VideoStore) -> Result<Vec<String>, StoreError> {
    let dirs = store.video_dirs()?.into_iter();
    let stored = dirs.filter(|(_, dir)| store.io().exists(&dir.join(MANIFEST_FILE)));
    Ok(stored.map(|(video, _)| video).collect())
}

/// Final path component as an owned string (empty for pathological paths).
fn entry_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::{pack_file_name, read_exact_range};

    fn id(sot_start: u32, sot_end: u32, retile_count: u32) -> PackId {
        PackId {
            sot_start,
            sot_end,
            retile_count,
        }
    }

    #[test]
    fn pack_names_round_trip() {
        assert_eq!(pack_file_name(id(0, 30, 0)), "sot_000000_000030.tiles");
        assert_eq!(
            pack_file_name(id(0, 30, 2)),
            "sot_000000_000030_r000002.tiles"
        );
        assert_eq!(
            parse_pack_name("sot_000000_000030.tiles"),
            Some(id(0, 30, 0))
        );
        assert_eq!(
            parse_pack_name(&pack_file_name(id(30, 60, 7))),
            Some(id(30, 60, 7))
        );
        assert_eq!(parse_pack_name("sot_000000_000030_r12.tiles"), None);
        assert_eq!(parse_pack_name("sot_0_30.tiles"), None);
        assert_eq!(parse_pack_name("sot_000000_000030"), None);
        assert_eq!(parse_pack_name("manifest.json"), None);
        assert!(id(0, 30, 7) < id(0, 60, 0) && id(0, 30, 0) < id(0, 30, 1));
    }

    #[test]
    fn entries_classify_against_the_manifest() {
        use crate::storage::{SotEntry, StorageConfig};
        use EntryClass::*;
        let sot = |start, end, retile_count| SotEntry {
            start,
            end,
            layout: tasm_codec::TileLayout::untiled(64, 64),
            retile_count,
            tile_codecs: vec![],
        };
        let manifest = VideoManifest {
            name: "v".into(),
            width: 64,
            height: 64,
            fps: 30,
            frame_count: 20,
            config: StorageConfig::default(),
            sots: vec![sot(0, 10, 0), sot(10, 20, 2)],
        };
        let dirs = [
            "staging_sot_000030_000060",
            "sot_000000_000030",
            "sot_000030_000060_r000007",
        ];
        for (name, want) in [
            ("manifest.json", Manifest),
            ("sot_000000_000010.tiles", LivePack),
            ("sot_000010_000020_r000002.tiles", LivePack),
            ("sot_000010_000020.tiles", OtherEpochPack(id(10, 20, 0))),
            (
                "sot_000000_000010_r000003.tiles",
                OtherEpochPack(id(0, 10, 3)),
            ),
            ("sot_000020_000030.tiles", Other),
            ("manifest.json.tmp", Temp),
            ("sot_000000_000010.tiles.tmp", Temp),
            ("staging_sot_000030_000060", LegacyResidue),
            ("commit_sot_000030_000060.json", LegacyResidue),
            ("sot_000000_000030", LegacySotDir),
            ("sot_000030_000060_r000007", LegacySotDir),
            ("scene.json", Other),
        ] {
            let is_dir = dirs.contains(&name);
            let got = classify_entry(name, is_dir, Some(&manifest));
            assert_eq!(got, want, "{name}");
            // With no manifest to judge by, every pack is live.
            let unjudged = if parse_pack_name(name).is_some() {
                LivePack
            } else {
                want
            };
            assert_eq!(classify_entry(name, is_dir, None), unjudged, "{name}");
        }
        let file = classify_entry("sot_000000_000030", false, Some(&manifest));
        assert_eq!(file, Other);
    }

    #[test]
    fn fault_io_counts_and_crashes_deterministically() {
        let dir = std::env::temp_dir().join(format!("tasm-faultio-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let io = FaultIo::new();
        io.create_dir_all(&dir).unwrap();
        io.write(&dir.join("a"), b"hello world!").unwrap();
        assert_eq!(io.mutating_ops(), 2);

        io.arm(3, FaultKind::TornWrite);
        let err = io.write(&dir.join("b"), b"0123456789").unwrap_err();
        assert!(err.to_string().contains("injected crash"));
        assert!(io.crashed());
        // The torn prefix persisted (half the payload)…
        assert_eq!(fs::read(dir.join("b")).unwrap(), b"01234");
        // …and the dead process can neither read nor clean up.
        assert!(io.read(&dir.join("a")).is_err());
        assert!(io.remove_file(&dir.join("b")).is_err());
        assert!(!io.exists(&dir.join("a")));
        assert!(
            fs::read(dir.join("b")).is_ok(),
            "torn file survives on disk"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_and_panic_stop_one_operation_and_the_process_lives_on() {
        let dir = std::env::temp_dir().join(format!("tasm-stopone-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let io = FaultIo::new();
        io.create_dir_all(&dir).unwrap();
        io.arm(2, FaultKind::Error);
        let err = io.write(&dir.join("x"), b"data").unwrap_err();
        assert!(err.to_string().contains("injected I/O error"));
        assert!(!dir.join("x").exists(), "the failed write never ran");
        io.write(&dir.join("x"), b"data").unwrap();
        io.arm(4, FaultKind::Panic);
        let removal = std::panic::catch_unwind(|| io.remove_file(&dir.join("x")));
        assert!(removal.is_err(), "the armed removal panics");
        assert!(dir.join("x").exists(), "the panicked removal never ran");
        assert!(!io.crashed());
        assert_eq!(io.read(&dir.join("x")).unwrap(), b"data");
        io.remove_file(&dir.join("x")).unwrap();
        assert_eq!(io.mutating_ops(), 5);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fail_stop_performs_nothing() {
        let dir = std::env::temp_dir().join(format!("tasm-failstop-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let io = FaultIo::new();
        io.create_dir_all(&dir).unwrap();
        io.arm(2, FaultKind::FailStop);
        assert!(io.write(&dir.join("x"), b"data").is_err());
        assert!(!dir.join("x").exists(), "fail-stop must not touch the disk");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn real_io_lists_sorted() {
        let dir = std::env::temp_dir().join(format!("tasm-realio-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let io = RealIo;
        io.create_dir_all(&dir).unwrap();
        for name in ["c", "a", "b"] {
            io.write(&dir.join(name), b"x").unwrap();
        }
        let names: Vec<String> = io
            .list_dir(&dir)
            .unwrap()
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["a", "b", "c"]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ranged_reads_are_exact_or_eof() {
        let dir = std::env::temp_dir().join(format!("tasm-ranged-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f");
        fs::write(&path, b"0123456789").unwrap();
        let fault = FaultIo::new();
        let ios: [&dyn StorageIo; 2] = [&RealIo, &*fault];
        for io in ios {
            let file = io.open(&path).unwrap();
            // In any order, from the one handle.
            assert_eq!(read_exact_range(&file, 2..6).unwrap(), b"2345");
            assert_eq!(read_exact_range(&file, 0..10).unwrap(), b"0123456789");
            assert_eq!(read_exact_range(&file, 10..10).unwrap(), b"");
            for past in [8..11, 11..12, 0..u64::MAX] {
                let e = read_exact_range(&file, past).unwrap_err();
                assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
            }
            let e = io.open(&dir.join("absent")).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::NotFound);
        }
        fault.arm(1, FaultKind::FailStop);
        assert!(fault.remove_file(&path).is_err());
        assert!(fault.open(&path).is_err(), "a dead process opens nothing");
        fs::remove_dir_all(&dir).ok();
    }
}
