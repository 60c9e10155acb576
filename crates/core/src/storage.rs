//! Tile-based data storage (§3.4.5): the store, its manifests, and every
//! mutation of a video.
//!
//! TASM stores each tile as a separate video stream so that every tile is a
//! spatial random-access point (Figure 1). A video is a concatenation of
//! SOTs (sequences of tiles, §2): each SOT has its own layout, and layouts
//! change only at GOP boundaries. A SOT's tiles at one layout epoch are one
//! *pack* file: a table, then each tile's container bytes verbatim, so one
//! tile is read without the others. The pack's format and its one reader —
//! every read of a tile, `read_tile` included — are in `pack.rs`; startup
//! recovery and `fsck` are in [`crate::durable`], beside the rule that
//! sorts a video directory's entries and the reports they fill.
//!
//! ```text
//! root/<video>/manifest.json
//! root/<video>/sot_000000_000030.tiles           (layout epoch 0)
//! root/<video>/sot_000030_000060_r000002.tiles   (re-tiled twice)
//! ```
//!
//! Re-tiling a SOT ([`VideoStore::retile`]) decodes its current tiles and
//! re-encodes under the new layout — the `R(s, L)` cost in the incremental
//! policies. Each pack's name is stamped with the SOT's layout epoch (its
//! `retile_count`; epoch 0 is unstamped), so a re-tile writes a *fresh*
//! file and the superseded epoch's tiles stay valid on disk for readers
//! still pinned to the old manifest snapshot. [`VideoStore::retile`]
//! returns the retired pack's [`PackId`] for the caller to reclaim with
//! [`VideoStore::gc_epoch`] once its readers drain — the mechanism the
//! `Tasm` facade's MVCC epoch registry is built on.
//!
//! ## Durability
//!
//! Every mutation of a video follows one rule: **write new files under
//! names nothing references, make them and their names durable, then
//! atomically replace `manifest.json`** (write-temp → fsync → rename). The
//! rename is the only commit point — of an ingest, a replica install and a
//! re-tile alike (`replace_video` and `commit_sot` write it, nothing else)
//! — and there is nothing after it to complete. All of it goes through the
//! [`StorageIo`] shim, so a crash at *any* single operation leaves each
//! video wholly in one layout epoch:
//!
//! * before the rename, the manifest on disk names the old epoch, whose
//!   pack is untouched; the new pack (whole, torn or absent) is a file no
//!   manifest names;
//! * after it, the manifest names the new epoch, whose pack and name were
//!   made durable first; the old pack is a file no manifest names.
//!
//! **Opening** a store ([`VideoStore::open`], [`VideoStore::open_with_io`])
//! runs startup recovery, which only ever deletes what no manifest names:
//! packs at other epochs than the manifest's, interrupted ingests and temp
//! files, as `durable::classify_entry` sorts entries. Every repair is listed
//! in the store's [`RecoveryReport`]. **[`VideoStore::fsck`]** validates
//! manifests against the packs on disk and the tiles in them. The crash
//! sweeps in `tests/crash_recovery.rs` crash every mutating operation of
//! ingest, re-tile, epoch GC and a manifest save, and of the recovery after
//! each crash, and hold the reopened store to a fault-free twin that has
//! run every acknowledged operation and at most the one in flight.

use crate::durable::{RealIo, RecoveryReport, StorageIo, MANIFEST_FILE, TMP_SUFFIX};
use crate::exec::DecodedTileCache;
use crate::pack::{self, check_tile, pack_file_name, PackReader};
use crate::pool::CanvasPool;
use crate::sots::encode_sots;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tasm_codec::{
    ContainerError, DecodeStats, EncodeStats, EncoderConfig, LayoutEncoder, LayoutError,
    StitchError, StitchedVideo, TileLayout, TileVideo,
};
use tasm_video::FrameSource;

/// Errors from the storage layer.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(io::Error),
    /// Manifest (de)serialization failure.
    Manifest(serde_json::Error),
    /// Codec container failure.
    Container(ContainerError),
    /// Invalid layout for this video.
    Layout(LayoutError),
    /// Tiles that do not fit the layout they are stitched under.
    Stitch(StitchError),
    /// Caller referenced a video/SOT/tile that does not exist.
    NotFound(String),
    /// A video name that cannot be a directory name under the store root:
    /// empty, `.` or `..`, or holding `/`, `\` or NUL.
    InvalidName(String),
    /// A [`StorageConfig`] no video can be stored under.
    InvalidConfig(&'static str),
    /// A tile whose container does not fit its slot in the manifest: its
    /// dimensions, GOP length, frame count or codec (the first of
    /// `slot_mismatches`).
    TileMismatch {
        /// First frame of the tile's SOT.
        sot_start: u32,
        /// The tile's raster index.
        tile: u32,
        /// How the container disagrees with the slot.
        detail: String,
    },
    /// A peer's manifest for a commit of one SOT of the named video that
    /// describes another video: its name, size, fps, frame count, config
    /// or SOT bounds differ from the store's.
    ReplicaMismatch(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage I/O error: {e}"),
            StoreError::Manifest(e) => write!(f, "manifest error: {e}"),
            StoreError::Container(e) => write!(f, "container error: {e}"),
            StoreError::Layout(e) => write!(f, "layout error: {e}"),
            StoreError::Stitch(e) => write!(f, "stitch error: {e}"),
            StoreError::NotFound(what) => write!(f, "not found: {what}"),
            StoreError::InvalidName(name) => write!(f, "invalid video name {name:?}"),
            StoreError::InvalidConfig(why) => write!(f, "invalid storage config: {why}"),
            StoreError::TileMismatch {
                sot_start,
                tile,
                detail,
            } => write!(f, "SOT at frame {sot_start}, tile {tile}: {detail}"),
            StoreError::ReplicaMismatch(video) => {
                write!(f, "peer manifest disagrees with '{video}'")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<serde_json::Error> for StoreError {
    fn from(e: serde_json::Error) -> Self {
        StoreError::Manifest(e)
    }
}

impl From<ContainerError> for StoreError {
    fn from(e: ContainerError) -> Self {
        StoreError::Container(e)
    }
}

impl From<LayoutError> for StoreError {
    fn from(e: LayoutError) -> Self {
        StoreError::Layout(e)
    }
}

impl From<StitchError> for StoreError {
    fn from(e: StitchError) -> Self {
        StoreError::Stitch(e)
    }
}

/// Encoding parameters for a stored video. Every tile is written as DCT;
/// the `codec` key that manifests of earlier builds carry is ignored.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StorageConfig {
    /// Quantization parameter.
    pub qp: u8,
    /// GOP length in frames (one second at 30 fps by default, §2).
    pub gop_len: u32,
    /// SOT duration in frames; must be a multiple of `gop_len` (layout
    /// duration, §3.4.3).
    pub sot_frames: u32,
    /// Motion search range.
    pub search_range: u8,
    /// In-loop deblocking.
    pub deblock: bool,
    /// Rate-control mode (constant QP by default; target-rate mode emulates
    /// hardware encoders under a bit budget).
    pub rate: tasm_codec::encoder::RateControl,
    /// Encode on several threads (bit-identical output either way): an
    /// ingest spreads its SOTs across them, each SOT encoded whole on one
    /// thread. A re-tile encodes on the calling thread.
    pub parallel_encode: bool,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            qp: 28,
            gop_len: 30,
            sot_frames: 30,
            search_range: 7,
            deblock: true,
            rate: tasm_codec::encoder::RateControl::ConstantQp,
            parallel_encode: true,
        }
    }
}

impl StorageConfig {
    /// Refuses values the codec or the executor would panic on. A config
    /// arrives from callers and, inside manifests, from disk and from
    /// peers; it is checked wherever one enters the store.
    pub fn check(&self) -> Result<(), StoreError> {
        if self.qp > tasm_codec::quant::MAX_QP {
            return Err(StoreError::InvalidConfig("QP is above the codec's maximum"));
        }
        if self.gop_len == 0 {
            return Err(StoreError::InvalidConfig("GOP length must be positive"));
        }
        if !(self.sot_frames > 0 && self.sot_frames.is_multiple_of(self.gop_len)) {
            return Err(StoreError::InvalidConfig(
                "SOT duration must be a positive multiple of the GOP length",
            ));
        }
        Ok(())
    }

    fn encoder(&self) -> EncoderConfig {
        EncoderConfig {
            gop_len: self.gop_len,
            qp: self.qp,
            search_range: self.search_range,
            deblock: self.deblock,
            rate: self.rate,
        }
    }
}

/// One sequence of tiles: a frame range sharing a layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SotEntry {
    /// First frame (global, inclusive).
    pub start: u32,
    /// Last frame (global, exclusive).
    pub end: u32,
    /// Layout used for these frames.
    pub layout: TileLayout,
    /// How many times this SOT has been re-tiled (diagnostics).
    pub retile_count: u32,
    /// Container codec id of each tile (raster order), recorded at ingest
    /// and re-tile so fsck can cross-check headers against the manifest.
    pub tile_codecs: Vec<u8>,
}

impl SotEntry {
    /// Frames in this SOT.
    pub fn frames(&self) -> Range<u32> {
        self.start..self.end
    }

    /// Number of frames.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// Never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The pack this entry's tiles are read from.
    pub fn pack_id(&self) -> PackId {
        PackId {
            sot_start: self.start,
            sot_end: self.end,
            retile_count: self.retile_count,
        }
    }
}

/// A SOT's pack at one layout epoch: the file
/// `sot_<start>_<end>[_r<retile_count>].tiles`. Ordered by SOT, then
/// epoch. A re-tile or replicated SOT returns the one it retired, which
/// keeps the pre-commit tiles on disk for readers pinned to the old
/// manifest snapshot: pass it to [`VideoStore::gc_epoch`] once they drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PackId {
    /// First frame of the SOT (global, inclusive).
    pub sot_start: u32,
    /// Past-the-end frame of the SOT.
    pub sot_end: u32,
    /// The SOT's `retile_count` at this epoch.
    pub retile_count: u32,
}

/// Persistent description of a stored video.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VideoManifest {
    /// Video name (directory name under the store root).
    pub name: String,
    /// Frame width.
    pub width: u32,
    /// Frame height.
    pub height: u32,
    /// Frames per second (metadata).
    pub fps: u32,
    /// Total frames.
    pub frame_count: u32,
    /// Encoding parameters shared by all SOTs.
    pub config: StorageConfig,
    /// The video's SOTs in temporal order.
    pub sots: Vec<SotEntry>,
}

impl VideoManifest {
    /// The video's layout epoch: the sum of every SOT's `retile_count`.
    /// Monotonic — each re-tile commit advances exactly one SOT's count by
    /// one — starting at 0 for a fresh ingest or replica install. This is
    /// the epoch readers pin, `AS OF` queries name, and replication ships
    /// as its per-video watermark.
    pub fn epoch(&self) -> u64 {
        self.sots.iter().map(|s| s.retile_count as u64).sum()
    }

    /// Index of the SOT containing `frame`.
    pub fn sot_for_frame(&self, frame: u32) -> Option<usize> {
        // SOTs are fixed-length except the last; direct computation.
        if frame >= self.frame_count {
            return None;
        }
        Some((frame / self.config.sot_frames) as usize)
    }

    /// Indices of the SOTs overlapping `frames`.
    pub fn sots_for_range(&self, frames: Range<u32>) -> Range<usize> {
        if frames.start >= frames.end || frames.start >= self.frame_count {
            return 0..0;
        }
        let first = (frames.start / self.config.sot_frames) as usize;
        let last_frame = frames.end.min(self.frame_count) - 1;
        let last = (last_frame / self.config.sot_frames) as usize;
        first..(last + 1).min(self.sots.len())
    }

    /// How the SOT chain fails to be contiguous frames covering exactly
    /// `0..frame_count`: `fsck`'s check of the manifest itself.
    pub(crate) fn chain_breaks(&self) -> Vec<String> {
        let mut breaks = Vec::new();
        let mut expected_start = 0u32;
        for (i, sot) in self.sots.iter().enumerate() {
            if sot.start != expected_start || sot.end <= sot.start {
                breaks.push(format!(
                    "SOT {i} spans {}..{} but frame {expected_start} comes next",
                    sot.start, sot.end
                ));
            }
            expected_start = sot.end;
        }
        if expected_start != self.frame_count {
            breaks.push(format!(
                "SOTs cover 0..{expected_start} of {} frames",
                self.frame_count
            ));
        }
        breaks
    }

    /// The packs this manifest resolves reads through, one per SOT.
    pub(crate) fn packs(&self) -> impl Iterator<Item = PackId> + '_ {
        self.sots.iter().map(SotEntry::pack_id)
    }

    /// Whether this manifest names `pack`: the one test of what may be
    /// reclaimed.
    pub(crate) fn names_pack(&self, pack: PackId) -> bool {
        self.packs().any(|p| p == pack)
    }
}

/// Costs of a retile operation (decode existing + encode new).
#[derive(Debug, Clone, Copy, Default)]
pub struct RetileStats {
    /// Work to decode the SOT's current tiles.
    pub decode: DecodeStats,
    /// Work to encode the new layout.
    pub encode: EncodeStats,
}

impl RetileStats {
    /// Total wall-clock seconds of the transcode.
    pub fn seconds(&self) -> f64 {
        self.decode.seconds() + self.encode.seconds()
    }
}

/// Most canvas bytes one store keeps between answers: the planes of a
/// large answer (the served median is under 300 KB, a whole-video answer a
/// few MB), so a store idles at most this far above what it needs.
pub const CANVAS_POOL_BYTES: usize = 2 << 20;

/// The on-disk tile store, with its attached decode-execution settings:
/// worker count for the parallel tile-decode pipeline and an optional
/// decoded-GOP cache, which belongs to this store alone.
pub struct VideoStore {
    root: PathBuf,
    workers: usize,
    cache: Option<DecodedTileCache>,
    /// Region canvases of finished answers, kept for the next answer.
    canvases: Arc<CanvasPool>,
    io: Arc<dyn StorageIo>,
    recovery: RecoveryReport,
    /// Exclusive advisory lock on `<root>/.tasm.lock`, held for this
    /// handle's lifetime when acquired. Only the handle holding it runs
    /// (mutating) startup recovery — a concurrent `tasm fsck` against a
    /// live `tasm serve` must never delete the pack a re-tile of the
    /// server's has written but not yet published, nor an epoch its readers
    /// still pin. `flock` semantics: released automatically when the
    /// process dies, so a `kill -9` never wedges the store.
    _lock: Option<fs::File>,
}

impl VideoStore {
    /// Opens (creating) a store rooted at `root` with default execution
    /// settings: auto worker count, no decoded-tile cache. Startup recovery
    /// runs before the store is returned (see [`VideoStore::recovery_report`]).
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::open_with_io(root, 0, 0, Arc::new(RealIo))
    }

    /// Opens a store with explicit execution settings — `workers` decode
    /// threads (`0` = one per available core) and a decoded-GOP cache of
    /// `cache_bytes` (`0` disables caching), owned by this store alone —
    /// and an explicit [`StorageIo`], the hook the crash-injection tests
    /// use. Startup recovery runs here: packs at epochs the manifest does
    /// not name (superseded, or never published), half-ingested videos and
    /// temp files are removed.
    pub fn open_with_io(
        root: impl Into<PathBuf>,
        workers: usize,
        cache_bytes: u64,
        io: Arc<dyn StorageIo>,
    ) -> Result<Self, StoreError> {
        let cache = (cache_bytes > 0).then(|| DecodedTileCache::new(cache_bytes));
        let root = root.into();
        io.create_dir_all(&root)?;
        // The store lock decides who may *mutate* during startup: recovery
        // deletes unpublished packs, which would corrupt an in-flight
        // re-tile if another live handle (or process) owns them. Taken
        // directly against the real filesystem — it coordinates processes,
        // it is not data I/O.
        let (lock, contended) = match fs::File::create(root.join(".tasm.lock")) {
            Ok(f) => match f.try_lock() {
                Ok(()) => (Some(f), false),
                Err(_) => (None, true),
            },
            // The lock file cannot even be created (e.g. a read-only
            // store): that is not evidence of a live peer, so recovery
            // still runs — on a genuinely read-only store a clean state
            // needs no repair, and a dirty one fails the open loudly
            // instead of silently skipping repairs forever.
            Err(_) => (None, false),
        };
        let mut store = VideoStore {
            root,
            workers,
            cache,
            canvases: Arc::new(CanvasPool::new(
                CANVAS_POOL_BYTES,
                "tasm_response_canvas_bytes_retained",
                "Region canvas bytes kept by stores for the next answer.",
            )),
            io,
            recovery: RecoveryReport::default(),
            _lock: lock,
        };
        if contended {
            // Another live handle owns the store: it already ran recovery
            // (or is the very process whose re-tiles are in flight), so
            // this open must not repair anything.
            store.recovery.deferred = true;
        } else {
            store.recovery = store.recover_all()?;
        }
        Ok(store)
    }

    /// What startup recovery did when this store was opened. Empty after a
    /// clean shutdown.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Worker threads the decode executor will use.
    pub(crate) fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.workers
        }
    }

    /// The attached decoded-GOP cache, if any.
    pub fn decoded_cache(&self) -> Option<&DecodedTileCache> {
        self.cache.as_ref()
    }

    /// Spare region canvases: composition builds each region in buffers
    /// taken from here, and whoever is done with an answer's regions hands
    /// them to [`crate::recycle_canvases`]. Holds at most
    /// [`CANVAS_POOL_BYTES`].
    pub fn canvases(&self) -> &Arc<CanvasPool> {
        &self.canvases
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The filesystem shim every read and write of this store goes through.
    pub(crate) fn io(&self) -> &dyn StorageIo {
        &*self.io
    }

    /// Ingests a video: splits it into SOTs, encodes each under the layout
    /// chosen by `layout_for`, writes one pack per SOT and the manifest.
    ///
    /// `layout_for(sot_index, frames)` returns the initial layout for each
    /// SOT (untiled `ω` for lazy strategies, object layouts for eager/edge).
    /// It runs on the calling thread, in SOT order, before any encode.
    /// With `cfg.parallel_encode` the SOTs are encoded on several threads,
    /// none started more than two per thread ahead of the next pack to
    /// write; the packs are written in SOT order either way, and hold the
    /// same bytes.
    ///
    /// Commits by `replace_video`'s rule: until the manifest
    /// lands (atomically), the video does not exist.
    pub fn ingest(
        &self,
        name: &str,
        src: &dyn FrameSource,
        fps: u32,
        cfg: StorageConfig,
        mut layout_for: impl FnMut(usize, Range<u32>) -> TileLayout,
    ) -> Result<(VideoManifest, EncodeStats), StoreError> {
        check_video_name(name)?;
        // Checked before anything is touched on disk, and before
        // `layout_for` — which may build `TileLayout::untiled` — runs.
        cfg.check()?;
        if src.is_empty() {
            return Err(StoreError::InvalidConfig("source has no frames"));
        }
        TileLayout::new(vec![src.width()], vec![src.height()])?;
        let mut total = EncodeStats::default();
        let manifest = self.replace_video(name, || {
            // Every SOT's layout, in SOT order on this thread, before any
            // encode starts.
            let mut sots = Vec::new();
            for start in (0..src.len()).step_by(cfg.sot_frames as usize) {
                let end = (start + cfg.sot_frames).min(src.len());
                let layout = layout_for(sots.len(), start..end);
                layout.check_covers(src.width(), src.height())?;
                sots.push(SotEntry {
                    start,
                    end,
                    layout,
                    retile_count: 0,
                    tile_codecs: Vec::new(),
                });
            }
            let threads = if cfg.parallel_encode {
                std::thread::available_parallelism()
                    .map_or(1, |n| n.get())
                    .min(sots.len())
            } else {
                1
            };
            let mut tile_codecs = Vec::with_capacity(sots.len());
            total = encode_sots(src, &sots, &cfg.encoder(), threads, |sot, tiles| {
                tile_codecs.push(tiles.iter().map(|t| t.codec().id()).collect());
                self.write_pack(name, sot, tiles.iter().map(TileVideo::as_bytes))
            })?;
            for (sot, codecs) in sots.iter_mut().zip(tile_codecs) {
                sot.tile_codecs = codecs;
            }
            Ok(VideoManifest {
                name: name.to_string(),
                width: src.width(),
                height: src.height(),
                fps,
                frame_count: src.len(),
                config: cfg,
                sots,
            })
        })?;
        Ok((manifest, total))
    }

    /// The commit of a whole video (ingest, replica install): unpublishes
    /// any video under `name`, lets `write_packs` write the packs and
    /// return their manifest, and publishes it — the commit point. A
    /// failure midway removes the partly written directory (or, after a
    /// crash, startup recovery does), so no orphan packs survive.
    fn replace_video(
        &self,
        name: &str,
        write_packs: impl FnOnce() -> Result<VideoManifest, StoreError>,
    ) -> Result<VideoManifest, StoreError> {
        let dir = self.root.join(name);
        if self.io.exists(&dir) {
            self.unpublish(&dir)?;
        }
        self.io.create_dir_all(&dir)?;
        // Any cached GOPs of a previous video under this name are stale.
        if let Some(cache) = &self.cache {
            cache.invalidate_video(name);
        }
        let manifest = write_packs()
            .and_then(|manifest| self.publish(&manifest).map(|()| manifest)) // ← commit point
            .inspect_err(|_| {
                // Best-effort: under an injected crash this removal fails
                // too (as it would after kill -9) and startup recovery
                // reaps the manifest-less directory instead.
                let _ = self.io.remove_dir_all(&dir);
            })?;
        // The video directory's own name in the store root must be durable
        // for the publish to survive a power cut.
        self.io.sync_dir(&self.root)?;
        Ok(manifest)
    }

    /// Deletes a video directory, the manifest first (one atomic unlink)
    /// and then the tree, so a crash mid-removal — which unlinks entries in
    /// unspecified order — always leaves a manifest-less directory for
    /// recovery to reap, never a manifest naming already-deleted packs.
    fn unpublish(&self, dir: &Path) -> Result<(), StoreError> {
        let manifest_path = dir.join(MANIFEST_FILE);
        if self.io.exists(&manifest_path) {
            self.io.remove_file(&manifest_path)?;
        }
        Ok(self.io.remove_dir_all(dir)?)
    }

    /// Loads a video's manifest.
    pub fn load_manifest(&self, name: &str) -> Result<VideoManifest, StoreError> {
        check_video_name(name)?;
        let path = self.root.join(name).join(MANIFEST_FILE);
        if !self.io.exists(&path) {
            return Err(StoreError::NotFound(format!("video '{name}'")));
        }
        let manifest: VideoManifest = serde_json::from_slice(&self.io.read(&path)?)?;
        manifest.config.check()?;
        Ok(manifest)
    }

    /// Persists a manifest atomically: the new content is written to a
    /// temporary file, fsynced, and renamed over `manifest.json`, so a
    /// crash leaves either the old or the new manifest — never a torn mix.
    /// Two barriers, both needed: the temp file's fsync orders its *bytes*
    /// before the rename (else a crash can leave `manifest.json` naming an
    /// empty file), and the rename's directory fsync is what makes a
    /// returned `Ok` mean the new manifest survives a power cut.
    pub fn save_manifest(&self, manifest: &VideoManifest) -> Result<(), StoreError> {
        let dir = self.root.join(&manifest.name);
        let tmp = dir.join(format!("{MANIFEST_FILE}{TMP_SUFFIX}"));
        self.io.write(&tmp, &serde_json::to_vec_pretty(manifest)?)?;
        self.io.rename(&tmp, &dir.join(MANIFEST_FILE))?;
        Ok(())
    }

    /// The commit of every mutation, after its packs are written: makes
    /// the packs' *names* durable, then replaces the manifest. The
    /// directory fsync orders against a crash after the manifest rename
    /// reached the disk: without it the new manifest could survive naming
    /// a pack whose directory entry did not.
    fn publish(&self, manifest: &VideoManifest) -> Result<(), StoreError> {
        self.io.sync_dir(&self.root.join(&manifest.name))?;
        self.save_manifest(manifest)
    }

    /// Re-encodes one SOT under `new_layout` (the incremental policies'
    /// re-tile operation). Updates and persists the manifest.
    ///
    /// Commits by `commit_sot`'s rule, so a crash at any point leaves the
    /// video entirely in the pre- or post-retile epoch. An error means the
    /// re-tile did not happen: `manifest` is left as it was, and whatever
    /// was written of the new pack is removed by the next attempt or the
    /// next recovering open. Returns the superseded epoch's [`PackId`],
    /// still readable by pinned pre-retile snapshots, for
    /// [`VideoStore::gc_epoch`] once they drain (`None` when the layout was
    /// unchanged and nothing committed).
    pub fn retile(
        &self,
        manifest: &mut VideoManifest,
        sot_idx: usize,
        new_layout: TileLayout,
    ) -> Result<(RetileStats, Option<PackId>), StoreError> {
        new_layout.check_covers(manifest.width, manifest.height)?;
        let sot = manifest
            .sots
            .get(sot_idx)
            .ok_or_else(|| StoreError::NotFound(format!("SOT {sot_idx}")))?
            .clone();
        if sot.layout == new_layout {
            return Ok((RetileStats::default(), None));
        }

        // Stream the SOT, stitched from its current tiles of either codec,
        // into the new layout's encoder, one frame at a time.
        let tiles = self.read_sot(manifest, sot_idx, PackReader::tile)?;
        let mut walk = StitchedVideo::new(&sot.layout, &tiles)?;
        // The walk's frames are the size of the SOT's own layout, which
        // nothing holds to the video's in a manifest from disk or a peer.
        new_layout.check_covers(sot.layout.frame_width(), sot.layout.frame_height())?;
        let mut encoder = LayoutEncoder::new(&new_layout, &manifest.config.encoder());
        for i in 0..walk.frame_count() {
            encoder.encode(walk.frame(i)?);
        }
        let (new_tiles, encode) = encoder.finish();
        let decode = walk.stats();

        // Cached GOPs of the old epoch stay valid (cache keys carry the
        // layout epoch) and are reclaimed with the epoch by `gc_epoch`.
        let entry = SotEntry {
            layout: new_layout,
            retile_count: sot.retile_count + 1,
            tile_codecs: new_tiles.iter().map(|t| t.codec().id()).collect(),
            ..sot
        };
        let bytes = new_tiles.iter().map(TileVideo::as_bytes);
        let (next, retired) = self.commit_sot(manifest, sot_idx, entry, bytes)?;
        *manifest = next;
        Ok((RetileStats { decode, encode }, Some(retired)))
    }

    /// The commit of one SOT's new layout epoch (re-tile, replicated SOT),
    /// and the one place such a commit's manifest is built: `base` with SOT
    /// `sot_idx` replaced by `entry`, and nothing else changed. The tiles
    /// are written as one pack under the epoch `entry` records, beside
    /// (never over) the live pack, and the next manifest is published —
    /// the **commit point**, with nothing after it to complete. Returns
    /// that manifest and the pack it supersedes, `base`'s for the SOT.
    /// A pack already under the new name is residue of an earlier attempt
    /// in this process: it goes first, through `gc_epoch`, which refuses if
    /// the manifest on disk names it (a rename that landed but failed).
    fn commit_sot<B: AsRef<[u8]>>(
        &self,
        base: &VideoManifest,
        sot_idx: usize,
        entry: SotEntry,
        tiles: impl ExactSizeIterator<Item = B>,
    ) -> Result<(VideoManifest, PackId), StoreError> {
        let mut next = base.clone();
        let retired = std::mem::replace(&mut next.sots[sot_idx], entry).pack_id();
        let sot = &next.sots[sot_idx];
        if self.io.exists(&self.pack_path(&next.name, sot)) {
            self.gc_epoch(&next.name, sot.pack_id())?;
        }
        self.write_pack(&next.name, sot, tiles)?;
        self.publish(&next)?; // ← commit point
        Ok((next, retired))
    }

    /// Reclaims one SOT layout epoch the manifest does not name — retired
    /// by a re-tile, or the unpublished residue of a failed one: removes
    /// its pack (through the [`StorageIo`] shim, so the crash-point sweep
    /// covers it) and eagerly drops its decoded-GOP cache entries.
    /// Idempotent — a missing pack is success, so a crash mid-GC is
    /// resolved by simply running it again (or by startup recovery, which
    /// reaps such packs itself). Fails closed: refuses to reclaim unless
    /// the manifest on disk can be read and does not name the pack — a
    /// video without a readable manifest is recovery's to reap.
    pub fn gc_epoch(&self, video: &str, old: PackId) -> Result<(), StoreError> {
        // Guard: never remove a live epoch. The manifest is the truth for
        // which epoch each SOT currently serves reads from.
        if self.load_manifest(video)?.names_pack(old) {
            return Err(StoreError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "refusing to GC live epoch r{} of '{video}' SOT {}..{}",
                    old.retile_count, old.sot_start, old.sot_end
                ),
            )));
        }
        let dir = self.root.join(video);
        let pack = dir.join(pack_file_name(old));
        if self.io.exists(&pack) {
            self.io.remove_file(&pack)?;
            // No crash this orders against can mix epochs — a pack that
            // comes back after a power cut is one no manifest names, and
            // the next recovering open removes it — but a store under a
            // long-lived server is only ever opened *deferred*: this fsync
            // is what makes `Ok` mean the space is reclaimed for good.
            self.io.sync_dir(&dir)?;
        }
        if let Some(cache) = &self.cache {
            cache.invalidate_sot_epoch(video, old.sot_start, old.retile_count);
        }
        Ok(())
    }

    /// Installs a complete replicated video: one `Vec<u8>` of container
    /// bytes per tile of every SOT (outer index = SOT index), plus the
    /// primary's manifest verbatim. Commits by `ingest`'s rule
    /// (`replace_video`). The payload must hold every SOT of the manifest
    /// and every tile of each, and each tile must fit its slot, before
    /// anything is written.
    pub fn install_video(
        &self,
        manifest: &VideoManifest,
        sots: &[Vec<Vec<u8>>],
    ) -> Result<(), StoreError> {
        manifest.config.check()?;
        if sots.len() != manifest.sots.len() {
            return Err(invalid_payload(format!(
                "replica payload has {} SOTs, manifest has {}",
                sots.len(),
                manifest.sots.len()
            )));
        }
        let parsed = (manifest.sots.iter().zip(sots))
            .map(|(sot, tiles)| parse_replica_sot(sot, manifest.config.gop_len, tiles))
            .collect::<Result<Vec<_>, _>>()?;
        let name = manifest.name.as_str();
        check_video_name(name)?;
        self.replace_video(name, || {
            for (sot, tiles) in manifest.sots.iter().zip(&parsed) {
                // Replicas preserve each SOT's `retile_count`, so the
                // backup's pack names match the primary's.
                self.write_pack(name, sot, tiles.iter().map(TileVideo::as_bytes))?;
            }
            Ok(manifest.clone())
        })?;
        Ok(())
    }

    /// Installs one replicated SOT of an *existing* video over the manifest
    /// on disk (`install_sot_on`), refusing a layout epoch
    /// the store already holds for it, or an older one. Returns the
    /// [`PackId`] the install supersedes, for [`VideoStore::gc_epoch`] once
    /// its pinned readers drain.
    pub fn install_sot(
        &self,
        record: &VideoManifest,
        sot_idx: usize,
        tiles: &[Vec<u8>],
    ) -> Result<PackId, StoreError> {
        // A record for a video the store does not hold still names its
        // out-of-range config first.
        record.config.check()?;
        let base = self.load_manifest(&record.name)?;
        match self.install_sot_on(&base, record, sot_idx, tiles)? {
            Some((_, retired)) => Ok(retired),
            None => Err(invalid_payload(format!(
                "SOT {sot_idx} of '{}' is at layout epoch {}, refusing to install epoch {} over it",
                base.name, base.sots[sot_idx].retile_count, record.sots[sot_idx].retile_count
            ))),
        }
    }

    /// Installs SOT `sot_idx` of `record`, a peer's manifest after it
    /// committed that SOT, over `base`, the manifest this node holds, by a
    /// local re-tile's rule (`commit_sot`). Only the record's entry for
    /// that SOT is taken. The rest is checked, never adopted: its config
    /// must pass [`StorageConfig::check`], and its name, size, fps, frame
    /// count, config and SOT bounds must be `base`'s
    /// ([`StoreError::ReplicaMismatch`]). An entry whose layout epoch is
    /// not newer than `base`'s for the SOT is skipped (`None`: writing it
    /// would replace the pack `base` names under any pinned reader).
    /// Otherwise its tiles must fit its slots. A refused or skipped install
    /// writes nothing; one that lands returns the next manifest and the
    /// pack it supersedes.
    pub(crate) fn install_sot_on(
        &self,
        base: &VideoManifest,
        record: &VideoManifest,
        sot_idx: usize,
        tiles: &[Vec<u8>],
    ) -> Result<Option<(VideoManifest, PackId)>, StoreError> {
        record.config.check()?;
        let shape = |m: &VideoManifest| {
            let bounds: Vec<_> = m.sots.iter().map(SotEntry::frames).collect();
            ([m.width, m.height, m.fps, m.frame_count], m.config, bounds)
        };
        if base.name != record.name || shape(base) != shape(record) {
            return Err(StoreError::ReplicaMismatch(base.name.clone()));
        }
        let (Some(held), Some(entry)) = (base.sots.get(sot_idx), record.sots.get(sot_idx)) else {
            return Err(StoreError::NotFound(format!("SOT {sot_idx}")));
        };
        if entry.retile_count <= held.retile_count {
            return Ok(None);
        }
        entry.layout.check_covers(base.width, base.height)?;
        let tiles = parse_replica_sot(entry, base.config.gop_len, tiles)?;
        let bytes = tiles.iter().map(TileVideo::as_bytes);
        self.commit_sot(base, sot_idx, entry.clone(), bytes)
            .map(Some)
    }

    /// Removes a video from the store (rebalance GC), by
    /// `unpublish`: a crash mid-removal leaves a
    /// manifest-less directory that startup recovery reaps.
    pub fn remove_video(&self, name: &str) -> Result<(), StoreError> {
        check_video_name(name)?;
        let dir = self.root.join(name);
        if !self.io.exists(&dir.join(MANIFEST_FILE)) {
            return Err(StoreError::NotFound(format!("video '{name}'")));
        }
        self.unpublish(&dir)?;
        self.io.sync_dir(&self.root)?;
        if let Some(cache) = &self.cache {
            cache.invalidate_video(name);
        }
        Ok(())
    }

    /// A SOT's pack at the layout epoch its manifest entry records — the
    /// only path derivation in the store, so a pinned manifest snapshot
    /// keeps resolving to its own epoch's tiles no matter how many
    /// re-tiles commit after it.
    pub(crate) fn pack_path(&self, name: &str, sot: &SotEntry) -> PathBuf {
        self.root.join(name).join(pack_file_name(sot.pack_id()))
    }

    /// Writes `sot`'s pack at the layout epoch the entry records: one
    /// buffer, one durable write (its fsync is what lets
    /// [`VideoStore::publish`] name these bytes — a crash then finds the
    /// whole pack or an unpublished manifest, never a manifest over a torn
    /// pack). The name becomes durable in `publish`.
    fn write_pack<B: AsRef<[u8]>>(
        &self,
        name: &str,
        sot: &SotEntry,
        tiles: impl ExactSizeIterator<Item = B>,
    ) -> Result<(), StoreError> {
        let pack = pack::assemble(tiles);
        Ok(self.io.write(&self.pack_path(name, sot), &pack)?)
    }
}

/// Each tile payload of a replicated SOT, parsed once: each must parse and
/// pass [`check_tile`] against the slot the manifest gives it — what every
/// read and `fsck` ask of a tile. The pack is then assembled from the
/// parsed tiles' bytes, so it needs no check of its own.
fn parse_replica_sot(
    sot: &SotEntry,
    gop_len: u32,
    tiles: &[Vec<u8>],
) -> Result<Vec<TileVideo>, StoreError> {
    if tiles.len() as u32 != sot.layout.tile_count() {
        return Err(invalid_payload(format!(
            "SOT {}..{} payload has {} tiles, layout has {}",
            sot.start,
            sot.end,
            tiles.len(),
            sot.layout.tile_count()
        )));
    }
    let parse = |(i, bytes): (usize, &Vec<u8>)| {
        let tile = TileVideo::from_bytes(bytes.clone())?;
        match check_tile(&tile, sot, i as u32, gop_len).first() {
            Some(detail) => Err(invalid_payload(format!(
                "SOT {}..{} tile {i}: {detail}",
                sot.start, sot.end
            ))),
            None => Ok(tile),
        }
    };
    tiles.iter().enumerate().map(parse).collect()
}

/// A video's name is its directory name under the store root, and it
/// arrives from callers and — inside replicated manifests — from peers:
/// anything that would resolve outside the root or to the root itself is
/// refused before a path is ever built from it.
fn check_video_name(name: &str) -> Result<(), StoreError> {
    let hostile =
        name.is_empty() || name == "." || name == ".." || name.contains(['/', '\\', '\0']);
    if hostile {
        return Err(StoreError::InvalidName(name.to_string()));
    }
    Ok(())
}

fn invalid_payload(msg: String) -> StoreError {
    StoreError::Io(io::Error::new(io::ErrorKind::InvalidData, msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{self, TileDecodeRequest};
    use crate::scratch::Scratch;
    use tasm_video::{Frame, Plane, Rect, VecFrameSource};

    fn test_source(frames: u32) -> VecFrameSource {
        VecFrameSource::new(
            (0..frames)
                .map(|i| {
                    let mut f = Frame::filled(64, 64, 90, 128, 128);
                    for y in 0..64 {
                        for x in 0..64 {
                            f.set_sample(
                                Plane::Y,
                                x,
                                y,
                                ((x * 3 + y * 5 + i * 2) % 200 + 20) as u8,
                            );
                        }
                    }
                    f.fill_rect(Rect::new((i * 4) % 48, 16, 16, 16), 230, 90, 160);
                    f
                })
                .collect(),
        )
    }

    fn temp_store(tag: &str) -> Scratch<VideoStore> {
        Scratch::open(&format!("store-{tag}"), |dir| {
            VideoStore::open(dir).unwrap()
        })
    }

    fn small_cfg() -> StorageConfig {
        StorageConfig {
            gop_len: 5,
            sot_frames: 10,
            parallel_encode: false,
            ..Default::default()
        }
    }

    #[test]
    fn ingest_creates_sots_and_manifest() {
        let store = temp_store("ingest");
        let src = test_source(25);
        let (manifest, stats) = store
            .ingest("v", &src, 30, small_cfg(), |_, _| {
                TileLayout::untiled(64, 64)
            })
            .unwrap();
        assert_eq!(manifest.sots.len(), 3); // 10 + 10 + 5
        assert_eq!(manifest.sots[2].frames(), 20..25);
        assert!(stats.bytes_produced > 0);
        let loaded = store.load_manifest("v").unwrap();
        assert_eq!(loaded, manifest);
        assert!(store.video_size_bytes(&manifest).unwrap() > 0);
    }

    #[test]
    fn sot_lookup_by_frame() {
        let store = temp_store("lookup");
        let src = test_source(25);
        let (m, _) = store
            .ingest("v", &src, 30, small_cfg(), |_, _| {
                TileLayout::untiled(64, 64)
            })
            .unwrap();
        assert_eq!(m.sot_for_frame(0), Some(0));
        assert_eq!(m.sot_for_frame(9), Some(0));
        assert_eq!(m.sot_for_frame(10), Some(1));
        assert_eq!(m.sot_for_frame(24), Some(2));
        assert_eq!(m.sot_for_frame(25), None);
        assert_eq!(m.sots_for_range(5..15), 0..2);
        assert_eq!(m.sots_for_range(10..11), 1..2);
        assert_eq!(m.sots_for_range(0..25), 0..3);
        assert_eq!(m.sots_for_range(30..40), 0..0);
    }

    #[test]
    fn decode_tiles_returns_requested_frames() {
        let store = temp_store("decode");
        let src = test_source(20);
        let layout = TileLayout::uniform(64, 64, 2, 2).unwrap();
        let (m, _) = store
            .ingest("v", &src, 30, small_cfg(), move |_, _| layout.clone())
            .unwrap();
        let requests = [0, 3].map(|tile| TileDecodeRequest {
            sot_idx: 0,
            tile,
            local_span: 2..6,
        });
        let got = std::sync::Mutex::new(Vec::new());
        let sink = |req: &TileDecodeRequest, local, _: &Frame| {
            tasm_obs::sync::lock(&got).push((req.tile, local));
        };
        let (stats, _, _) = exec::execute(&store, &m, &requests, &sink).unwrap();
        let mut got = got.into_inner().unwrap();
        got.sort_unstable();
        let want: Vec<(u32, u32)> = [0, 3]
            .iter()
            .flat_map(|&t| (2..6).map(move |f| (t, f)))
            .collect();
        assert_eq!(got, want, "each frame of each span, once");
        assert!(stats.samples_decoded > 0);
        // Warmup from the GOP start at frame 0 is charged.
        assert_eq!(stats.frames_decoded, 2 * 6);
    }

    #[test]
    fn retile_preserves_content() {
        let store = temp_store("retile");
        let src = test_source(10);
        let (mut m, _) = store
            .ingest("v", &src, 30, small_cfg(), |_, _| {
                TileLayout::untiled(64, 64)
            })
            .unwrap();
        let new_layout = TileLayout::uniform(64, 64, 2, 2).unwrap();
        let (stats, _) = store.retile(&mut m, 0, new_layout.clone()).unwrap();
        assert!(stats.encode.bytes_produced > 0);
        assert!(stats.seconds() > 0.0);
        assert_eq!(m.sots[0].layout, new_layout);
        assert_eq!(m.sots[0].retile_count, 1);

        // The re-tiled SOT still decodes to (approximately) the source.
        let requests = [0, 1, 2, 3].map(|tile| TileDecodeRequest {
            sot_idx: 0,
            tile,
            local_span: 0..10,
        });
        let composite = std::sync::Mutex::new(Frame::black(64, 64));
        let sink = |req: &TileDecodeRequest, local, frame: &Frame| {
            if local == 3 {
                let rect = new_layout.tile_rect_by_index(req.tile);
                tasm_obs::sync::lock(&composite).blit(frame, frame.rect(), rect.x, rect.y);
            }
        };
        exec::execute(&store, &m, &requests, &sink).unwrap();
        let composite = composite.into_inner().unwrap();
        let r = tasm_video::psnr_frames(&src.frame(3), &composite);
        assert!(r.y > 26.0, "retiled PSNR {:.1}", r.y);

        // Manifest on disk reflects the new layout.
        let reloaded = store.load_manifest("v").unwrap();
        assert_eq!(reloaded.sots[0].layout, m.sots[0].layout);
    }

    #[test]
    fn retile_to_same_layout_is_free() {
        let store = temp_store("retile-noop");
        let src = test_source(10);
        let (mut m, _) = store
            .ingest("v", &src, 30, small_cfg(), |_, _| {
                TileLayout::untiled(64, 64)
            })
            .unwrap();
        let (stats, retired) = store
            .retile(&mut m, 0, TileLayout::untiled(64, 64))
            .unwrap();
        assert_eq!(retired, None);
        assert_eq!(stats.encode.bytes_produced, 0);
        assert_eq!(m.sots[0].retile_count, 0);
    }

    #[test]
    fn missing_video_reports_not_found() {
        let store = temp_store("missing");
        assert!(matches!(
            store.load_manifest("nope"),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn reingest_replaces_existing_video() {
        let store = temp_store("reingest");
        let src = test_source(10);
        let (m1, _) = store
            .ingest("v", &src, 30, small_cfg(), |_, _| {
                TileLayout::untiled(64, 64)
            })
            .unwrap();
        let layout = TileLayout::uniform(64, 64, 1, 2).unwrap();
        let (m2, _) = store
            .ingest("v", &src, 30, small_cfg(), move |_, _| layout.clone())
            .unwrap();
        assert_ne!(m1.sots[0].layout, m2.sots[0].layout);
        // Old single-tile files are gone; new layout has 2 tiles.
        assert!(store.read_tile(&m2, 0, 1).is_ok());
    }

    #[test]
    fn sots_must_be_whole_gops_and_qp_in_range() {
        let cfg = |qp, gop_len, sot_frames| StorageConfig {
            qp,
            gop_len,
            sot_frames,
            ..Default::default()
        };
        for bad in [cfg(28, 4, 10), cfg(28, 4, 0), cfg(28, 0, 4), cfg(52, 4, 4)] {
            assert!(
                matches!(bad.check(), Err(StoreError::InvalidConfig(_))),
                "{bad:?}"
            );
        }
        cfg(51, 4, 8).check().unwrap();
        let store = temp_store("align");
        let src = test_source(10);
        let refused = store.ingest("v", &src, 30, cfg(28, 4, 10), |_, _| {
            TileLayout::untiled(64, 64)
        });
        assert!(matches!(refused, Err(StoreError::InvalidConfig(_))));
    }
}
