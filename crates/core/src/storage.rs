//! Tile-based data storage (§3.4.5).
//!
//! TASM stores each tile as a separate video file so that every tile is a
//! spatial random-access point (Figure 1). A video is a concatenation of
//! SOTs (sequences of tiles, §2): each SOT has its own layout and its own
//! directory of tile files, and layouts change only at GOP boundaries.
//!
//! ```text
//! root/<video>/manifest.json
//! root/<video>/sot_000000_000030/tile_000.tvf           (layout epoch 0)
//! root/<video>/sot_000000_000030/tile_001.tvf
//! root/<video>/sot_000030_000060_r000002/tile_000.tvf   (re-tiled twice)
//! ```
//!
//! Re-tiling a SOT ([`VideoStore::retile`]) decodes its current tiles and
//! re-encodes under the new layout — the `R(s, L)` cost in the incremental
//! policies. Each SOT directory name is stamped with the SOT's layout
//! epoch (its `retile_count`; epoch 0 is unstamped), so a re-tile
//! publishes into a *fresh* directory and the superseded epoch's tile
//! files stay valid on disk for readers still pinned to the old manifest
//! snapshot. [`VideoStore::retile`] reclaims the retired directory
//! immediately; [`VideoStore::retile_deferred`] leaves it for the caller
//! to reclaim with [`VideoStore::gc_epoch`] once its readers drain — the
//! mechanism the `Tasm` facade's MVCC epoch registry is built on.
//!
//! ## Durability
//!
//! Every manifest and tile-file mutation goes through the [`StorageIo`]
//! shim and follows an atomic commit discipline, so a crash at *any* single
//! operation leaves each video wholly in one layout epoch:
//!
//! * **Manifests** are replaced by write-temp → fsync → rename; readers
//!   never observe a torn `manifest.json`.
//! * **Re-tiles** ([`VideoStore::retile`]) run a commit protocol: the new
//!   tile files are written (and fsynced) under a staging directory, an
//!   epoch-stamped *commit record* holding the full post-retile manifest is
//!   atomically renamed into place (the commit point), and only then is the
//!   staging directory promoted to the new epoch-stamped SOT directory, the
//!   manifest rewritten, and the record garbage-collected. The superseded
//!   epoch's directory survives until its readers drain.
//! * **Opening** a store ([`VideoStore::open`] and friends) runs startup
//!   recovery: committed-but-unfinished re-tiles roll *forward*,
//!   uncommitted ones roll *back*, interrupted ingests and temp files are
//!   removed, and every repair is listed in the store's
//!   [`RecoveryReport`]. Shared decoded-GOP caches are invalidated for any
//!   repaired video.
//! * **[`VideoStore::fsck`]** validates manifests against the on-disk tile
//!   files and their container headers.
//!
//! A retile that returns an error either never committed (the old epoch is
//! intact) or passed its commit point — in which case the handle's
//! manifest is advanced to the committed epoch and the surviving commit
//! record is completed by the next re-tile of that video or the next open.
//! The crash-point sweep in `tests/crash_recovery.rs` exercises every
//! operation of the protocol.

use crate::durable::{
    commit_file_name, parse_commit_name, parse_sot_name, parse_staging_name, sot_dir_name,
    staging_dir_name, FsckIssue, FsckReport, RealIo, RecoveryAction, RecoveryReport, StorageIo,
    TMP_SUFFIX,
};
use crate::exec::{self, CacheStats, DecodedTileCache, TileDecodeRequest};
use crate::pool::CanvasPool;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tasm_codec::{
    encode_video, CodecChoice, ContainerError, ContainerHeader, DecodeStats, EncodeStats,
    EncoderConfig, LayoutError, StitchError, TileLayout, TileVideo,
};
use tasm_video::{Frame, FrameSource, SliceSource, VecFrameSource};

/// Why one tile file failed fsck's bounded-read validation.
enum TileProblem {
    /// The file does not exist.
    Missing,
    /// The file exists but could not be read (permissions, I/O error).
    Unreadable(String),
    /// The file read but failed container validation.
    Invalid(ContainerError),
}

/// The commit record of an in-flight re-tile: written under a temporary
/// name, fsynced, then atomically renamed to `commit_sot_*.json` — that
/// rename is the commit point. It carries the *entire* post-retile manifest
/// so recovery can roll forward without re-deriving anything.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct CommitRecord {
    /// First frame of the re-tiled SOT.
    pub sot_start: u32,
    /// Past-the-end frame of the re-tiled SOT.
    pub sot_end: u32,
    /// The manifest as it must read once the re-tile is complete.
    pub manifest: VideoManifest,
}

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
    /// Stitching failure during retile.
    Stitch(StitchError),
    /// Caller referenced a video/SOT/tile that does not exist.
    NotFound(String),
    /// A video name that cannot be a directory name under the store root:
    /// empty, `.` or `..`, or holding `/`, `\` or NUL.
    InvalidName(String),
    /// A [`StorageConfig`] no video can be stored under.
    InvalidConfig(&'static str),
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

/// Encoding parameters for a stored video.
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
    /// Encode tiles on multiple threads (bit-identical output either way).
    pub parallel_encode: bool,
    /// Per-tile codec selection, recorded in the manifest at ingest and
    /// honoured by every later re-tile of the video, whatever the default
    /// is by then. The default, [`CodecChoice::Dct`], encodes each tile
    /// once. [`CodecChoice::Auto`] keeps the smaller of each tile's two
    /// streams, at about 2.2 times the encode time at ingest and 1.2 times
    /// on re-tiled (DCT-decoded) input, where it keeps the DCT stream on
    /// every tile anyway. [`CodecChoice::Pred`] stores every tile
    /// losslessly. A manifest from before this field existed parses as
    /// `Dct`, the only codec there was.
    #[serde(default)]
    pub codec: CodecChoice,
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
            codec: CodecChoice::Dct,
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
            codec: self.codec,
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
}

/// Per-tile decode output: `(tile raster index, frames over the local span)`.
pub type DecodedTiles = Vec<(u32, Vec<Arc<Frame>>)>;

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

/// A superseded SOT layout epoch left on disk by
/// [`VideoStore::retile_deferred`]: the directory
/// `sot_<start>_<end>[_r<retile_count>]` still holds the pre-retile tile
/// files so readers pinned to the old manifest snapshot keep working.
/// Pass it to [`VideoStore::gc_epoch`] once those readers drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetiredEpoch {
    /// First frame of the retired SOT (global, inclusive).
    pub sot_start: u32,
    /// Past-the-end frame of the retired SOT.
    pub sot_end: u32,
    /// The SOT's `retile_count` *before* the re-tile — the layout epoch
    /// whose directory is now retired.
    pub retile_count: u32,
}

/// Most canvas bytes one store keeps between answers: the planes of a
/// large answer (the served median is under 300 KB, a whole-video answer a
/// few MB), so a store idles at most this far above what it needs.
pub const CANVAS_POOL_BYTES: usize = 2 << 20;

/// The on-disk tile store, with its attached decode-execution settings:
/// worker count for the parallel tile-decode pipeline and an optional
/// shared decoded-GOP cache.
pub struct VideoStore {
    root: PathBuf,
    /// Canonical identity of this store in shared-cache keys.
    store_id: Arc<str>,
    workers: usize,
    cache: Option<Arc<DecodedTileCache>>,
    /// Region canvases of finished answers, kept for the next reassembly.
    canvases: Arc<CanvasPool>,
    io: Arc<dyn StorageIo>,
    recovery: RecoveryReport,
    /// Exclusive advisory lock on `<root>/.tasm.lock`, held for this
    /// handle's lifetime when acquired. Only the handle holding it runs
    /// (mutating) startup recovery — a concurrent `tasm fsck` against a
    /// live `tasm serve` must never delete the server's in-flight staging
    /// directories. `flock` semantics: released automatically when the
    /// process dies, so a `kill -9` never wedges the store.
    _lock: Option<fs::File>,
}

impl VideoStore {
    /// Opens (creating) a store rooted at `root` with default execution
    /// settings: auto worker count, no decoded-tile cache. Startup recovery
    /// runs before the store is returned (see [`VideoStore::recovery_report`]).
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::open_with(root, 0, 0)
    }

    /// Opens a store with explicit execution settings: `workers` decode
    /// threads (`0` = one per available core) and a decoded-GOP cache of
    /// `cache_bytes` (`0` disables caching).
    pub fn open_with(
        root: impl Into<PathBuf>,
        workers: usize,
        cache_bytes: u64,
    ) -> Result<Self, StoreError> {
        let cache = (cache_bytes > 0).then(|| Arc::new(DecodedTileCache::new(cache_bytes)));
        Self::open_shared(root, workers, cache)
    }

    /// Opens a store sharing an existing decoded-GOP cache — lets several
    /// store handles (e.g. per-connection `Tasm` instances over the same
    /// directory) hit each other's warm GOPs.
    pub fn open_shared(
        root: impl Into<PathBuf>,
        workers: usize,
        cache: Option<Arc<DecodedTileCache>>,
    ) -> Result<Self, StoreError> {
        Self::open_shared_io(root, workers, cache, Arc::new(RealIo))
    }

    /// [`VideoStore::open_with`] with an explicit [`StorageIo`]
    /// implementation — the hook the crash-injection tests use.
    pub fn open_with_io(
        root: impl Into<PathBuf>,
        workers: usize,
        cache_bytes: u64,
        io: Arc<dyn StorageIo>,
    ) -> Result<Self, StoreError> {
        let cache = (cache_bytes > 0).then(|| Arc::new(DecodedTileCache::new(cache_bytes)));
        Self::open_shared_io(root, workers, cache, io)
    }

    /// The fully general constructor: explicit worker count, shared cache,
    /// and I/O implementation. Startup recovery runs here: interrupted
    /// re-tiles are rolled forward (committed) or back (uncommitted),
    /// half-ingested videos and temp files are removed, and cache entries
    /// of every repaired video are invalidated.
    pub fn open_shared_io(
        root: impl Into<PathBuf>,
        workers: usize,
        cache: Option<Arc<DecodedTileCache>>,
        io: Arc<dyn StorageIo>,
    ) -> Result<Self, StoreError> {
        let root = root.into();
        io.create_dir_all(&root)?;
        // Canonicalize so two handles over the same directory share cache
        // entries regardless of how the path was spelled.
        let store_id: Arc<str> = Arc::from(
            fs::canonicalize(&root)
                .unwrap_or_else(|_| root.clone())
                .to_string_lossy()
                .as_ref(),
        );
        // The store lock decides who may *mutate* during startup: recovery
        // deletes staging directories, which would corrupt an in-flight
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
            store_id,
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

    /// Identity of this store in shared decoded-GOP cache keys.
    pub(crate) fn store_id(&self) -> Arc<str> {
        self.store_id.clone()
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
        self.cache.as_deref()
    }

    /// Shareable handle to the decoded-GOP cache, if any.
    pub fn decoded_cache_handle(&self) -> Option<Arc<DecodedTileCache>> {
        self.cache.clone()
    }

    /// Spare region canvases: reassembly builds each region in buffers
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

    /// Ingests a video: splits it into SOTs, encodes each under the layout
    /// chosen by `layout_for`, writes tile files and the manifest.
    ///
    /// `layout_for(sot_index, frames)` returns the initial layout for each
    /// SOT (untiled `ω` for lazy strategies, object layouts for eager/edge).
    ///
    /// The manifest write is the publish point: until it lands (atomically),
    /// the video does not exist. If encoding or writing fails midway, the
    /// partially written directory is removed so no orphan tile files
    /// survive; if the failure was a crash (cleanup impossible), startup
    /// recovery removes the manifest-less directory at the next open.
    pub fn ingest(
        &self,
        name: &str,
        src: &dyn FrameSource,
        fps: u32,
        cfg: StorageConfig,
        layout_for: impl FnMut(usize, Range<u32>) -> TileLayout,
    ) -> Result<(VideoManifest, EncodeStats), StoreError> {
        check_video_name(name)?;
        // Checked before anything is touched on disk, and before
        // `layout_for` — which may build `TileLayout::untiled` — runs.
        cfg.check()?;
        TileLayout::new(vec![src.width()], vec![src.height()])?;
        let dir = self.root.join(name);
        if self.io.exists(&dir) {
            // Unpublish first: the manifest is removed (one atomic unlink)
            // before the tree, so a crash mid-removal — which unlinks
            // entries in unspecified order — always leaves a manifest-less
            // directory for recovery to reap, never a manifest naming
            // already-deleted tile files.
            let manifest_path = dir.join("manifest.json");
            if self.io.exists(&manifest_path) {
                self.io.remove_file(&manifest_path)?;
            }
            self.io.remove_dir_all(&dir)?;
        }
        self.io.create_dir_all(&dir)?;
        // Any cached GOPs of a previous video under this name are stale.
        if let Some(cache) = &self.cache {
            cache.invalidate_video(&self.store_id, name);
        }
        match self.ingest_files(name, src, fps, cfg, layout_for) {
            Ok(ok) => {
                // The video directory's own name in the store root must be
                // durable for the publish to survive a power cut.
                self.io.sync_dir(&self.root)?;
                Ok(ok)
            }
            Err(e) => {
                // Best-effort: under an injected crash these removals fail
                // too (as they would after kill -9) and startup recovery
                // reaps the manifest-less directory instead.
                let _ = self.io.remove_dir_all(&dir);
                Err(e)
            }
        }
    }

    fn ingest_files(
        &self,
        name: &str,
        src: &dyn FrameSource,
        fps: u32,
        cfg: StorageConfig,
        mut layout_for: impl FnMut(usize, Range<u32>) -> TileLayout,
    ) -> Result<(VideoManifest, EncodeStats), StoreError> {
        let mut sots = Vec::new();
        let mut total = EncodeStats::default();
        let mut start = 0u32;
        let mut sot_idx = 0usize;
        while start < src.len() {
            let end = (start + cfg.sot_frames).min(src.len());
            let layout = layout_for(sot_idx, start..end);
            layout.check_covers(src.width(), src.height())?;
            let slice = SliceSource::new(src, start, end - start);
            let (tiles, stats) =
                encode_video(&slice, &layout, &cfg.encoder(), cfg.parallel_encode)?;
            total += stats;
            self.write_sot_files(name, start, end, &tiles)?;
            sots.push(SotEntry {
                start,
                end,
                layout,
                retile_count: 0,
                tile_codecs: tiles.iter().map(|t| t.codec.id()).collect(),
            });
            start = end;
            sot_idx += 1;
        }

        let manifest = VideoManifest {
            name: name.to_string(),
            width: src.width(),
            height: src.height(),
            fps,
            frame_count: src.len(),
            config: cfg,
            sots,
        };
        self.save_manifest(&manifest)?;
        Ok((manifest, total))
    }

    /// Loads a video's manifest.
    pub fn load_manifest(&self, name: &str) -> Result<VideoManifest, StoreError> {
        let path = self.root.join(name).join("manifest.json");
        if !self.io.exists(&path) {
            return Err(StoreError::NotFound(format!("video '{name}'")));
        }
        let manifest: VideoManifest = serde_json::from_slice(&self.io.read(&path)?)?;
        manifest.config.check()?;
        Ok(manifest)
    }

    /// Persists a manifest (after retiling) atomically: the new content is
    /// written to a temporary file, fsynced, and renamed over
    /// `manifest.json`, so a crash leaves either the old or the new
    /// manifest — never a torn mix.
    pub fn save_manifest(&self, manifest: &VideoManifest) -> Result<(), StoreError> {
        let dir = self.root.join(&manifest.name);
        let tmp = dir.join(format!("manifest.json{TMP_SUFFIX}"));
        self.io.write(&tmp, &serde_json::to_vec_pretty(manifest)?)?;
        self.io.rename(&tmp, &dir.join("manifest.json"))?;
        Ok(())
    }

    /// Reads one tile file of one SOT.
    pub fn read_tile(
        &self,
        manifest: &VideoManifest,
        sot_idx: usize,
        tile_idx: u32,
    ) -> Result<TileVideo, StoreError> {
        let sot = manifest
            .sots
            .get(sot_idx)
            .ok_or_else(|| StoreError::NotFound(format!("SOT {sot_idx}")))?;
        let path = self.tile_path(&manifest.name, sot, tile_idx);
        if !self.io.exists(&path) {
            return Err(StoreError::NotFound(path.display().to_string()));
        }
        Ok(TileVideo::from_bytes(&self.io.read(&path)?)?)
    }

    /// Plans the decode of a set of tiles of one SOT over a *local* frame
    /// range: one [`TileDecodeRequest`] per tile. Planning is pure — the
    /// work happens in [`exec::execute`].
    pub fn plan_decode_tiles(
        &self,
        manifest: &VideoManifest,
        sot_idx: usize,
        tile_indices: &[u32],
        local_frames: Range<u32>,
    ) -> Result<Vec<TileDecodeRequest>, StoreError> {
        let sot = manifest
            .sots
            .get(sot_idx)
            .ok_or_else(|| StoreError::NotFound(format!("SOT {sot_idx}")))?;
        if local_frames.start >= local_frames.end || local_frames.end > sot.len() {
            return Err(StoreError::NotFound(format!(
                "local frames {local_frames:?} of SOT {sot_idx}"
            )));
        }
        Ok(tile_indices
            .iter()
            .map(|&tile| TileDecodeRequest {
                sot_idx,
                tile,
                local_span: local_frames.clone(),
            })
            .collect())
    }

    /// Decodes a set of tiles of one SOT over a *local* frame range through
    /// the parallel execution pipeline, returning per-tile frames plus
    /// exact accounting of the decode work (cache reuse excluded — see
    /// [`VideoStore::decode_tiles_cached`] for the cache counters).
    pub fn decode_tiles(
        &self,
        manifest: &VideoManifest,
        sot_idx: usize,
        tile_indices: &[u32],
        local_frames: Range<u32>,
    ) -> Result<(DecodedTiles, DecodeStats), StoreError> {
        let (tiles, stats, _) =
            self.decode_tiles_cached(manifest, sot_idx, tile_indices, local_frames)?;
        Ok((tiles, stats))
    }

    /// [`VideoStore::decode_tiles`] with cache-reuse accounting included.
    pub fn decode_tiles_cached(
        &self,
        manifest: &VideoManifest,
        sot_idx: usize,
        tile_indices: &[u32],
        local_frames: Range<u32>,
    ) -> Result<(DecodedTiles, DecodeStats, CacheStats), StoreError> {
        let plan = self.plan_decode_tiles(manifest, sot_idx, tile_indices, local_frames)?;
        let (decoded, stats, cache, _shared) = exec::execute(self, manifest, &plan)?;
        let out = decoded.into_iter().map(|d| (d.tile, d.frames)).collect();
        Ok((out, stats, cache))
    }

    /// Re-encodes one SOT under `new_layout` (the incremental policies'
    /// re-tile operation). Updates and persists the manifest.
    ///
    /// Runs the atomic commit protocol, so a crash at any point leaves the
    /// video entirely in the pre- or post-retile epoch once recovery runs:
    ///
    /// 1. the new tile files are written (each fsynced) under a *staging*
    ///    directory invisible to readers;
    /// 2. a commit record carrying the full post-retile manifest is written
    ///    to a temp name, fsynced, and atomically renamed into place — the
    ///    **commit point**;
    /// 3. the staging directory is renamed to the new epoch-stamped SOT
    ///    directory, the manifest atomically rewritten, and the commit
    ///    record garbage-collected; the superseded epoch's directory is
    ///    then reclaimed (immediately here, deferred in
    ///    [`VideoStore::retile_deferred`]).
    ///
    /// A crash before step 2 rolls back (staging is discarded at the next
    /// open); a crash after it rolls forward (recovery finishes step 3).
    /// If this method returns an error *after* the commit point, the
    /// handle's manifest is still advanced to the committed epoch — the
    /// commit record is the durable truth — and the surviving record is
    /// finished by the next re-tile of the video or the next open. Reads
    /// of the affected SOT may fail until then; they never observe a torn
    /// mix of epochs.
    ///
    /// This wrapper reclaims the superseded epoch's directory immediately
    /// — correct when no reader holds the old manifest snapshot. The
    /// `Tasm` facade uses [`VideoStore::retile_deferred`] instead and GCs
    /// through its epoch refcounts.
    pub fn retile(
        &self,
        manifest: &mut VideoManifest,
        sot_idx: usize,
        new_layout: TileLayout,
    ) -> Result<RetileStats, StoreError> {
        let (stats, retired) = self.retile_deferred(manifest, sot_idx, new_layout)?;
        if let Some(old) = retired {
            self.gc_epoch(&manifest.name, old)?;
        }
        Ok(stats)
    }

    /// [`VideoStore::retile`] without the immediate old-epoch reclaim: the
    /// commit publishes the new epoch-stamped SOT directory and manifest
    /// while the superseded directory stays on disk, readable by any
    /// pinned pre-retile manifest snapshot. Returns the [`RetiredEpoch`]
    /// to hand to [`VideoStore::gc_epoch`] once those readers drain
    /// (`None` when the layout was unchanged and nothing committed).
    pub fn retile_deferred(
        &self,
        manifest: &mut VideoManifest,
        sot_idx: usize,
        new_layout: TileLayout,
    ) -> Result<(RetileStats, Option<RetiredEpoch>), StoreError> {
        new_layout.check_covers(manifest.width, manifest.height)?;
        let sot = manifest
            .sots
            .get(sot_idx)
            .ok_or_else(|| StoreError::NotFound(format!("SOT {sot_idx}")))?
            .clone();
        if sot.layout == new_layout {
            return Ok((RetileStats::default(), None));
        }

        // Finish any committed-but-incomplete earlier re-tile of this video
        // first: writing a *new* commit record while an old one survives
        // would let the next open resurrect the old record's manifest
        // snapshot and erase this re-tile. If the pending record cannot be
        // completed now, this re-tile must not proceed.
        self.finish_pending_commits(&manifest.name)?;

        // Decode the SOT in full from its current tiles. (Homomorphic
        // stitching only splices DCT streams; decode-and-blit handles
        // mixed-codec layouts too.) A lone tile that is the whole SOT
        // decodes to the encoder's source frames as they are; anything
        // else is composited into place, tile by tile.
        let old_tile_count = sot.layout.tile_count();
        let tiles: Vec<TileVideo> = (0..old_tile_count)
            .map(|t| self.read_tile(manifest, sot_idx, t))
            .collect::<Result<_, _>>()?;
        let mut decode = DecodeStats::new();
        let whole_sot = (manifest.width, manifest.height, sot.len());
        let frames = match tiles.as_slice() {
            [tile] if (tile.width, tile.height, tile.frame_count()) == whole_sot => {
                let (frames, s) = tile.decode_all()?;
                decode += s;
                frames
            }
            _ => {
                let mut frames: Vec<Frame> = (0..sot.len())
                    .map(|_| Frame::black(manifest.width, manifest.height))
                    .collect();
                for ((_, rect), tile) in sot.layout.tiles().zip(&tiles) {
                    let (tile_frames, s) = tile.decode_all()?;
                    decode += s;
                    for (dst, src) in frames.iter_mut().zip(&tile_frames) {
                        dst.blit(src, src.rect(), rect.x, rect.y);
                    }
                }
                frames
            }
        };

        // Re-encode under the new layout.
        let src = VecFrameSource::new(frames);
        let (new_tiles, encode) = encode_video(
            &src,
            &new_layout,
            &manifest.config.encoder(),
            manifest.config.parallel_encode,
        )?;

        // Stage the new tile files next to (not over) the live ones.
        let video_dir = self.root.join(&manifest.name);
        let staging = video_dir.join(staging_dir_name(sot.start, sot.end));
        if self.io.exists(&staging) {
            // Residue of an earlier failed attempt in this process (opens
            // clean it up, but the store may not have been reopened).
            self.io.remove_dir_all(&staging)?;
        }
        self.write_tiles(&staging, &new_tiles)?;

        // Commit: publish the epoch-stamped record atomically.
        let mut new_manifest = manifest.clone();
        {
            let entry = &mut new_manifest.sots[sot_idx];
            entry.layout = new_layout;
            entry.retile_count += 1;
            entry.tile_codecs = new_tiles.iter().map(|t| t.codec.id()).collect();
        }
        let record = CommitRecord {
            sot_start: sot.start,
            sot_end: sot.end,
            manifest: new_manifest.clone(),
        };
        let commit = video_dir.join(commit_file_name(sot.start, sot.end));
        let commit_tmp = video_dir.join(format!(
            "{}{TMP_SUFFIX}",
            commit_file_name(sot.start, sot.end)
        ));
        self.io
            .write(&commit_tmp, &serde_json::to_vec_pretty(&record)?)?;
        self.io.rename(&commit_tmp, &commit)?; // ← commit point

        // Complete: swap directories, rewrite the manifest, drop the
        // record — exactly the steps recovery's roll-forward replays after
        // a crash. Completion is idempotent, so a *transient* failure gets
        // one immediate retry before the error surfaces; a dead disk fails
        // both attempts and the next re-tile or open finishes the job.
        let completion = self
            .roll_forward(&video_dir, &record, &commit)
            .or_else(|_| self.roll_forward(&video_dir, &record, &commit));

        // Past the commit point the re-tile has logically happened whether
        // or not completion succeeded — the handle's manifest must advance
        // either way, so a later re-tile through this handle builds on (and
        // never silently erases) this one. Cached GOPs of the old epoch
        // stay valid (cache keys carry the layout epoch) and are reclaimed
        // with the epoch by `gc_epoch`.
        *manifest = new_manifest;
        completion?;
        Ok((
            RetileStats { decode, encode },
            Some(RetiredEpoch {
                sot_start: sot.start,
                sot_end: sot.end,
                retile_count: sot.retile_count,
            }),
        ))
    }

    /// Reclaims one retired SOT layout epoch: removes its tile directory
    /// (through the [`StorageIo`] shim, so the crash-point sweep covers
    /// it) and eagerly drops its decoded-GOP cache entries. Idempotent —
    /// a missing directory is success, so a crash mid-GC is resolved by
    /// simply running it again (or by startup recovery, which reaps
    /// retired epoch directories itself). Refuses to reclaim an epoch the
    /// on-disk manifest still references.
    pub fn gc_epoch(&self, video: &str, old: RetiredEpoch) -> Result<(), StoreError> {
        // Guard: never remove a live epoch. The manifest is the truth for
        // which epoch each SOT currently serves reads from.
        if let Ok(manifest) = self.load_manifest(video) {
            if manifest.sots.iter().any(|s| {
                s.start == old.sot_start
                    && s.end == old.sot_end
                    && s.retile_count == old.retile_count
            }) {
                return Err(StoreError::Io(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "refusing to GC live epoch r{} of '{video}' SOT {}..{}",
                        old.retile_count, old.sot_start, old.sot_end
                    ),
                )));
            }
        }
        let dir =
            self.root
                .join(video)
                .join(sot_dir_name(old.sot_start, old.sot_end, old.retile_count));
        if self.io.exists(&dir) {
            self.io.remove_dir_all(&dir)?;
            self.io.sync_dir(&self.root.join(video))?;
        }
        if let Some(cache) = &self.cache {
            cache.invalidate_sot_epoch(&self.store_id, video, old.sot_start, old.retile_count);
        }
        Ok(())
    }

    /// Completes every surviving commit record of `name` (there is at most
    /// one short of outside interference): the in-process equivalent of
    /// recovery's roll-forward, run before a new re-tile may commit.
    fn finish_pending_commits(&self, name: &str) -> Result<(), StoreError> {
        let dir = self.root.join(name);
        for entry in self.io.list_dir(&dir)? {
            if parse_commit_name(&entry_name(&entry)).is_none() {
                continue;
            }
            let record: CommitRecord = serde_json::from_slice(&self.io.read(&entry)?)?;
            self.roll_forward(&dir, &record, &entry)?;
            if let Some(cache) = &self.cache {
                cache.invalidate_video(&self.store_id, name);
            }
        }
        Ok(())
    }

    /// Total bytes of all tile files of a video.
    pub fn video_size_bytes(&self, manifest: &VideoManifest) -> Result<u64, StoreError> {
        let mut total = 0;
        for (i, sot) in manifest.sots.iter().enumerate() {
            for t in 0..sot.layout.tile_count() {
                let path = self.tile_path(&manifest.name, sot, t);
                total += self
                    .io
                    .file_len(&path)
                    .map_err(|_| StoreError::NotFound(format!("SOT {i} tile {t}")))?;
            }
        }
        Ok(total)
    }

    /// Raw on-disk bytes of one tile file — the replication payload. Bytes
    /// are shipped verbatim so a backup's tile files end up byte-identical
    /// to the primary's; bit-exact answers then fall out of deterministic
    /// decode over identical inputs.
    pub fn tile_file_bytes(
        &self,
        manifest: &VideoManifest,
        sot_idx: usize,
        tile_idx: u32,
    ) -> Result<Vec<u8>, StoreError> {
        let sot = manifest
            .sots
            .get(sot_idx)
            .ok_or_else(|| StoreError::NotFound(format!("SOT {sot_idx}")))?;
        let path = self.tile_path(&manifest.name, sot, tile_idx);
        if !self.io.exists(&path) {
            return Err(StoreError::NotFound(path.display().to_string()));
        }
        Ok(self.io.read(&path)?)
    }

    /// Installs a complete replicated video: one `Vec<u8>` of raw tile-file
    /// bytes per tile of every SOT (outer index = SOT index), plus the
    /// primary's manifest verbatim. Mirrors `ingest`'s crash story: the
    /// directory is rewritten from scratch and the manifest write is the
    /// publish point, so a crash mid-install leaves a manifest-less
    /// directory for startup recovery to reap. Every payload must parse as
    /// a tile container before anything is written.
    pub fn install_video(
        &self,
        manifest: &VideoManifest,
        sots: &[Vec<Vec<u8>>],
    ) -> Result<(), StoreError> {
        manifest.config.check()?;
        validate_replica_payload(manifest, sots)?;
        let name = manifest.name.as_str();
        check_video_name(name)?;
        let dir = self.root.join(name);
        if self.io.exists(&dir) {
            // Unpublish first, exactly as `ingest` does (see above).
            let manifest_path = dir.join("manifest.json");
            if self.io.exists(&manifest_path) {
                self.io.remove_file(&manifest_path)?;
            }
            self.io.remove_dir_all(&dir)?;
        }
        self.io.create_dir_all(&dir)?;
        if let Some(cache) = &self.cache {
            cache.invalidate_video(&self.store_id, name);
        }
        let write_all = || -> Result<(), StoreError> {
            for (sot, tiles) in manifest.sots.iter().zip(sots) {
                // Replicas preserve each SOT's `retile_count`, so the
                // backup's directory names match the primary's.
                let sot_dir = self.sot_dir(name, sot);
                self.write_raw_tiles(&sot_dir, tiles)?;
            }
            self.save_manifest(manifest)?;
            Ok(())
        };
        match write_all() {
            Ok(()) => {
                self.io.sync_dir(&self.root)?;
                Ok(())
            }
            Err(e) => {
                let _ = self.io.remove_dir_all(&dir);
                Err(e)
            }
        }
    }

    /// Installs one replicated SOT of an *existing* video via the PR 5
    /// staged-commit protocol: tile bytes land in a staging directory, the
    /// commit record (carrying `new_manifest`) is atomically renamed into
    /// place — the commit point — and roll-forward swaps the directory and
    /// rewrites the manifest. A crash at any step is resolved by the same
    /// startup recovery that resolves an interrupted local re-tile.
    ///
    /// Reclaims the epoch the install supersedes immediately; a replica
    /// serving pinned readers uses [`VideoStore::install_sot_deferred`]
    /// and GCs when they drain.
    pub fn install_sot(
        &self,
        new_manifest: &VideoManifest,
        sot_idx: usize,
        tiles: &[Vec<u8>],
    ) -> Result<(), StoreError> {
        let retired = self.install_sot_deferred(new_manifest, sot_idx, tiles)?;
        if let Some(old) = retired {
            self.gc_epoch(&new_manifest.name, old)?;
        }
        Ok(())
    }

    /// [`VideoStore::install_sot`] without the immediate reclaim of the
    /// superseded layout epoch: returns the [`RetiredEpoch`] (if the
    /// install replaced one) for the caller to [`VideoStore::gc_epoch`]
    /// once its pinned readers drain.
    pub fn install_sot_deferred(
        &self,
        new_manifest: &VideoManifest,
        sot_idx: usize,
        tiles: &[Vec<u8>],
    ) -> Result<Option<RetiredEpoch>, StoreError> {
        let sot = new_manifest
            .sots
            .get(sot_idx)
            .ok_or_else(|| StoreError::NotFound(format!("SOT {sot_idx}")))?;
        new_manifest.config.check()?;
        validate_replica_sot(sot, new_manifest.config.gop_len, tiles)?;
        let name = new_manifest.name.as_str();
        check_video_name(name)?;
        self.finish_pending_commits(name)?;
        // The epoch this install supersedes, per the (post-roll-forward)
        // on-disk manifest — read before the commit below rewrites it.
        let retired = self.load_manifest(name)?.sots.iter().find_map(|old| {
            (old.start == sot.start && old.end == sot.end && old.retile_count != sot.retile_count)
                .then_some(RetiredEpoch {
                    sot_start: old.start,
                    sot_end: old.end,
                    retile_count: old.retile_count,
                })
        });

        let video_dir = self.root.join(name);
        let staging = video_dir.join(staging_dir_name(sot.start, sot.end));
        if self.io.exists(&staging) {
            self.io.remove_dir_all(&staging)?;
        }
        self.write_raw_tiles(&staging, tiles)?;

        let record = CommitRecord {
            sot_start: sot.start,
            sot_end: sot.end,
            manifest: new_manifest.clone(),
        };
        let commit = video_dir.join(commit_file_name(sot.start, sot.end));
        let commit_tmp = video_dir.join(format!(
            "{}{TMP_SUFFIX}",
            commit_file_name(sot.start, sot.end)
        ));
        self.io
            .write(&commit_tmp, &serde_json::to_vec_pretty(&record)?)?;
        self.io.rename(&commit_tmp, &commit)?; // ← commit point

        let completion = self
            .roll_forward(&video_dir, &record, &commit)
            .or_else(|_| self.roll_forward(&video_dir, &record, &commit));
        // Cached GOPs keyed at the *installed* epoch (possible only if a
        // caller overwrote an epoch in place) are stale now; older epochs'
        // entries stay valid and die with their epoch in `gc_epoch`.
        if let Some(cache) = &self.cache {
            cache.invalidate_sot_epoch(&self.store_id, name, sot.start, sot.retile_count);
        }
        completion?;
        Ok(retired)
    }

    /// Removes a video from the store (rebalance GC). The manifest is
    /// unlinked first — one atomic unpublish — so a crash mid-removal
    /// leaves a manifest-less directory that startup recovery reaps.
    pub fn remove_video(&self, name: &str) -> Result<(), StoreError> {
        check_video_name(name)?;
        let dir = self.root.join(name);
        let manifest_path = dir.join("manifest.json");
        if !self.io.exists(&manifest_path) {
            return Err(StoreError::NotFound(format!("video '{name}'")));
        }
        self.io.remove_file(&manifest_path)?;
        self.io.remove_dir_all(&dir)?;
        self.io.sync_dir(&self.root)?;
        if let Some(cache) = &self.cache {
            cache.invalidate_video(&self.store_id, name);
        }
        Ok(())
    }

    /// Writes raw (already-encoded) tile-file bytes into `dir` with the
    /// same durability barrier as `write_tiles`: every file fsynced, then
    /// the directory once for the batch.
    fn write_raw_tiles(&self, dir: &Path, tiles: &[Vec<u8>]) -> Result<(), StoreError> {
        self.io.create_dir_all(dir)?;
        for (i, bytes) in tiles.iter().enumerate() {
            self.io.write(&dir.join(tile_file_name(i as u32)), bytes)?;
        }
        self.io.sync_dir(dir)?;
        Ok(())
    }

    /// A SOT's directory at the layout epoch its manifest entry records —
    /// the only path derivation in the store, so a pinned manifest
    /// snapshot keeps resolving to its own epoch's files no matter how
    /// many re-tiles commit after it.
    fn sot_dir(&self, name: &str, sot: &SotEntry) -> PathBuf {
        self.root
            .join(name)
            .join(sot_dir_name(sot.start, sot.end, sot.retile_count))
    }

    fn tile_path(&self, name: &str, sot: &SotEntry, tile: u32) -> PathBuf {
        self.sot_dir(name, sot).join(tile_file_name(tile))
    }

    fn write_sot_files(
        &self,
        name: &str,
        start: u32,
        end: u32,
        tiles: &[TileVideo],
    ) -> Result<(), StoreError> {
        // Ingest always writes layout epoch 0.
        let dir = self.root.join(name).join(sot_dir_name(start, end, 0));
        self.write_tiles(&dir, tiles)
    }

    /// Writes one tile file per entry of `tiles` into `dir` (created if
    /// missing). Every file is fsynced, then the directory itself — one
    /// barrier for the whole batch — so the files *and their names* are
    /// durable before any commit point that depends on them.
    fn write_tiles(&self, dir: &Path, tiles: &[TileVideo]) -> Result<(), StoreError> {
        self.io.create_dir_all(dir)?;
        for (i, tile) in tiles.iter().enumerate() {
            self.io
                .write(&dir.join(tile_file_name(i as u32)), &tile.to_bytes())?;
        }
        self.io.sync_dir(dir)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Startup recovery
    // ------------------------------------------------------------------

    /// Scans every video directory for residue of interrupted operations
    /// and restores the two-epoch invariant. Idempotent: recovery itself
    /// can crash at any operation and the next open finishes the job.
    fn recover_all(&self) -> Result<RecoveryReport, StoreError> {
        let mut report = RecoveryReport::default();
        for entry in self.io.list_dir(&self.root)? {
            if !self.io.is_dir(&entry) {
                continue;
            }
            let Some(video) = entry.file_name().map(|n| n.to_string_lossy().into_owned()) else {
                continue;
            };
            self.recover_video_dir(&entry, &video, &mut report)?;
        }
        Ok(report)
    }

    fn recover_video_dir(
        &self,
        dir: &Path,
        video: &str,
        report: &mut RecoveryReport,
    ) -> Result<(), StoreError> {
        // 0. Only touch directories that are recognizably ours: a manifest,
        //    tile-store residue (SOT/staging dirs, commit records, manifest
        //    temp), or a completely empty directory (an ingest that died at
        //    its first operation). A foreign directory — e.g. the store was
        //    opened at a wrong or shared path — is left strictly alone.
        let entries = self.io.list_dir(dir)?;
        let is_ours = self.io.exists(&dir.join("manifest.json"))
            || entries.is_empty()
            || entries.iter().any(|e| {
                let name = entry_name(e);
                parse_sot_name(&name).is_some()
                    || parse_staging_name(&name).is_some()
                    || parse_commit_name(&name).is_some()
                    || name == format!("manifest.json{TMP_SUFFIX}")
            });
        if !is_ours {
            return Ok(());
        }

        // 1. Interrupted atomic writes: the temp file never became visible
        //    under its final name, so it holds no committed state.
        for entry in self.io.list_dir(dir)? {
            let name = entry_name(&entry);
            if name.ends_with(TMP_SUFFIX) && !self.io.is_dir(&entry) {
                self.io.remove_file(&entry)?;
                report.actions.push(RecoveryAction::RemovedTemp {
                    video: video.to_string(),
                    file: name,
                });
            }
        }

        // 2. Commit records: the re-tile passed its commit point — finish
        //    it (roll forward). Records are fsynced before the rename that
        //    publishes them, so an unparsable record cannot exist short of
        //    outside interference; treat one as pre-commit garbage.
        for entry in self.io.list_dir(dir)? {
            let name = entry_name(&entry);
            let Some((start, end)) = parse_commit_name(&name) else {
                continue;
            };
            match serde_json::from_slice::<CommitRecord>(&self.io.read(&entry)?) {
                Ok(record) => {
                    self.roll_forward(dir, &record, &entry)?;
                    report.actions.push(RecoveryAction::RolledForward {
                        video: video.to_string(),
                        sot_start: record.sot_start,
                        sot_end: record.sot_end,
                    });
                    if let Some(cache) = &self.cache {
                        cache.invalidate_video(&self.store_id, video);
                    }
                }
                Err(_) => {
                    let staging = dir.join(staging_dir_name(start, end));
                    if self.io.exists(&staging) {
                        self.io.remove_dir_all(&staging)?;
                    }
                    self.io.remove_file(&entry)?;
                    report.actions.push(RecoveryAction::RolledBack {
                        video: video.to_string(),
                        sot_start: start,
                        sot_end: end,
                    });
                }
            }
        }

        // 3. Staging directories without a commit record: the re-tile never
        //    committed — discard (roll back).
        for entry in self.io.list_dir(dir)? {
            let name = entry_name(&entry);
            let Some((start, end)) = parse_staging_name(&name) else {
                continue;
            };
            if self.io.is_dir(&entry) {
                self.io.remove_dir_all(&entry)?;
                report.actions.push(RecoveryAction::RolledBack {
                    video: video.to_string(),
                    sot_start: start,
                    sot_end: end,
                });
            }
        }

        // 3.5. Superseded layout epochs: a SOT directory whose range the
        //    manifest covers at a *different* retile count is a retired
        //    epoch whose GC was interrupted (or deferred and never run —
        //    no process survived to hold a pin on it). Reclaim it so the
        //    crash lands in exactly one epoch set. Ranges the manifest
        //    does not cover at all are left for fsck to flag.
        if let Ok(bytes) = self.io.read(&dir.join("manifest.json")) {
            if let Ok(manifest) = serde_json::from_slice::<VideoManifest>(&bytes) {
                for entry in self.io.list_dir(dir)? {
                    let Some((start, end, rc)) = parse_sot_name(&entry_name(&entry)) else {
                        continue;
                    };
                    let superseded = manifest
                        .sots
                        .iter()
                        .any(|s| s.start == start && s.end == end && s.retile_count != rc);
                    if superseded && self.io.is_dir(&entry) {
                        self.io.remove_dir_all(&entry)?;
                        report.actions.push(RecoveryAction::ReclaimedEpoch {
                            video: video.to_string(),
                            sot_start: start,
                            sot_end: end,
                            epoch: rc,
                        });
                        if let Some(cache) = &self.cache {
                            cache.invalidate_sot_epoch(&self.store_id, video, start, rc);
                        }
                    }
                }
            }
        }

        // 4. No manifest after the above: an ingest crashed before its
        //    publish point — the video never existed.
        if !self.io.exists(&dir.join("manifest.json")) {
            self.io.remove_dir_all(dir)?;
            report.actions.push(RecoveryAction::RemovedPartialVideo {
                video: video.to_string(),
            });
            if let Some(cache) = &self.cache {
                cache.invalidate_video(&self.store_id, video);
            }
        }
        Ok(())
    }

    /// Replays the post-commit steps of the re-tile protocol. Idempotent:
    /// safe to re-run from any intermediate crash state.
    fn roll_forward(
        &self,
        dir: &Path,
        record: &CommitRecord,
        commit_path: &Path,
    ) -> Result<(), StoreError> {
        let staging = dir.join(staging_dir_name(record.sot_start, record.sot_end));
        // The staging directory is promoted to the *new* epoch's name (the
        // record's manifest is the post-retile truth); the superseded
        // epoch's directory is untouched here — it stays readable for
        // pinned snapshots until `gc_epoch` or recovery reclaims it.
        let new_rc = record
            .manifest
            .sots
            .iter()
            .find(|s| s.start == record.sot_start && s.end == record.sot_end)
            .map(|s| s.retile_count)
            .ok_or_else(|| {
                StoreError::Io(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "commit record for SOT {}..{} names a SOT absent from its manifest",
                        record.sot_start, record.sot_end
                    ),
                ))
            })?;
        let final_dir = dir.join(sot_dir_name(record.sot_start, record.sot_end, new_rc));
        if self.io.exists(&staging) {
            if self.io.exists(&final_dir) {
                self.io.remove_dir_all(&final_dir)?;
            }
            self.io.rename(&staging, &final_dir)?;
        }
        // If staging is gone the swap already happened; either way the
        // record holds the authoritative post-retile manifest.
        self.save_manifest(&record.manifest)?;
        self.io.remove_file(commit_path)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // fsck
    // ------------------------------------------------------------------

    /// Validates every video in the store: manifest readable, SOT chain
    /// contiguous, every tile file present with a container header that
    /// matches the manifest (dimensions, GOP length, frame count, exact
    /// length), and no unaccounted files. Read-only.
    pub fn fsck(&self) -> Result<FsckReport, StoreError> {
        self.fsck_with(&[])
    }

    /// [`VideoStore::fsck`] with an allow-list of sidecar file names the
    /// caller places inside video directories (e.g. the CLI's scene spec):
    /// those are not flagged as stray. The core store itself needs no
    /// extras.
    pub fn fsck_with(&self, allowed_extras: &[&str]) -> Result<FsckReport, StoreError> {
        let mut report = FsckReport::default();
        for entry in self.io.list_dir(&self.root)? {
            if self.io.is_dir(&entry) {
                self.fsck_video_into(&entry_name(&entry), allowed_extras, &mut report);
            }
        }
        Ok(report)
    }

    /// [`VideoStore::fsck`] restricted to one video. Errors if the video's
    /// directory does not exist at all.
    pub fn fsck_video(&self, name: &str) -> Result<FsckReport, StoreError> {
        self.fsck_video_with(name, &[])
    }

    /// [`VideoStore::fsck_video`] with a caller sidecar allow-list (see
    /// [`VideoStore::fsck_with`]).
    pub fn fsck_video_with(
        &self,
        name: &str,
        allowed_extras: &[&str],
    ) -> Result<FsckReport, StoreError> {
        if !self.io.is_dir(&self.root.join(name)) {
            return Err(StoreError::NotFound(format!("video '{name}'")));
        }
        let mut report = FsckReport::default();
        self.fsck_video_into(name, allowed_extras, &mut report);
        Ok(report)
    }

    /// Bounded-read container validation of one tile file. Only the header
    /// and frame table are read; the rare container whose frame table
    /// outgrows the prefix is re-read in full.
    fn validate_tile_header(&self, path: &Path) -> Result<ContainerHeader, TileProblem> {
        const HEADER_PREFIX: usize = 64 << 10;
        // A file that exists but cannot be read (EACCES, EIO from a dying
        // disk) is damage, not absence — report it faithfully.
        let io_problem = |e: io::Error| {
            if self.io.exists(path) {
                TileProblem::Unreadable(e.to_string())
            } else {
                TileProblem::Missing
            }
        };
        let total = self.io.file_len(path).map_err(io_problem)?;
        let head = self
            .io
            .read_prefix(path, HEADER_PREFIX)
            .map_err(io_problem)?;
        if head.len() as u64 == total {
            return TileVideo::validate(&head).map_err(TileProblem::Invalid);
        }
        match TileVideo::validate_header(&head, total) {
            // Ambiguous truncation: the table may simply outgrow the
            // prefix — judge from the whole file.
            Err(ContainerError::Truncated) => {
                let all = self.io.read(path).map_err(io_problem)?;
                TileVideo::validate(&all).map_err(TileProblem::Invalid)
            }
            r => r.map_err(TileProblem::Invalid),
        }
    }

    fn fsck_video_into(&self, video: &str, allowed_extras: &[&str], report: &mut FsckReport) {
        report.videos_checked += 1;
        let dir = self.root.join(video);
        let manifest = match self.load_manifest(video) {
            Ok(m) => m,
            Err(e) => {
                report.issues.push(FsckIssue::ManifestUnreadable {
                    video: video.to_string(),
                    detail: e.to_string(),
                });
                return;
            }
        };

        // SOT chain: contiguous frames covering exactly 0..frame_count.
        let mut expected_start = 0u32;
        for (i, sot) in manifest.sots.iter().enumerate() {
            if sot.start != expected_start || sot.end <= sot.start {
                report.issues.push(FsckIssue::SotChainBroken {
                    video: video.to_string(),
                    detail: format!(
                        "SOT {i} spans {}..{} but frame {expected_start} comes next",
                        sot.start, sot.end
                    ),
                });
            }
            expected_start = sot.end;
        }
        if expected_start != manifest.frame_count {
            report.issues.push(FsckIssue::SotChainBroken {
                video: video.to_string(),
                detail: format!(
                    "SOTs cover 0..{expected_start} of {} frames",
                    manifest.frame_count
                ),
            });
        }

        // Tile files vs manifest, container headers included. Only a
        // bounded prefix (header + frame table) of each file is read; the
        // exact-length check compares the declared size against the file
        // length, so payload bytes never enter memory.
        for sot in &manifest.sots {
            for t in 0..sot.layout.tile_count() {
                let path = self.tile_path(video, sot, t);
                let header = match self.validate_tile_header(&path) {
                    Ok(h) => h,
                    Err(TileProblem::Missing) => {
                        report.issues.push(FsckIssue::MissingTile {
                            video: video.to_string(),
                            sot_start: sot.start,
                            tile: t,
                        });
                        continue;
                    }
                    Err(TileProblem::Unreadable(detail)) => {
                        report.issues.push(FsckIssue::TileCorrupt {
                            video: video.to_string(),
                            sot_start: sot.start,
                            tile: t,
                            detail: format!("unreadable: {detail}"),
                        });
                        continue;
                    }
                    Err(TileProblem::Invalid(e)) => {
                        report.issues.push(FsckIssue::TileCorrupt {
                            video: video.to_string(),
                            sot_start: sot.start,
                            tile: t,
                            detail: e.to_string(),
                        });
                        continue;
                    }
                };
                report.tiles_checked += 1;
                for detail in slot_mismatches(&header, sot, t, manifest.config.gop_len) {
                    report.issues.push(FsckIssue::TileMismatch {
                        video: video.to_string(),
                        sot_start: sot.start,
                        tile: t,
                        detail,
                    });
                }
            }

            // Unaccounted entries inside the SOT directory.
            let sot_dir = self.sot_dir(video, sot);
            let expected: std::collections::BTreeSet<String> =
                (0..sot.layout.tile_count()).map(tile_file_name).collect();
            if let Ok(entries) = self.io.list_dir(&sot_dir) {
                for entry in entries {
                    let name = entry_name(&entry);
                    if !expected.contains(&name) {
                        report.issues.push(FsckIssue::Stray {
                            video: video.to_string(),
                            path: format!(
                                "{}/{name}",
                                sot_dir_name(sot.start, sot.end, sot.retile_count)
                            ),
                        });
                    }
                }
            }
        }

        // Unaccounted entries in the video directory: anything other than
        // the manifest, allow-listed extras, and the manifest's SOT dirs.
        if let Ok(entries) = self.io.list_dir(&dir) {
            for entry in entries {
                let name = entry_name(&entry);
                let known_sot = manifest
                    .sots
                    .iter()
                    .any(|s| name == sot_dir_name(s.start, s.end, s.retile_count));
                let allowed =
                    name == "manifest.json" || allowed_extras.contains(&name.as_str()) || known_sot;
                // When recovery was deferred (another live handle holds the
                // store lock), staging/commit/temp entries are plausibly
                // that handle's in-flight re-tiles, not crash residue — and
                // a SOT directory at a superseded epoch of a manifest range
                // is plausibly a retired epoch still pinned by that
                // handle's readers. A concurrent fsck must not call a
                // healthy live store dirty.
                let live_protocol_state = self.recovery.deferred
                    && (parse_staging_name(&name).is_some()
                        || parse_commit_name(&name).is_some()
                        || name.ends_with(TMP_SUFFIX)
                        || parse_sot_name(&name).is_some_and(|(s, e, _)| {
                            manifest.sots.iter().any(|x| x.start == s && x.end == e)
                        }));
                if !allowed && !live_protocol_state {
                    report.issues.push(FsckIssue::Stray {
                        video: video.to_string(),
                        path: name,
                    });
                }
            }
        }
    }
}

/// The on-disk name of a tile file.
/// Rejects a replicated video payload whose shape disagrees with the
/// manifest it claims to realize, before any byte lands on disk.
fn validate_replica_payload(
    manifest: &VideoManifest,
    sots: &[Vec<Vec<u8>>],
) -> Result<(), StoreError> {
    if sots.len() != manifest.sots.len() {
        return Err(invalid_payload(format!(
            "replica payload has {} SOTs, manifest has {}",
            sots.len(),
            manifest.sots.len()
        )));
    }
    for (sot, tiles) in manifest.sots.iter().zip(sots) {
        validate_replica_sot(sot, manifest.config.gop_len, tiles)?;
    }
    Ok(())
}

/// Every tile payload must be a whole tile container whose header agrees
/// with the slot the manifest gives it — what `fsck` asks of a tile file.
fn validate_replica_sot(sot: &SotEntry, gop_len: u32, tiles: &[Vec<u8>]) -> Result<(), StoreError> {
    if tiles.len() as u32 != sot.layout.tile_count() {
        return Err(invalid_payload(format!(
            "SOT {}..{} payload has {} tiles, layout has {}",
            sot.start,
            sot.end,
            tiles.len(),
            sot.layout.tile_count()
        )));
    }
    for (i, bytes) in tiles.iter().enumerate() {
        let header = TileVideo::validate(bytes)?;
        if let Some(detail) = slot_mismatches(&header, sot, i as u32, gop_len).first() {
            return Err(invalid_payload(format!(
                "SOT {}..{} tile {i}: {detail}",
                sot.start, sot.end
            )));
        }
    }
    Ok(())
}

/// How a tile container's header disagrees with the manifest slot it fills
/// (tile `t` of `sot`, in a video of `gop_len`-frame GOPs): dimensions,
/// GOP length, frame count, codec. Empty when it fits. A tile that got past
/// these would still decode, and `Frame::blit` would clip it silently.
fn slot_mismatches(header: &ContainerHeader, sot: &SotEntry, t: u32, gop_len: u32) -> Vec<String> {
    let rect = sot.layout.tile_rect_by_index(t);
    let mut found = Vec::new();
    if header.width != rect.w || header.height != rect.h {
        found.push(format!(
            "container is {}x{}, layout rect is {}x{}",
            header.width, header.height, rect.w, rect.h
        ));
    }
    if header.gop_len != gop_len {
        found.push(format!(
            "container GOP length {} vs configured {gop_len}",
            header.gop_len
        ));
    }
    if header.frame_count != sot.len() {
        found.push(format!(
            "container holds {} frames, SOT spans {}",
            header.frame_count,
            sot.len()
        ));
    }
    if let Some(&declared) = sot.tile_codecs.get(t as usize) {
        if header.codec.id() != declared {
            found.push(format!(
                "container codec id {} vs manifest codec id {declared}",
                header.codec.id()
            ));
        }
    }
    found
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

fn tile_file_name(tile: u32) -> String {
    format!("tile_{tile:03}.tvf")
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
    use tasm_video::{Plane, Rect};

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

    fn temp_store(tag: &str) -> VideoStore {
        let dir = std::env::temp_dir().join(format!("tasm-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        VideoStore::open(dir).unwrap()
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
        let (tiles, stats) = store.decode_tiles(&m, 0, &[0, 3], 2..6).unwrap();
        assert_eq!(tiles.len(), 2);
        assert_eq!(tiles[0].1.len(), 4);
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
        let stats = store.retile(&mut m, 0, new_layout.clone()).unwrap();
        assert!(stats.encode.bytes_produced > 0);
        assert!(stats.seconds() > 0.0);
        assert_eq!(m.sots[0].layout, new_layout);
        assert_eq!(m.sots[0].retile_count, 1);

        // The re-tiled SOT still decodes to (approximately) the source.
        let (tiles, _) = store.decode_tiles(&m, 0, &[0, 1, 2, 3], 0..10).unwrap();
        let mut composite = Frame::black(64, 64);
        for (t, frames) in &tiles {
            let rect = new_layout.tile_rect_by_index(*t);
            composite.blit(&frames[3], frames[3].rect(), rect.x, rect.y);
        }
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
        let stats = store
            .retile(&mut m, 0, TileLayout::untiled(64, 64))
            .unwrap();
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
