//! Tile-based data storage (§3.4.5).
//!
//! TASM stores each tile as a separate video stream so that every tile is a
//! spatial random-access point (Figure 1). A video is a concatenation of
//! SOTs (sequences of tiles, §2): each SOT has its own layout, and layouts
//! change only at GOP boundaries. A SOT's tiles at one layout epoch are one
//! *pack* file (`pack.rs`): a table, then each tile's container bytes
//! verbatim, so one tile is read without the others.
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
//! reclaims the retired pack immediately; [`VideoStore::retile_deferred`]
//! leaves it for the caller to reclaim with [`VideoStore::gc_epoch`] once
//! its readers drain — the mechanism the `Tasm` facade's MVCC epoch
//! registry is built on.
//!
//! ## Durability
//!
//! Every mutation of a video follows one rule: **write new files under
//! names nothing references, make them and their names durable, then
//! atomically replace `manifest.json`** (write-temp → fsync → rename). The
//! rename is the only commit point — of an ingest, a replica install and a
//! re-tile alike — and there is nothing after it to complete. All of it
//! goes through the [`StorageIo`] shim, so a crash at *any* single
//! operation leaves each video wholly in one layout epoch:
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
//! files. Every repair is listed in the store's [`RecoveryReport`].
//! **[`VideoStore::fsck`]** validates manifests against the packs on disk
//! and the container headers of the tiles in them. The crash-point sweep
//! in `tests/crash_recovery.rs` crashes every operation of every mutation.

use crate::durable::{
    is_legacy_retile_residue, is_legacy_sot_dir_name, pack_file_name, parse_pack_name,
    read_exact_range, FsckIssue, FsckReport, RealIo, RecoveryAction, RecoveryReport, StorageIo,
    TMP_SUFFIX,
};
use crate::exec::DecodedTileCache;
use crate::pack::{self, TileRanges};
use crate::pool::CanvasPool;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tasm_codec::{
    encode_video, ContainerError, ContainerHeader, DecodeStats, EncodeStats, EncoderConfig,
    LayoutError, TileLayout, TileVideo,
};
use tasm_video::{Frame, FrameSource, SliceSource, VecFrameSource};

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
    /// Encode tiles on multiple threads (bit-identical output either way).
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
/// [`VideoStore::retile_deferred`]: the pack
/// `sot_<start>_<end>[_r<retile_count>].tiles` still holds the pre-retile
/// tiles so readers pinned to the old manifest snapshot keep working.
/// Pass it to [`VideoStore::gc_epoch`] once those readers drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetiredEpoch {
    /// First frame of the retired SOT (global, inclusive).
    pub sot_start: u32,
    /// Past-the-end frame of the retired SOT.
    pub sot_end: u32,
    /// The SOT's `retile_count` *before* the re-tile — the layout epoch
    /// whose pack is now retired.
    pub retile_count: u32,
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
    /// Region canvases of finished answers, kept for the next reassembly.
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
    /// chosen by `layout_for`, writes one pack per SOT and the manifest.
    ///
    /// `layout_for(sot_index, frames)` returns the initial layout for each
    /// SOT (untiled `ω` for lazy strategies, object layouts for eager/edge).
    ///
    /// The manifest write is the publish point: until it lands (atomically),
    /// the video does not exist. If encoding or writing fails midway, the
    /// partially written directory is removed so no orphan packs
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
        if src.is_empty() {
            return Err(StoreError::InvalidConfig("source has no frames"));
        }
        TileLayout::new(vec![src.width()], vec![src.height()])?;
        let dir = self.root.join(name);
        if self.io.exists(&dir) {
            // Unpublish first: the manifest is removed (one atomic unlink)
            // before the tree, so a crash mid-removal — which unlinks
            // entries in unspecified order — always leaves a manifest-less
            // directory for recovery to reap, never a manifest naming
            // already-deleted packs.
            let manifest_path = dir.join("manifest.json");
            if self.io.exists(&manifest_path) {
                self.io.remove_file(&manifest_path)?;
            }
            self.io.remove_dir_all(&dir)?;
        }
        self.io.create_dir_all(&dir)?;
        // Any cached GOPs of a previous video under this name are stale.
        if let Some(cache) = &self.cache {
            cache.invalidate_video(name);
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
            let sot = SotEntry {
                start,
                end,
                layout,
                retile_count: 0,
                tile_codecs: tiles.iter().map(|t| t.codec.id()).collect(),
            };
            self.write_pack(name, &sot, tiles.iter().map(TileVideo::to_bytes))?;
            sots.push(sot);
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
        self.publish(&manifest)?;
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

    /// Persists a manifest atomically: the new content is written to a
    /// temporary file, fsynced, and renamed over `manifest.json`, so a
    /// crash leaves either the old or the new manifest — never a torn mix.
    /// Two barriers, both needed: the temp file's fsync orders its *bytes*
    /// before the rename (else a crash can leave `manifest.json` naming an
    /// empty file), and the rename's directory fsync is what makes a
    /// returned `Ok` mean the new manifest survives a power cut.
    pub fn save_manifest(&self, manifest: &VideoManifest) -> Result<(), StoreError> {
        let dir = self.root.join(&manifest.name);
        let tmp = dir.join(format!("manifest.json{TMP_SUFFIX}"));
        self.io.write(&tmp, &serde_json::to_vec_pretty(manifest)?)?;
        self.io.rename(&tmp, &dir.join("manifest.json"))?;
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

    /// Reads one tile of one SOT: the pack's table, then that tile's bytes
    /// and no other's.
    pub fn read_tile(
        &self,
        manifest: &VideoManifest,
        sot_idx: usize,
        tile_idx: u32,
    ) -> Result<TileVideo, StoreError> {
        let bytes = self.read_tile_range(manifest, sot_idx, tile_idx)?;
        let tile = TileVideo::from_bytes(&bytes)?;
        // The table is only believed as far as the container agrees:
        // `from_bytes` stops at the container's declared end, and the
        // table must not have claimed more for it.
        if tile.size_bytes() != bytes.len() as u64 {
            return Err(ContainerError::InvalidHeader("trailing bytes after payload").into());
        }
        Ok(tile)
    }

    /// Re-encodes one SOT under `new_layout` (the incremental policies'
    /// re-tile operation). Updates and persists the manifest.
    ///
    /// Follows the store's one commit rule, so a crash at any point leaves
    /// the video entirely in the pre- or post-retile epoch: the new tiles
    /// are written as one pack under the *next* epoch's name, which no
    /// manifest references; the pack and its name are made durable; then
    /// the manifest is atomically replaced — the **commit point**, with
    /// nothing after it to complete. An error means the re-tile did not
    /// happen: `manifest` is left as it was, the old epoch is intact, and
    /// whatever was written of the new pack is removed by the next attempt
    /// or the next recovering open.
    ///
    /// This wrapper reclaims the superseded epoch's pack immediately —
    /// correct when no reader holds the old manifest snapshot. The `Tasm`
    /// facade uses [`VideoStore::retile_deferred`] instead and GCs through
    /// its epoch refcounts.
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
    /// commit publishes the new epoch's pack and manifest while the
    /// superseded pack stays on disk, readable by any pinned pre-retile
    /// manifest snapshot. Returns the [`RetiredEpoch`] to hand to
    /// [`VideoStore::gc_epoch`] once those readers drain (`None` when the
    /// layout was unchanged and nothing committed).
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

        // Write the next epoch's pack beside (never over) the live one,
        // then commit by replacing the manifest. Cached GOPs of the old
        // epoch stay valid (cache keys carry the layout epoch) and are
        // reclaimed with the epoch by `gc_epoch`.
        let mut new_manifest = manifest.clone();
        let entry = &mut new_manifest.sots[sot_idx];
        entry.layout = new_layout;
        entry.retile_count += 1;
        entry.tile_codecs = new_tiles.iter().map(|t| t.codec.id()).collect();
        let bytes = new_tiles.iter().map(TileVideo::to_bytes);
        self.write_unpublished_pack(&manifest.name, entry, bytes)?;
        self.publish(&new_manifest)?; // ← commit point
        *manifest = new_manifest;
        Ok((
            RetileStats { decode, encode },
            Some(RetiredEpoch {
                sot_start: sot.start,
                sot_end: sot.end,
                retile_count: sot.retile_count,
            }),
        ))
    }

    /// Reclaims one SOT layout epoch the manifest does not name — retired
    /// by a re-tile, or the unpublished residue of a failed one: removes
    /// its pack (through the [`StorageIo`] shim, so the crash-point sweep
    /// covers it) and eagerly drops its decoded-GOP cache entries.
    /// Idempotent — a missing pack is success, so a crash mid-GC is
    /// resolved by simply running it again (or by startup recovery, which
    /// reaps such packs itself). Refuses to reclaim an epoch the on-disk
    /// manifest still references.
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
        let dir = self.root.join(video);
        let pack = dir.join(pack_file_name(old.sot_start, old.sot_end, old.retile_count));
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

    /// Total bytes of all tiles of a video: the sum of their container
    /// lengths, read from each pack's table (the tables themselves, 12 + 16
    /// bytes per tile, are not counted).
    pub fn video_size_bytes(&self, manifest: &VideoManifest) -> Result<u64, StoreError> {
        let mut total = 0;
        for (i, sot) in manifest.sots.iter().enumerate() {
            let (_, ranges) = self
                .open_pack(&manifest.name, sot)
                .map_err(|_| StoreError::NotFound(format!("SOT {i}")))?;
            total += ranges.iter().map(|r| r.end - r.start).sum::<u64>();
        }
        Ok(total)
    }

    /// One tile's container bytes, exactly as the encoder produced them
    /// (and checked to be one whole container) — the replication payload.
    /// Bytes are shipped verbatim so a backup's tiles end up byte-identical
    /// to the primary's; bit-exact answers then fall out of deterministic
    /// decode over identical inputs.
    pub fn tile_file_bytes(
        &self,
        manifest: &VideoManifest,
        sot_idx: usize,
        tile_idx: u32,
    ) -> Result<Vec<u8>, StoreError> {
        let bytes = self.read_tile_range(manifest, sot_idx, tile_idx)?;
        TileVideo::validate(&bytes)?;
        Ok(bytes)
    }

    /// The bytes a SOT's pack table gives one tile, from one open of the
    /// pack: the table (its length follows from the layout), then that
    /// range. Callers hold them to the container's own length.
    fn read_tile_range(
        &self,
        manifest: &VideoManifest,
        sot_idx: usize,
        tile_idx: u32,
    ) -> Result<Vec<u8>, StoreError> {
        let sot = manifest
            .sots
            .get(sot_idx)
            .ok_or_else(|| StoreError::NotFound(format!("SOT {sot_idx}")))?;
        let (pack, ranges) = self.open_pack(&manifest.name, sot)?;
        let range = ranges
            .into_iter()
            .nth(tile_idx as usize)
            .ok_or_else(|| StoreError::NotFound(format!("SOT {sot_idx} tile {tile_idx}")))?;
        Ok(read_exact_range(&pack, range)?)
    }

    /// Opens a SOT's pack and reads its table: where each of its tiles
    /// lies. A pack that does not exist is [`StoreError::NotFound`].
    fn open_pack(&self, name: &str, sot: &SotEntry) -> Result<(fs::File, TileRanges), StoreError> {
        let path = self.pack_path(name, sot);
        let pack = self.io.open(&path).map_err(|e| match e.kind() {
            io::ErrorKind::NotFound => StoreError::NotFound(path.display().to_string()),
            _ => e.into(),
        })?;
        let tiles = sot.layout.tile_count();
        let head = read_exact_range(&pack, 0..pack::table_len(tiles) as u64)?;
        Ok((pack, pack::tile_ranges(&head, tiles)?))
    }

    /// Installs a complete replicated video: one `Vec<u8>` of container
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
            cache.invalidate_video(name);
        }
        let write_all = || -> Result<(), StoreError> {
            for (sot, tiles) in manifest.sots.iter().zip(sots) {
                // Replicas preserve each SOT's `retile_count`, so the
                // backup's pack names match the primary's.
                self.write_pack(name, sot, tiles.iter())?;
            }
            self.publish(manifest)
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

    /// Installs one replicated SOT of an *existing* video, by the rule a
    /// local re-tile commits by: the tiles land as one pack under the new
    /// epoch's name, and replacing the manifest with `new_manifest` is the
    /// commit point. A crash at any step is resolved by the same startup
    /// recovery that resolves an interrupted local re-tile.
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
    ///
    /// The installed epoch must be newer than the one the store holds for
    /// that SOT: an equal or older one is refused with nothing touched,
    /// since writing it would replace, under any pinned reader, the pack
    /// the manifest on disk names.
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
        // The epoch this install supersedes, per the on-disk manifest —
        // read before the commit below rewrites it.
        let current = self.load_manifest(name)?;
        let held = current
            .sots
            .iter()
            .find(|old| old.start == sot.start && old.end == sot.end);
        if let Some(old) = held.filter(|old| old.retile_count >= sot.retile_count) {
            return Err(invalid_payload(format!(
                "SOT {}..{} of '{name}' is at layout epoch {}, refusing to install epoch {} over it",
                sot.start, sot.end, old.retile_count, sot.retile_count
            )));
        }
        self.write_unpublished_pack(name, sot, tiles.iter())?;
        self.publish(new_manifest)?; // ← commit point
        Ok(held.map(|old| RetiredEpoch {
            sot_start: old.start,
            sot_end: old.end,
            retile_count: old.retile_count,
        }))
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
            cache.invalidate_video(name);
        }
        Ok(())
    }

    /// A SOT's pack at the layout epoch its manifest entry records — the
    /// only path derivation in the store, so a pinned manifest snapshot
    /// keeps resolving to its own epoch's tiles no matter how many
    /// re-tiles commit after it.
    fn pack_path(&self, name: &str, sot: &SotEntry) -> PathBuf {
        self.root
            .join(name)
            .join(pack_file_name(sot.start, sot.end, sot.retile_count))
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

    /// [`VideoStore::write_pack`] for the epoch `sot` is *about to* be
    /// published at. A pack already under that name is the residue of an
    /// earlier attempt that failed in this process (opens clean it up, but
    /// the store may not have been reopened): it goes first, through
    /// `gc_epoch`, which refuses if the manifest on disk turns out to name
    /// it — a commit whose rename landed but reported an error.
    fn write_unpublished_pack<B: AsRef<[u8]>>(
        &self,
        name: &str,
        sot: &SotEntry,
        tiles: impl ExactSizeIterator<Item = B>,
    ) -> Result<(), StoreError> {
        if self.io.exists(&self.pack_path(name, sot)) {
            self.gc_epoch(
                name,
                RetiredEpoch {
                    sot_start: sot.start,
                    sot_end: sot.end,
                    retile_count: sot.retile_count,
                },
            )?;
        }
        self.write_pack(name, sot, tiles)
    }

    // ------------------------------------------------------------------
    // Startup recovery
    // ------------------------------------------------------------------

    /// Scans every video directory for residue of interrupted operations
    /// and removes what no manifest names. Idempotent: recovery itself can
    /// crash at any operation and the next open finishes the job. Runs only
    /// at open, before the store's own decoded-GOP cache holds anything.
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
        //    tile-store residue (packs, a manifest temp, an older build's
        //    staging directory or commit record), or a completely empty
        //    directory (an ingest that died at its first operation). A
        //    foreign directory — e.g. the store was opened at a wrong or
        //    shared path — is left strictly alone.
        let entries = self.io.list_dir(dir)?;
        let is_ours = self.io.exists(&dir.join("manifest.json"))
            || entries.is_empty()
            || entries.iter().any(|e| {
                let name = entry_name(e);
                parse_pack_name(&name).is_some()
                    || is_legacy_retile_residue(&name)
                    || name == format!("manifest.json{TMP_SUFFIX}")
            });
        if !is_ours {
            return Ok(());
        }

        for entry in &entries {
            let name = entry_name(entry);
            if name.ends_with(TMP_SUFFIX) && !self.io.is_dir(entry) {
                // 1. Interrupted atomic writes: the temp file never became
                //    visible under its final name, so it holds no committed
                //    state.
                self.io.remove_file(entry)?;
                report.actions.push(RecoveryAction::RemovedTemp {
                    video: video.to_string(),
                    file: name,
                });
            } else if is_legacy_retile_residue(&name) {
                // 2. What a re-tile of an older build left mid-protocol
                //    (see `RecoveryAction::DiscardedLegacyResidue` for why
                //    discarding it is safe on either side of its commit).
                if self.io.is_dir(entry) {
                    self.io.remove_dir_all(entry)?;
                } else {
                    self.io.remove_file(entry)?;
                }
                report.actions.push(RecoveryAction::DiscardedLegacyResidue {
                    video: video.to_string(),
                    entry: name,
                });
            }
        }

        // 3. Packs at epochs the manifest does not name: a pack whose range
        //    the manifest covers at a *different* retile count is a retired
        //    epoch whose GC was interrupted (or deferred and never run — no
        //    process survived to hold a pin on it), or the epoch a re-tile
        //    wrote and died before publishing. Reclaim it so the crash
        //    lands in exactly one epoch set. Ranges the manifest does not
        //    cover at all are left for fsck to flag.
        if let Ok(bytes) = self.io.read(&dir.join("manifest.json")) {
            if let Ok(manifest) = serde_json::from_slice::<VideoManifest>(&bytes) {
                for entry in &entries {
                    let Some((start, end, rc)) = parse_pack_name(&entry_name(entry)) else {
                        continue;
                    };
                    let unreferenced = manifest
                        .sots
                        .iter()
                        .any(|s| s.start == start && s.end == end && s.retile_count != rc);
                    if unreferenced && !self.io.is_dir(entry) {
                        self.io.remove_file(entry)?;
                        report.actions.push(RecoveryAction::ReclaimedEpoch {
                            video: video.to_string(),
                            sot_start: start,
                            sot_end: end,
                            epoch: rc,
                        });
                    }
                }
            }
        }

        // 4. No manifest: an ingest crashed before its publish point — the
        //    video never existed.
        if !self.io.exists(&dir.join("manifest.json")) {
            self.io.remove_dir_all(dir)?;
            report.actions.push(RecoveryAction::RemovedPartialVideo {
                video: video.to_string(),
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // fsck
    // ------------------------------------------------------------------

    /// Validates every video in the store: manifest readable, SOT chain
    /// contiguous, every SOT's pack present with a sound table and, for
    /// each tile in it, a container header that matches the manifest
    /// (dimensions, GOP length, frame count, exact length), and no
    /// unaccounted files. Read-only.
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

    /// fsck's one read of a SOT's pack: its bytes and where its `tiles`
    /// tiles lie in them, the last one ending with the file. `Ok(None)` when
    /// there is no such pack, `Err` with what is wrong with one there is.
    fn read_whole_pack(
        &self,
        path: &Path,
        tiles: u32,
    ) -> Result<Option<(Vec<u8>, TileRanges)>, String> {
        let pack = match self.io.read(path) {
            Ok(pack) => pack,
            Err(_) if !self.io.exists(path) => return Ok(None),
            // A pack that exists but cannot be read (EACCES, EIO from a
            // dying disk) is damage, not absence.
            Err(e) => return Err(format!("unreadable: {e}")),
        };
        let ranges = pack::tile_ranges(&pack, tiles).map_err(|e| e.to_string())?;
        let end = ranges
            .last()
            .map_or(pack::table_len(tiles) as u64, |r| r.end);
        if end != pack.len() as u64 {
            return Err(format!(
                "pack table ends the last tile at {end}, the file is {} bytes",
                pack.len()
            ));
        }
        Ok(Some((pack, ranges)))
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

        // Packs vs manifest, container headers included: one read per SOT.
        for sot in &manifest.sots {
            let tiles = sot.layout.tile_count();
            let path = self.pack_path(video, sot);
            let (pack, ranges) = match self.read_whole_pack(&path, tiles) {
                Ok(Some(read)) => read,
                Ok(None) => {
                    report
                        .issues
                        .extend((0..tiles).map(|tile| FsckIssue::MissingTile {
                            video: video.to_string(),
                            sot_start: sot.start,
                            tile,
                        }));
                    continue;
                }
                Err(detail) => {
                    report.issues.push(FsckIssue::PackCorrupt {
                        video: video.to_string(),
                        sot_start: sot.start,
                        detail,
                    });
                    continue;
                }
            };
            for (t, r) in (0..tiles).zip(ranges) {
                // In bounds: the ranges are contiguous and end at the
                // pack's length.
                match TileVideo::validate(&pack[r.start as usize..r.end as usize]) {
                    Ok(header) => {
                        report.tiles_checked += 1;
                        let found = slot_mismatches(&header, sot, t, manifest.config.gop_len);
                        report.issues.extend(found.into_iter().map(|detail| {
                            FsckIssue::TileMismatch {
                                video: video.to_string(),
                                sot_start: sot.start,
                                tile: t,
                                detail,
                            }
                        }));
                    }
                    Err(e) => report.issues.push(FsckIssue::TileCorrupt {
                        video: video.to_string(),
                        sot_start: sot.start,
                        tile: t,
                        detail: e.to_string(),
                    }),
                }
            }
        }

        // Unaccounted entries in the video directory: anything other than
        // the manifest, allow-listed extras, and the manifest's packs.
        if let Ok(entries) = self.io.list_dir(&dir) {
            for entry in entries {
                let name = entry_name(&entry);
                let known_pack = manifest
                    .sots
                    .iter()
                    .any(|s| name == pack_file_name(s.start, s.end, s.retile_count));
                if name == "manifest.json" || allowed_extras.contains(&name.as_str()) || known_pack
                {
                    continue;
                }
                // When recovery was deferred (another live handle holds the
                // store lock), a temp file or a pack of a manifest range at
                // another epoch is plausibly that handle's: a manifest
                // being replaced, an epoch a re-tile has written and not
                // yet published, or a retired epoch its readers still pin.
                // A concurrent fsck must not call a healthy live store
                // dirty.
                let live_state = self.recovery.deferred
                    && (name.ends_with(TMP_SUFFIX)
                        || parse_pack_name(&name).is_some_and(|(s, e, _)| {
                            manifest.sots.iter().any(|x| x.start == s && x.end == e)
                        }));
                if live_state {
                    continue;
                }
                let video = video.to_string();
                report
                    .issues
                    .push(if is_legacy_sot_dir_name(&name) && self.io.is_dir(&entry) {
                        FsckIssue::LegacySotDirectory { video, path: name }
                    } else {
                        FsckIssue::Stray { video, path: name }
                    });
            }
        }
    }
}

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
/// with the slot the manifest gives it — what `fsck` asks of a tile. The
/// pack is then assembled from these very bytes, so it needs no check of
/// its own.
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

/// Final path component as an owned string (empty for pathological paths).
fn entry_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{self, TileDecodeRequest};
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
        let requests = [0, 3].map(|tile| TileDecodeRequest {
            sot_idx: 0,
            tile,
            local_span: 2..6,
        });
        let (tiles, stats, _, _) = exec::execute(&store, &m, &requests).unwrap();
        assert_eq!(tiles.len(), 2);
        assert_eq!(tiles[0].frames.len(), 4);
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
        let requests = [0, 1, 2, 3].map(|tile| TileDecodeRequest {
            sot_idx: 0,
            tile,
            local_span: 0..10,
        });
        let (tiles, _, _, _) = exec::execute(&store, &m, &requests).unwrap();
        let mut composite = Frame::black(64, 64);
        for t in &tiles {
            let rect = new_layout.tile_rect_by_index(t.tile);
            composite.blit(&t.frames[3], t.frames[3].rect(), rect.x, rect.y);
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
