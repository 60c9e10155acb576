//! The TASM storage manager facade.
//!
//! [`Tasm`] ties the pieces together: the on-disk tile store, the semantic
//! index, the cost model, and the per-video MVCC epoch tables. It exposes
//! the paper's API surface — `AddMetadata` (§3.1), `Scan` (§3.1) — and the
//! one SOT commit step re-tiles and replicated SOTs go through. The layout
//! optimization entry points of §4 (KQKO, incremental-more, regret-based)
//! and their state are the `impl Tasm` block of the crate-private `policy`
//! module.
//!
//! ## Concurrency model: MVCC layout epochs
//!
//! `Tasm` is `Sync`: every operation, including [`Tasm::scan`], takes
//! `&self`, so one instance (behind an `Arc`) serves many threads at once —
//! the shape `tasm-service` builds its worker pool on. Internally the
//! per-video state is sharded so queries on different videos never contend
//! on it, and no lock is ever held across decode:
//!
//! * the **semantic index** sits behind one `Mutex` (the trait's methods
//!   take `&mut self`, so every index operation is exclusive) and is
//!   only held for the duration of a lookup or insert — never across
//!   decode work, so index contention is bounded by the cheap lookup
//!   phase;
//! * each registered video has a per-video shard holding its **epoch
//!   table** (immutable manifest snapshots, reference-counted per layout
//!   epoch), a **commit mutex** serializing writers, and its **policy
//!   state** (query history, regret counters, seen objects) behind a
//!   `Mutex`.
//!
//! Layout epochs are first-class MVCC versions. A scan *pins* its epoch at
//! plan time — an [`EpochPin`] holding an `Arc` of that epoch's manifest
//! snapshot and a reference count in the table — and reads it to
//! completion; the epoch-stamped SOT packs on disk and the layout
//! epoch in decoded-GOP cache keys guarantee the pinned snapshot resolves
//! only its own epoch's bytes. A re-tile commits the *next* epoch (a fresh
//! pack, then the manifest) and publishes it to the table
//! immediately — it synchronizes with other writers on the commit mutex
//! but **never waits on readers**. A superseded epoch is garbage-collected
//! (its packs and decoded-GOP cache entries) only when its last
//! pin drops; [`Query::as_of`] can name any still-live epoch. Every reader
//! therefore observes exactly one layout epoch — never a torn mix of tile
//! files — and retile-commit latency is independent of in-flight scan
//! duration.
//!
//! **Lock order** (outer to inner): videos map → per-video policy →
//! per-video commit mutex → per-video epoch table → semantic index. The
//! index lock is terminal: no code path acquires any other lock while
//! holding it. Readers touch only the epoch table (briefly, to pin) and
//! the index (briefly, to look up) — neither is held across decode.

use crate::cost::Work;
use crate::partition::PartitionConfig;
use crate::policy::PolicyState;
use crate::query::{query_prepared, Query, QueryPlan};
use crate::scan::{LabelPredicate, ScanError, ScanResult};
use crate::storage::{PackId, RetileStats, StorageConfig, StoreError, VideoManifest, VideoStore};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Instant;
use tasm_codec::{TileLayout, TileVideo};
use tasm_index::{SemanticIndex, TreeError};
use tasm_obs::sync;
use tasm_video::{FrameSource, Rect};

/// Configuration of the storage manager's policies.
#[derive(Debug, Clone)]
pub struct TasmConfig {
    /// Regret threshold η (§4.4): re-tile once accumulated regret exceeds
    /// `η · R(s, L)`. Paper value: 1.0.
    pub eta: f64,
    /// Layout generation parameters (granularity, minimum tile dims).
    pub partition: PartitionConfig,
    /// Encoding parameters for stored videos.
    pub storage: StorageConfig,
    /// Worker threads for the parallel tile-decode pipeline. `0` = one per
    /// available core. `1` reproduces the old strictly serial execution
    /// (bit-identical results either way).
    pub workers: usize,
    /// Byte budget of the decoded-GOP cache shared by every scan through
    /// this instance. `0` disables caching; repeated queries over the same
    /// GOPs then re-decode from disk.
    pub cache_bytes: u64,
    /// Memtable entry limit of the tiered semantic index opened by
    /// [`Tasm::open_tiered`] — `None` keeps the tier's default. Small
    /// values force frequent run flushes and compactions (tests, smoke
    /// jobs); ignored for indexes supplied directly to [`Tasm::open`].
    pub index_memtable_limit: Option<usize>,
}

impl Default for TasmConfig {
    fn default() -> Self {
        TasmConfig {
            eta: 1.0,
            partition: PartitionConfig::default(),
            storage: StorageConfig::default(),
            workers: 0,
            cache_bytes: 256 << 20,
            index_memtable_limit: None,
        }
    }
}

/// Errors from the facade.
#[derive(Debug)]
pub enum TasmError {
    /// Storage layer failure.
    Store(StoreError),
    /// Semantic index failure.
    Index(TreeError),
    /// Scan failure.
    Scan(ScanError),
    /// Unknown video name.
    UnknownVideo(String),
    /// A video the store holds (named) whose manifest does not load (why):
    /// what fsck reports as [`crate::FsckIssue::ManifestUnreadable`].
    ManifestUnreadable(String, StoreError),
    /// An `AS OF` query (or explicit pin) named a layout epoch that is
    /// neither the video's current epoch nor a retired epoch still held
    /// live by a pinned reader.
    EpochNotLive {
        /// The video queried.
        video: String,
        /// The epoch the query asked for.
        requested: u64,
        /// The video's current layout epoch.
        current: u64,
    },
    /// Two distinct video names hash to the same 32-bit id. Registering the
    /// second would silently alias its detections with the first in the
    /// shared semantic index, so the registration is refused instead.
    VideoIdCollision {
        /// The already-registered name owning the id.
        existing: String,
        /// The name whose registration was refused.
        rejected: String,
    },
    /// An ingest under a name the store already holds.
    AlreadyStored(String),
}

impl std::fmt::Display for TasmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TasmError::Store(e) => write!(f, "{e}"),
            TasmError::Index(e) => write!(f, "{e}"),
            TasmError::Scan(e) => write!(f, "{e}"),
            TasmError::UnknownVideo(name) => write!(f, "unknown video '{name}'"),
            TasmError::ManifestUnreadable(video, e) => {
                write!(f, "video '{video}': manifest unreadable: {e}")
            }
            TasmError::EpochNotLive {
                video,
                requested,
                current,
            } => write!(
                f,
                "epoch {requested} of video '{video}' is not live \
                 (current epoch is {current})"
            ),
            TasmError::VideoIdCollision { existing, rejected } => write!(
                f,
                "video id collision: '{rejected}' hashes to the same id as \
                 registered video '{existing}'; rename one of them"
            ),
            TasmError::AlreadyStored(name) => write!(f, "video '{name}' is already in the store"),
        }
    }
}

impl std::error::Error for TasmError {}

impl From<StoreError> for TasmError {
    fn from(e: StoreError) -> Self {
        TasmError::Store(e)
    }
}

impl From<TreeError> for TasmError {
    fn from(e: TreeError) -> Self {
        TasmError::Index(e)
    }
}

impl From<ScanError> for TasmError {
    fn from(e: ScanError) -> Self {
        TasmError::Scan(e)
    }
}

/// One live layout epoch of a video: an immutable manifest snapshot plus
/// the number of readers currently pinned to it.
struct EpochEntry {
    manifest: Arc<VideoManifest>,
    readers: u64,
}

/// The MVCC version table of one video: every layout epoch still readable
/// — the current epoch plus any retired epoch a reader has pinned — and
/// the set of on-disk SOT packs not yet garbage-collected.
struct EpochTable {
    /// The epoch new pins default to ([`VideoManifest::epoch`] of the
    /// latest committed manifest).
    current: u64,
    /// Live epochs by number. The current epoch is always present; retired
    /// epochs stay exactly until their reader count drains to zero.
    live: BTreeMap<u64, EpochEntry>,
    /// Every SOT pack on disk that this table owes a GC decision for. A
    /// pack leaves the set (and is reclaimed) once no live epoch's
    /// manifest names it.
    tracked: BTreeSet<PackId>,
}

impl EpochTable {
    fn new(manifest: Arc<VideoManifest>) -> Self {
        let mut table = EpochTable {
            current: manifest.epoch(),
            live: BTreeMap::new(),
            tracked: BTreeSet::new(),
        };
        table.publish(manifest);
        table
    }

    /// Drops retired epochs with no readers from the live set and returns
    /// the tracked packs no remaining live epoch references — the GC
    /// work list. The current epoch never retires here, so a video
    /// installed again under the same name can never have its fresh packs
    /// reclaimed by a stale pin's drop.
    fn sweep(&mut self) -> Vec<PackId> {
        let current = self.current;
        self.live
            .retain(|&epoch, entry| epoch == current || entry.readers > 0);
        let referenced: BTreeSet<PackId> = self
            .live
            .values()
            .flat_map(|e| e.manifest.packs())
            .collect();
        let dead: Vec<PackId> = self.tracked.difference(&referenced).copied().collect();
        for d in &dead {
            self.tracked.remove(d);
        }
        dead
    }

    /// Installs a freshly committed manifest as the current epoch and
    /// sweeps. The superseded epoch stays live while pinned; otherwise its
    /// now-unreferenced packs come back as the GC work list.
    fn publish(&mut self, manifest: Arc<VideoManifest>) -> Vec<PackId> {
        let epoch = manifest.epoch();
        self.tracked.extend(manifest.packs());
        self.current = epoch;
        self.live
            .entry(epoch)
            .and_modify(|e| e.manifest = manifest.clone())
            .or_insert(EpochEntry {
                manifest,
                readers: 0,
            });
        self.sweep()
    }
}

/// Per-video registration: the shard queries on this video synchronize on.
pub(crate) struct VideoShard {
    pub(crate) id: u32,
    /// The video's MVCC epoch table. Held only for pin/unpin/publish
    /// bookkeeping — never across decode or tile I/O. Taken as is on
    /// poison: its sections count readers and make single map operations.
    epochs: Mutex<EpochTable>,
    /// Signalled whenever a pin drops; [`Tasm::remove_video`] and
    /// [`Tasm::apply_replicated_video`] wait here until every reader of
    /// every epoch has drained (total refcount zero) before destroying
    /// epochs in place.
    drained: Condvar,
    /// Serializes writers (re-tile and replicated-SOT commits) against
    /// each other. Readers never touch it — a commit's latency is bounded
    /// by its own I/O, not by in-flight scans. Guards no data, so it is
    /// taken as is on poison: a commit that panicked left at most an
    /// unpublished pack, which the next commit replaces.
    commit: Mutex<()>,
    /// The layout policy's state (`policy.rs`). Soft state, reset on
    /// poison (see [`VideoShard::policy`]).
    policy: Mutex<PolicyState>,
}

impl VideoShard {
    /// The policy state. A panic under it may have left regret half
    /// accumulated, so on poison it starts over as a restart would have it.
    pub(crate) fn policy(&self) -> std::sync::MutexGuard<'_, PolicyState> {
        sync::lock_or_reset(&self.policy, PolicyState::reset)
    }

    /// The current epoch's manifest snapshot (cheap: one lock, one `Arc`
    /// clone).
    pub(crate) fn current_manifest(&self) -> Arc<VideoManifest> {
        let table = sync::lock(&self.epochs);
        table.live[&table.current].manifest.clone()
    }

    /// The epoch table once every pinned reader of every epoch has dropped
    /// — what a writer that destroys epochs in place waits for.
    fn drain(&self) -> std::sync::MutexGuard<'_, EpochTable> {
        let mut table = sync::lock(&self.epochs);
        while table.live.values().any(|e| e.readers > 0) {
            table = sync::wait(&self.drained, table);
        }
        table
    }

    /// Publishes a committed manifest as the current epoch and reclaims,
    /// outside the table lock, the packs no live epoch names any more.
    fn publish(&self, store: &VideoStore, manifest: VideoManifest) {
        let manifest = Arc::new(manifest);
        let gc = sync::lock(&self.epochs).publish(manifest.clone());
        reclaim(store, &manifest.name, gc);
    }
}

/// Best-effort GC: `gc_epoch` is idempotent, and recovery reaps leftovers.
fn reclaim(store: &VideoStore, video: &str, gc: Vec<PackId>) {
    for old in gc {
        let _ = store.gc_epoch(video, old);
    }
}

/// A pinned layout epoch: holds one reference count on the epoch in its
/// video's table, keeping the epoch's manifest snapshot, packs,
/// and decoded-GOP cache entries alive until dropped. Obtained from
/// [`Tasm::pin_epoch`] (queries pin internally). Dropping the pin releases
/// the count; if it was the epoch's last reader and the epoch is no longer
/// current, the epoch's now-unreferenced packs are
/// garbage-collected on the spot.
pub struct EpochPin {
    shard: Arc<VideoShard>,
    store: Arc<VideoStore>,
    epoch: u64,
    manifest: Arc<VideoManifest>,
}

impl EpochPin {
    /// The pinned layout epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The pinned epoch's manifest snapshot.
    pub fn manifest(&self) -> &VideoManifest {
        &self.manifest
    }
}

/// What [`Tasm::lookup`] found: the boxes per frame of the clamped
/// `frames` at the pinned epoch, and how long the index took.
pub(crate) struct Lookup {
    pub pin: EpochPin,
    pub regions: BTreeMap<u32, Vec<Rect>>,
    pub frames: Range<u32>,
    pub time: std::time::Duration,
}

/// The live-reader gauge, incremented by every epoch pin and decremented
/// on its drop.
fn epoch_pins_gauge() -> std::sync::Arc<tasm_obs::Gauge> {
    tasm_obs::gauge(
        "tasm_epoch_pins_live",
        "Layout-epoch pins currently held by in-flight scans and explicit pin_epoch callers.",
    )
}

impl Drop for EpochPin {
    fn drop(&mut self) {
        epoch_pins_gauge().dec();
        let gc = {
            let mut table = sync::lock(&self.shard.epochs);
            if let Some(entry) = table.live.get_mut(&self.epoch) {
                entry.readers -= 1;
            }
            let gc = table.sweep();
            // Wake drain waiters (remove/replace) on every release; they
            // re-check the total count themselves.
            self.shard.drained.notify_all();
            gc
        };
        // GC outside the table lock.
        reclaim(&self.store, &self.manifest.name, gc);
    }
}

/// Raw tile-file bytes for one video, as shipped by replication:
/// `bytes[sot][tile]` is that tile's container bytes, verbatim.
pub type SotTileBytes = Vec<Vec<Vec<u8>>>;

/// One shipped SOT of a replication delta: its index and its tiles' bytes.
pub type ShippedSot = (usize, Vec<Vec<u8>>);

/// The storage manager.
pub struct Tasm {
    /// Shared with every [`EpochPin`], whose drop may run epoch GC.
    store: Arc<VideoStore>,
    /// Taken as is on poison: each section is one call into the index, and
    /// an index must be valid wherever that call can stop — a panic inside
    /// it leaves what an error returned at the same point would.
    index: Mutex<Box<dyn SemanticIndex + Send + Sync>>,
    cfg: TasmConfig,
    /// Taken as is on poison: its sections are one lookup, insert or
    /// remove, or a scan that only reads.
    videos: RwLock<BTreeMap<String, Arc<VideoShard>>>,
}

/// Stable video id: FNV-1a of the name. Ids must survive process restarts
/// because the persistent semantic index keys detections by id. Collisions
/// between registered names are detected at `ingest`/`attach` and refused
/// ([`TasmError::VideoIdCollision`]).
pub(crate) fn video_id_for(name: &str) -> u32 {
    name.bytes().fold(0x811c9dc5u32, |acc, b| {
        (acc ^ b as u32).wrapping_mul(0x01000193)
    })
}

/// Refuses registering `name` when its FNV-1a id aliases a different video
/// in `videos`: the shared semantic index keys detections by id, so a
/// collision would silently merge two videos' metadata.
fn id_collision(
    videos: &BTreeMap<String, Arc<VideoShard>>,
    name: &str,
    id: u32,
) -> Result<(), TasmError> {
    match videos.iter().find(|(n, s)| s.id == id && *n != name) {
        Some((existing, _)) => Err(TasmError::VideoIdCollision {
            existing: existing.clone(),
            rejected: name.to_string(),
        }),
        None => Ok(()),
    }
}

impl Tasm {
    /// Opens a storage manager rooted at `root` with the given index.
    ///
    /// Startup recovery runs before this returns: what interrupted re-tiles
    /// left unpublished and half-ingested videos are removed, so every
    /// video observable through this instance is wholly in one layout
    /// epoch. [`Tasm::recovery_report`] lists what was repaired.
    pub fn open(
        root: impl Into<PathBuf>,
        index: Box<dyn SemanticIndex + Send + Sync>,
        cfg: TasmConfig,
    ) -> Result<Self, TasmError> {
        Self::open_with_io(root, index, cfg, Arc::new(crate::durable::RealIo))
    }

    /// [`Tasm::open`] with an explicit [`crate::durable::StorageIo`]
    /// implementation — the hook the crash-injection tests use to fail,
    /// tear, or halt storage at a chosen operation.
    pub fn open_with_io(
        root: impl Into<PathBuf>,
        index: Box<dyn SemanticIndex + Send + Sync>,
        cfg: TasmConfig,
        io: Arc<dyn crate::durable::StorageIo>,
    ) -> Result<Self, TasmError> {
        Ok(Tasm {
            store: Arc::new(VideoStore::open_with_io(
                root,
                cfg.workers,
                cfg.cache_bytes,
                io,
            )?),
            index: Mutex::new(index),
            cfg,
            videos: RwLock::new(BTreeMap::new()),
        })
    }

    /// Opens a storage manager whose semantic index is the disk-resident
    /// tiered index ([`tasm_index::TieredIndex`]) at `index_dir`, with both
    /// the store and the index writing through production I/O.
    pub fn open_tiered(
        root: impl Into<PathBuf>,
        index_dir: &Path,
        cfg: TasmConfig,
    ) -> Result<Self, TasmError> {
        let mut tier = tasm_index::TieredIndex::open(index_dir)?;
        if let Some(limit) = cfg.index_memtable_limit {
            tier.set_memtable_limit(limit);
        }
        Self::open(root, Box::new(tier), cfg)
    }

    /// What startup recovery repaired when this instance opened its store.
    pub fn recovery_report(&self) -> &crate::RecoveryReport {
        self.store.recovery_report()
    }

    /// Validates every stored video's manifest against its on-disk tile
    /// files and container headers (see [`VideoStore::fsck`]). Read-only.
    pub fn fsck(&self) -> Result<crate::FsckReport, TasmError> {
        Ok(self.store.fsck(&[])?)
    }

    /// The active configuration.
    pub fn config(&self) -> &TasmConfig {
        &self.cfg
    }

    /// Access to the underlying store (harness instrumentation).
    pub fn store(&self) -> &VideoStore {
        self.store.as_ref()
    }

    /// Runs `f` with the semantic index locked. The index lock is terminal
    /// in the facade's lock order: `f` must not call back into `Tasm`.
    pub fn with_index<R>(&self, f: impl FnOnce(&mut dyn SemanticIndex) -> R) -> R {
        f(sync::lock(&self.index).as_mut())
    }

    /// Ingests a video untiled (`ω` for every SOT) — the starting point of
    /// the lazy and incremental strategies.
    pub fn ingest(&self, name: &str, src: &dyn FrameSource, fps: u32) -> Result<u32, TasmError> {
        let (w, h) = (src.width(), src.height());
        self.ingest_with(name, src, fps, move |_, _| TileLayout::untiled(w, h))
    }

    /// Ingests a video with per-SOT initial layouts (eager and edge
    /// strategies supply object layouts here).
    ///
    /// A name the store holds is refused before anything is encoded
    /// ([`TasmError::AlreadyStored`]): the index keys detections by the
    /// name, so a second video under it would inherit the first's. To
    /// replace a video, [`Tasm::remove_video`] it first.
    pub fn ingest_with(
        &self,
        name: &str,
        src: &dyn FrameSource,
        fps: u32,
        layout_for: impl FnMut(usize, Range<u32>) -> TileLayout,
    ) -> Result<u32, TasmError> {
        if self.has_stored_video(name) {
            return Err(TasmError::AlreadyStored(name.to_string()));
        }
        let id = video_id_for(name);
        // Check before paying for the encode; re-checked under the write
        // lock at registration.
        id_collision(&sync::read(&self.videos), name, id)?;
        let (manifest, _) = self
            .store
            .ingest(name, src, fps, self.cfg.storage, layout_for)?;
        self.register(name, id, manifest)
    }

    /// Attaches a video already present in the store (e.g. after a process
    /// restart): loads its manifest from disk without re-encoding anything.
    /// Tile layouts, the semantic index, and on-disk files are all reused;
    /// only in-memory policy state (regret, query history) starts fresh.
    ///
    /// Startup recovery already ran when this instance opened the store,
    /// so the manifest loaded here reflects a single consistent layout
    /// epoch even if the previous process died mid-re-tile
    /// ([`Tasm::recovery_report`] says which way interrupted re-tiles were
    /// resolved).
    pub fn attach(&self, name: &str) -> Result<u32, TasmError> {
        let id = video_id_for(name);
        id_collision(&sync::read(&self.videos), name, id)?;
        let manifest = self.store.load_manifest(name)?;
        self.register(name, id, manifest)
    }

    fn register(&self, name: &str, id: u32, manifest: VideoManifest) -> Result<u32, TasmError> {
        let n_sots = manifest.sots.len();
        let mut videos = sync::write(&self.videos);
        // Again under the write lock: another registration may have won.
        id_collision(&videos, name, id)?;
        videos.insert(
            name.to_string(),
            Arc::new(VideoShard {
                id,
                epochs: Mutex::new(EpochTable::new(Arc::new(manifest))),
                drained: Condvar::new(),
                commit: Mutex::new(()),
                policy: Mutex::new(PolicyState::new(n_sots)),
            }),
        );
        Ok(id)
    }

    /// The numeric id assigned to a video at ingest.
    pub fn video_id(&self, name: &str) -> Result<u32, TasmError> {
        Ok(self.shard(name)?.id)
    }

    /// A point-in-time snapshot of a video's manifest (the current epoch's).
    pub fn manifest(&self, name: &str) -> Result<VideoManifest, TasmError> {
        Ok((*self.shard(name)?.current_manifest()).clone())
    }

    /// The video's current layout epoch ([`VideoManifest::epoch`]) — what a
    /// new query pins, and the watermark replication ships.
    pub fn current_epoch(&self, name: &str) -> Result<u64, TasmError> {
        Ok(sync::lock(&self.shard(name)?.epochs).current)
    }

    /// Every layout epoch of the video that is still live — the current
    /// epoch plus any retired epoch held by a pinned reader, ascending.
    /// A live epoch is exactly one [`Query::as_of`] can name.
    pub fn live_epochs(&self, name: &str) -> Result<Vec<u64>, TasmError> {
        Ok(sync::lock(&self.shard(name)?.epochs)
            .live
            .keys()
            .copied()
            .collect())
    }

    /// Total on-disk size of a video's tiles (current epoch).
    pub fn video_size_bytes(&self, name: &str) -> Result<u64, TasmError> {
        let manifest = self.shard(name)?.current_manifest();
        Ok(self.store.video_size_bytes(&manifest)?)
    }

    /// Names of every registered video.
    pub fn video_names(&self) -> Vec<String> {
        sync::read(&self.videos).keys().cloned().collect()
    }

    /// A single-epoch replication snapshot of one video: its manifest plus
    /// the container bytes of every tile (outer index = SOT index), read
    /// under one epoch pin so a concurrent re-tile cannot tear the snapshot
    /// across layout epochs — and no longer has to wait for the snapshot
    /// either. Each SOT's pack is opened once, and every tile is held to
    /// its slot as a backup's install will hold it, so a tile it would
    /// refuse is [`StoreError::TileMismatch`] here. The epoch watermark
    /// ships unchanged as the manifest's [`VideoManifest::epoch`].
    pub fn replication_snapshot(
        &self,
        name: &str,
    ) -> Result<(VideoManifest, SotTileBytes), TasmError> {
        let (manifest, sots) = self.replication_delta(name, |_, _| true)?;
        Ok((manifest, sots.into_iter().map(|(_, tiles)| tiles).collect()))
    }

    /// [`Tasm::replication_snapshot`] of only the SOTs `ship` picks (given
    /// the pinned manifest and a SOT index), each beside its index: what a
    /// retile-commit delta ships. The packs of the SOTs it skips are not
    /// opened.
    pub fn replication_delta(
        &self,
        name: &str,
        ship: impl Fn(&VideoManifest, usize) -> bool,
    ) -> Result<(VideoManifest, Vec<ShippedSot>), TasmError> {
        let shard = self.shard(name)?;
        let pin = self.pin_shard(name, &shard, None)?;
        let manifest = pin.manifest();
        let sots = (0..manifest.sots.len())
            .filter(|&i| ship(manifest, i))
            .map(|i| {
                let tiles = self.store.read_sot(manifest, i, |pack, t| {
                    pack.tile(t).map(TileVideo::into_bytes)
                })?;
                Ok((i, tiles))
            })
            .collect::<Result<_, StoreError>>()?;
        Ok((manifest.clone(), sots))
    }

    /// Installs a replicated video wholesale (a backup receiving a full
    /// sync, or a rebalance copy landing on its target). Registers the
    /// video if new; otherwise this is the one writer that cannot preserve
    /// old epochs — the directory is rewritten in place — so it drains by
    /// refcount: it waits until every pinned reader of every epoch drops,
    /// then installs and resets the epoch table.
    pub fn apply_replicated_video(
        &self,
        manifest: VideoManifest,
        sots: &[Vec<Vec<u8>>],
    ) -> Result<u32, TasmError> {
        let name = manifest.name.clone();
        let id = video_id_for(&name);
        id_collision(&sync::read(&self.videos), &name, id)?;
        let existing = sync::read(&self.videos).get(&name).cloned();
        match existing {
            Some(shard) => {
                // Policy before commit before epochs, per the facade's lock
                // order. The policy state described the old layout — reset.
                let mut policy = shard.policy();
                let _commit = sync::lock(&shard.commit);
                let mut table = shard.drain();
                self.store.install_video(&manifest, sots)?;
                *policy = PolicyState::new(manifest.sots.len());
                *table = EpochTable::new(Arc::new(manifest));
                Ok(shard.id)
            }
            None => {
                self.store.install_video(&manifest, sots)?;
                self.register(&name, id, manifest)
            }
        }
    }

    /// Applies one replicated SOT commit: installs SOT `sot_idx` of
    /// `record`, the primary's manifest after that commit, with `tiles` its
    /// raw tile-file bytes, over this node's current manifest, by the one
    /// commit step a local re-tile takes (`VideoStore::install_sot_on`
    /// says what the rest of `record` must agree with; it is never
    /// adopted). Idempotent: a record for a layout epoch the node already
    /// holds for that SOT, or an older one, is skipped. Returns whether it
    /// applied.
    pub fn apply_replicated_sot(
        &self,
        record: VideoManifest,
        sot_idx: usize,
        tiles: &[Vec<u8>],
    ) -> Result<bool, TasmError> {
        let shard = self.shard(&record.name)?;
        let mut pol = shard.policy();
        self.commit_sot(&shard, &mut pol, sot_idx, |base| {
            let installed = self.store.install_sot_on(base, &record, sot_idx, tiles)?;
            Ok(installed.map(|(next, _)| next))
        })
    }

    /// Removes a video (the rebalance GC step): unregisters it, then
    /// drains by refcount — waits until the last pinned reader of any
    /// epoch drops (no new pins can start: the shard is unregistered) —
    /// and deletes its files, retired epochs' packs included.
    pub fn remove_video(&self, name: &str) -> Result<(), TasmError> {
        let shard = sync::write(&self.videos).remove(name);
        let Some(shard) = shard else {
            return Err(TasmError::Store(StoreError::NotFound(format!(
                "video '{name}'"
            ))));
        };
        drop(shard.drain());
        self.store.remove_video(name)?;
        Ok(())
    }

    /// `AddMetadata(video, frame, label, bbox)` (§3.1): records a detection
    /// produced during query processing or ingest.
    pub fn add_metadata(
        &self,
        name: &str,
        label: &str,
        frame: u32,
        bbox: Rect,
    ) -> Result<(), TasmError> {
        let id = self.video_id(name)?;
        self.with_index(|ix| ix.add_metadata(id, label, frame, bbox))?;
        Ok(())
    }

    /// Marks a frame as processed by a detector (lazy strategies need to
    /// distinguish "no objects" from "not analyzed", §4.3).
    pub fn mark_processed(&self, name: &str, frame: u32) -> Result<(), TasmError> {
        let id = self.video_id(name)?;
        self.with_index(|ix| ix.mark_processed(id, frame))?;
        Ok(())
    }

    /// Number of frames in `frames` already processed by a detector.
    pub fn processed_count(&self, name: &str, frames: Range<u32>) -> Result<u32, TasmError> {
        let id = self.video_id(name)?;
        Ok(self.with_index(|ix| ix.processed_count(id, frames))?)
    }

    /// `Scan(video, L, T)` (§3.1): retrieves the pixels satisfying the
    /// predicate, decoding only the necessary tiles. It is the label-only
    /// [`Tasm::query`] of the window `frames`, so it reads what that query
    /// reads, pins its epoch the same way ([`ScanResult::epoch`] says
    /// which), and reports its plan.
    pub fn scan(
        &self,
        name: &str,
        predicate: &LabelPredicate,
        frames: Range<u32>,
    ) -> Result<ScanResult, TasmError> {
        self.query(name, &Query::new(predicate.clone()).frames(frames))
    }

    /// The lookup half of [`Tasm::query`] and [`Tasm::price`]: pins
    /// `name`'s layout epoch (`as_of`, or the current one), clamps `frames`
    /// to the video, and resolves `predicate` in the semantic index, whose
    /// lock is released before the caller decodes anything.
    fn lookup(
        &self,
        name: &str,
        predicate: &LabelPredicate,
        frames: Range<u32>,
        as_of: Option<u64>,
    ) -> Result<Lookup, TasmError> {
        let shard = self.shard(name)?;
        let pin = self.pin_shard(name, &shard, as_of)?;
        let frames = frames.start..frames.end.min(pin.manifest().frame_count);
        let t0 = Instant::now();
        let regions = self
            .with_index(|ix| predicate.target_regions(ix, shard.id, frames.clone()))
            .map_err(|e| TasmError::Scan(ScanError::Index(e)))?;
        Ok(Lookup {
            pin,
            regions,
            frames,
            time: t0.elapsed(),
        })
    }

    /// Executes a spatiotemporal [`Query`]: a label predicate optionally
    /// narrowed by a region of interest, a sampling stride, a
    /// first-k-matching-frames limit, and an aggregate mode (see
    /// [`crate::query`] for planner semantics).
    ///
    /// The planner prunes the decode plan against the semantic index before
    /// any byte is read — tiles whose boxes miss the ROI, GOPs outside the
    /// stride, and GOPs past a satisfied limit are never decoded
    /// ([`ScanResult::plan`] reports what was cut) — while the returned
    /// regions stay bit-identical to running the unpruned [`Tasm::scan`]
    /// and filtering its output post-hoc.
    ///
    /// Takes `&self`: any number of queries (on any videos) may run
    /// concurrently through one instance. The query pins a layout epoch
    /// at plan time — the current one, or the epoch named by
    /// [`Query::as_of`] if it is still live — and reads that snapshot to
    /// completion: concurrent re-tiles commit new epochs without waiting
    /// for it, and every query observes exactly one layout epoch
    /// ([`ScanResult::epoch`] says which).
    ///
    /// ```no_run
    /// # use tasm_core::{LabelPredicate, Query, QueryMode, Tasm, TasmConfig};
    /// # use tasm_index::MemoryIndex;
    /// # use tasm_video::Rect;
    /// # let tasm = Tasm::open("/tmp/t", Box::new(MemoryIndex::in_memory()),
    /// #                       TasmConfig::default()).unwrap();
    /// // Cars entering the left half of the frame, every 5th frame.
    /// let q = Query::new(LabelPredicate::label("car"))
    ///     .frames(0..300)
    ///     .roi(Rect::new(0, 0, 320, 352))
    ///     .stride(5);
    /// let result = tasm.query("traffic", &q).unwrap();
    /// println!("{} regions, {} tiles pruned", result.matched, result.plan.tiles_pruned);
    ///
    /// // Is there any person in the window at all? Decodes nothing.
    /// let exists = tasm
    ///     .query("traffic", &Query::new(LabelPredicate::label("person"))
    ///         .frames(0..300)
    ///         .mode(QueryMode::Exists))
    ///     .unwrap();
    /// assert_eq!(exists.stats.samples_decoded, 0);
    /// ```
    pub fn query(&self, name: &str, query: &Query) -> Result<ScanResult, TasmError> {
        self.query_inner(name, query, None)
    }

    /// [`Tasm::query`] with RAII phase spans: the planning section (shard
    /// lookup, epoch pin, semantic-index scan) runs under a `plan` span and
    /// the decode fan-out under a `decode` span, both accumulating into
    /// `spans` — the per-query trace the service folds into the
    /// [`QueryTrace`](tasm_obs::QueryTrace) returned to remote clients.
    pub fn query_traced(
        &self,
        name: &str,
        query: &Query,
        spans: &Arc<tasm_obs::TraceSpans>,
    ) -> Result<ScanResult, TasmError> {
        self.query_inner(name, query, Some(spans))
    }

    fn query_inner(
        &self,
        name: &str,
        query: &Query,
        spans: Option<&Arc<tasm_obs::TraceSpans>>,
    ) -> Result<ScanResult, TasmError> {
        let plan_span = spans.map(|s| s.span(tasm_obs::Phase::Plan));
        let (predicate, as_of) = (query.predicate(), query.as_of_epoch());
        let found = self.lookup(name, predicate, query.frame_range(), as_of)?;
        drop(plan_span);
        let decode_span = spans.map(|s| s.span(tasm_obs::Phase::Decode));
        let result = query_prepared(&self.store, found, query)?;
        drop(decode_span);
        if tasm_obs::enabled() {
            tasm_obs::histogram(
                "tasm_query_plan_seconds",
                "Per-query semantic-index lookup time.",
            )
            .record(result.lookup_time);
            tasm_obs::histogram(
                "tasm_query_decode_seconds",
                "Per-query decode fan-out wall time.",
            )
            .record(result.exec_time);
        }
        Ok(result)
    }

    /// §4.1's work of [`Tasm::query`] on a store without a decoded-GOP
    /// cache, decoding nothing: the same lookup and plan, priced by the
    /// GOP runs the query would read ([`crate::cost::Work`]'s `P` and `T`).
    /// Aggregate modes read nothing, so they price zero work.
    pub fn price(&self, name: &str, query: &Query) -> Result<Work, TasmError> {
        let (predicate, as_of) = (query.predicate(), query.as_of_epoch());
        let found = self.lookup(name, predicate, query.frame_range(), as_of)?;
        let manifest = found.pin.manifest();
        let planned = QueryPlan::new(manifest, found.regions, found.frames, query);
        Ok(planned.plan().work(manifest.config.gop_len))
    }

    /// Pins a layout epoch of `name` explicitly: the current epoch
    /// (`epoch: None`) or a specific still-live one. While the returned
    /// [`EpochPin`] is alive, the epoch's manifest snapshot, packs
    /// and cached GOPs stay readable — re-tiles keep
    /// committing newer epochs around it — and [`Query::as_of`] can name
    /// it. Pinning an epoch that is neither current nor already pinned
    /// fails with [`TasmError::EpochNotLive`]: retired epochs are
    /// reclaimed the moment their last reader drains, so there is nothing
    /// consistent left to read.
    pub fn pin_epoch(&self, name: &str, epoch: Option<u64>) -> Result<EpochPin, TasmError> {
        let shard = self.shard(name)?;
        self.pin_shard(name, &shard, epoch)
    }

    fn pin_shard(
        &self,
        name: &str,
        shard: &Arc<VideoShard>,
        epoch: Option<u64>,
    ) -> Result<EpochPin, TasmError> {
        let mut table = sync::lock(&shard.epochs);
        let target = epoch.unwrap_or(table.current);
        let current = table.current;
        let Some(entry) = table.live.get_mut(&target) else {
            return Err(TasmError::EpochNotLive {
                video: name.to_string(),
                requested: target,
                current,
            });
        };
        entry.readers += 1;
        epoch_pins_gauge().inc();
        Ok(EpochPin {
            shard: shard.clone(),
            store: self.store.clone(),
            epoch: target,
            manifest: entry.manifest.clone(),
        })
    }

    // The commit primitive; the layout policy that drives it is `policy.rs`.

    /// Re-tiles one SOT, updating the manifest.
    pub fn retile(
        &self,
        name: &str,
        sot_idx: usize,
        layout: TileLayout,
    ) -> Result<RetileStats, TasmError> {
        let shard = self.shard(name)?;
        let mut pol = shard.policy();
        self.retile_shard(&shard, &mut pol, sot_idx, layout)
    }

    /// The re-tile primitive: re-encodes SOT `sot_idx` under `layout` by
    /// the one commit step ([`Tasm::commit_sot`]); a layout equal to the
    /// current one commits nothing. Returns the transcode's cost.
    pub(crate) fn retile_shard(
        &self,
        shard: &VideoShard,
        pol: &mut PolicyState,
        sot_idx: usize,
        layout: TileLayout,
    ) -> Result<RetileStats, TasmError> {
        let mut stats = RetileStats::default();
        self.commit_sot(shard, pol, sot_idx, |base| {
            let mut next = base.clone();
            let retired;
            (stats, retired) = self.store.retile(&mut next, sot_idx, layout)?;
            Ok(retired.map(|_| next))
        })?;
        Ok(stats)
    }

    /// The one SOT commit step of both writers, a re-tile and a replicated
    /// SOT. `pol` is the shard's policy state, which the caller holds (the
    /// lock order takes it first). The step serializes on the shard's
    /// commit mutex — never on readers — and hands `commit` the shard's
    /// current manifest, over which it commits SOT `sot_idx` in the store
    /// and returns the next manifest (`None`: nothing committed). That
    /// manifest is published as the current epoch, the epochs that drained
    /// are reclaimed, and the SOT's regret, priced against the layout just
    /// replaced, starts over. In-flight scans keep reading their pinned
    /// epochs, so commit latency is bounded by the commit's own work.
    /// Returns whether it committed.
    fn commit_sot(
        &self,
        shard: &VideoShard,
        pol: &mut PolicyState,
        sot_idx: usize,
        commit: impl FnOnce(&VideoManifest) -> Result<Option<VideoManifest>, StoreError>,
    ) -> Result<bool, TasmError> {
        let _commit = sync::lock(&shard.commit);
        let Some(next) = commit(&shard.current_manifest())? else {
            return Ok(false);
        };
        shard.publish(&self.store, next);
        pol.retiled(sot_idx);
        Ok(true)
    }

    pub(crate) fn shard(&self, name: &str) -> Result<Arc<VideoShard>, TasmError> {
        sync::read(&self.videos)
            .get(name)
            .cloned()
            .ok_or_else(|| TasmError::UnknownVideo(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::Scratch;
    use tasm_video::{Frame, Plane, VecFrameSource};

    fn source(frames: u32) -> VecFrameSource {
        VecFrameSource::new(
            (0..frames)
                .map(|i| {
                    let mut f = Frame::filled(128, 96, 90, 128, 128);
                    for y in 0..96 {
                        for x in 0..128 {
                            f.set_sample(Plane::Y, x, y, ((x * 3 + y * 7) % 180 + 30) as u8);
                        }
                    }
                    // A "car" moving along the top and a static "person"
                    // bottom-right.
                    f.fill_rect(Rect::new((i * 2) % 96, 8, 24, 16), 220, 90, 170);
                    f.fill_rect(Rect::new(96, 64, 12, 24), 60, 170, 90);
                    f
                })
                .collect(),
        )
    }

    fn tasm(tag: &str) -> Scratch<Tasm> {
        Scratch::tasm(&format!("facade-{tag}"))
    }

    fn populate_truth(t: &mut Tasm, frames: u32) {
        for i in 0..frames {
            t.add_metadata("v", "car", i, Rect::new((i * 2) % 96, 8, 24, 16))
                .unwrap();
            t.add_metadata("v", "person", i, Rect::new(96, 64, 12, 24))
                .unwrap();
            t.mark_processed("v", i).unwrap();
        }
    }

    #[test]
    fn ingest_scan_roundtrip() {
        let mut t = tasm("scan");
        let src = source(20);
        t.ingest("v", &src, 30).unwrap();
        populate_truth(&mut t, 20);
        let result = t.scan("v", &LabelPredicate::label("car"), 0..10).unwrap();
        assert_eq!(result.regions.len(), 10, "one car region per frame");
        assert!(result.stats.samples_decoded > 0);
        assert!(result.seconds() > 0.0);
        // Region pixels carry the bright car texture.
        let r = &result.regions[0];
        let bright = r
            .pixels
            .plane(Plane::Y)
            .iter()
            .filter(|&&v| v > 180)
            .count();
        assert!(bright > 50, "car pixels should be bright, got {bright}");
    }

    /// A tier handle open when the store opens (`tasm info` beside a
    /// starting `tasm serve`) keeps the store from writing its index only
    /// while it lives.
    #[test]
    fn a_store_opened_beside_a_tier_reader_writes_once_the_reader_drops() {
        let mut t = Scratch::open("facade-tier-reader", |dir| {
            let index = dir.join("index");
            let reader = tasm_index::TieredIndex::open(&index).unwrap();
            let t = Tasm::open_tiered(dir.join("videos"), &index, TasmConfig::default()).unwrap();
            (t, Some(reader))
        });
        t.0.ingest("v", &source(10), 30).unwrap();
        assert!(matches!(
            t.0.mark_processed("v", 0),
            Err(TasmError::Index(TreeError::ReadOnly))
        ));
        t.1 = None;
        populate_truth(&mut t.0, 10);
        t.0.with_index(|ix| ix.flush()).unwrap();
        assert_eq!(t.0.processed_count("v", 0..10).unwrap(), 10);
    }

    #[test]
    fn scan_unknown_video_fails() {
        let t = tasm("unknown");
        assert!(matches!(
            t.scan("nope", &LabelPredicate::label("car"), 0..10),
            Err(TasmError::UnknownVideo(_))
        ));
    }

    #[test]
    fn tasm_is_sync_and_send() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Tasm>();
    }

    #[test]
    fn ingest_over_a_stored_name_is_refused_until_it_is_removed() {
        let t = tasm("again");
        t.ingest("v", &source(10), 30).unwrap();
        let held = t.manifest("v").unwrap();
        assert!(matches!(
            t.ingest("v", &source(20), 30),
            Err(TasmError::AlreadyStored(name)) if name == "v"
        ));
        assert_eq!(t.manifest("v").unwrap(), held);
        assert_eq!(t.store().load_manifest("v").unwrap(), held);
        t.remove_video("v").unwrap();
        t.ingest("v", &source(20), 30).unwrap();
        assert_eq!(t.manifest("v").unwrap().frame_count, 20);
    }

    #[test]
    fn video_id_collision_is_refused() {
        // Find two names with the same FNV-1a u32 hash (birthday bound:
        // ~2^16 draws for a 32-bit space; this loop finds one in well under
        // 200k names).
        let mut seen: std::collections::HashMap<u32, String> = std::collections::HashMap::new();
        let mut pair = None;
        for i in 0u64.. {
            let name = format!("cam-{i}");
            let id = video_id_for(&name);
            if let Some(first) = seen.get(&id) {
                pair = Some((first.clone(), name));
                break;
            }
            seen.insert(id, name);
        }
        let (first, second) = pair.expect("collision search terminates");
        assert_eq!(video_id_for(&first), video_id_for(&second));
        assert_ne!(first, second);

        let t = tasm("collide");
        let src = source(10);
        t.ingest(&first, &src, 30).unwrap();
        // Both ingest and attach refuse the aliasing name.
        match t.ingest(&second, &src, 30) {
            Err(TasmError::VideoIdCollision { existing, rejected }) => {
                assert_eq!(existing, first);
                assert_eq!(rejected, second);
            }
            other => panic!("expected VideoIdCollision, got {other:?}"),
        }
        assert!(matches!(
            t.attach(&second),
            Err(TasmError::VideoIdCollision { .. })
        ));
        // Re-registering the same name is not a collision.
        t.attach(&first).unwrap();
    }

    /// `attach_stored` attaches each directory with a manifest, leaves a
    /// foreign one alone, and names the video whose manifest does not load.
    #[test]
    fn attach_stored_attaches_every_manifest_and_names_an_unreadable_one() {
        let dir = Scratch::open("facade-stored", |dir| dir);
        let open = || {
            let index = Box::new(tasm_index::MemoryIndex::in_memory());
            Tasm::open(dir.as_path(), index, TasmConfig::default()).unwrap()
        };
        let t = open();
        for name in ["b", "a"] {
            t.ingest(name, &source(10), 30).unwrap();
        }
        drop(t);
        std::fs::create_dir_all(dir.join("notes")).unwrap();
        std::fs::write(dir.join("notes").join("todo.txt"), b"not a video").unwrap();
        let t = open();
        assert!(t.has_stored_video("a") && !t.has_stored_video("notes"));
        assert_eq!(t.attach_stored().unwrap(), ["a", "b"]);
        assert_eq!(t.video_names(), ["a", "b"]);
        drop(t);
        std::fs::write(dir.join("b").join("manifest.json"), b"{\"torn").unwrap();
        match open().attach_stored() {
            Err(TasmError::ManifestUnreadable(video, _)) => assert_eq!(video, "b"),
            other => panic!("expected ManifestUnreadable, got {other:?}"),
        }
    }

    #[test]
    fn kqko_tiles_around_objects_and_reduces_decode() {
        let mut t = tasm("kqko");
        let src = source(20);
        t.ingest("v", &src, 30).unwrap();
        populate_truth(&mut t, 20);

        let before = t
            .scan("v", &LabelPredicate::label("person"), 0..10)
            .unwrap();
        let cost = t.kqko_retile_all("v", &["person".to_string()]).unwrap();
        assert!(cost.encode.bytes_produced > 0, "should have re-tiled");
        let after = t
            .scan("v", &LabelPredicate::label("person"), 0..10)
            .unwrap();
        assert!(
            after.stats.samples_decoded < before.stats.samples_decoded,
            "tiling should reduce decoded samples: {} -> {}",
            before.stats.samples_decoded,
            after.stats.samples_decoded
        );
        // Layout is recorded in the manifest.
        assert!(!t.manifest("v").unwrap().sots[0].layout.is_untiled());
    }

    #[test]
    fn kqko_declines_when_no_detections() {
        let t = tasm("kqko-empty");
        let src = source(10);
        t.ingest("v", &src, 30).unwrap();
        let l = t.kqko_layout("v", 0, &["car".to_string()]).unwrap();
        assert!(l.is_none());
    }

    #[test]
    fn incremental_more_retiles_on_new_object() {
        let mut t = tasm("more");
        let src = source(20);
        t.ingest("v", &src, 30).unwrap();
        populate_truth(&mut t, 20);

        let cost1 = t.observe_more("v", "car", 0..10).unwrap();
        assert!(cost1.encode.bytes_produced > 0, "first query should tile");
        let l1 = t.manifest("v").unwrap().sots[0].layout.clone();
        // Repeat query: no work.
        let cost2 = t.observe_more("v", "car", 0..10).unwrap();
        assert_eq!(cost2.encode.bytes_produced, 0);
        // New object: re-tile around both.
        let cost3 = t.observe_more("v", "person", 0..10).unwrap();
        assert!(cost3.encode.bytes_produced > 0);
        let l2 = t.manifest("v").unwrap().sots[0].layout.clone();
        assert_ne!(l1, l2, "layout should now cover both objects");
    }

    #[test]
    fn regret_accumulates_then_retiles() {
        let mut t = tasm("regret");
        let src = source(20);
        t.ingest("v", &src, 30).unwrap();
        populate_truth(&mut t, 20);

        let mut paid = 0u64;
        let mut retiled_at = None;
        for q in 0..50 {
            let cost = t.observe_regret("v", "car", 0..10).unwrap();
            paid += cost.encode.bytes_produced;
            if cost.encode.bytes_produced > 0 && retiled_at.is_none() {
                retiled_at = Some(q);
            }
        }
        let retiled_at = retiled_at.expect("repeated queries must eventually trigger re-tiling");
        assert!(retiled_at > 0, "should not re-tile on the very first query");
        assert!(paid > 0);
        assert!(!t.manifest("v").unwrap().sots[0].layout.is_untiled());
        // After the retile, regret for the chosen subset was reset.
        let r = t.regret_for("v", 0, &["car".to_string()]);
        assert!(r.is_none() || r.unwrap() < 1.0);
    }

    #[test]
    fn regret_considers_multi_object_subsets() {
        let mut t = tasm("subsets");
        let src = source(20);
        t.ingest("v", &src, 30).unwrap();
        populate_truth(&mut t, 20);
        t.observe_regret("v", "car", 0..10).unwrap();
        t.observe_regret("v", "person", 0..10).unwrap();
        // The {car, person} subset exists and has accumulated regret.
        let both = vec!["car".to_string(), "person".to_string()];
        assert!(
            t.regret_for("v", 0, &both).is_some(),
            "combined subset should be tracked"
        );
    }
}
