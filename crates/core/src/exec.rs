//! The parallel tile-decode execution pipeline.
//!
//! `Scan` and the storage layer no longer decode tiles in a serial loop.
//! Instead, decoding is split into two phases:
//!
//! 1. **Planning** — a query is reduced to independent
//!    [`TileDecodeRequest`]s, one per `(SOT, tile)` pair, each naming the
//!    local frame span that must be materialized.
//! 2. **Execution** — [`execute`] fans the requests out across scoped
//!    worker threads (tile bitstreams share nothing, so they decode
//!    independently) and hands each frame of a request's span to the
//!    caller's [`FrameSink`] as soon as the request has it: when its cursor
//!    reconstructs it, or when the cache returns it. An uncached decode
//!    keeps no frame, only cursor buffers its worker's next request reuses;
//!    cached frames are `Arc<Frame>`, shared with every consumer.
//!
//! Between the two sits the [`DecodedTileCache`]: decoded GOP prefixes
//! keyed by `(video, SOT, tile, GOP, layout epoch)` under a byte budget,
//! shared behind a mutex so concurrent scans — and repeated queries over
//! hot GOPs, the paper's Figure 8/9 workloads — reuse decode work instead
//! of repeating it. Over budget, the least-recently used GOP gives back
//! its tail frames first and is dropped only when none are left: §4.1
//! prices a read from the preceding keyframe, so a prefix is worth more
//! than a tail, and a trimmed GOP resumes from its prefix instead of
//! decoding again. Work accounting stays calibrated for the §4.1 cost
//! model: [`DecodeStats`] counts only frames actually decoded, while cache
//! reuse is reported separately in [`CacheStats`].

use crate::storage::{StoreError, VideoManifest, VideoStore};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use tasm_codec::{DecodeStats, TileVideo};
use tasm_obs::sync;
use tasm_video::Frame;

/// One unit of decode work: a tile of one SOT over a local frame span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileDecodeRequest {
    /// SOT index within the video.
    pub sot_idx: usize,
    /// Tile raster index within the SOT's layout.
    pub tile: u32,
    /// Local frame span (relative to the SOT start) to materialize.
    pub local_span: Range<u32>,
}

/// Where [`execute`] hands each frame of a request's span: the request,
/// the frame's index within its SOT, and the frame. Called once per frame
/// of every span, from whichever worker runs the request, and never with
/// a lock of the executor's held.
pub type FrameSink<'a> = dyn Fn(&TileDecodeRequest, u32, &Frame) + Sync + 'a;

/// Cache-reuse accounting, reported separately from [`DecodeStats`] so the
/// fitted `C = β·P + γ·T` cost model keeps seeing only real decode work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// GOP lookups fully served from the cache.
    pub hits: u64,
    /// GOP lookups that required decoding (including prefix extensions).
    pub misses: u64,
    /// Frames served from the cache instead of being decoded.
    pub frames_reused: u64,
    /// Samples (luma + chroma) served from the cache.
    pub samples_reused: u64,
}

impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.frames_reused += rhs.frames_reused;
        self.samples_reused += rhs.samples_reused;
    }
}

/// Planner accounting: how much decode work the query planner scheduled and
/// how much it *avoided* relative to the label-only baseline plan.
///
/// The baseline is the read plan (`ReadPlan`, in `tasm-core`'s `plan`
/// module) of the label predicate's boxes: every tile a box touches, over
/// its SOT's full matched-frame span. The spatiotemporal planner
/// ([`crate::query`]) builds a second plan from the boxes its ROI, stride
/// and `limit` keep, reads only that plan's GOP runs, and derives these
/// counters from the two plans: tiles whose boxes all miss the ROI, GOPs
/// outside the sampling stride and GOPs past a satisfied `limit` are what
/// it cut, and GOPs of the span no box of a planned tile lies in are
/// skipped by every read, a scan's (the label-only query's) included.
///
/// All counters are computed at *plan time* from the semantic index alone:
/// they cost no decode work, and they are byte-for-byte identical whether
/// the planned GOPs are later decoded, served from the decoded-GOP cache,
/// or joined from another query's in-flight decode. Execution-side reuse is
/// accounted separately in [`CacheStats`] and [`SharedScanStats`], so
/// nothing is ever double-counted between planning and execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// `(SOT, tile)` units the plan decodes.
    pub tiles_planned: u64,
    /// `(SOT, tile)` units the baseline would decode that the plan never
    /// touches (pruned by the ROI, the stride/limit, or an aggregate mode
    /// that skips pixel materialization entirely).
    pub tiles_pruned: u64,
    /// GOP decode units the plan schedules across all planned tiles.
    pub gops_planned: u64,
    /// GOP decode units skipped *within* planned tiles (temporal pruning:
    /// stride gaps and frames past a satisfied `limit`).
    pub gops_skipped: u64,
    /// Distinct matched frames surviving the temporal predicates — the
    /// frames the query actually samples.
    pub frames_sampled: u64,
}

/// Saturating: a peer's snapshot decoded off the wire can carry any value.
impl std::ops::AddAssign for PlanStats {
    fn add_assign(&mut self, rhs: PlanStats) {
        self.tiles_planned = self.tiles_planned.saturating_add(rhs.tiles_planned);
        self.tiles_pruned = self.tiles_pruned.saturating_add(rhs.tiles_pruned);
        self.gops_planned = self.gops_planned.saturating_add(rhs.gops_planned);
        self.gops_skipped = self.gops_skipped.saturating_add(rhs.gops_skipped);
        self.frames_sampled = self.frames_sampled.saturating_add(rhs.frames_sampled);
    }
}

/// Shared-scan (single-flight) dedup accounting.
///
/// When two concurrent queries need the same `(video, SOT, tile, GOP)`
/// decode, only one performs it — the *owner* — while the others *join* the
/// in-flight decode and are served its result through the cache. `owned`
/// counts GOP decodes a request performed itself; `joined` counts GOP needs
/// a request satisfied by waiting on another query's in-flight decode.
/// Joined work never appears in [`DecodeStats`], so the §4.1 cost model
/// keeps seeing only real decode effort.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedScanStats {
    /// GOP decodes this side performed itself (with or without waiters).
    pub owned: u64,
    /// GOP needs served by joining another query's in-flight decode.
    pub joined: u64,
}

impl SharedScanStats {
    /// Fraction of GOP needs served by joining another query's decode.
    pub fn join_rate(&self) -> f64 {
        let total = self.owned.saturating_add(self.joined);
        if total == 0 {
            0.0
        } else {
            self.joined as f64 / total as f64
        }
    }
}

/// Saturating, like [`PlanStats`]'s.
impl std::ops::AddAssign for SharedScanStats {
    fn add_assign(&mut self, rhs: SharedScanStats) {
        self.owned = self.owned.saturating_add(rhs.owned);
        self.joined = self.joined.saturating_add(rhs.joined);
    }
}

/// Key of one cached GOP prefix. A cache belongs to exactly one store
/// ([`VideoStore::open_with_io`] builds it), so the video name identifies
/// the video.
///
/// `video` is an interned `Arc<str>`: per-GOP key construction on the
/// decode hot path only bumps a refcount.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GopKey {
    video: Arc<str>,
    sot_start: u32,
    tile: u32,
    /// GOP index within the SOT (local frame / GOP length).
    gop: u32,
    /// Layout epoch: the SOT's `retile_count` when the entry was cached.
    /// Retiling bumps the count, so stale layouts can never be hit.
    epoch: u32,
}

struct GopEntry {
    /// Decoded frames from the GOP's keyframe (a prefix of the GOP).
    frames: Vec<Arc<Frame>>,
    bytes: u64,
    stamp: u64,
}

/// An in-progress decode of one GOP: waiters block on the condvar until the
/// owner completes (or abandons) the decode, then re-check the cache.
#[derive(Default)]
struct InflightDecode {
    /// A flag, only ever set whole: taken as is on poison.
    done: Mutex<bool>,
    cv: Condvar,
}

impl InflightDecode {
    fn finish(&self) {
        *sync::lock(&self.done) = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut done = sync::lock(&self.done);
        while !*done {
            done = sync::wait(&self.cv, done);
        }
    }
}

struct CacheInner {
    map: HashMap<GopKey, GopEntry>,
    /// Single-flight registry: GOPs currently being decoded by some query.
    inflight: HashMap<GopKey, Arc<InflightDecode>>,
    clock: u64,
    bytes: u64,
}

/// A shared cache of decoded GOP prefixes, bounded by a byte budget.
///
/// Entries store the frames of a GOP from its keyframe onward. A lookup
/// needing `n` frames hits iff the entry holds at least `n`; shorter
/// prefixes are *extended* by resuming the decoder from the last cached
/// reconstruction (bit-exact, see `TileVideo::cursor_at`), paying only
/// for the missing frames.
///
/// The budget holds after every store. Over it, the least-recently used
/// entry is *trimmed*: it loses tail frames, just enough to fit, and is
/// dropped only when no frame is left (see `DecodedTileCache::store`).
/// A trimmed GOP is still a miss for a lookup needing the whole GOP, so
/// trimming turns no miss into a hit; it makes the miss cheaper, which
/// re-decodes only the frames trimmed away.
///
/// Entries additionally have an *in-progress* state: while one query
/// decodes a GOP, concurrent queries needing the same GOP block on it and
/// join its result instead of decoding it again (single-flight shared-scan
/// dedup, accounted in [`SharedScanStats`]).
pub struct DecodedTileCache {
    /// Soft state, emptied on poison (see [`DecodedTileCache::inner`]).
    inner: Mutex<CacheInner>,
    budget: u64,
}

impl DecodedTileCache {
    /// Creates a cache bounded to roughly `budget_bytes` of decoded frames.
    pub fn new(budget_bytes: u64) -> Self {
        DecodedTileCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                inflight: HashMap::new(),
                clock: 0,
                bytes: 0,
            }),
            budget: budget_bytes.max(1),
        }
    }

    /// The cache's state. A panic under it (inside `store`, say) may leave
    /// entries and byte count out of step, so on poison every entry goes:
    /// an empty cache answers bit-exact. In-flight decodes stay registered;
    /// each owner removes its own.
    fn inner(&self) -> MutexGuard<'_, CacheInner> {
        sync::lock_or_reset(&self.inner, |inner| {
            inner.map.clear();
            inner.bytes = 0;
        })
    }

    /// Current decoded bytes held.
    pub fn bytes_used(&self) -> u64 {
        self.inner().bytes
    }

    /// Number of cached GOP entries.
    pub fn len(&self) -> usize {
        self.inner().map.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry belonging to `video` (called on re-ingest).
    pub fn invalidate_video(&self, video: &str) {
        self.invalidate_where(|k| k.video.as_ref() == video);
    }

    /// Drops the entries of exactly one layout `epoch` of one SOT — the
    /// eager reclaim run when that epoch's pack is GC'd, so a
    /// retired epoch's decoded GOPs release their budget immediately
    /// instead of lingering until budget pressure. Other epochs' entries
    /// (the live layout, other pinned epochs) are untouched.
    pub fn invalidate_sot_epoch(&self, video: &str, sot_start: u32, epoch: u32) {
        self.invalidate_where(|k| {
            k.video.as_ref() == video && k.sot_start == sot_start && k.epoch == epoch
        });
    }

    fn invalidate_where(&self, pred: impl Fn(&GopKey) -> bool) {
        let mut inner = self.inner();
        let removed: u64 = inner
            .map
            .iter()
            .filter(|(k, _)| pred(k))
            .map(|(_, e)| e.bytes)
            .sum();
        inner.map.retain(|k, _| !pred(k));
        inner.bytes -= removed;
    }

    /// Returns the cached prefix for `key` (cloned `Arc`s), touching its
    /// recency. The prefix may be shorter than the caller needs. The
    /// execution path goes through [`DecodedTileCache::acquire`] instead,
    /// which layers single-flight dedup on top of this lookup.
    #[cfg(test)]
    fn lookup(&self, key: &GopKey) -> Option<Vec<Arc<Frame>>> {
        let mut inner = self.inner();
        inner.clock += 1;
        let clock = inner.clock;
        let entry = inner.map.get_mut(key)?;
        entry.stamp = clock;
        Some(entry.frames.clone())
    }

    /// Stores (or extends) the prefix for `key`, then gives bytes back
    /// until the budget holds: the least-recently used entry loses just
    /// enough frames from its tail (⌈over ÷ frame bytes⌉, at least one)
    /// and is removed only once no frame is left. A trimmed entry keeps
    /// its keyframe-anchored prefix, so the next query needing the whole
    /// GOP resumes from it instead of decoding the GOP again. The entry
    /// just stored is the most recent, so it is trimmed last: a GOP larger
    /// than the whole budget keeps the prefix that fits.
    fn store(&self, key: GopKey, frames: Vec<Arc<Frame>>) {
        let bytes = frames.iter().map(|f| frame_bytes(f)).sum::<u64>() + 64;
        let mut guard = self.inner();
        let inner = &mut *guard;
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some((old_len, old_bytes)) = inner.map.get(&key).map(|e| (e.frames.len(), e.bytes)) {
            if old_len >= frames.len() {
                return; // existing entry is as good or better
            }
            inner.bytes -= old_bytes;
        }
        inner.bytes += bytes;
        inner.map.insert(
            key,
            GopEntry {
                frames,
                bytes,
                stamp,
            },
        );
        let (mut trimmed, mut evicted) = (0, 0);
        while inner.bytes > self.budget {
            let over = inner.bytes - self.budget;
            let (victim, entry) = inner
                .map
                .iter_mut()
                .min_by_key(|(_, e)| e.stamp)
                .expect("bytes over budget are held by some entry");
            let per_frame = entry.frames.first().map_or(0, |f| frame_bytes(f));
            let cut = over.div_ceil(per_frame.max(1));
            if cut < entry.frames.len() as u64 {
                entry.frames.truncate(entry.frames.len() - cut as usize);
                let freed = cut * per_frame;
                entry.bytes -= freed;
                inner.bytes -= freed;
                trimmed += freed;
            } else {
                let victim = victim.clone();
                let gone = inner.map.remove(&victim).expect("victim is cached").bytes;
                inner.bytes -= gone;
                evicted += gone;
            }
        }
        drop(guard);
        if (trimmed, evicted) != (0, 0) && tasm_obs::enabled() {
            trimmed_bytes_counter().add(trimmed);
            evicted_bytes_counter().add(evicted);
        }
    }

    /// Single-flight access to one GOP: either the cache already holds a
    /// prefix of at least `needed` frames ([`GopAccess::Ready`]), or the
    /// caller becomes the *owner* of the decode and must finish it through
    /// the returned [`InflightToken`]. When another query is already
    /// decoding this GOP, the call blocks until that decode settles, sets
    /// `*waited`, and re-checks — so concurrent queries needing the same
    /// GOP pay for exactly one decode between them.
    fn acquire(&self, key: &GopKey, needed: usize, waited: &mut bool) -> GopAccess<'_> {
        loop {
            let inflight = {
                let mut inner = self.inner();
                inner.clock += 1;
                let clock = inner.clock;
                if let Some(entry) = inner.map.get_mut(key) {
                    entry.stamp = clock;
                    if entry.frames.len() >= needed {
                        return GopAccess::Ready(entry.frames.clone());
                    }
                }
                match inner.inflight.get(key) {
                    Some(fl) => fl.clone(),
                    None => {
                        let fl = Arc::new(InflightDecode::default());
                        inner.inflight.insert(key.clone(), fl.clone());
                        let prefix = inner
                            .map
                            .get(key)
                            .map(|e| e.frames.clone())
                            .unwrap_or_default();
                        return GopAccess::Owner(
                            InflightToken {
                                cache: self,
                                key: key.clone(),
                                fl,
                                settled: false,
                            },
                            prefix,
                        );
                    }
                }
            };
            // Wait outside the cache lock, then re-check: the owner may
            // have decoded fewer frames than we need (we would then become
            // the owner of the extension), or the entry may have been
            // trimmed or evicted already (ditto).
            *waited = true;
            inflight.wait();
        }
    }
}

/// Outcome of [`DecodedTileCache::acquire`].
enum GopAccess<'a> {
    /// The cache holds at least the needed prefix.
    Ready(Vec<Arc<Frame>>),
    /// The caller owns the decode; the payload is the (possibly empty)
    /// cached prefix to extend. The token must be completed (or dropped,
    /// which wakes waiters without publishing frames).
    Owner(InflightToken<'a>, Vec<Arc<Frame>>),
}

/// Registration of an in-progress GOP decode. Completing publishes the
/// frames and wakes waiters; dropping without completing (decode error,
/// panic) wakes waiters without publishing — one of them then takes over.
struct InflightToken<'a> {
    cache: &'a DecodedTileCache,
    key: GopKey,
    fl: Arc<InflightDecode>,
    settled: bool,
}

impl InflightToken<'_> {
    fn complete(mut self, frames: Vec<Arc<Frame>>) {
        self.cache.store(self.key.clone(), frames);
        self.settle();
    }

    /// Runs from `Drop` too, so also while a panic unwinds (one inside
    /// `store`, under the cache lock, poisons it): it must not panic again,
    /// which would abort the process, and on poison it empties the cache.
    fn settle(&mut self) {
        if !self.settled {
            self.settled = true;
            let mut inner = self.cache.inner();
            inner.inflight.remove(&self.key);
            drop(inner);
            self.fl.finish();
        }
    }
}

impl Drop for InflightToken<'_> {
    fn drop(&mut self) {
        self.settle();
    }
}

fn frame_bytes(f: &Frame) -> u64 {
    let luma = f.width() as u64 * f.height() as u64;
    luma + luma / 2
}

/// Executes decode requests against `store`/`manifest`, fanning out across
/// the store's configured workers and consulting its decoded-tile cache;
/// every frame of every span goes to `sink` (see [`FrameSink`]).
///
/// Accounting is deterministic and worker-count-independent: stats are
/// bit-identical whether the plan runs on one thread or many. An error is
/// the first in request order.
pub fn execute(
    store: &VideoStore,
    manifest: &VideoManifest,
    requests: &[TileDecodeRequest],
    sink: &FrameSink<'_>,
) -> Result<(DecodeStats, CacheStats, SharedScanStats), StoreError> {
    let workers = store.effective_workers().min(requests.len().max(1));
    let mut outputs: Vec<TaskOutput> = Vec::with_capacity(requests.len());
    if workers <= 1 || requests.len() <= 1 {
        let mut buffers = Vec::new();
        for req in requests {
            outputs.push(run_request(store, manifest, req, sink, &mut buffers)?);
        }
    } else {
        let slots: Vec<OnceLock<Result<TaskOutput, StoreError>>> =
            (0..requests.len()).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut buffers = Vec::new();
                    let mut i = next.fetch_add(1, Ordering::Relaxed);
                    while i < requests.len() {
                        let out = run_request(store, manifest, &requests[i], sink, &mut buffers);
                        slots[i].set(out).ok().expect("each slot is written once");
                        i = next.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        for slot in slots {
            outputs.push(slot.into_inner().expect("all slots filled")?);
        }
    }

    let mut decode = DecodeStats::default();
    let mut cache = CacheStats::default();
    let mut shared = SharedScanStats::default();
    for out in outputs {
        decode += out.stats;
        cache += out.cache;
        shared += out.shared;
    }
    if tasm_obs::enabled() {
        tasm_obs::counter(
            "tasm_decoded_bytes_total",
            "Compressed tile bytes read and decoded (cache reuse excluded).",
        )
        .add(decode.bytes_read);
        tasm_obs::counter(
            "tasm_decoded_samples_total",
            "Pixel samples decoded (cache reuse excluded).",
        )
        .add(decode.samples_decoded);
        tasm_obs::counter(
            "tasm_cache_hit_bytes_total",
            "Pixel samples served from the decoded-GOP cache instead of being decoded.",
        )
        .add(cache.samples_reused);
    }
    Ok((decode, cache, shared))
}

/// Decoded bytes the cache gave back by trimming GOP tails (bumped by
/// [`DecodedTileCache::store`] only when it is over budget).
fn trimmed_bytes_counter() -> Arc<tasm_obs::Counter> {
    tasm_obs::counter(
        "tasm_cache_trimmed_bytes_total",
        "Decoded bytes given back by trimming cached GOPs' tail frames.",
    )
}

/// Decoded bytes the cache gave back by dropping whole GOP entries.
fn evicted_bytes_counter() -> Arc<tasm_obs::Counter> {
    tasm_obs::counter(
        "tasm_cache_evicted_bytes_total",
        "Decoded bytes given back by dropping whole cached GOP entries.",
    )
}

#[derive(Default)]
struct TaskOutput {
    stats: DecodeStats,
    cache: CacheStats,
    shared: SharedScanStats,
}

/// Decodes one request through the cache when the store has one, and
/// hands every frame of its span to `sink`. `buffers` carries an uncached
/// request's two cursor buffers to the next request its worker runs.
///
/// Work parity: every path decodes the frames a cold serial decode does —
/// from the keyframe preceding the span to its end, the trailing GOP
/// truncated at the span end — less what the cache serves, so
/// `DecodeStats` is comparable across worker counts and cache states.
fn run_request(
    store: &VideoStore,
    manifest: &VideoManifest,
    req: &TileDecodeRequest,
    sink: &FrameSink<'_>,
    buffers: &mut Vec<Frame>,
) -> Result<TaskOutput, StoreError> {
    let sot = manifest
        .sots
        .get(req.sot_idx)
        .ok_or_else(|| StoreError::NotFound(format!("SOT {}", req.sot_idx)))?;
    let span = &req.local_span;
    assert!(span.start < span.end, "empty decode span");
    assert!(span.end <= sot.len(), "span exceeds SOT");
    match store.decoded_cache() {
        Some(cache) => run_cached(cache, store, manifest, req, sink),
        None => {
            // No cache to publish to: one cursor walks the span from the
            // keyframe before it, the frames before the span are warm-up,
            // decoded and charged as ever, and no frame is kept — the
            // cursor's two buffers take turns.
            let tile = store.read_tile(manifest, req.sot_idx, req.tile)?;
            let cursor = tile.cursor_at(tile.keyframe_before(span.start), None)?;
            let mut cursor = cursor.with_buffers(std::mem::take(buffers));
            while cursor.position() < span.end {
                let at = cursor.position();
                let frame = cursor.advance()?;
                if at >= span.start {
                    sink(req, at, frame);
                }
            }
            // A "miss" only exists where a cache exists: uncached stores
            // report all-zero CacheStats, not a phantom 0% hit rate.
            let owned = crate::plan::gop_count(span, manifest.config.gop_len);
            let (stats, spent) = cursor.into_buffers();
            *buffers = spent;
            Ok(TaskOutput {
                stats,
                shared: SharedScanStats { owned, joined: 0 },
                ..Default::default()
            })
        }
    }
}

/// [`run_request`] on a store with a cache, GOP by GOP, with single-flight
/// access to each: a GOP is served from the cache (possibly after joining
/// another query's in-flight decode of it), or this request owns its
/// decode, resumes it from whatever prefix is cached and publishes it.
fn run_cached(
    cache: &DecodedTileCache,
    store: &VideoStore,
    manifest: &VideoManifest,
    req: &TileDecodeRequest,
    sink: &FrameSink<'_>,
) -> Result<TaskOutput, StoreError> {
    let sot = &manifest.sots[req.sot_idx];
    let gop_len = manifest.config.gop_len;
    let span = &req.local_span;
    // Interned once per request; per-GOP keys below only bump a refcount.
    let video: Arc<str> = Arc::from(manifest.name.as_str());
    let mut out = TaskOutput::default();
    // The tile is read lazily: a fully cached span never touches disk.
    let mut tile: Option<TileVideo> = None;
    for gop in span.start / gop_len..=(span.end - 1) / gop_len {
        let gop_start = gop * gop_len;
        // Decode to the span end in the last GOP, else the whole GOP —
        // matching the warm-up the GOP structure forces on a cold decode.
        let needed = span.end.min(gop_start + gop_len).min(sot.len()) - gop_start;
        // The frames inside the requested span are `keep_from..needed` of
        // the GOP.
        let keep_from = span.start.max(gop_start) - gop_start;
        let key = GopKey {
            video: video.clone(),
            sot_start: sot.start,
            tile: req.tile,
            gop,
            epoch: sot.retile_count,
        };
        let mut waited = false;
        let (token, mut prefix) = match cache.acquire(&key, needed as usize, &mut waited) {
            GopAccess::Ready(cached) => {
                out.cache.hits += 1;
                out.cache.frames_reused += needed as u64;
                out.cache.samples_reused +=
                    needed as u64 * cached.first().map_or(0, |f| frame_bytes(f));
                out.shared.joined += waited as u64;
                for at in keep_from..needed {
                    sink(req, gop_start + at, &cached[at as usize]);
                }
                continue;
            }
            GopAccess::Owner(token, prefix) => (token, prefix),
        };
        out.cache.misses += 1;
        let have = prefix.len() as u32;
        out.cache.frames_reused += have as u64;
        out.cache.samples_reused += have as u64 * prefix.first().map_or(0, |f| frame_bytes(f));
        for at in keep_from..have {
            sink(req, gop_start + at, &prefix[at as usize]);
        }
        if tile.is_none() {
            tile = Some(store.read_tile(manifest, req.sot_idx, req.tile)?);
        }
        let tile = tile.as_ref().expect("just read");
        // The GOP prefix is published to the cache, so all of it is kept.
        // On error the token drops unsettled, waking any waiters so one of
        // them can take over the decode.
        let reference = prefix.last().cloned();
        let mut cursor = tile.cursor_at(gop_start + have, reference.as_deref())?;
        while cursor.position() < gop_start + needed {
            let at = cursor.position() - gop_start;
            prefix.extend(cursor.advance_keeping()?.map(Arc::new));
            if at >= keep_from {
                sink(req, gop_start + at, cursor.current().expect("just decoded"));
            }
        }
        let (last, stats) = cursor.finish();
        prefix.extend(last.map(Arc::new));
        out.stats += stats;
        out.shared.owned += 1;
        token.complete(prefix);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_frame(tag: u8) -> Arc<Frame> {
        Arc::new(Frame::filled(16, 16, tag, 128, 128))
    }

    fn key(tile: u32, gop: u32) -> GopKey {
        GopKey {
            video: Arc::from("v"),
            sot_start: 0,
            tile,
            gop,
            epoch: 0,
        }
    }

    #[test]
    fn cache_prefix_semantics() {
        let c = DecodedTileCache::new(1 << 20);
        assert!(c.is_empty());
        c.store(key(0, 0), vec![dummy_frame(1), dummy_frame(2)]);
        assert_eq!(c.lookup(&key(0, 0)).unwrap().len(), 2);
        // A shorter prefix never replaces a longer one.
        c.store(key(0, 0), vec![dummy_frame(1)]);
        assert_eq!(c.lookup(&key(0, 0)).unwrap().len(), 2);
        // A longer prefix does.
        c.store(
            key(0, 0),
            vec![dummy_frame(1), dummy_frame(2), dummy_frame(3)],
        );
        assert_eq!(c.lookup(&key(0, 0)).unwrap().len(), 3);
        assert!(c.lookup(&key(1, 0)).is_none());
    }

    #[test]
    fn cache_accounts_decompressed_bytes_not_disk_bytes() {
        // A flat tile entropy-codes to a few dozen bytes on disk, but the
        // decoded frames it expands to are full planar YUV. The budget must
        // account the latter: charging on-disk size would let a 1 MiB
        // budget hold gigabytes of decoded pixels.
        use tasm_video::VecFrameSource;
        let src = VecFrameSource::new(vec![Frame::filled(64, 64, 120, 128, 128); 4]);
        let tile = tasm_codec::pred::encode_tile(&src, src.frames()[0].rect(), 30);
        let disk_bytes = tile.size_bytes();
        let (frames, _) = tile.decode_all().unwrap();
        let decoded_bytes: u64 = frames.iter().map(frame_bytes).sum();
        assert!(
            disk_bytes < decoded_bytes / 4,
            "test premise: compressed tile ({disk_bytes} B) must be far \
             smaller than decoded frames ({decoded_bytes} B)"
        );
        let c = DecodedTileCache::new(1 << 20);
        c.store(key(0, 0), frames.into_iter().map(Arc::new).collect());
        assert_eq!(
            c.bytes_used(),
            decoded_bytes + 64,
            "cache must charge decompressed frame bytes plus fixed overhead"
        );
    }

    /// Bytes of one `dummy_frame`, and the fixed charge per entry.
    const FRAME: u64 = 384;
    const ENTRY: u64 = 64;

    fn frames(tags: std::ops::Range<u8>) -> Vec<Arc<Frame>> {
        tags.map(dummy_frame).collect()
    }

    /// Held by every test whose stores go over budget, so the
    /// process-global give-back counters move only under the test reading
    /// them.
    fn over_budget_serial() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        sync::lock(&GUARD)
    }

    /// (trimmed, evicted) bytes counted so far.
    fn given_back() -> (u64, u64) {
        (trimmed_bytes_counter().get(), evicted_bytes_counter().get())
    }

    #[test]
    fn cache_evicts_lru_under_budget() {
        let _serial = over_budget_serial();
        // Each 16x16 frame is 384 bytes + 64 overhead per entry.
        let c = DecodedTileCache::new(1000);
        c.store(key(0, 0), vec![dummy_frame(1)]);
        c.store(key(1, 0), vec![dummy_frame(2)]);
        // Touch tile 0 so tile 1 is the LRU victim.
        assert!(c.lookup(&key(0, 0)).is_some());
        c.store(key(2, 0), vec![dummy_frame(3)]);
        assert!(c.bytes_used() <= 1000);
        assert!(
            c.lookup(&key(0, 0)).is_some(),
            "recently used entry survives"
        );
        assert!(c.lookup(&key(1, 0)).is_none(), "LRU entry evicted");
    }

    /// The LRU entry gives back tail frames, just enough to fit; its
    /// prefix survives, the accounting stays exact, and an entry with no
    /// frame left is removed. The give-back counters read the same bytes.
    #[test]
    fn cache_trims_lru_tail_before_evicting() {
        let _serial = over_budget_serial();
        let before = given_back();
        let c = DecodedTileCache::new(3000);
        let a = frames(1..5);
        c.store(key(0, 0), a.clone());
        c.store(key(1, 0), frames(5..9));
        // 2 × (4 × 384 + 64) = 3200: 200 over, so one frame of tile 0 goes.
        assert_eq!(c.bytes_used(), 2 * (4 * FRAME + ENTRY) - FRAME);
        assert_eq!(c.lookup(&key(1, 0)).unwrap().len(), 4);
        let kept = c.lookup(&key(0, 0)).expect("trimmed, not evicted");
        assert_eq!(kept.len(), 3);
        assert!(kept.iter().zip(&a).all(|(k, f)| Arc::ptr_eq(k, f)));
        assert_eq!(given_back(), (before.0 + FRAME, before.1));

        // Tile 0 was touched last: tile 1 is the LRU entry now. 5 frames of
        // tile 2 put 5 × 384 + 64 more on 2816, 1800 over: ⌈1800 ÷ 384⌉ = 5
        // frames, more than tile 1 holds, so it goes whole; then tile 0
        // gives back ⌈(1800 − 1600) ÷ 384⌉ = 1 more.
        c.store(key(2, 0), frames(9..14));
        assert!(c.lookup(&key(1, 0)).is_none(), "trimmed to nothing");
        assert_eq!(c.lookup(&key(0, 0)).unwrap().len(), 2);
        assert_eq!(c.lookup(&key(2, 0)).unwrap().len(), 5);
        assert_eq!(c.len(), 2);
        assert_eq!(c.bytes_used(), (2 * FRAME + ENTRY) + (5 * FRAME + ENTRY));
        assert_eq!(
            given_back(),
            (before.0 + 2 * FRAME, before.1 + 4 * FRAME + ENTRY)
        );
    }

    /// A panic under the cache lock poisons it. The owner token, dropped
    /// while that panic unwinds, still settles — the in-flight entry goes
    /// and its waiters wake — instead of panicking a second time, which
    /// would abort the process. What the panic left half-stored is gone:
    /// the next acquire decodes afresh, and the budget holds.
    #[test]
    fn an_owner_dropped_on_a_poisoned_cache_still_settles() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let budget = 4 * FRAME + ENTRY;
        let c = DecodedTileCache::new(budget);
        let mut waited = false;
        let GopAccess::Owner(token, _) = c.acquire(&key(0, 0), 1, &mut waited) else {
            panic!("an empty cache makes the caller the owner");
        };
        let decode = Arc::clone(&token.fl);
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            // A store that stops midway: a wrong entry, bytes out of step.
            let mut held = sync::lock(&c.inner);
            let (frames, stamp) = (frames(90..92), held.clock);
            let wrong = GopEntry {
                frames,
                bytes: 0,
                stamp,
            };
            held.map.insert(key(1, 0), wrong);
            held.bytes += 10 * budget;
            panic!("a panic under the cache lock");
        }));
        assert!(poisoned.is_err() && c.inner.is_poisoned());
        let dropped = catch_unwind(AssertUnwindSafe(|| drop(token)));
        assert!(dropped.is_ok(), "settling on a poisoned cache panicked");
        // A waiter returns instead of blocking forever.
        decode.wait();
        assert!(!c.inner.is_poisoned() && sync::lock(&c.inner).inflight.is_empty());
        assert_eq!((c.len(), c.bytes_used()), (0, 0), "the cache was emptied");
        let right = frames(1..3);
        match c.acquire(&key(1, 0), 2, &mut waited) {
            GopAccess::Owner(token, prefix) => {
                assert!(prefix.is_empty(), "the half-stored entry is served");
                token.complete(right.clone());
            }
            GopAccess::Ready(_) => panic!("the half-stored entry was served"),
        }
        let GopAccess::Ready(got) = c.acquire(&key(1, 0), 2, &mut waited) else {
            panic!("a completed decode is cached");
        };
        assert!(got.iter().zip(&right).all(|(g, r)| Arc::ptr_eq(g, r)));
        assert_eq!(c.bytes_used(), 2 * FRAME + ENTRY);
        assert!(c.bytes_used() <= budget);
    }

    /// A lookup needing more than a trimmed entry holds owns the decode,
    /// starting from the surviving prefix.
    #[test]
    fn acquire_on_trimmed_entry_owns_its_prefix() {
        let _serial = over_budget_serial();
        let c = DecodedTileCache::new(4 * FRAME + ENTRY);
        let a = frames(1..5);
        c.store(key(0, 0), a.clone());
        // 448 B over: ⌈448 ÷ 384⌉ = 2 tail frames of tile 0 go.
        c.store(key(1, 0), frames(5..6));
        let mut waited = false;
        match c.acquire(&key(0, 0), 4, &mut waited) {
            GopAccess::Owner(_, prefix) => {
                assert_eq!(prefix.len(), 2);
                assert!(prefix.iter().zip(&a).all(|(p, f)| Arc::ptr_eq(p, f)));
            }
            GopAccess::Ready(_) => panic!("a trimmed entry cannot serve the whole GOP"),
        }
        assert!(!waited);
        assert!(matches!(
            c.acquire(&key(0, 0), 2, &mut waited),
            GopAccess::Ready(p) if p.len() == 2
        ));
    }

    /// The budget is a bound after every store, even when one GOP's frames
    /// exceed it: everything older goes first, then the new entry's tail.
    #[test]
    fn cache_budget_is_a_bound() {
        let _serial = over_budget_serial();
        let c = DecodedTileCache::new(1000);
        for (tile, n) in [(0, 1), (1, 1), (2, 3)] {
            c.store(key(tile, 0), frames(0..n));
            assert!(
                c.bytes_used() <= 1000,
                "{} B after tile {tile}",
                c.bytes_used()
            );
        }
        assert!(c.lookup(&key(0, 0)).is_none());
        assert!(c.lookup(&key(1, 0)).is_none());
        assert_eq!(
            c.lookup(&key(2, 0)).unwrap().len(),
            2,
            "the prefix that fits"
        );
        assert_eq!(c.bytes_used(), 2 * FRAME + ENTRY);
    }

    /// Three 10-frame GOPs totalling 4/3 of the budget, looked up whole,
    /// round-robin. Every lookup misses, as under whole-entry eviction,
    /// which would decode all 30 frames each round. The LRU entry is always
    /// the next GOP looked up, so each lookup finds its GOP short by the
    /// deficit (total − budget) rounded up to whole frames, and re-decodes
    /// only that: 3 × 8 = 24 frames a round.
    #[test]
    fn cyclic_replay_re_decodes_only_trimmed_tails() {
        let _serial = over_budget_serial();
        const GOP: usize = 10;
        let total = 3 * (GOP as u64 * FRAME + ENTRY);
        let budget = total * 3 / 4;
        let c = DecodedTileCache::new(budget);
        let mut waited = false;
        for round in 0..6 {
            let mut decoded = 0;
            for gop in 0..3 {
                match c.acquire(&key(0, gop), GOP, &mut waited) {
                    GopAccess::Owner(t, mut prefix) => {
                        decoded += GOP - prefix.len();
                        prefix.extend(frames(prefix.len() as u8..GOP as u8));
                        t.complete(prefix);
                    }
                    GopAccess::Ready(_) => panic!("the three GOPs never fit together"),
                }
                assert!(c.bytes_used() <= budget);
            }
            if round == 0 {
                assert_eq!(decoded, 3 * GOP);
            } else {
                let bound = 3 * (total - budget).div_ceil(FRAME);
                assert!(
                    (decoded as u64) <= bound,
                    "round {round}: {decoded} frames decoded, bound {bound}"
                );
            }
        }
    }

    #[test]
    fn single_flight_joiner_waits_for_owner() {
        let c = Arc::new(DecodedTileCache::new(1 << 20));
        // Owner registers the in-flight decode.
        let mut waited = false;
        let access = c.acquire(&key(0, 0), 2, &mut waited);
        let token = match access {
            GopAccess::Owner(t, prefix) => {
                assert!(prefix.is_empty());
                assert!(!waited);
                t
            }
            GopAccess::Ready(_) => panic!("empty cache cannot be ready"),
        };

        // Joiner on another thread blocks until the owner completes.
        let c2 = Arc::clone(&c);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let joiner = std::thread::spawn(move || {
            started_tx.send(()).unwrap();
            let mut waited = false;
            match c2.acquire(&key(0, 0), 2, &mut waited) {
                GopAccess::Ready(frames) => {
                    assert_eq!(frames.len(), 2);
                    waited
                }
                GopAccess::Owner(..) => panic!("joiner must not own a completed decode"),
            }
        });
        started_rx.recv().unwrap();
        // Give the joiner time to reach the wait before publishing.
        std::thread::sleep(std::time::Duration::from_millis(20));
        token.complete(vec![dummy_frame(1), dummy_frame(2)]);
        assert!(joiner.join().unwrap(), "joiner must report having waited");
    }

    #[test]
    fn abandoned_owner_wakes_waiters_who_take_over() {
        let c = Arc::new(DecodedTileCache::new(1 << 20));
        let mut waited = false;
        let token = match c.acquire(&key(0, 0), 1, &mut waited) {
            GopAccess::Owner(t, _) => t,
            GopAccess::Ready(_) => unreachable!(),
        };
        let c2 = Arc::clone(&c);
        let waiter = std::thread::spawn(move || {
            let mut waited = false;
            match c2.acquire(&key(0, 0), 1, &mut waited) {
                // The abandoned decode published nothing: the waiter
                // becomes the new owner.
                GopAccess::Owner(t, prefix) => {
                    assert!(prefix.is_empty());
                    t.complete(vec![dummy_frame(7)]);
                    waited
                }
                GopAccess::Ready(_) => panic!("nothing was published"),
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(token); // abandon without completing
        assert!(waiter.join().unwrap());
        assert_eq!(c.lookup(&key(0, 0)).unwrap().len(), 1);
    }

    #[test]
    fn cache_invalidation_by_video_and_sot() {
        let c = DecodedTileCache::new(1 << 20);
        c.store(key(0, 0), vec![dummy_frame(1)]);
        let other = |sot_start: u32| GopKey {
            video: Arc::from("w"),
            sot_start,
            ..key(0, 0)
        };
        c.store(other(0), vec![dummy_frame(2)]);
        c.store(other(30), vec![dummy_frame(3)]);
        c.invalidate_video("v");
        assert!(c.lookup(&key(0, 0)).is_none());
        assert!(c.lookup(&other(0)).is_some(), "same SOT, other video");
        c.invalidate_sot_epoch("w", 30, 0);
        assert!(c.lookup(&other(30)).is_none());
        assert!(c.lookup(&other(0)).is_some(), "other SOT of the video");
        c.invalidate_video("w");
        assert!(c.is_empty());
        assert_eq!(c.bytes_used(), 0);
    }

    /// Epoch GC must reclaim a retired epoch's decoded-GOP entries — and
    /// their byte accounting — eagerly, not leave them to age out under
    /// LRU pressure. Entries of other epochs, tiles, and SOTs survive.
    #[test]
    fn cache_invalidation_by_epoch_reclaims_bytes_eagerly() {
        let epoch_key = |epoch: u32, tile: u32| GopKey {
            video: Arc::from("v"),
            sot_start: 0,
            tile,
            gop: 0,
            epoch,
        };
        let c = DecodedTileCache::new(1 << 20);
        c.store(epoch_key(0, 0), vec![dummy_frame(1)]);
        c.store(epoch_key(0, 1), vec![dummy_frame(2)]);
        c.store(epoch_key(1, 0), vec![dummy_frame(3)]);
        let other_sot = GopKey {
            sot_start: 30,
            ..epoch_key(0, 0)
        };
        c.store(other_sot.clone(), vec![dummy_frame(4)]);
        let all_bytes = c.bytes_used();
        let per_entry = all_bytes / 4;
        assert_eq!(all_bytes % 4, 0, "equal-sized entries");

        c.invalidate_sot_epoch("v", 0, 0);
        assert!(c.lookup(&epoch_key(0, 0)).is_none());
        assert!(c.lookup(&epoch_key(0, 1)).is_none());
        assert!(
            c.lookup(&epoch_key(1, 0)).is_some(),
            "the live epoch's entries survive"
        );
        assert!(
            c.lookup(&other_sot).is_some(),
            "other SOTs' entries survive"
        );
        assert_eq!(
            c.bytes_used(),
            2 * per_entry,
            "reclaimed entries must release their budget immediately"
        );
    }
}
