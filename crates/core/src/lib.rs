//! # TASM: a tile-based storage manager for video analytics
//!
//! A from-scratch Rust reproduction of *TASM: A Tile-Based Storage Manager
//! for Video Analytics* (Daum et al., ICDE 2021). TASM sits at the bottom of
//! a video database system and accelerates queries that retrieve objects
//! from videos by optimizing the on-disk *tile layout* of each part of the
//! video around the objects queries actually target.
//!
//! ## What lives where
//!
//! * [`mod@partition`] — non-uniform layout generation around bounding boxes
//!   (fine/coarse granularity, §3.4.2);
//! * [`cost`] — the `C = β·P + γ·T` query cost model, the `R(s, L)`
//!   re-encode model, and their least-squares calibration (§4.1);
//! * [`storage`] — per-SOT layouts, one pack file per SOT and layout epoch
//!   holding that SOT's tiles (every read through `pack`'s one reader),
//!   re-tiling by transcode (§3.4.5) under an atomic commit;
//! * [`durable`] — the injectable [`StorageIo`] filesystem shim behind
//!   every manifest/pack write (defined in `tasm-index`), a deterministic
//!   fault injector ([`FaultIo`]) for the crash sweeps and panic tests, and
//!   startup recovery and `fsck`;
//! * [`exec`] — the parallel tile-decode execution pipeline: per-(SOT, tile)
//!   decode planning, a scoped-thread executor, and the shared decoded-GOP
//!   cache (a byte budget that trims the least-recently used GOP's tail
//!   frames before dropping any entry);
//! * [`mod@scan`] — the `Scan(video, L, T)` access method with CNF label
//!   predicates (§3.1);
//! * [`mod@query`] — the spatiotemporal query planner: ROI, sampling
//!   stride, first-k limit, and aggregate modes, with index-driven tile and
//!   GOP pruning before any decode;
//! * [`tasm`] — the facade: `AddMetadata`, `Scan`, the MVCC epoch table and
//!   the one re-tile commit;
//! * `policy` — the layout policy on the facade: KQKO optimization (§4.2),
//!   incremental-more and regret-based re-tiling (§4.4) over one state, one
//!   loop, one α rule, and the [`RetilePolicy`] switch;
//! * [`runner`] — workload execution under the strategies compared in §5.3;
//! * [`edge`] — capture-time tiling on a simulated edge camera (§4.3).
//!
//! ## Quickstart
//!
//! ```no_run
//! use tasm_core::{LabelPredicate, Tasm, TasmConfig};
//! use tasm_index::MemoryIndex;
//! use tasm_video::{Frame, Rect, VecFrameSource};
//!
//! let mut tasm = Tasm::open(
//!     "/tmp/tasm-store",
//!     Box::new(MemoryIndex::in_memory()),
//!     TasmConfig::default(),
//! ).unwrap();
//!
//! let video = VecFrameSource::new(vec![Frame::black(640, 352); 60]);
//! tasm.ingest("traffic", &video, 30).unwrap();
//! tasm.add_metadata("traffic", "car", 0, Rect::new(100, 80, 64, 40)).unwrap();
//!
//! // Retrieve just the car pixels; only the tiles containing them decode.
//! let result = tasm.scan("traffic", &LabelPredicate::label("car"), 0..30).unwrap();
//! println!("decoded {} samples", result.stats.samples_decoded);
//!
//! // Narrow further with the spatiotemporal planner: cars in the left
//! // half only, every 5th frame — pruned tiles/GOPs are never decoded.
//! use tasm_core::Query;
//! let roi = tasm.query("traffic", &Query::new(LabelPredicate::label("car"))
//!     .frames(0..30)
//!     .roi(Rect::new(0, 0, 320, 352))
//!     .stride(5)).unwrap();
//! println!("{} matches, {} tiles pruned", roi.matched, roi.plan.tiles_pruned);
//! ```
//!
//! ## Execution pipeline and decoded-GOP cache
//!
//! `Scan` no longer decodes tiles in a serial loop. A query is *planned*
//! into independent per-(SOT, tile) decode requests, which an executor fans
//! out across scoped worker threads — tile bitstreams share nothing, so
//! they decode in parallel and each frame is composed into the answer's
//! regions as soon as it is decoded (pixels and work accounting are
//! bit-identical at any worker count). Between planning and execution sits
//! a shared cache of decoded GOP prefixes, keyed by `(video, SOT, tile,
//! GOP, layout epoch)`, so
//! overlapping and repeated queries reuse decode work instead of repeating
//! it. Over its byte budget the cache trims the least-recently used GOP's
//! tail frames, just enough to fit, and drops an entry only once no frame
//! is left, so a later miss resumes from the kept prefix; re-tiling or
//! re-ingesting invalidates the affected entries. Cache reuse is reported
//! separately ([`ScanResult::cache`]) from real decode work
//! ([`ScanResult::stats`]), keeping the §4.1 cost model calibrated.
//!
//! Two [`TasmConfig`] knobs control the pipeline:
//!
//! * [`TasmConfig::workers`] — decode worker threads. `0` (default) uses
//!   one per available core; `1` reproduces strictly serial execution.
//! * [`TasmConfig::cache_bytes`] — decoded-GOP cache budget in bytes.
//!   `0` disables caching; the default is 256 MiB.
//!
//! ## Concurrency
//!
//! [`Tasm`] is `Sync` and every operation — including [`Tasm::scan`] and
//! the incremental policies — takes `&self`, so one instance behind an
//! `Arc` serves any number of threads. Per-video state (manifest, policy
//! counters) is sharded, so on those locks queries on different videos
//! never contend; the semantic index is one shared lock, but it is held
//! only across the brief lookup phase and released before decode — the
//! dominant decode cost runs fully concurrently. The decoded-GOP cache
//! performs *single-flight
//! shared-scan dedup*: concurrent queries needing the same
//! `(video, SOT, tile, GOP)` decode join one in-flight decode instead of
//! repeating it ([`ScanResult::shared`](scan::ScanResult) accounts joined
//! vs. owned decodes). Tile layouts are versioned as MVCC *layout epochs*:
//! a scan pins its video's epoch at plan time and reads that immutable
//! snapshot to completion, while re-tiles commit new epochs immediately —
//! never waiting on readers — and superseded epochs are garbage-collected
//! when their last reader drains. Results stay bit-exact across concurrent
//! re-tiling, and [`Query::as_of`] can re-query any still-pinned epoch.
//! The `tasm-service` crate builds a multi-query engine (bounded queue,
//! worker pool, background retile daemon) on these guarantees.
//!
//! ```no_run
//! use tasm_core::{Tasm, TasmConfig};
//! use tasm_index::MemoryIndex;
//!
//! let cfg = TasmConfig {
//!     workers: 8,                 // decode on 8 threads
//!     cache_bytes: 512 << 20,     // half a GiB of warm GOPs
//!     ..TasmConfig::default()
//! };
//! let tasm = Tasm::open("/tmp/tasm-store", Box::new(MemoryIndex::in_memory()), cfg);
//! ```

pub mod cost;
pub mod durable;
pub mod edge;
pub mod exec;
mod pack;
pub mod partition;
mod plan;
mod policy;
pub mod pool;
pub mod query;
pub mod runner;
pub mod scan;
#[cfg(test)]
mod scratch;
pub mod storage;
pub mod tasm;

pub use cost::{estimate_work, fit_linear, pixel_ratio, CostModel, EncodeModel, Work, WorkSample};
pub use durable::{
    FaultIo, FaultKind, FsckIssue, FsckReport, RealIo, RecoveryAction, RecoveryReport, StorageIo,
};
pub use edge::{edge_ingest, EdgeConfig, EdgeReport};
pub use exec::{CacheStats, DecodedTileCache, PlanStats, SharedScanStats, TileDecodeRequest};
pub use partition::{partition, Granularity, PartitionConfig};
pub use policy::RetilePolicy;
pub use pool::{BufferPool, CanvasPool};
pub use query::{Query, QueryMode};
pub use runner::{
    retile_cost, run_workload, QueryRecord, RunQuery, Strategy, TruthFn, WorkloadReport,
};
pub use scan::{recycle_canvases, LabelPredicate, RegionPixels, ScanError, ScanResult};
pub use storage::{
    PackId, RetileStats, SotEntry, StorageConfig, StoreError, VideoManifest, VideoStore,
    CANVAS_POOL_BYTES,
};
pub use tasm::{EpochPin, SotTileBytes, Tasm, TasmConfig, TasmError};
