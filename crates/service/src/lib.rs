//! # tasm-service: a concurrent multi-query engine over TASM
//!
//! The core crate's [`Tasm`](tasm_core::Tasm) facade answers one query at a
//! time from the caller's thread. This crate turns it into a *service*: many
//! overlapping queries in flight at once, sharing decode work, while the
//! incremental layout policies (§4 of the paper) run in the background
//! instead of blocking the query path.
//!
//! ## Architecture
//!
//! ```text
//!                 submit() / try_submit()
//!   clients ────────────────────────────────► bounded queue (depth D)
//!                                                   │ pop
//!                        ┌──────────────┬───────────┴┬──────────────┐
//!                        ▼              ▼            ▼              ▼
//!                    worker 0       worker 1     worker …       worker N-1
//!                        │  Tasm::query(&self) — plans (ROI/stride/limit
//!                        │  pruning), then decodes — concurrent, sharded
//!                        ▼
//!            ┌──────────────────────────────────────────────────────────┐
//!            │ shared Tasm: RwLock'd semantic index · per-video shards  │
//!            │ (MVCC epoch table + policy Mutex) · decoded-GOP cache    │
//!            │ with single-flight shared-scan dedup (SharedScanStats)   │
//!            └──────────────────────────────────────────────────────────┘
//!                        │ observations (video, label, window)
//!                        ▼
//!                 retile daemon (1 low-priority thread)
//!                 drains the backlog through Tasm::observe,
//!                 re-tiles when the policy says so
//! ```
//!
//! Three properties make this safe and fast:
//!
//! 1. **Shareable hot path.** `Tasm::scan` takes `&self`; the semantic
//!    index lock is released before decode starts, and per-video state is
//!    sharded so queries on different videos never contend.
//! 2. **Single-flight shared-scan dedup.** Concurrent queries needing the
//!    same `(video, SOT, tile, GOP)` decode join one in-flight decode
//!    instead of each paying for it. [`ServiceStats::shared`] counts joined
//!    vs. owned decodes; joined work never pollutes the §4.1 cost model's
//!    decode accounting.
//! 3. **Bit-exact concurrent re-tiling.** The daemon's re-tiles publish a
//!    new MVCC layout epoch immediately — never waiting on in-flight
//!    queries, which read the epoch they pinned at plan time to completion
//!    — so every scan observes exactly one consistent layout epoch and
//!    returns the same pixels a serial execution at that epoch would.
//!    Superseded epochs are reclaimed when their last reader drains.
//!
//! ## Quickstart
//!
//! ```no_run
//! use std::sync::Arc;
//! use tasm_core::{LabelPredicate, Query, QueryMode, Tasm, TasmConfig};
//! use tasm_index::MemoryIndex;
//! use tasm_service::{QueryRequest, QueryService, RetilePolicy, ServiceConfig};
//! use tasm_video::Rect;
//!
//! let tasm = Arc::new(
//!     Tasm::open("/tmp/store", Box::new(MemoryIndex::in_memory()), TasmConfig::default())
//!         .unwrap(),
//! );
//! // ... ingest videos, add metadata ...
//!
//! let service = QueryService::start(
//!     tasm,
//!     ServiceConfig {
//!         workers: 8,
//!         queue_depth: 64,
//!         retile: RetilePolicy::Regret,
//!         ..ServiceConfig::default()
//!     },
//! );
//!
//! // Label-only queries over frame windows...
//! let handles: Vec<_> = (0..100)
//!     .map(|i| {
//!         service
//!             .submit(QueryRequest::new(
//!                 "traffic",
//!                 Query::new(LabelPredicate::label("car")).frames(i * 30..(i + 1) * 30),
//!             ))
//!             .unwrap()
//!     })
//!     .collect();
//! // ...and full spatiotemporal queries: ROI + stride + limit, planned so
//! // that pruned tiles and GOPs are never decoded.
//! let roi = service
//!     .submit(QueryRequest::new(
//!         "traffic",
//!         Query::new(LabelPredicate::label("car"))
//!             .frames(0..3000)
//!             .roi(Rect::new(0, 0, 320, 352))
//!             .stride(5)
//!             .limit(10)
//!             .mode(QueryMode::Pixels),
//!     ))
//!     .unwrap();
//! for h in handles.into_iter().chain([roi]) {
//!     let outcome = h.wait().unwrap();
//!     println!("query {}: {} regions", outcome.id, outcome.result.regions.len());
//! }
//! // Drain: every accepted query completes before the threads join.
//! let report = service.shutdown(tasm_service::Shutdown::Drain);
//! println!(
//!     "completed {} queries, {:.0}% of GOP decodes deduped, p95 {:?}",
//!     report.completed,
//!     report.stats.shared.join_rate() * 100.0,
//!     report.stats.latency.p95()
//! );
//! ```
//!
//! The `tasm workload` CLI command drives exactly this pipeline:
//! `tasm workload --store DIR --name NAME --concurrency 16 --queue-depth 64`.

#![forbid(unsafe_code)]

mod daemon;
mod service;
mod stats;

pub use service::{
    QueryHandle, QueryOutcome, QueryRequest, QueryService, RetileHook, ServiceConfig, ServiceError,
    Shutdown, ShutdownReport,
};
pub use stats::ServiceStats;
pub use tasm_core::RetilePolicy;
pub use tasm_obs::HistogramSnapshot;
