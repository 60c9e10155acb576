//! # tasm-server: the networked TASM query front-end
//!
//! Exposes the full query surface of a shared [`Tasm`] —
//! spatiotemporal [`Query`](tasm_core::Query)s including ROI, stride,
//! limit, and aggregate modes — over TCP, speaking the `tasm-proto`
//! length-prefixed binary protocol. Plain `std::net`, no external
//! dependencies.
//!
//! ## Architecture
//!
//! The session front is `tasm-reactor`'s [`Front`]: one nonblocking
//! reactor thread owns every session socket and speaks the hello
//! exchange and the generic replies, and one pool thread runs the admin
//! operations. This crate adds query admission and dispatch and the admin
//! operations themselves:
//!
//! ```text
//!   reactor thread (poll(2))             QueryService worker pool
//!   ┌───────────────────────────┐        ┌──────────────────────┐
//!   │ listener → accept burst   │ submit │ worker 0 … worker N  │
//!   │   over cap → typed error  ├───────▶│  (fixed, bounded     │
//!   │ session fds:              │        │   queue, retile      │
//!   │   FrameReader (resumable  │◀───────┤   daemon)            │
//!   │     mid-frame, 64 MiB cap)│ wake   └──────────────────────┘
//!   │   FrameQueue (responses   │ pipe +        admin ops
//!   │     resume at any byte    │ completions ┌─────────────┐
//!   │     offset on writable)   │◀────────────┤ pool thread │
//!   └───────────────────────────┘             └─────────────┘
//! ```
//!
//! Sessions are state machines, not threads: frames assemble
//! incrementally off readiness events, admitted queries execute on the
//! service's fixed worker pool, and completed results re-enter the loop
//! through a wakeup pipe to be streamed out by write-readiness. Total
//! thread count is O(workers), independent of connection count.
//!
//! Serving is unix-only: the reactor waits on `poll(2)`, and elsewhere
//! [`TasmServer::bind`] returns the poller's `Unsupported` error.
//!
//! ## Shutdown semantics
//!
//! [`TasmServer::shutdown`] (triggered programmatically, or remotely by a
//! client's `ShutdownServer` frame via [`TasmServer::wait_shutdown_requested`])
//! is graceful: accepting stops, every session finishes the queries it
//! already admitted and flushes their responses, new queries are refused
//! with `Error{ShuttingDown}`, and the underlying service drains —
//! [`Shutdown::Drain`](tasm_service::Shutdown) — which also stops the
//! background retile daemon. The returned [`ServerReport`] carries the
//! service's [`ShutdownReport`] (completed vs. abandoned counts) plus
//! server-level counters.
//!
//! ## Quickstart
//!
//! ```no_run
//! use std::sync::Arc;
//! use tasm_core::{Tasm, TasmConfig};
//! use tasm_index::MemoryIndex;
//! use tasm_server::{ServerConfig, TasmServer};
//! use tasm_service::ServiceConfig;
//!
//! let tasm = Arc::new(
//!     Tasm::open("/tmp/store", Box::new(MemoryIndex::in_memory()), TasmConfig::default())
//!         .unwrap(),
//! );
//! // ... ingest/attach videos ...
//! let server = TasmServer::bind(
//!     tasm,
//!     ServiceConfig::default(),
//!     ServerConfig::default(),
//!     "127.0.0.1:0", // ephemeral port
//! )
//! .unwrap();
//! println!("serving on {}", server.local_addr());
//! server.wait_shutdown_requested(); // until a client sends ShutdownServer
//! let report = server.shutdown();
//! println!("served {} sessions", report.sessions_served);
//! ```

#![forbid(unsafe_code)]

mod reactor;

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tasm_core::{Tasm, TasmError};
use tasm_proto::ErrorCode;
use tasm_reactor::Front;
use tasm_service::{
    QueryService, ServiceConfig, ServiceError, ServiceStats, Shutdown, ShutdownReport,
};

/// Maps a service-side failure onto the wire's typed error codes.
pub(crate) fn error_code(e: &ServiceError) -> ErrorCode {
    match e {
        ServiceError::QueueFull => ErrorCode::Busy,
        ServiceError::ShuttingDown => ErrorCode::ShuttingDown,
        ServiceError::Tasm(TasmError::UnknownVideo(_)) => ErrorCode::UnknownVideo,
        ServiceError::Tasm(TasmError::EpochNotLive { .. }) => ErrorCode::EpochNotLive,
        ServiceError::Tasm(_) | ServiceError::WorkerLost | ServiceError::Panicked => {
            ErrorCode::Internal
        }
    }
}

/// The serving engine a [`TasmServer`] runs. There is one; the type stays
/// so configurations that name it keep building.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEngine {
    /// One nonblocking reactor thread for all sessions; queries execute on
    /// the service's fixed worker pool. Thread count is O(workers).
    Reactor,
}

/// Admission-control and polling knobs of the serving layer.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Concurrent connections accepted; further connects receive
    /// `Error{TooManyConnections}` and are closed.
    pub max_connections: usize,
    /// Queries one session may have in flight at once; requests beyond the
    /// cap receive `Error{TooManyInflight}`.
    pub max_inflight: u32,
    /// Serving engine (only [`ServeEngine::Reactor`] exists).
    pub engine: ServeEngine,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            max_inflight: 8,
            engine: ServeEngine::Reactor,
        }
    }
}

/// What the server did over its lifetime, returned by
/// [`TasmServer::shutdown`].
#[derive(Debug, Clone, Copy)]
pub struct ServerReport {
    /// Connections that completed a handshake.
    pub sessions_served: u64,
    /// Queries refused with a typed BUSY frame because the service queue
    /// was full.
    pub busy_rejections: u64,
    /// Connections refused at the listener for exceeding
    /// [`ServerConfig::max_connections`].
    pub connection_rejections: u64,
    /// The underlying service's drain report (completed/abandoned counts
    /// and final statistics, including the latency histogram).
    pub service: ShutdownReport,
}

/// State shared by the server's logic, its admin jobs and the server
/// handle.
pub(crate) struct ServerShared {
    pub service: QueryService,
    pub cfg: ServerConfig,
    /// The bound address as a string; stamped into every query trace as
    /// the serving instance so `--explain` output names which process (and
    /// in a cluster, which shard) executed the query.
    pub instance: String,
    /// Connections that completed a hello exchange, so port scans and
    /// version mismatches never inflate the count.
    pub(crate) sessions_served: AtomicU64,
    pub busy_rejections: AtomicU64,
    pub(crate) connection_rejections: AtomicU64,
}

/// The gauge of open client sessions. Updated at both admission and
/// release, so a scrape sees the same value admission control acts on.
pub(crate) fn sessions_gauge() -> Arc<tasm_obs::Gauge> {
    tasm_obs::gauge(
        "tasm_sessions_active",
        "Connections currently holding a server session slot.",
    )
}

/// A running TASM server: a listener and its session front (a reactor
/// thread and a one-thread admin pool), all over one shared
/// [`QueryService`].
pub struct TasmServer {
    /// Declared first, so dropping the server stops the front — sessions
    /// drained, threads joined — before the service drains.
    front: Front,
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
}

impl TasmServer {
    /// Starts the query service over `tasm` and listens on `addr`
    /// (`127.0.0.1:0` binds an ephemeral port — read it back with
    /// [`TasmServer::local_addr`]).
    pub fn bind(
        tasm: Arc<Tasm>,
        service_cfg: ServiceConfig,
        cfg: ServerConfig,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<TasmServer> {
        Self::bind_with_hook(tasm, service_cfg, cfg, addr, None)
    }

    /// [`TasmServer::bind`] with a [`RetileHook`](tasm_service::RetileHook)
    /// fired after every committed background re-tile — the cluster layer's
    /// primary→backup replication point (the re-tile only counts as durable
    /// once the hook, i.e. every backup, acks it).
    pub fn bind_with_hook(
        tasm: Arc<Tasm>,
        service_cfg: ServiceConfig,
        cfg: ServerConfig,
        addr: impl ToSocketAddrs,
        hook: Option<Arc<dyn tasm_service::RetileHook>>,
    ) -> std::io::Result<TasmServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            service: QueryService::start_with_hook(tasm, service_cfg, hook),
            cfg,
            instance: local_addr.to_string(),
            sessions_served: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            connection_rejections: AtomicU64::new(0),
        });
        // One pool thread runs the admin operations in submission order.
        let logic = reactor::ServerLogic::new(Arc::clone(&shared));
        let front = Front::start(listener, cfg.max_connections, logic, "tasm-serve", 1)?;
        Ok(TasmServer {
            front,
            shared,
            local_addr,
        })
    }

    /// The address the listener actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the underlying service's statistics (including the
    /// submit→complete latency histogram).
    pub fn stats(&self) -> ServiceStats {
        self.shared.service.stats()
    }

    /// The server's refusals so far, as (queries refused with BUSY,
    /// connections refused over [`ServerConfig::max_connections`]): the
    /// counts [`ServerReport`] returns at shutdown.
    pub fn rejections(&self) -> (u64, u64) {
        let shared = &self.shared;
        (
            shared.busy_rejections.load(Ordering::Relaxed),
            shared.connection_rejections.load(Ordering::Relaxed),
        )
    }

    /// True once a client has sent the administrative `ShutdownServer`
    /// frame.
    pub fn shutdown_requested(&self) -> bool {
        self.front.shutdown_requested()
    }

    /// Blocks until a client requests shutdown (the `tasm serve` command's
    /// idle state).
    pub fn wait_shutdown_requested(&self) {
        self.front.wait_shutdown_requested();
    }

    /// Gracefully shuts the server down: stops accepting, lets every
    /// session drain its in-flight queries and admin operations and flush
    /// their responses, joins the front's threads, drains the service
    /// ([`Shutdown::Drain`] — the retile daemon processes its backlog and
    /// stops), and reports what happened.
    pub fn shutdown(mut self) -> ServerReport {
        self.front.stop();
        let service = self.shared.service.shutdown_now(Shutdown::Drain);
        let (busy_rejections, connection_rejections) = self.rejections();
        ServerReport {
            sessions_served: self.shared.sessions_served.load(Ordering::Relaxed),
            busy_rejections,
            connection_rejections,
            service,
        }
    }
}
