//! The shard router: a `tasm-proto` front-end that fans queries out to
//! the owning shards.
//!
//! Clients speak to the router exactly as they would to a single
//! `tasm-server` — same handshake, same `Query`/`StatsRequest`/
//! `ShutdownServer` frames — and never learn the cluster exists. Per
//! query the router computes the video's replica set from the shard map
//! and tries each replica in placement order: the primary first, then —
//! on transport failure, BUSY, or a typed rejection — the backups. A
//! node that keeps failing is marked down (*sticky*: a node that missed
//! replicated commits while dead must not silently rejoin and serve
//! stale epochs; it returns via an operator map change or router
//! restart), which promotes its backups in every placement — that is the
//! failover.
//!
//! The router has its own admission control (a router-wide in-flight cap
//! answered with typed BUSY, plus a connection cap at the listener) so a
//! shard outage cannot convert into unbounded queueing at the routing
//! tier. `StatsRequest` fans out to every live shard and merges the
//! [`ServiceStats`] — counters summed, latency histograms merged —
//! so `tasm client stats` against a router reports cluster totals.
//!
//! Shutdown is an *ordered cluster drain*: stop admitting, drain the
//! router's own in-flight work, then drain each shard in turn
//! ([`Router::shutdown`] with `drain_shards`), reporting per-shard
//! outcomes in the [`ClusterShutdownReport`].

use crate::map::ShardMap;
use crate::merge_stats;
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;
use tasm_client::{ClientError, Connection};
use tasm_core::Query;
use tasm_proto::nio::WireBuffers;
use tasm_proto::{ErrorCode, Message, VERSION};
use tasm_service::ServiceStats;

/// Routing, admission, and failover knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Path of the framed `cluster.json` shard map. The health thread
    /// reloads it when its epoch advances (the rebalance flip).
    pub map_path: PathBuf,
    /// Concurrent client connections accepted.
    pub max_connections: usize,
    /// Router-wide in-flight query cap; excess queries receive a typed
    /// BUSY frame.
    pub max_inflight: usize,
    /// Longest one reactor wait lasts — how often session deadlines are
    /// checked, and how long an idle router takes to notice shutdown — and
    /// the step of the health thread's sleep.
    pub poll_interval: Duration,
    /// Bound on every socket operation against a shard — a hung shard
    /// surfaces as a timeout and triggers failover instead of pinning a
    /// routed query.
    pub shard_io_timeout: Duration,
    /// Period of the health thread's probe/reload cycle.
    pub health_interval: Duration,
    /// Consecutive failures before a node is marked down (promoted past).
    pub fail_threshold: u32,
    /// Routing worker threads: each owns its own pool of shard connections
    /// and executes routed queries so the session event loop never blocks
    /// on shard I/O.
    pub route_workers: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            map_path: PathBuf::from("cluster.json"),
            max_connections: 64,
            max_inflight: 64,
            poll_interval: Duration::from_millis(25),
            shard_io_timeout: Duration::from_secs(10),
            health_interval: Duration::from_millis(500),
            fail_threshold: 2,
            route_workers: 8,
        }
    }
}

/// Locks a mutex, recovering from poison: the router's guarded state
/// (failure counts, shutdown flags, job queue) stays consistent
/// across a panicked holder, and one dead routing job must not cascade
/// into a dead router.
fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A point-in-time snapshot of the router's own counters.
#[derive(Debug, Clone, Default)]
pub struct RouterStats {
    /// Queries answered from a shard.
    pub routed: u64,
    /// Additional replica attempts after a first choice failed or refused.
    pub retries: u64,
    /// Nodes marked down (each is a promotion of its backups).
    pub failovers: u64,
    /// Queries refused by the router's own admission control.
    pub busy_rejections: u64,
    /// Client sessions that completed a handshake.
    pub sessions_served: u64,
    /// The shard-map epoch currently routing.
    pub map_epoch: u64,
    /// Node ids currently marked down.
    pub down: Vec<String>,
}

/// One shard's outcome during the ordered cluster drain.
#[derive(Debug, Clone)]
pub struct ShardShutdownReport {
    /// Node id from the shard map.
    pub node: String,
    /// The node's address.
    pub addr: String,
    /// The shard's final service statistics, when it answered.
    pub stats: Option<ServiceStats>,
    /// Why the drain of this shard failed, if it did.
    pub error: Option<String>,
}

/// What the router (and, during an ordered drain, each shard) did.
#[derive(Debug, Clone, Default)]
pub struct ClusterShutdownReport {
    /// The router's own final counters.
    pub router: RouterStats,
    /// Per-shard drain outcomes, in shard-map order (empty when the
    /// router was stopped without draining the shards).
    pub shards: Vec<ShardShutdownReport>,
}

struct RouterShared {
    cfg: RouterConfig,
    map: RwLock<ShardMap>,
    /// Consecutive failure counts per node id. A node at or past
    /// `fail_threshold` is down — and stays down (see module docs).
    failures: Mutex<HashMap<String, u32>>,
    admitting: AtomicBool,
    /// Shared with the reactor's event loop, which exits once it observes
    /// the flag and drains its sessions.
    shutdown: Arc<AtomicBool>,
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
    inflight: AtomicUsize,
    routed: AtomicU64,
    retries: AtomicU64,
    failovers: AtomicU64,
    busy_rejections: AtomicU64,
    sessions_served: AtomicU64,
}

impl RouterShared {
    fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn down_set(&self) -> BTreeSet<String> {
        lock_clean(&self.failures)
            .iter()
            .filter(|(_, &n)| n >= self.cfg.fail_threshold)
            .map(|(id, _)| id.clone())
            .collect()
    }

    fn note_success(&self, node: &str) {
        let mut failures = lock_clean(&self.failures);
        if let Some(n) = failures.get_mut(node) {
            // Sticky once down; only pre-threshold blips are forgiven.
            if *n < self.cfg.fail_threshold {
                *n = 0;
            }
        }
    }

    fn note_failure(&self, node: &str) {
        let mut failures = lock_clean(&self.failures);
        let n = failures.entry(node.to_string()).or_insert(0);
        if *n < self.cfg.fail_threshold {
            *n += 1;
            if *n >= self.cfg.fail_threshold {
                self.failovers.fetch_add(1, Ordering::Relaxed);
                if tasm_obs::enabled() {
                    tasm_obs::counter(
                        "tasm_router_failovers_total",
                        "Shards marked down after reaching the failure threshold.",
                    )
                    .inc();
                }
                tasm_obs::log::warn("router.failover", &[("shard", node.to_string())]);
            }
        }
    }

    fn stats(&self) -> RouterStats {
        RouterStats {
            routed: self.routed.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            sessions_served: self.sessions_served.load(Ordering::Relaxed),
            map_epoch: self.map.read().expect("map lock").epoch,
            down: self.down_set().into_iter().collect(),
        }
    }
}

/// A running shard router: a listener, its serving threads (one reactor +
/// a routing worker pool), and the health/map-reload thread.
pub struct Router {
    shared: Arc<RouterShared>,
    local_addr: SocketAddr,
    health: Option<JoinHandle<()>>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    jobs: Option<Arc<JobQueue>>,
    waker: Option<tasm_reactor::Waker>,
}

impl Router {
    /// Loads the shard map from `cfg.map_path` and starts routing on
    /// `addr` (`host:0` binds an ephemeral port).
    pub fn bind(cfg: RouterConfig, addr: impl ToSocketAddrs) -> io::Result<Router> {
        let map = ShardMap::load(&cfg.map_path)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(RouterShared {
            cfg,
            map: RwLock::new(map),
            failures: Mutex::new(HashMap::new()),
            admitting: AtomicBool::new(true),
            shutdown: Arc::clone(&shutdown),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            inflight: AtomicUsize::new(0),
            routed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            sessions_served: AtomicU64::new(0),
        });
        let loop_cfg = tasm_reactor::LoopConfig {
            max_connections: shared.cfg.max_connections,
            poll_interval: shared.cfg.poll_interval,
            ..tasm_reactor::LoopConfig::default()
        };
        let ctl = tasm_reactor::Ctl::new(listener, loop_cfg, shutdown)?;
        let waker = ctl.waker();
        let completions = Arc::new(Mutex::new(Vec::new()));
        let jobs = Arc::new(JobQueue::new());
        // The queue is in `router` before the first worker starts: a failed
        // spawn returns through `Drop`, which must close it, or the workers
        // already blocked in `pop` are joined forever.
        let mut router = Router {
            shared: Arc::clone(&shared),
            local_addr,
            health: None,
            reactor: None,
            workers: Vec::new(),
            jobs: Some(Arc::clone(&jobs)),
            waker: Some(waker.clone()),
        };
        for i in 0..shared.cfg.route_workers.max(1) {
            let shared = Arc::clone(&shared);
            let jobs = Arc::clone(&jobs);
            let completions = Arc::clone(&completions);
            let waker = waker.clone();
            router.workers.push(
                std::thread::Builder::new()
                    .name(format!("tasm-route-worker-{i}"))
                    .spawn(move || route_worker(&shared, &jobs, &completions, &waker))?,
            );
        }
        let logic = RouterLogic {
            shared: Arc::clone(&shared),
            completions,
            jobs,
        };
        router.reactor = Some(
            std::thread::Builder::new()
                .name("tasm-route-reactor".to_string())
                .spawn(move || tasm_reactor::run(ctl, logic))?,
        );
        let health = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tasm-route-health".to_string())
                .spawn(move || health_loop(&shared))?
        };
        router.health = Some(health);
        Ok(router)
    }

    /// The address the listener actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the router's counters.
    pub fn stats(&self) -> RouterStats {
        self.shared.stats()
    }

    /// Blocks until a client sends the administrative `ShutdownServer`
    /// frame (the `tasm route` command's idle state).
    pub fn wait_shutdown_requested(&self) {
        let mut requested = lock_clean(&self.shared.shutdown_requested);
        while !*requested {
            requested = match self.shared.shutdown_cv.wait(requested) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// The ordered cluster drain: stop admitting, drain the router's
    /// in-flight queries (the reactor exits once every session has its
    /// answers flushed), then — when `drain_shards` — drain every shard in
    /// shard-map order, collecting each one's final statistics before
    /// asking it to shut down.
    pub fn shutdown(mut self, drain_shards: bool) -> ClusterShutdownReport {
        self.shared.admitting.store(false, Ordering::SeqCst);
        self.stop_threads();
        let mut report = ClusterShutdownReport {
            router: self.shared.stats(),
            shards: Vec::new(),
        };
        if drain_shards {
            let nodes: Vec<(String, String)> = {
                let map = self.shared.map.read().expect("map lock");
                map.nodes
                    .iter()
                    .map(|n| (n.id.clone(), n.addr.clone()))
                    .collect()
            };
            for (id, addr) in nodes {
                report
                    .shards
                    .push(drain_shard(&id, &addr, self.shared.cfg.shard_io_timeout));
            }
        }
        report
    }

    /// Signals shutdown and joins every thread (idempotent). The reactor
    /// joins before the job queue closes so in-flight routed queries still
    /// deliver their responses during the session drain.
    fn stop_threads(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(waker) = &self.waker {
            waker.wake();
        }
        if let Some(t) = self.reactor.take() {
            let _ = t.join();
        }
        if let Some(jobs) = self.jobs.take() {
            jobs.close();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(t) = self.health.take() {
            let _ = t.join();
        }
        self.waker = None;
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// Asks one shard for its final statistics and a graceful shutdown.
fn drain_shard(id: &str, addr: &str, timeout: Duration) -> ShardShutdownReport {
    let mut report = ShardShutdownReport {
        node: id.to_string(),
        addr: addr.to_string(),
        stats: None,
        error: None,
    };
    let sock = match resolve(addr) {
        Ok(s) => s,
        Err(e) => {
            report.error = Some(e);
            return report;
        }
    };
    match Connection::connect_timeout(&sock, timeout) {
        Ok(mut conn) => {
            let _ = conn.set_io_timeout(Some(timeout));
            match conn.stats() {
                Ok(stats) => report.stats = Some(stats),
                Err(e) => report.error = Some(format!("stats failed: {e}")),
            }
            if let Err(e) = conn.shutdown_server() {
                report.error = Some(format!("shutdown refused: {e}"));
            }
        }
        Err(e) => report.error = Some(format!("unreachable: {e}")),
    }
    report
}

fn resolve(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("bad address '{addr}': {e}"))?
        .next()
        .ok_or_else(|| format!("address '{addr}' resolves to nothing"))
}

/// Probes shards and reloads the map. Probing only watches nodes not yet
/// down: detection is proactive (a dead primary is noticed before the
/// next query hits it), while recovery of a down node is deliberately an
/// operator action (map epoch change or router restart).
fn health_loop(shared: &Arc<RouterShared>) {
    loop {
        let mut waited = Duration::ZERO;
        while waited < shared.cfg.health_interval {
            if shared.is_shutting_down() {
                return;
            }
            let step = shared.cfg.poll_interval.min(Duration::from_millis(50));
            std::thread::sleep(step);
            waited += step;
        }
        // Reload the map when its epoch advanced (the rebalance flip).
        if let Ok(new_map) = ShardMap::load(&shared.cfg.map_path) {
            let stale = {
                let map = shared.map.read().expect("map lock");
                new_map.epoch > map.epoch
            };
            if stale {
                *shared.map.write().expect("map lock") = new_map;
            }
        }
        let nodes: Vec<(String, String)> = {
            let map = shared.map.read().expect("map lock");
            map.nodes
                .iter()
                .map(|n| (n.id.clone(), n.addr.clone()))
                .collect()
        };
        let down = shared.down_set();
        let probe_timeout = shared.cfg.shard_io_timeout.min(Duration::from_secs(1));
        for (id, addr) in nodes {
            if down.contains(&id) || shared.is_shutting_down() {
                continue;
            }
            let alive = resolve(&addr)
                .ok()
                .and_then(|sock| Connection::connect_timeout(&sock, probe_timeout).ok())
                .map(|conn| {
                    let _ = conn.goodbye();
                })
                .is_some();
            if alive {
                shared.note_success(&id);
            } else {
                shared.note_failure(&id);
            }
        }
    }
}

/// Fetches (or creates) the session's connection to `node`.
fn shard_conn<'a>(
    shared: &RouterShared,
    shards: &'a mut HashMap<String, Connection>,
    node: &str,
    addr: &str,
) -> Result<&'a mut Connection, String> {
    if !shards.contains_key(node) {
        let sock = resolve(addr)?;
        let conn = Connection::connect_timeout(&sock, shared.cfg.shard_io_timeout)
            .map_err(|e| format!("shard {node} unreachable: {e}"))?;
        conn.set_io_timeout(Some(shared.cfg.shard_io_timeout))
            .map_err(|e| format!("shard {node}: {e}"))?;
        shards.insert(node.to_string(), conn);
    }
    Ok(shards.get_mut(node).expect("just inserted"))
}

/// Routes one query: replica set in placement order, relaying the winning
/// shard's full response verbatim — or a typed error after the last
/// replica — as encoded frames. The shard's execution trace (instance
/// tag, per-phase breakdown) is part of what is relayed, so the client
/// sees which shard served it. Shard failures are handled by failover
/// inside; the reactor streams the frames to the client.
fn route_query_frames(
    shared: &RouterShared,
    shards: &mut HashMap<String, Connection>,
    id: u64,
    video: &str,
    query: &Query,
    trace_id: Option<u64>,
    spare: &WireBuffers,
) -> Vec<Vec<u8>> {
    let placement: Vec<(String, String)> = {
        let map = shared.map.read().expect("map lock");
        let down = shared.down_set();
        map.placement(video, &down)
            .into_iter()
            .map(|n| (n.id.clone(), n.addr.clone()))
            .collect()
    };
    if placement.is_empty() {
        return vec![Message::Error {
            id: Some(id),
            code: ErrorCode::Internal,
            message: format!("no live replica for '{video}'"),
        }
        .encode()];
    }
    let mut last = (ErrorCode::Internal, "all replicas failed".to_string());
    for (attempt, (node, addr)) in placement.iter().enumerate() {
        if attempt > 0 {
            shared.retries.fetch_add(1, Ordering::Relaxed);
        }
        let conn = match shard_conn(shared, shards, node, addr) {
            Ok(conn) => conn,
            Err(e) => {
                shared.note_failure(node);
                last = (ErrorCode::Internal, e);
                continue;
            }
        };
        // The shard's frames are relayed as they came — only the request
        // id is rewritten — so a region is copied once on its way through
        // and the trace keeps naming the shard that executed, not the
        // router.
        match conn.relay_query(video, query, trace_id, id, spare) {
            Ok(frames) => {
                shared.note_success(node);
                shared.routed.fetch_add(1, Ordering::Relaxed);
                if tasm_obs::enabled() {
                    tasm_obs::counter(
                        "tasm_router_queries_total",
                        "Queries successfully routed to a shard.",
                    )
                    .inc();
                }
                return frames;
            }
            Err(ClientError::Rejected { code, message }) => {
                // The shard is alive and on a frame boundary: its
                // connection stays pooled, but a backup may still be able
                // to answer (BUSY under load, UnknownVideo on a stale
                // placement).
                last = (code, message);
            }
            Err(e) => {
                // Transport/protocol failure mid-stream: the connection
                // cannot be resynchronized. Drop it and count the node.
                shards.remove(node);
                shared.note_failure(node);
                last = (ErrorCode::Internal, format!("shard {node} failed: {e}"));
            }
        }
    }
    vec![Message::Error {
        id: Some(id),
        code: last.0,
        message: last.1,
    }
    .encode()]
}

/// Fans `StatsRequest` out to every live shard and merges the snapshots.
fn cluster_stats(shared: &RouterShared, shards: &mut HashMap<String, Connection>) -> ServiceStats {
    let nodes: Vec<(String, String)> = {
        let map = shared.map.read().expect("map lock");
        map.nodes
            .iter()
            .map(|n| (n.id.clone(), n.addr.clone()))
            .collect()
    };
    let down = shared.down_set();
    let mut merged = ServiceStats::default();
    for (node, addr) in nodes {
        if down.contains(&node) {
            continue;
        }
        let Ok(conn) = shard_conn(shared, shards, &node, &addr) else {
            shared.note_failure(&node);
            continue;
        };
        match conn.stats() {
            Ok(stats) => {
                shared.note_success(&node);
                merge_stats(&mut merged, &stats);
            }
            Err(_) => {
                shards.remove(&node);
                shared.note_failure(&node);
            }
        }
    }
    merged
}

/// A queue of routing jobs feeding the worker pool. Hand-rolled (mutex +
/// condvar) so several workers can block on `pop` concurrently — sharing
/// one `mpsc::Receiver` would serialize pickup behind its lock.
struct JobQueue {
    state: Mutex<(std::collections::VecDeque<RouteJob>, bool)>,
    ready: Condvar,
}

impl JobQueue {
    fn new() -> JobQueue {
        JobQueue {
            state: Mutex::new((std::collections::VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    /// Enqueues a job; false once the queue is closed (shutdown).
    fn push(&self, job: RouteJob) -> bool {
        let mut state = lock_clean(&self.state);
        if state.1 {
            return false;
        }
        state.0.push_back(job);
        drop(state);
        self.ready.notify_one();
        true
    }

    /// Blocks for the next job; `None` once closed and empty.
    fn pop(&self) -> Option<RouteJob> {
        let mut state = lock_clean(&self.state);
        loop {
            if let Some(job) = state.0.pop_front() {
                return Some(job);
            }
            if state.1 {
                return None;
            }
            state = match self.ready.wait(state) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    fn close(&self) {
        lock_clean(&self.state).1 = true;
        self.ready.notify_all();
    }
}

/// One unit of work for the routing pool — operations that do blocking
/// shard I/O and therefore must not run on the reactor thread.
enum RouteJob {
    Query {
        token: u64,
        id: u64,
        video: String,
        query: Query,
        trace_id: Option<u64>,
        /// Flushed frame buffers of the session the answer is bound for.
        spare: Arc<WireBuffers>,
    },
    Stats {
        token: u64,
    },
}

/// A finished routing job: the full response, encoded, ready to stream.
struct RouteDone {
    token: u64,
    frames: Vec<Vec<u8>>,
}

/// Streams a completed route's frames through the reactor's paced encode
/// pump (bounded unwritten bytes against a slow-reading client).
struct Frames(std::collections::VecDeque<Vec<u8>>);

impl tasm_reactor::ResponseSource for Frames {
    fn next_frame(&mut self, _flushed: bool, _spare: &WireBuffers) -> tasm_reactor::NextFrame {
        match self.0.pop_front() {
            Some(frame) => tasm_reactor::NextFrame::Frame(frame),
            None => tasm_reactor::NextFrame::Done,
        }
    }
}

/// Executes routing jobs against this worker's private pool of shard
/// connections, pushing completed responses back to the reactor.
fn route_worker(
    shared: &Arc<RouterShared>,
    jobs: &Arc<JobQueue>,
    completions: &Arc<Mutex<Vec<RouteDone>>>,
    waker: &tasm_reactor::Waker,
) {
    let mut shards: HashMap<String, Connection> = HashMap::new();
    while let Some(job) = jobs.pop() {
        let done = match job {
            RouteJob::Query {
                token,
                id,
                video,
                query,
                trace_id,
                spare,
            } => {
                let frames =
                    route_query_frames(shared, &mut shards, id, &video, &query, trace_id, &spare);
                // The router-wide in-flight slot frees when the route
                // finishes, session alive or not.
                shared.inflight.fetch_sub(1, Ordering::AcqRel);
                RouteDone { token, frames }
            }
            RouteJob::Stats { token } => {
                let merged = cluster_stats(shared, &mut shards);
                RouteDone {
                    token,
                    frames: vec![Message::StatsReply {
                        stats: Box::new(merged),
                    }
                    .encode()],
                }
            }
        };
        lock_clean(completions).push(done);
        waker.wake();
    }
}

/// The router's reactor [`Logic`](tasm_reactor::Logic): the server's
/// protocol, with shard I/O handed to the worker pool. A session pauses
/// while its job is in flight — the router serves one request per session
/// at a time (it advertises `max_inflight: 1`), so answers leave in
/// request order.
struct RouterLogic {
    shared: Arc<RouterShared>,
    completions: Arc<Mutex<Vec<RouteDone>>>,
    jobs: Arc<JobQueue>,
}

impl RouterLogic {
    fn send_error(
        ctl: &mut tasm_reactor::Ctl,
        token: u64,
        id: Option<u64>,
        code: ErrorCode,
        message: String,
    ) {
        ctl.send_frame(token, Message::Error { id, code, message }.encode());
    }

    /// Hands a job to the pool, pausing the session until its response
    /// comes back through the completion queue.
    fn submit(&mut self, ctl: &mut tasm_reactor::Ctl, token: u64, job: RouteJob) {
        ctl.set_paused(token, true);
        ctl.inflight_inc(token);
        if !self.jobs.push(job) {
            ctl.inflight_dec(token);
            ctl.set_paused(token, false);
            Self::send_error(
                ctl,
                token,
                None,
                ErrorCode::ShuttingDown,
                "router is draining".to_string(),
            );
        }
    }
}

impl tasm_reactor::Logic for RouterLogic {
    fn on_accept(&mut self, _ctl: &mut tasm_reactor::Ctl, _token: u64) {}

    fn on_refused(&mut self) {}

    fn refusal_frame(&mut self) -> Vec<u8> {
        Message::Error {
            id: None,
            code: ErrorCode::TooManyConnections,
            message: "router is at its connection limit".to_string(),
        }
        .encode()
    }

    fn on_frame(&mut self, ctl: &mut tasm_reactor::Ctl, token: u64, payload: Vec<u8>) {
        let msg = match Message::decode_payload(&payload) {
            Ok(msg) => msg,
            Err(_) => {
                let text = if ctl.handshaken(token) {
                    "undecodable frame"
                } else {
                    "expected client hello"
                };
                Self::send_error(ctl, token, None, ErrorCode::Malformed, text.to_string());
                ctl.begin_drain(token);
                return;
            }
        };
        if !ctl.handshaken(token) {
            match msg {
                Message::ClientHello { version } if version == VERSION => {
                    ctl.mark_handshaken(token);
                    self.shared.sessions_served.fetch_add(1, Ordering::Relaxed);
                    ctl.send_frame(
                        token,
                        Message::ServerHello {
                            version: VERSION,
                            // The router handles one query per session at
                            // a time.
                            max_inflight: 1,
                        }
                        .encode(),
                    );
                }
                Message::ClientHello { version } => {
                    Self::send_error(
                        ctl,
                        token,
                        None,
                        ErrorCode::VersionMismatch,
                        format!("router speaks version {VERSION}, client sent {version}"),
                    );
                    ctl.begin_drain(token);
                }
                _ => {
                    Self::send_error(
                        ctl,
                        token,
                        None,
                        ErrorCode::Malformed,
                        "expected client hello".to_string(),
                    );
                    ctl.begin_drain(token);
                }
            }
            return;
        }
        match msg {
            Message::Query {
                id,
                video,
                query,
                trace_id,
            } => {
                if !self.shared.admitting.load(Ordering::SeqCst) {
                    Self::send_error(
                        ctl,
                        token,
                        Some(id),
                        ErrorCode::ShuttingDown,
                        "router is draining".to_string(),
                    );
                    return;
                }
                if self.shared.inflight.fetch_add(1, Ordering::AcqRel)
                    >= self.shared.cfg.max_inflight
                {
                    self.shared.inflight.fetch_sub(1, Ordering::AcqRel);
                    self.shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
                    Self::send_error(
                        ctl,
                        token,
                        Some(id),
                        ErrorCode::Busy,
                        "router in-flight cap reached".to_string(),
                    );
                    return;
                }
                // The worker decrements the router-wide count; the
                // submit below tracks the per-session slot.
                let Some(spare) = ctl.spare_buffers(token) else {
                    return;
                };
                self.submit(
                    ctl,
                    token,
                    RouteJob::Query {
                        token,
                        id,
                        video,
                        query,
                        trace_id,
                        spare,
                    },
                );
            }
            Message::StatsRequest => self.submit(ctl, token, RouteJob::Stats { token }),
            Message::Goodbye => ctl.begin_drain(token),
            Message::ShutdownServer => {
                *lock_clean(&self.shared.shutdown_requested) = true;
                self.shared.shutdown_cv.notify_all();
                ctl.send_frame(token, Message::Goodbye.encode());
                ctl.begin_drain(token);
            }
            _ => {
                Self::send_error(
                    ctl,
                    token,
                    None,
                    ErrorCode::Malformed,
                    "unexpected frame".to_string(),
                );
                ctl.begin_drain(token);
            }
        }
    }

    fn on_wake(&mut self, ctl: &mut tasm_reactor::Ctl) {
        let batch: Vec<RouteDone> = lock_clean(&self.completions).drain(..).collect();
        for done in batch {
            if !ctl.is_open(done.token) {
                continue;
            }
            ctl.inflight_dec(done.token);
            ctl.set_paused(done.token, false);
            ctl.send_response(done.token, Box::new(Frames(done.frames.into())));
        }
    }

    fn on_close(&mut self, _token: u64, _handshaken: bool) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::NodeInfo;
    use tasm_core::LabelPredicate;

    /// A router over a saved one-shard map whose shard never answers:
    /// admission control runs before any shard is asked.
    fn router_without_shards(tag: &str, cfg: RouterConfig) -> Router {
        let map_path =
            std::env::temp_dir().join(format!("tasm-router-{tag}-{}.json", std::process::id()));
        let node = NodeInfo {
            id: "n1".to_string(),
            addr: "127.0.0.1:1".to_string(),
        };
        ShardMap::new(vec![node], 1)
            .expect("map")
            .save(&map_path)
            .expect("save map");
        Router::bind(RouterConfig { map_path, ..cfg }, "127.0.0.1:0").expect("bind router")
    }

    /// The connection cap refuses extra connections with a typed error
    /// frame at handshake.
    #[test]
    fn connection_cap_refuses_with_typed_error() {
        let router = router_without_shards(
            "conncap",
            RouterConfig {
                max_connections: 1,
                ..Default::default()
            },
        );
        let first = Connection::connect(router.local_addr()).expect("first connection fits");
        match Connection::connect(router.local_addr()) {
            Err(ClientError::Rejected {
                code: ErrorCode::TooManyConnections,
                ..
            }) => {}
            Err(other) => panic!("expected TooManyConnections, got {other}"),
            Ok(_) => panic!("second connection must be refused"),
        }
        first.goodbye().expect("goodbye");
        router.shutdown(false);
    }

    /// A query over the router-wide in-flight cap is answered BUSY and
    /// counted.
    #[test]
    fn inflight_cap_answers_busy() {
        let router = router_without_shards(
            "busy",
            RouterConfig {
                max_inflight: 0,
                ..Default::default()
            },
        );
        let mut conn = Connection::connect(router.local_addr()).expect("connect");
        match conn.query("v", &Query::new(LabelPredicate::label("car"))) {
            Err(ClientError::Rejected {
                code: ErrorCode::Busy,
                ..
            }) => {}
            other => panic!("expected Busy, got {other:?}"),
        }
        assert_eq!(router.stats().busy_rejections, 1);
        conn.goodbye().expect("goodbye");
        router.shutdown(false);
    }
}
