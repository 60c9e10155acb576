//! The shard router: a `tasm-proto` front-end that fans queries out to
//! the owning shards.
//!
//! Clients speak to the router exactly as they would to a single
//! `tasm-server` — same handshake, same `Query`/`StatsRequest`/
//! `ShutdownServer` frames — and never learn the cluster exists: both run
//! the one session front of `tasm-reactor`, which speaks the handshake and
//! the generic replies. Per query the router computes the video's replica
//! set from the shard map and tries each replica in placement order: the
//! primary first, then — on transport failure, BUSY, or a typed rejection
//! — the backups. A node that keeps failing is marked down (*sticky*: a
//! node that missed replicated commits while dead must not silently
//! rejoin and serve stale epochs; it returns via an operator map change or
//! router restart), which promotes its backups in every placement — that
//! is the failover.
//!
//! Routed queries and stats fan-outs do blocking shard I/O, so they run on
//! the front's pool (`route_workers` threads), which check shard
//! connections out of one shared idle pool; the session is paused until
//! its answer is queued, one request at a time.
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
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;
use tasm_client::{ClientError, Connection};
use tasm_core::Query;
use tasm_obs::sync;
use tasm_proto::nio::WireBuffers;
use tasm_proto::{ErrorCode, Message};
use tasm_reactor::{error_frame, Ctl, Front, Logic};
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
    /// Bound on every socket operation against a shard — a hung shard
    /// surfaces as a timeout and triggers failover instead of pinning a
    /// routed query.
    pub shard_io_timeout: Duration,
    /// Period of the health thread's probe/reload cycle.
    pub health_interval: Duration,
    /// Consecutive failures before a node is marked down (promoted past).
    pub fail_threshold: u32,
    /// Routing worker threads: they run routed queries and stats fan-outs,
    /// sharing one pool of idle shard connections, so the session event
    /// loop never blocks on shard I/O.
    pub route_workers: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            map_path: PathBuf::from("cluster.json"),
            max_connections: 64,
            max_inflight: 64,
            shard_io_timeout: Duration::from_secs(10),
            health_interval: Duration::from_millis(500),
            fail_threshold: 2,
            route_workers: 8,
        }
    }
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
    /// Taken as is on poison: the map is read, or replaced whole.
    map: RwLock<ShardMap>,
    /// Consecutive failure counts per node id. A node at or past
    /// `fail_threshold` is down — and stays down (see module docs). Taken
    /// as is on poison: a section moves one count.
    failures: Mutex<HashMap<String, u32>>,
    /// Cleared when the router stops: queries are refused and the health
    /// thread exits.
    admitting: AtomicBool,
    /// Shard connections on a frame boundary, by node id, each checked
    /// out by one routed job at a time. Soft state, dropped on poison (see
    /// [`RouterShared::idle`]).
    idle: Mutex<HashMap<String, Vec<Connection>>>,
    inflight: AtomicUsize,
    routed: AtomicU64,
    retries: AtomicU64,
    failovers: AtomicU64,
    busy_rejections: AtomicU64,
    sessions_served: AtomicU64,
}

impl RouterShared {
    /// The idle shard connections. After a panic under them none is trusted
    /// to sit on a frame boundary: all close, and checkouts connect afresh.
    fn idle(&self) -> MutexGuard<'_, HashMap<String, Vec<Connection>>> {
        sync::lock_or_reset(&self.idle, HashMap::clear)
    }

    /// Every node in the shard map, as (id, address).
    fn nodes(&self) -> Vec<(String, String)> {
        let node = |n: &crate::NodeInfo| (n.id.clone(), n.addr.clone());
        sync::read(&self.map).nodes.iter().map(node).collect()
    }

    fn is_shutting_down(&self) -> bool {
        !self.admitting.load(Ordering::SeqCst)
    }

    fn down_set(&self) -> BTreeSet<String> {
        sync::lock(&self.failures)
            .iter()
            .filter(|(_, &n)| n >= self.cfg.fail_threshold)
            .map(|(id, _)| id.clone())
            .collect()
    }

    fn note_success(&self, node: &str) {
        let mut failures = sync::lock(&self.failures);
        if let Some(n) = failures.get_mut(node) {
            // Sticky once down; only pre-threshold blips are forgiven.
            if *n < self.cfg.fail_threshold {
                *n = 0;
            }
        }
    }

    fn note_failure(&self, node: &str) {
        let mut failures = sync::lock(&self.failures);
        let n = failures.entry(node.to_string()).or_insert(0);
        if *n < self.cfg.fail_threshold {
            *n += 1;
            if *n >= self.cfg.fail_threshold {
                self.failovers.fetch_add(1, Ordering::Relaxed);
                tasm_obs::log::warn("router.failover", &[("shard", node.to_string())]);
            }
        }
    }

    /// An idle connection to `node`, or a new one.
    fn checkout(&self, node: &str, addr: &str) -> Result<Connection, String> {
        if let Some(conn) = self.idle().get_mut(node).and_then(Vec::pop) {
            return Ok(conn);
        }
        Connection::dial(addr, self.cfg.shard_io_timeout)
            .map_err(|e| format!("shard {node} unreachable: {e}"))
    }

    /// Returns a connection on a frame boundary for the next job to reuse.
    fn checkin(&self, node: &str, conn: Connection) {
        let mut idle = self.idle();
        match idle.get_mut(node) {
            Some(conns) => conns.push(conn),
            None => {
                idle.insert(node.to_string(), vec![conn]);
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
            map_epoch: sync::read(&self.map).epoch,
            down: self.down_set().into_iter().collect(),
        }
    }
}

/// A running shard router: a listener, its session front (one reactor
/// thread and `route_workers` routing threads), and the health/map-reload
/// thread.
pub struct Router {
    shared: Arc<RouterShared>,
    local_addr: SocketAddr,
    front: Front,
    health: Option<JoinHandle<()>>,
}

impl Router {
    /// Loads the shard map from `cfg.map_path` and starts routing on
    /// `addr` (`host:0` binds an ephemeral port).
    pub fn bind(cfg: RouterConfig, addr: impl ToSocketAddrs) -> io::Result<Router> {
        let map = ShardMap::load(&cfg.map_path)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(RouterShared {
            cfg,
            map: RwLock::new(map),
            failures: Mutex::new(HashMap::new()),
            admitting: AtomicBool::new(true),
            idle: Mutex::new(HashMap::new()),
            inflight: AtomicUsize::new(0),
            routed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            sessions_served: AtomicU64::new(0),
        });
        let logic = RouterLogic {
            shared: Arc::clone(&shared),
        };
        let workers = shared.cfg.route_workers.max(1);
        let front = Front::start(
            listener,
            shared.cfg.max_connections,
            logic,
            "tasm-route",
            workers,
        )?;
        // A failed spawn below returns through `Drop`, which stops the front.
        let mut router = Router {
            shared: Arc::clone(&shared),
            local_addr,
            front,
            health: None,
        };
        router.health = Some(
            std::thread::Builder::new()
                .name("tasm-route-health".to_string())
                .spawn(move || health_loop(&shared))?,
        );
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
        self.front.wait_shutdown_requested();
    }

    /// The ordered cluster drain: stop admitting, drain the router's
    /// in-flight queries (the reactor exits once every session has its
    /// answers flushed), then — when `drain_shards` — drain every shard in
    /// shard-map order, collecting each one's final statistics before
    /// asking it to shut down.
    pub fn shutdown(mut self, drain_shards: bool) -> ClusterShutdownReport {
        self.stop();
        let mut report = ClusterShutdownReport {
            router: self.shared.stats(),
            shards: Vec::new(),
        };
        if drain_shards {
            for (id, addr) in self.shared.nodes() {
                report
                    .shards
                    .push(drain_shard(&id, &addr, self.shared.cfg.shard_io_timeout));
            }
        }
        report
    }

    /// Stops admitting, stops the front (its sessions drained, its threads
    /// joined), closes the idle shard connections and joins the health
    /// thread (idempotent).
    fn stop(&mut self) {
        self.shared.admitting.store(false, Ordering::SeqCst);
        self.front.stop();
        self.shared.idle().clear();
        if let Some(t) = self.health.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop();
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
    match Connection::dial(addr, timeout) {
        Ok(mut conn) => {
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

/// The health thread's sleep step: how long a stopping router waits for
/// it at most.
const HEALTH_STEP: Duration = Duration::from_millis(25);

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
            std::thread::sleep(HEALTH_STEP);
            waited += HEALTH_STEP;
        }
        // Reload the map when its epoch advanced (the rebalance flip).
        if let Ok(new_map) = ShardMap::load(&shared.cfg.map_path) {
            let stale = {
                let map = sync::read(&shared.map);
                new_map.epoch > map.epoch
            };
            if stale {
                *sync::write(&shared.map) = new_map;
            }
        }
        let nodes = shared.nodes();
        let down = shared.down_set();
        let probe_timeout = shared.cfg.shard_io_timeout.min(Duration::from_secs(1));
        for (id, addr) in nodes {
            if down.contains(&id) || shared.is_shutting_down() {
                continue;
            }
            let alive = Connection::dial(&addr, probe_timeout)
                .map(|conn| {
                    let _ = conn.goodbye();
                })
                .is_ok();
            if alive {
                shared.note_success(&id);
            } else {
                shared.note_failure(&id);
            }
        }
    }
}

/// Routes one query: replica set in placement order, relaying the winning
/// shard's full response verbatim — or a typed error after the last
/// replica — as encoded frames. The shard's execution trace (instance
/// tag, per-phase breakdown) is part of what is relayed, so the client
/// sees which shard served it. Shard failures are handled by failover
/// inside; the reactor streams the frames to the client.
fn route_query_frames(
    shared: &RouterShared,
    id: u64,
    video: &str,
    query: &Query,
    trace_id: Option<u64>,
    spare: &WireBuffers,
) -> Vec<Vec<u8>> {
    let placement: Vec<(String, String)> = {
        let map = sync::read(&shared.map);
        let down = shared.down_set();
        map.placement(video, &down)
            .into_iter()
            .map(|n| (n.id.clone(), n.addr.clone()))
            .collect()
    };
    if placement.is_empty() {
        let message = format!("no live replica for '{video}'");
        return vec![error_frame(Some(id), ErrorCode::Internal, message)];
    }
    // Every replica's reason, in placement order. The answer's code is the
    // last one that is not `UnknownVideo`: a replica that never received
    // the video says nothing about one that holds it and refused.
    let mut answer = ErrorCode::UnknownVideo;
    let mut reasons = Vec::with_capacity(placement.len());
    let mut refuse = |refused: ErrorCode, reason: String| {
        if refused != ErrorCode::UnknownVideo {
            answer = refused;
        }
        reasons.push(reason);
    };
    for (attempt, (node, addr)) in placement.iter().enumerate() {
        if attempt > 0 {
            shared.retries.fetch_add(1, Ordering::Relaxed);
        }
        let mut conn = match shared.checkout(node, addr) {
            Ok(conn) => conn,
            Err(e) => {
                shared.note_failure(node);
                refuse(ErrorCode::Internal, format!("{node}: {e}"));
                continue;
            }
        };
        // The shard's frames are relayed as they came — only the request
        // id is rewritten — so a region is copied once on its way through
        // and the trace keeps naming the shard that executed, not the
        // router.
        match conn.relay_query(video, query, trace_id, id, spare) {
            Ok(frames) => {
                shared.checkin(node, conn);
                shared.note_success(node);
                shared.routed.fetch_add(1, Ordering::Relaxed);
                return frames;
            }
            Err(ClientError::Rejected { code, message }) => {
                // The shard is alive and on a frame boundary: its
                // connection goes back to the pool, but a backup may still
                // be able to answer (BUSY under load, UnknownVideo on a
                // stale placement).
                shared.checkin(node, conn);
                refuse(code, format!("{node}: {message}"));
            }
            Err(e) => {
                // Transport/protocol failure mid-stream: the connection
                // cannot be resynchronized. Drop it and count the node.
                shared.note_failure(node);
                refuse(ErrorCode::Internal, format!("{node}: shard failed: {e}"));
            }
        }
    }
    let message = format!("every replica refused: {}", reasons.join("; "));
    vec![error_frame(Some(id), answer, message)]
}

/// Fans `StatsRequest` out to every live shard and merges the snapshots.
fn cluster_stats(shared: &RouterShared) -> ServiceStats {
    let nodes = shared.nodes();
    let down = shared.down_set();
    let mut merged = ServiceStats::default();
    for (node, addr) in nodes {
        if down.contains(&node) {
            continue;
        }
        let Ok(mut conn) = shared.checkout(&node, &addr) else {
            shared.note_failure(&node);
            continue;
        };
        match conn.stats() {
            Ok(stats) => {
                shared.checkin(&node, conn);
                shared.note_success(&node);
                merge_stats(&mut merged, &stats);
            }
            Err(_) => shared.note_failure(&node),
        }
    }
    merged
}

/// The router's [`Logic`]: admission, then placement and failover on the
/// front's pool.
struct RouterLogic {
    shared: Arc<RouterShared>,
}

impl Logic for RouterLogic {
    const NAME: &'static str = "router";

    /// One request per session at a time: each pauses its session until
    /// its answer is queued, so answers leave in request order.
    fn max_inflight(&self) -> u32 {
        1
    }

    fn on_hello(&mut self) {
        self.shared.sessions_served.fetch_add(1, Ordering::Relaxed);
    }

    fn on_request(&mut self, ctl: &mut Ctl, token: u64, msg: Message) -> bool {
        let shared = Arc::clone(&self.shared);
        match msg {
            Message::Query {
                id,
                video,
                query,
                trace_id,
            } => {
                let refusal = if shared.is_shutting_down() {
                    Some((ErrorCode::ShuttingDown, "router is draining"))
                } else if shared.inflight.fetch_add(1, Ordering::AcqRel) >= shared.cfg.max_inflight
                {
                    shared.inflight.fetch_sub(1, Ordering::AcqRel);
                    shared.busy_rejections.fetch_add(1, Ordering::Relaxed);
                    Some((ErrorCode::Busy, "router in-flight cap reached"))
                } else {
                    None
                };
                if let Some((code, message)) = refusal {
                    ctl.send_frame(token, error_frame(Some(id), code, message.to_string()));
                    return true;
                }
                ctl.offload(token, move |spare| {
                    let frames = route_query_frames(&shared, id, &video, &query, trace_id, spare);
                    // The router-wide slot frees when the route finishes,
                    // session alive or not.
                    shared.inflight.fetch_sub(1, Ordering::AcqRel);
                    frames.into_iter()
                });
            }
            Message::StatsRequest => ctl.offload(token, move |_| {
                let stats = Box::new(cluster_stats(&shared));
                vec![Message::StatsReply { stats }.encode()].into_iter()
            }),
            _ => return false,
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::NodeInfo;
    use tasm_core::LabelPredicate;

    /// A router over a one-shard map whose shard never answers: admission
    /// control runs before any shard is asked. The map file is removed
    /// once the router has loaded it.
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
        let cfg = RouterConfig {
            map_path: map_path.clone(),
            ..cfg
        };
        let router = Router::bind(cfg, "127.0.0.1:0");
        std::fs::remove_file(&map_path).ok();
        router.expect("bind router")
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
