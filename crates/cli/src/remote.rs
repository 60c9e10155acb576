//! The commands over a network: `serve`, `route`, `rebalance`, and the
//! `cluster` and `client` subcommands.

use crate::args::Args;
use crate::commands::{build_query, open_stored, service_config, CmdResult};
use crate::report::{
    percentiles, print_answer, print_trace, render_router_series, render_server_series,
    report_recovery, service_stats_json, service_text,
};
use std::error::Error;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use tasm_client::{Connection, LoadGen, LoadGenConfig};
use tasm_obs::MetricsServer;
use tasm_server::{ServerConfig, TasmServer};
use tasm_service::ServiceConfig;

/// Applies the shared structured-logging flags (`--log-level`,
/// `--log-json`) to the process-wide logger.
fn apply_log_flags(args: &Args) -> Result<(), Box<dyn Error>> {
    if let Some(level) = args.get("log-level") {
        tasm_obs::log::set_level(match level {
            "debug" => tasm_obs::Level::Debug,
            "info" => tasm_obs::Level::Info,
            "warn" => tasm_obs::Level::Warn,
            "error" => tasm_obs::Level::Error,
            other => return Err(format!("unknown log level '{other}'").into()),
        });
    }
    if args.has("log-json") {
        tasm_obs::log::set_json(true);
    }
    Ok(())
}

/// Starts the Prometheus exposition endpoint shared by `serve` and
/// `route` when `--metrics-addr` is given: the global registry, then what
/// `extra` appends (the series rendered from the server's or the router's
/// own counts).
fn start_metrics(
    args: &Args,
    extra: impl Fn(&mut String) + Send + Sync + 'static,
) -> Result<Option<MetricsServer>, Box<dyn Error>> {
    let Some(addr) = args.get("metrics-addr") else {
        return Ok(None);
    };
    let body = Arc::new(move || {
        let mut out = tasm_obs::render();
        extra(&mut out);
        out
    });
    let endpoint = MetricsServer::serve(addr, body)?;
    println!(
        "metrics exposed at http://{}/metrics",
        endpoint.local_addr()
    );
    Ok(Some(endpoint))
}

/// Serves every video in the store over TCP until a client sends the
/// administrative shutdown frame.
pub(crate) fn serve(args: &Args) -> CmdResult {
    let store = args.required("store")?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7743");
    let cfg = ServiceConfig {
        slow_query: args.get_opt("slow-query-ms")?.map(Duration::from_millis),
        ..service_config(args)?
    };
    apply_log_flags(args)?;
    let server_cfg = ServerConfig {
        max_connections: args.get_or("max-connections", 64usize)?,
        max_inflight: args.get_or("max-inflight", 8u32)?,
        ..ServerConfig::default()
    };

    // Every stored video is served, ingested or replicated; queries name
    // them over the wire. The detector output lives in the persistent
    // index, so no ground truth is replayed.
    let (tasm, served) = open_stored(store, args, None)?;
    let tasm = Arc::new(tasm);
    // Opening ran startup recovery; surface what it repaired (e.g. after a
    // kill -9 mid-re-tile) before serving any traffic.
    report_recovery(&tasm);
    if served.is_empty() {
        return Err(format!("store '{store}' holds no servable videos").into());
    }

    // Primary→backup replication: full-sync every backup now, then hook
    // the retile daemon so layout changes replicate before they count as
    // durable.
    let backups = args.list("backup");
    let hook: Option<Arc<dyn tasm_service::RetileHook>> = if backups.is_empty() {
        None
    } else {
        let hook = tasm_cluster::ReplicatorHook::bootstrap(Arc::clone(&tasm), &backups)
            .map_err(|e| format!("backup sync failed: {e}"))?;
        println!(
            "replicating to {} backup(s): {}",
            backups.len(),
            backups.join(", ")
        );
        Some(Arc::new(hook))
    };

    let server = Arc::new(TasmServer::bind_with_hook(
        tasm, cfg, server_cfg, addr, hook,
    )?);
    let stats_server = Arc::clone(&server);
    let metrics = start_metrics(args, move |out: &mut String| {
        render_server_series(out, &stats_server.stats(), stats_server.rejections())
    })?;
    println!(
        "tasm-server listening on {} — serving [{}] ({} workers, queue depth {}, retile {:?})",
        server.local_addr(),
        served.join(", "),
        if cfg.workers == 0 {
            "auto".to_string()
        } else {
            cfg.workers.to_string()
        },
        cfg.queue_depth,
        cfg.retile,
    );
    println!(
        "stop with: tasm client shutdown --addr {}",
        server.local_addr()
    );
    std::io::stdout().flush().ok();

    server.wait_shutdown_requested();
    // The metrics endpoint holds the only other handle on the server;
    // stopping it first makes the unwrap below infallible.
    if let Some(m) = metrics {
        m.shutdown();
    }
    let server = Arc::try_unwrap(server).map_err(|_| "metrics endpoint still holds the server")?;
    let report = server.shutdown();
    println!(
        "shutdown: {} sessions served, {} queries abandoned, {} busy rejections",
        report.sessions_served, report.service.abandoned, report.busy_rejections,
    );
    print!("{}", service_text("  ", &report.service.stats));
    Ok(())
}

/// Runs one remote query and reports the same summary as the local
/// `query` command, plus the client-observed latency.
pub(crate) fn client_query(args: &Args) -> CmdResult {
    let addr = args.required("addr")?;
    let name = args.required("name")?;
    let label = args.required("label")?;
    // The remote end clamps the window to the video length.
    let q = build_query(args, u32::MAX)?;
    let mut conn = Connection::connect(addr)?;
    let explain = args.has("explain");
    // A client-supplied trace id lets this invocation be correlated with
    // the server's slow-query log.
    let trace_id = explain.then(tasm_obs::next_trace_id);
    let outcome = conn.query_traced(name, &q, trace_id)?;
    let summary = &outcome.summary;
    let cost = format!(
        "{} samples decoded, {} cache hits",
        summary.samples_decoded, summary.cache_hits
    );
    print_answer(
        &format!("'{label}' on {name}@{addr}"),
        q.query_mode(),
        outcome.matched,
        outcome.regions.len(),
        &outcome.plan,
        outcome.epoch,
        &cost,
    );
    println!(
        "  latency: {:.2} ms end-to-end ({:.2} ms server-side decode)",
        outcome.latency.as_secs_f64() * 1e3,
        (summary.lookup_micros + summary.exec_micros) as f64 / 1e3,
    );
    if explain {
        match &outcome.trace {
            Some(trace) => print_trace(trace),
            None => println!("  (server sent no trace — pre-tracing build?)"),
        }
    }
    conn.goodbye()?;
    Ok(())
}

/// Floods a remote server from a connection pool and reports throughput
/// plus the client- and server-observed latency percentiles.
pub(crate) fn client_loadgen(args: &Args) -> CmdResult {
    let addr = args.required("addr")?;
    let name = args.required("name")?;
    let requests: u64 = args.get_or("requests", 100)?;
    let connections: usize = args.get_or("connections", 4)?;
    let frames: u32 = args.get_or("frames", 0)?;
    let window: u32 = args.get_or("window", 30)?;
    let reconnects: u32 = args.get_or("reconnects", 0)?;
    let query = build_query(args, u32::MAX)?;

    let report = LoadGen::new(LoadGenConfig {
        connections,
        requests,
        video: name.to_string(),
        query,
        window,
        frames,
        reconnect_attempts: reconnects,
    })
    .run(addr)?;
    println!(
        "loadgen against {name}@{addr}: {} completed, {} busy retries, {} failed ({} reconnects) in {:.2}s — {:.1} queries/s over {connections} connections",
        report.completed,
        report.busy,
        report.failed,
        report.reconnects,
        report.elapsed.as_secs_f64(),
        report.throughput(),
    );
    println!(
        "  client-observed latency: {} (mean {:.2} ms), {} regions",
        percentiles(&report.latency),
        report.latency.mean().as_secs_f64() * 1e3,
        report.regions,
    );
    // Server-side counters are lifetime totals for the whole server, not
    // scoped to this run — label them as such.
    if let Ok(mut conn) = Connection::connect(addr) {
        if let Ok(stats) = conn.stats() {
            println!("  server lifetime:");
            print!("{}", service_text("    ", &stats));
        }
        let _ = conn.goodbye();
    }
    Ok(())
}

/// Prints a remote server's aggregate statistics.
pub(crate) fn client_stats(args: &Args) -> CmdResult {
    let addr = args.required("addr")?;
    let mut conn = Connection::connect(addr)?;
    let stats = conn.stats()?;
    if args.has("json") {
        println!("{}", service_stats_json(addr, &stats));
    } else {
        print!("{addr}:\n{}", service_text("  ", &stats));
    }
    conn.goodbye()?;
    Ok(())
}

/// Asks a remote server to shut down gracefully.
pub(crate) fn client_shutdown(args: &Args) -> CmdResult {
    let addr = args.required("addr")?;
    let mut conn = Connection::connect(addr)?;
    conn.shutdown_server()?;
    println!("server at {addr} acknowledged shutdown");
    Ok(())
}

/// Writes an epoch-1 shard map from `--nodes id=addr,...`.
pub(crate) fn cluster_init(args: &Args) -> CmdResult {
    let map_path = PathBuf::from(args.required("map")?);
    let mut nodes = Vec::new();
    for spec in args.list("nodes") {
        let (id, addr) = spec
            .split_once('=')
            .ok_or_else(|| format!("node spec '{spec}' is not id=host:port"))?;
        nodes.push(tasm_cluster::NodeInfo {
            id: id.to_string(),
            addr: addr.to_string(),
        });
    }
    let replicas: u32 = args.get_or("replicas", 1)?;
    let mut map = tasm_cluster::ShardMap::new(nodes, replicas)?;
    if let Some(pin) = args.get("pin") {
        let (video, node_list) = pin
            .split_once('=')
            .ok_or_else(|| format!("pin '{pin}' is not VIDEO=NODE[+NODE...]"))?;
        let pinned: Vec<String> = node_list.split('+').map(str::to_string).collect();
        for n in &pinned {
            if map.node(n).is_none() {
                return Err(format!("pin names unknown node '{n}'").into());
            }
        }
        map.pin(video, pinned);
        // `init` publishes one atomic epoch regardless of pins.
        map.epoch = 1;
    }
    map.save(&map_path)?;
    println!(
        "wrote {} (epoch {}, {} nodes, {}-way replication)",
        map_path.display(),
        map.epoch,
        map.nodes.len(),
        map.replicas
    );
    Ok(())
}

/// Prints a shard map, optionally with one video's placement.
pub(crate) fn cluster_show(args: &Args) -> CmdResult {
    let map = tasm_cluster::ShardMap::load(Path::new(args.required("map")?))?;
    println!(
        "epoch {} — {} nodes, {}-way replication",
        map.epoch,
        map.nodes.len(),
        map.replicas
    );
    for n in &map.nodes {
        println!("  node {} @ {}", n.id, n.addr);
    }
    for p in &map.pins {
        println!("  pin {} -> [{}]", p.video, p.nodes.join(", "));
    }
    if let Some(video) = args.get("video") {
        let set: Vec<&str> = map
            .replica_set(video)
            .into_iter()
            .map(|n| n.id.as_str())
            .collect();
        println!("  placement '{video}': [{}]", set.join(", "));
    }
    Ok(())
}

/// Runs the shard router until a client requests shutdown, then drains
/// the whole cluster in order and reports per-shard outcomes.
pub(crate) fn route(args: &Args) -> CmdResult {
    let map_path = PathBuf::from(args.required("map")?);
    let addr = args.get("addr").unwrap_or("127.0.0.1:7750");
    apply_log_flags(args)?;
    let cfg = tasm_cluster::RouterConfig {
        map_path,
        max_connections: args.get_or("max-connections", 64usize)?,
        max_inflight: args.get_or("max-inflight", 64usize)?,
        shard_io_timeout: Duration::from_millis(args.get_or("shard-timeout-ms", 10_000u64)?),
        health_interval: Duration::from_millis(args.get_or("health-ms", 500u64)?),
        fail_threshold: args.get_or("fail-threshold", 2u32)?,
        route_workers: args.get_or("route-workers", 8usize)?,
    };
    let router = Arc::new(tasm_cluster::Router::bind(cfg, addr)?);
    // A scrape renders the router's own counts; no shard is dialed.
    let stats_router = Arc::clone(&router);
    let metrics = start_metrics(args, move |out: &mut String| {
        render_router_series(out, &stats_router.stats())
    })?;
    let stats = router.stats();
    println!(
        "tasm-router listening on {} (shard map epoch {})",
        router.local_addr(),
        stats.map_epoch
    );
    println!(
        "stop with: tasm client shutdown --addr {}",
        router.local_addr()
    );
    std::io::stdout().flush().ok();

    router.wait_shutdown_requested();
    // As in `serve`: the metrics endpoint holds the only other handle.
    if let Some(m) = metrics {
        m.shutdown();
    }
    let router = Arc::try_unwrap(router).map_err(|_| "metrics endpoint still holds the router")?;
    let report = router.shutdown(true);
    println!(
        "cluster drain: {} queries routed ({} replica retries, {} failovers), {} busy rejections, {} sessions",
        report.router.routed,
        report.router.retries,
        report.router.failovers,
        report.router.busy_rejections,
        report.router.sessions_served,
    );
    for shard in &report.shards {
        let (node, addr) = (&shard.node, &shard.addr);
        match (&shard.stats, &shard.error) {
            (Some(stats), None) => {
                print!("  shard {node} @ {addr}:\n{}", service_text("    ", stats))
            }
            (Some(stats), Some(e)) => print!(
                "  shard {node} @ {addr}: drain incomplete: {e}\n{}",
                service_text("    ", stats)
            ),
            (None, e) => println!(
                "  shard {node} @ {addr}: unreachable ({})",
                e.as_deref().unwrap_or("no detail"),
            ),
        }
    }
    Ok(())
}

/// Moves a video to a new primary: copy → verify → flip → GC.
pub(crate) fn rebalance(args: &Args) -> CmdResult {
    let map_path = PathBuf::from(args.required("map")?);
    let video = args.required("video")?;
    let to = args.required("to")?;
    let timeout = Duration::from_millis(args.get_or("timeout-ms", 30_000u64)?);
    let report = tasm_cluster::rebalance(&map_path, video, to, timeout)?;
    println!(
        "rebalanced '{}': [{}] -> [{}] at map epoch {} (gc'd: {})",
        report.video,
        report.from.join(", "),
        report.to.join(", "),
        report.epoch,
        if report.removed.is_empty() {
            "nothing".to_string()
        } else {
            report.removed.join(", ")
        },
    );
    Ok(())
}
