//! The admin commands' reports, each built once and rendered once: a
//! stored video's, a query answer's, a query service's counters, the index
//! tier's, a query trace's and startup recovery's, as text or as JSON.

use serde::Serialize;
use std::error::Error;
use std::fmt::Write as _;
use std::time::Duration;
use tasm_cluster::RouterStats;
use tasm_core::{PlanStats, QueryMode, Tasm};
use tasm_index::{SemanticIndex, TieredIndex};
use tasm_obs::{HistogramSnapshot, QueryTrace};
use tasm_service::ServiceStats;

/// One stored video, from one read of its manifest, pack sizes and
/// labels: the facts `info`'s and `stats`' lines, the `stats --json`
/// object and the `ingest` and `retile` summaries print.
pub(crate) struct VideoReport {
    pub id: u32,
    pub width: u32,
    pub height: u32,
    pub tiled_sots: usize,
    pub labels: Vec<String>,
    /// What `stats --json` prints of the video.
    pub stats: VideoStats,
}

impl VideoReport {
    /// The report of `name`, which `tasm` has attached.
    pub fn build(tasm: &Tasm, name: &str) -> Result<VideoReport, Box<dyn Error>> {
        let m = tasm.manifest(name)?;
        let id = tasm.video_id(name)?;
        let luma = m.width as u64 * m.height as u64;
        let codecs = m.sots.iter().flat_map(|sot| &sot.tile_codecs);
        let dct = codecs.clone().filter(|&&c| c == 0).count() as u64;
        Ok(VideoReport {
            id,
            width: m.width,
            height: m.height,
            tiled_sots: m.sots.iter().filter(|s| !s.layout.is_untiled()).count(),
            labels: tasm.with_index(|ix| ix.labels(id))?,
            stats: VideoStats {
                name: name.to_string(),
                disk_bytes: tasm.video_size_bytes(name)?,
                raw_bytes: m.frame_count as u64 * (luma + luma / 2),
                frames: m.frame_count,
                sots: m.sots.len(),
                tiles_dct: dct,
                tiles_pred: codecs.count() as u64 - dct,
            },
        })
    }

    /// The video's size on disk, in KiB.
    pub fn kib(&self) -> f64 {
        self.stats.disk_bytes as f64 / 1024.0
    }
}

/// One video's object in `stats --json`.
#[derive(Serialize)]
#[cfg_attr(test, derive(serde::Deserialize))]
pub(crate) struct VideoStats {
    pub name: String,
    pub disk_bytes: u64,
    pub raw_bytes: u64,
    pub frames: u32,
    pub sots: usize,
    pub tiles_dct: u64,
    pub tiles_pred: u64,
}

/// The semantic index tier's object in `stats --storage --json`.
#[derive(Serialize)]
#[cfg_attr(test, derive(serde::Deserialize))]
pub(crate) struct IndexStats {
    pub runs: usize,
    pub run_entries: u64,
    pub memtable_entries: usize,
    pub detections: u64,
    pub disk_bytes: u64,
    pub resident_bytes: u64,
    pub filter_probes: u64,
    pub filter_skips: u64,
    pub runs_read: u64,
    /// Runs still in the `TSR1` layout; compaction rewrites them as `TSR2`.
    pub v1_runs: usize,
}

/// `stats --json`.
#[derive(Serialize)]
#[cfg_attr(test, derive(serde::Deserialize))]
pub(crate) struct StoreStats {
    pub videos: Vec<VideoStats>,
}

/// `stats --storage --json`.
#[derive(Serialize)]
#[cfg_attr(test, derive(serde::Deserialize))]
pub(crate) struct StoreStorageStats {
    pub videos: Vec<VideoStats>,
    /// DCT tiles still in the v1 block syntax (`FsckReport::v1_tiles`).
    pub v1_tiles: u64,
    pub index: IndexStats,
}

/// What `stats` prints: a line per video and, when `storage` is given, the
/// count of DCT tiles still in the v1 block syntax and the semantic index
/// tier's counters, as text or (`json`) one JSON object.
pub(crate) fn store_stats(
    videos: Vec<VideoReport>,
    storage: Option<(&TieredIndex, u64)>,
    json: bool,
) -> Result<String, Box<dyn Error>> {
    if json {
        let videos = videos.into_iter().map(|v| v.stats).collect();
        let line = match storage.map(|(tier, v1)| (tier.stats(), tier.detection_count(), v1)) {
            None => serde_json::to_string(&StoreStats { videos })?,
            Some((ts, detections, v1_tiles)) => serde_json::to_string(&StoreStorageStats {
                videos,
                v1_tiles,
                index: IndexStats {
                    runs: ts.run_count,
                    run_entries: ts.run_entries,
                    memtable_entries: ts.memtable_entries,
                    detections,
                    disk_bytes: ts.disk_bytes,
                    resident_bytes: ts.resident_bytes,
                    filter_probes: ts.filter_probes,
                    filter_skips: ts.filter_skips,
                    runs_read: ts.runs_read,
                    v1_runs: ts.v1_runs,
                },
            })?,
        };
        return Ok(line + "\n");
    }
    let mut out = String::new();
    for v in &videos {
        let VideoStats {
            name,
            disk_bytes,
            raw_bytes,
            tiles_dct,
            tiles_pred,
            ..
        } = &v.stats;
        writeln!(
            out,
            "{name}: {:.1} KiB on disk / {:.1} KiB raw ({:.2}x smaller), tiles: {tiles_dct} dct, {tiles_pred} pred",
            v.kib(),
            *raw_bytes as f64 / 1024.0,
            *raw_bytes as f64 / (*disk_bytes).max(1) as f64,
        )?;
    }
    let Some((tier, v1_tiles)) = storage else {
        return Ok(out);
    };
    writeln!(
        out,
        "tiles: {v1_tiles} DCT tile(s) still in the v1 block syntax"
    )?;
    let ts = tier.stats();
    writeln!(out, "semantic index tier:")?;
    writeln!(
        out,
        "  {} run(s) holding {} entries ({} still TSR1), memtable {} entries, {} detections total",
        ts.run_count,
        ts.run_entries,
        ts.v1_runs,
        ts.memtable_entries,
        tier.detection_count()
    )?;
    for (id, n, bytes) in tier.run_summaries() {
        let kib = bytes as f64 / 1024.0;
        writeln!(out, "    run {id:08}: {n} entries, {kib:.1} KiB")?;
    }
    writeln!(
        out,
        "  disk {:.1} KiB, resident {:.1} KiB ({:.1}% of a fully resident map)",
        ts.disk_bytes as f64 / 1024.0,
        ts.resident_bytes as f64 / 1024.0,
        100.0 * ts.resident_bytes as f64
            / ((ts.run_entries + ts.memtable_entries as u64).max(1) * 32) as f64,
    )?;
    writeln!(
        out,
        "  range tables: {} probe(s), {} skipped disk reads ({:.0}% hit rate), {} run file(s) read",
        ts.filter_probes,
        ts.filter_skips,
        100.0 * ts.filter_hit_rate(),
        ts.runs_read,
    )?;
    Ok(out)
}

/// Prints what `query` and `client query` say of one answer, over the
/// fields a local result and a remote outcome both carry: the mode line
/// and the plan line. `what` names the query (`'LABEL' over frames S..E`,
/// `'LABEL' on VIDEO@ADDR`) and `cost` what a pixel answer's decode took.
pub(crate) fn print_answer(
    what: &str,
    mode: QueryMode,
    matched: u64,
    regions: usize,
    plan: &PlanStats,
    epoch: u64,
    cost: &str,
) {
    let frames = plan.frames_sampled;
    match mode {
        QueryMode::Exists => println!(
            "exists {what}: {} ({matched} matches known from the index; no tiles decoded)",
            matched > 0
        ),
        QueryMode::Count => {
            println!("count {what}: {matched} matches on {frames} frames (no tiles decoded)")
        }
        QueryMode::Pixels => println!("query {what}: {regions} regions on {frames} frames, {cost}"),
    }
    println!(
        "  plan: {} tiles decoded / {} pruned, {} GOPs decoded / {} skipped (layout epoch {epoch})",
        plan.tiles_planned, plan.tiles_pruned, plan.gops_planned, plan.gops_skipped
    );
}

/// Prints the `--explain` per-phase breakdown of one query trace. The
/// phase sum is bounded by the printed total: `total_micros` is the
/// server-side admission→completion measurement and the stream phase is
/// measured after it, so `queue+plan+decode+stream ≤ total+stream`.
pub(crate) fn print_trace(trace: &QueryTrace) {
    let ms = |us: u64| us as f64 / 1e3;
    let instance = if trace.instance.is_empty() {
        "local"
    } else {
        trace.instance.as_str()
    };
    println!(
        "  trace {:016x} served by {instance} (layout epoch {}):",
        trace.trace_id, trace.epoch
    );
    println!("    queue   {:>10.3} ms", ms(trace.queue_micros));
    println!("    plan    {:>10.3} ms", ms(trace.plan_micros));
    println!("    decode  {:>10.3} ms", ms(trace.decode_micros));
    println!("    stream  {:>10.3} ms", ms(trace.stream_micros));
    println!(
        "    total   {:>10.3} ms ({:.3} ms unattributed scheduling gaps)",
        ms(trace.total_micros + trace.stream_micros),
        ms(trace.unattributed_micros()),
    );
}

/// A latency histogram's headline percentiles, in milliseconds.
pub(crate) fn percentiles(h: &HistogramSnapshot) -> String {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    format!(
        "p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms",
        ms(h.p50()),
        ms(h.p95()),
        ms(h.p99())
    )
}

/// Every text view of a [`ServiceStats`]: the lines `client stats`,
/// `serve`'s shutdown, `workload`, `client loadgen`'s server lifetime and
/// `route`'s shards print under a header of their own, each led by
/// `indent`.
pub(crate) fn service_text(indent: &str, stats: &ServiceStats) -> String {
    let shared = &stats.shared;
    format!(
        "{indent}queries: {} submitted, {} completed, {} failed, queue peak {}\n\
         {indent}decode: {} samples decoded, {} reused ({:.0}% cache hits); \
         dedup {} owned / {} joined GOP decodes ({:.0}% join rate)\n\
         {indent}latency (submit→complete): {} over {} queries; {} retile ops\n",
        stats.submitted,
        stats.completed,
        stats.failed,
        stats.queue_peak,
        stats.samples_decoded,
        stats.samples_reused,
        stats.cache_hit_rate() * 100.0,
        shared.owned,
        shared.joined,
        shared.join_rate() * 100.0,
        percentiles(&stats.latency),
        stats.latency.count,
        stats.retile_ops,
    )
}

/// `client stats --json`: a [`ServiceStats`] snapshot.
#[derive(Serialize)]
struct ServiceStatsJson {
    source: String,
    submitted: u64,
    completed: u64,
    failed: u64,
    samples_decoded: u64,
    samples_reused: u64,
    cache_hits: u64,
    cache_misses: u64,
    shared_owned: u64,
    shared_joined: u64,
    retile_ops: u64,
    retile_errors: u64,
    queue_peak: u64,
    latency: LatencyJson,
}

/// The latency histogram in [`ServiceStatsJson`].
#[derive(Serialize)]
struct LatencyJson {
    count: u64,
    total_micros: u64,
    p50_micros: u64,
    p95_micros: u64,
    p99_micros: u64,
    buckets: Vec<u64>,
}

pub(crate) fn service_stats_json(source: &str, stats: &ServiceStats) -> String {
    let l = &stats.latency;
    let micros = |d: Duration| d.as_micros() as u64;
    serde_json::to_string(&ServiceStatsJson {
        source: source.to_string(),
        submitted: stats.submitted,
        completed: stats.completed,
        failed: stats.failed,
        samples_decoded: stats.samples_decoded,
        samples_reused: stats.samples_reused,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        shared_owned: stats.shared.owned,
        shared_joined: stats.shared.joined,
        retile_ops: stats.retile_ops,
        retile_errors: stats.retile_errors,
        queue_peak: stats.queue_peak,
        latency: LatencyJson {
            count: l.count,
            total_micros: l.total_micros,
            p50_micros: micros(l.p50()),
            p95_micros: micros(l.p95()),
            p99_micros: micros(l.p99()),
            buckets: l.buckets.to_vec(),
        },
    })
    .expect("numbers and a string serialize")
}

/// The counters `serve` renders from its service's counts, as (name, help).
#[rustfmt::skip]
const SERVICE_COUNTERS: [(&str, &str); 4] = [
    ("tasm_queries_submitted_total", "Queries accepted into the submission queue."),
    ("tasm_queries_completed_total", "Queries completed successfully."),
    ("tasm_queries_failed_total", "Queries that returned an error."),
    ("tasm_retile_commits_total", "Background re-tiles committed (and replicated, when backups are configured)."),
];

/// The counters `serve` renders from its server's refusals.
#[rustfmt::skip]
const SERVER_COUNTERS: [(&str, &str); 2] = [
    ("tasm_queries_busy_rejected_total", "Queries refused with a BUSY frame because the service queue was full."),
    ("tasm_connections_rejected_total", "Connections refused at the listener for exceeding max_connections."),
];

/// The counters `route` renders from its own counts.
#[rustfmt::skip]
const ROUTER_COUNTERS: [(&str, &str); 2] = [
    ("tasm_router_queries_total", "Queries successfully routed to a shard."),
    ("tasm_router_failovers_total", "Shards marked down after reaching the failure threshold."),
];

/// Appends `counters`, each with its value in `values`, to a `/metrics` body.
fn render_counters(out: &mut String, counters: &[(&str, &str)], values: &[u64]) {
    for ((name, help), value) in counters.iter().zip(values) {
        tasm_obs::render_counter_into(out, name, help, *value);
    }
}

/// Appends the series `tasm serve` renders from its own counts to a
/// `/metrics` body: the service's counters and latency histogram, from the
/// `ServiceStats` snapshot `client stats` sees (so both views agree at any
/// instant), and the server's refusals as
/// [`tasm_server::TasmServer::rejections`] returns them.
pub(crate) fn render_server_series(out: &mut String, stats: &ServiceStats, rejections: (u64, u64)) {
    let s = stats;
    let service = [s.submitted, s.completed, s.failed, s.retile_ops];
    render_counters(out, &SERVICE_COUNTERS, &service);
    render_counters(out, &SERVER_COUNTERS, &[rejections.0, rejections.1]);
    render_latency_series(out, stats);
}

/// Appends the series `tasm route` renders from its own counts to a
/// `/metrics` body.
pub(crate) fn render_router_series(out: &mut String, stats: &RouterStats) {
    render_counters(out, &ROUTER_COUNTERS, &[stats.routed, stats.failovers]);
}

/// Appends the service's latency histogram to a `/metrics` body.
pub(crate) fn render_latency_series(out: &mut String, stats: &ServiceStats) {
    tasm_obs::render_histogram_into(
        out,
        "tasm_query_latency_seconds",
        "Submit-to-complete query latency (service histogram).",
        &stats.latency,
    );
}

/// Prints what startup recovery repaired, if anything, mirroring it into
/// the structured log so a supervised `serve` leaves a machine-readable
/// record of post-crash repairs.
pub(crate) fn report_recovery(tasm: &Tasm) {
    let report = tasm.recovery_report();
    if report.deferred {
        println!(
            "recovery: deferred — another live process holds the store lock \
             (a running server?); nothing was repaired, and packs at epochs \
             the manifest does not name may be its in-flight re-tiles or \
             epochs its readers still pin"
        );
        tasm_obs::log::warn(
            "recovery.deferred",
            &[("reason", "store lock held by another process".to_string())],
        );
    }
    if !report.is_clean() {
        println!(
            "recovery: repaired {} interrupted operation(s):",
            report.actions.len()
        );
        tasm_obs::log::warn(
            "recovery.repaired",
            &[("actions", report.actions.len().to_string())],
        );
        for action in &report.actions {
            println!("  - {action}");
            tasm_obs::log::info("recovery.action", &[("action", action.to_string())]);
        }
    }
}
