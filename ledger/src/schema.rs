//! The ledger's names. Workloads, metrics, units and bounds are fixed here
//! and mirrored in `BENCHMARK.json` (`ledger schema` prints that file);
//! they change only through an issue of the `benchmark` kind.

use std::collections::BTreeMap;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Timed requests per second of `--seconds`, chosen once on the seed
    /// code so that the timed window (one client, calibration ticks
    /// included) lasts about 0.85 x `--seconds` on the two-core sandbox
    /// when it is quiet (its slow phases stretch that by half). Fixed, so both sides of a comparison do the same work and
    /// count metrics repeat exactly.
    pub requests_per_second: u32,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cold_select",
        why: "in-process pixel queries on the tuned store with no decoded-GOP cache: index lookup + tile read + decode, the paper's headline path; cache, service, wire and router are bypassed",
        requests_per_second: 56,
    },
    Workload {
        name: "warm_serve",
        why: "reactor server on loopback, 1 connection, working set fits the decoded-GOP cache: cache hit, crop, region encode, socket and client parse; a codec speed-up must show no change here",
        requests_per_second: 1300,
    },
    Workload {
        name: "routed_evict",
        why: "router over 3 shard servers, 1 connection, per-shard cache of 3/4 of the working set (hit ratio about 0.65): LRU eviction and re-decode, and the router hop",
        requests_per_second: 85,
    },
    Workload {
        name: "adaptive_ingest",
        why: "untiled store, query then observe_regret inline with clips ingested between queries: encode, index inserts/flush/compaction, re-tile commits and epoch GC beside reads",
        requests_per_second: 48,
    },
];

pub const RUN_SECONDS: u32 = 10;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a lower value is better.
    pub lower: bool,
    /// End-to-end: the share of the parent's median by which the metric may
    /// worsen. Per-layer metrics carry 0 (no bound).
    pub bound: f64,
    /// What it measures (end-to-end) or which end-to-end metric it should
    /// move on which workload (per-layer).
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    lower: bool,
    bound: f64,
    note: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        lower,
        bound,
        note,
    }
}

const fn layer(name: &'static str, unit: &'static str, lower: bool, note: &'static str) -> Metric {
    Metric {
        name,
        unit,
        lower,
        bound: 0.0,
        note,
    }
}

pub const END_TO_END: [Metric; 10] = [
    e2e("setup_s", "s", true, 0.25, "median over the run's set-up repetitions of: render + ingest + metadata + re-tile of the corpus, open, server/router start, warm-up (reference speed)"),
    e2e("query_p50_ms", "ms", true, 0.25, "median caller-observed latency of the timed queries (exact order statistic of raw samples, reference speed)"),
    e2e("query_p95_ms", "ms", true, 0.25, "95th percentile of the same samples; every workload issues >= 400 timed queries"),
    e2e("queries_per_s", "1/s", false, 0.25, "timed queries / product time of the timed window at reference speed (adaptive_ingest: window includes re-tiles and ingests)"),
    e2e("cpu_ms_per_query", "ms", true, 0.25, "process CPU time over the timed window at reference speed / timed queries"),
    e2e("peak_rss_mb", "MB", true, 0.25, "VmHWM of the ledger process (which hosts the servers) at the end of the workload"),
    e2e("ingest_fps", "frames/s", false, 0.25, "median over ingest calls of frames / time inside ingest + add_metadata + mark_processed + flush, reference speed (corpus builds in set-up; the in-window clips on adaptive_ingest)"),
    e2e("retile_ms_per_sot", "ms", true, 0.25, "median over committing re-tile calls of time / SOTs re-tiled, reference speed (kqko_retile_all in set-up; observe_regret in the window on adaptive_ingest)"),
    e2e("store_bytes_per_raw_byte", "ratio", true, 0.05, "tile bytes on disk / raw 4:2:0 bytes, at the end of the workload"),
    e2e("index_bytes_per_entry", "B", true, 0.05, "TierStats.disk_bytes / detections, at the end of the workload"),
];

pub const PER_LAYER: [Metric; 58] = [
    // tasm-index
    layer("index.lookup_us_p50", "us", true, "query_p50_ms @ warm_serve"),
    layer("index.runs_read_per_lookup", "count", true, "query_p50_ms @ adaptive_ingest"),
    layer("index.filter_skip_ratio", "ratio", false, "query_p50_ms @ adaptive_ingest"),
    layer("index.insert_us_p50", "us", true, "ingest_fps @ adaptive_ingest"),
    layer("index.flush_ms_p50", "ms", true, "ingest_fps @ adaptive_ingest"),
    layer("index.flush_count", "count", true, "ingest_fps @ adaptive_ingest"),
    layer("index.run_count", "count", true, "query_p50_ms @ adaptive_ingest"),
    layer("index.compactions", "count", true, "ingest_fps @ adaptive_ingest"),
    layer("index.resident_bytes_per_entry", "B", true, "peak_rss_mb"),
    layer("index.disk_bytes", "B", true, "index_bytes_per_entry"),
    // tasm-core::storage (+ cluster sync)
    layer("storage.tile_read_us_p50", "us", true, "query_p50_ms @ cold_select"),
    layer("storage.tile_bytes_read_per_query", "B", true, "query_p50_ms @ cold_select"),
    layer("storage.ingest_ms_per_frame", "ms", true, "ingest_fps"),
    layer("storage.retile_ms_p50", "ms", true, "retile_ms_per_sot"),
    layer("storage.retile_count", "count", true, "retile_ms_per_sot, queries_per_s @ adaptive_ingest"),
    layer("storage.retile_bytes_written", "B", true, "retile_ms_per_sot, store_bytes_per_raw_byte"),
    layer("storage.open_ms", "ms", true, "setup_s"),
    layer("cluster.sync_ms_per_video", "ms", true, "setup_s @ routed_evict"),
    // tasm-codec
    layer("codec.decode_us_per_mpixel", "us", true, "query_p50_ms, cpu_ms_per_query @ cold_select; x miss ratio @ routed_evict; no change @ warm_serve"),
    layer("codec.samples_decoded_per_query", "count", true, "query_p50_ms, cpu_ms_per_query @ cold_select"),
    layer("codec.entropy_mb_per_s", "MB/s", false, "query_p50_ms @ cold_select"),
    layer("codec.pred_reconstruct_us_per_frame", "us", true, "query_p50_ms @ cold_select"),
    layer("codec.encode_ms_per_frame", "ms", true, "ingest_fps, retile_ms_per_sot @ adaptive_ingest"),
    layer("codec.pred_tile_share", "ratio", false, "store_bytes_per_raw_byte"),
    layer("codec.disk_bytes_per_frame", "B", true, "store_bytes_per_raw_byte"),
    // tasm-core::exec
    layer("exec.cache_hit_ratio", "ratio", false, "query_p50_ms @ routed_evict (about 1 @ warm_serve, 0 @ cold_select)"),
    layer("exec.cache_join_ratio", "ratio", false, "query_p95_ms @ routed_evict"),
    layer("exec.cache_bytes_used", "B", true, "peak_rss_mb @ warm_serve, routed_evict"),
    layer("exec.exec_us_p50", "us", true, "query_p50_ms"),
    layer("exec.reassembly_us_p50", "us", true, "query_p50_ms @ warm_serve"),
    // tasm-core::query
    layer("query.plan_us_p50", "us", true, "query_p50_ms @ cold_select"),
    layer("query.tiles_planned_per_query", "count", true, "query_p50_ms @ cold_select"),
    layer("query.tiles_pruned_ratio", "ratio", false, "query_p50_ms @ cold_select"),
    layer("query.gops_skipped_ratio", "ratio", false, "query_p50_ms @ cold_select"),
    // tasm-core::tasm
    layer("tasm.observe_us_p50", "us", true, "queries_per_s @ adaptive_ingest"),
    layer("tasm.epochs_published", "count", true, "retile_ms_per_sot @ adaptive_ingest"),
    layer("tasm.live_epochs_max", "count", true, "peak_rss_mb, store_bytes_per_raw_byte"),
    layer("tasm.kqko_retile_s", "s", true, "setup_s"),
    // tasm-service
    layer("service.queue_wait_us_p50", "us", true, "query_p95_ms @ warm_serve, routed_evict"),
    layer("service.queue_peak", "count", true, "query_p95_ms @ warm_serve, routed_evict"),
    layer("service.overhead_us_p50", "us", true, "query_p50_ms @ warm_serve"),
    // tasm-server / tasm-reactor / tasm-proto
    layer("server.stream_us_p50", "us", true, "query_p50_ms, cpu_ms_per_query @ warm_serve; no change @ cold_select, adaptive_ingest"),
    layer("server.total_us_p50", "us", true, "query_p50_ms @ warm_serve"),
    layer("proto.wire_us_p50", "us", true, "query_p50_ms, cpu_ms_per_query @ warm_serve"),
    layer("proto.region_bytes_per_query", "B", true, "query_p50_ms @ warm_serve"),
    layer("proto.stream_mb_per_s", "MB/s", false, "queries_per_s @ warm_serve"),
    layer("server.busy_rejects", "count", true, "failed"),
    layer("server.connections_rejected", "count", true, "failed"),
    layer("reactor.threads", "count", true, "peak_rss_mb"),
    // tasm-cluster
    layer("router.hop_us_p50", "us", true, "query_p50_ms, query_p95_ms @ routed_evict only"),
    layer("router.shard_share_max", "ratio", true, "query_p95_ms @ routed_evict only"),
    layer("router.retries", "count", true, "failed"),
    layer("router.failovers", "count", true, "failed"),
    // tasm-data / tasm-video
    layer("data.render_ms_per_frame", "ms", true, "setup_s only"),
    // trace bookkeeping
    layer("machine.slowdown", "ratio", true, "- (calibration ticks in the window / nominal: what the end-to-end timings were divided by)"),
    layer("trace.unattributed_share", "ratio", true, "-"),
    layer("trace.overhead_ratio", "ratio", true, "-"),
    layer("client.query_p99_ms", "ms", true, "diagnostic only; emitted when >= 1000 samples exist"),
];

/// Metric values by name. A per-layer map starts with every name at 0, so
/// a workload that bypasses a layer reports that layer's metrics as 0.
pub type Values = BTreeMap<&'static str, f64>;

pub fn zeroed(metrics: &[Metric]) -> Values {
    metrics.iter().map(|m| (m.name, 0.0)).collect()
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// Workloads with one caller and no background work: identical inputs give
/// identical counts.
pub const EXACT_WORKLOADS: [&str; 2] = ["cold_select", "adaptive_ingest"];

/// The metrics that are pure counts on those workloads, as (kind, name).
pub const EXACT_COUNTS: [(&str, &str); 16] = [
    ("end_to_end", "store_bytes_per_raw_byte"),
    ("end_to_end", "index_bytes_per_entry"),
    ("per_layer", "codec.samples_decoded_per_query"),
    ("per_layer", "codec.disk_bytes_per_frame"),
    ("per_layer", "codec.pred_tile_share"),
    ("per_layer", "query.tiles_planned_per_query"),
    ("per_layer", "query.tiles_pruned_ratio"),
    ("per_layer", "query.gops_skipped_ratio"),
    ("per_layer", "proto.region_bytes_per_query"),
    ("per_layer", "storage.tile_bytes_read_per_query"),
    ("per_layer", "storage.retile_count"),
    ("per_layer", "storage.retile_bytes_written"),
    ("per_layer", "tasm.epochs_published"),
    ("per_layer", "index.flush_count"),
    ("per_layer", "index.compactions"),
    ("per_layer", "index.disk_bytes"),
];
