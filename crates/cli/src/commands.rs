//! Subcommand implementations over a persistent store directory.
//!
//! The store layout is `<store>/index/` (persistent semantic index) plus
//! `<store>/videos/` (tile packs + manifests). Scene specs are persisted at
//! ingest so later `detect` calls can regenerate ground truth
//! deterministically.

use crate::args::Args;
use serde::Serialize;
use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use tasm_client::{Connection, LoadGen, LoadGenConfig};
use tasm_core::runner::detect_frames;
use tasm_core::{LabelPredicate, Query, QueryMode, RealIo, StorageIo, Tasm, TasmConfig};
use tasm_data::{workloads, Dataset, SceneSpec, SyntheticVideo, WorkloadParams};
use tasm_detect::sampled::SampledDetector;
use tasm_detect::yolo::SimulatedYolo;
use tasm_detect::Detector;
use tasm_index::{SemanticIndex, TieredIndex};
use tasm_server::{ServerConfig, TasmServer};
use tasm_service::{QueryRequest, QueryService, RetilePolicy, ServiceConfig, Shutdown};
use tasm_video::{FrameSource, Rect};

type CmdResult = Result<(), Box<dyn Error>>;

const USAGE: &str = "\
tasm — tile-based storage manager for video analytics

USAGE:
  tasm ingest  --store DIR --name NAME --dataset PRESET --seconds N [--seed N]
  tasm detect  --store DIR --name NAME [--detector yolov3|yolov3-tiny] [--stride K]
  tasm scan    --store DIR --name NAME --label LABEL [--start F] [--end F] [--repeat N]
  tasm query   --store DIR --name NAME --label LABEL [--start F] [--end F]
               [--roi x,y,w,h] [--stride N] [--limit K]
               [--mode pixels|count|exists] [--repeat N] [--as-of EPOCH]
               [--explain]
  tasm retile  --store DIR --name NAME --labels L1,L2
  tasm observe --store DIR --name NAME --label LABEL [--start F] [--end F]
  tasm workload --store DIR --name NAME [--workload 1|2|3|4] [--queries N]
                [--concurrency N] [--queue-depth N] [--retile off|regret|more]
                [--query-frames N] [--seed N]
  tasm info    --store DIR [--name NAME]
  tasm stats   --store DIR [--name NAME] [--storage] [--json]
  tasm fsck    --store DIR [--name NAME]
  tasm presets
  tasm serve   --store DIR [--addr HOST:PORT] [--max-connections N]
               [--max-inflight N] [--concurrency N] [--queue-depth N]
               [--retile off|regret|more] [--backup ADDR[,ADDR]]
               [--metrics-addr HOST:PORT] [--slow-query-ms N]
               [--log-level debug|info|warn|error] [--log-json]
  tasm cluster init --map FILE --nodes id=HOST:PORT[,id=HOST:PORT...]
               [--replicas R] [--pin VIDEO=NODE[+NODE...]]
  tasm cluster show --map FILE [--video NAME]
  tasm route   --map FILE [--addr HOST:PORT] [--max-connections N]
               [--max-inflight N] [--shard-timeout-ms N] [--health-ms N]
               [--fail-threshold N] [--route-workers N]
               [--metrics-addr HOST:PORT]
               [--log-level debug|info|warn|error] [--log-json]
  tasm rebalance --map FILE --video NAME --to NODE [--timeout-ms N]
  tasm client query    --addr HOST:PORT --name NAME --label LABEL
                       [--start F] [--end F] [--roi x,y,w,h] [--stride N]
                       [--limit K] [--mode pixels|count|exists] [--as-of EPOCH]
                       [--explain]
  tasm client loadgen  --addr HOST:PORT --name NAME --label LABEL
                       [--requests N] [--connections N] [--frames N]
                       [--window N] [--reconnects N] [query flags as above]
  tasm client stats    --addr HOST:PORT [--json]
  tasm client shutdown --addr HOST:PORT

EXECUTION (any command):
  --workers N    decode worker threads (0 = one per core, default)
  --cache-mb N   decoded-GOP cache budget in MiB (0 disables; default 256)

QUERY: the spatiotemporal planner. --roi keeps only boxes intersecting the
  region of interest, --stride N samples every Nth frame of the window,
  --limit K stops after the first K matching frames, and --mode count|exists
  answers from the semantic index without decoding any tile. Pruned tiles
  and GOPs are never decoded; the command reports what the planner cut.
  Results are bit-identical to `tasm scan` filtered after the fact.
  --as-of E pins a still-live layout epoch (MVCC): the query reads that
  exact tile layout even if the video has since been re-tiled. Epochs stay
  live while a reader pins them; a reclaimed epoch is a typed error.

WORKLOAD: replays one of the paper's §5.3 workload generators through the
  concurrent QueryService: --concurrency query workers (0 = one per core)
  over a --queue-depth bounded queue, optionally with the background
  re-tiling daemon (--retile regret|more). Reports aggregate throughput,
  decoded-GOP cache reuse, the shared-scan dedup rate, and the
  submit-to-complete latency percentiles (p50/p95/p99).

SERVE: exposes every video in the store over TCP (tasm-proto wire
  protocol). Admission control: at most --max-connections sessions, at
  most --max-inflight queries per session, and a typed BUSY reply — never
  a blocked socket — when the service queue is full. Runs until a client
  sends `tasm client shutdown`; shutdown drains in-flight queries, stops
  the retile daemon, and prints the latency histogram. With --backup,
  every listed node receives a full sync at startup and every background
  re-tile is replicated (and acked) before it counts as durable.

CLUSTER: shard-map administration. `init` writes an epoch-1 CRC-framed
  cluster.json placing videos on the listed nodes by rendezvous hashing
  with R-way replication; `show` prints the map (and, with --video, one
  video's replica set). ROUTE starts the shard router over a map: clients
  speak plain tasm-proto to it, each query is forwarded to the video's
  primary (failing over to backups when a shard dies), `client stats`
  aggregates per-shard counters, and `client shutdown` drains the whole
  cluster in order. REBALANCE moves a video to a new primary with the
  staged protocol: copy, verify byte-equal manifests, flip the map epoch,
  GC the source copy.

STATS: storage accounting. Per video: on-disk tile bytes, the ratio
  against raw planar YUV, and how many tiles each codec holds (dct = the
  quantized transform codec every tile is written in, pred = the lossless
  entropy-coded codec of tiles written by earlier builds, still read).
  With --storage, also reports the semantic index tier: sorted-run count
  and sizes, memtable occupancy, WAL length, resident vs on-disk bytes,
  and the bloom/frame-range filter hit rate measured over one probe query
  per stored label.

FSCK: opens the store (running startup recovery: interrupted re-tiles are
  rolled forward or back, half-ingested videos reaped) and then validates
  every manifest against the on-disk tile packs and their container
  headers — SOT chain contiguity, tile presence, dimensions, GOP length,
  frame counts, exact container lengths, stray files. Exits non-zero if
  anything is wrong. Run it after a crash or `kill -9` before trusting a
  store.

CLIENT: drives a remote server. `query` mirrors the local `query` command
  (results are bit-identical to running it on the server's store),
  `loadgen` floods the server from a connection pool (--connections) and
  reports throughput plus client-observed latency percentiles; --frames N
  with --window W slides each request's frame window across the video.

OBSERVABILITY: --metrics-addr on `serve` and `route` exposes a Prometheus
  text endpoint (GET /metrics): counters, gauges, and log-scale latency
  histograms named in ARCHITECTURE.md. --slow-query-ms N logs any query
  slower than N ms — the full per-phase trace — through the structured
  stderr logger (--log-json switches it to JSON lines, --log-level sets
  verbosity). --explain on `query` and `client query` prints the query's
  per-phase breakdown (queue/plan/decode/stream) with its trace id, the
  serving instance, and the executed layout epoch. `stats --json` and
  `client stats --json` emit machine-readable statistics.

PRESETS: visual-road-2k, visual-road-4k, netflix-public, netflix-open-source,
         xiph, mot16, el-fuente-sparse, el-fuente-dense";

/// Routes a command line to its implementation.
pub fn dispatch(argv: &[String]) -> CmdResult {
    let Some((cmd, rest)) = argv.split_first() else {
        println!("{USAGE}");
        return Ok(());
    };
    if cmd == "client" {
        return client(rest);
    }
    if cmd == "cluster" {
        return cluster(rest);
    }
    if cmd == "stats" {
        let args = Args::parse_with_flags(rest, &["storage", "json"])?;
        return stats(&args);
    }
    let args = Args::parse_with_flags(rest, &["explain", "log-json"])?;
    match cmd.as_str() {
        "ingest" => ingest(&args),
        "detect" => detect(&args),
        "scan" => scan(&args),
        "query" => query(&args),
        "retile" => retile(&args),
        "observe" => observe(&args),
        "workload" => workload(&args),
        "serve" => serve(&args),
        "route" => route(&args),
        "rebalance" => rebalance_cmd(&args),
        "info" => info(&args),
        "fsck" => fsck(&args),
        "presets" => {
            for d in Dataset::ALL {
                println!("{}", d.name());
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}").into()),
    }
}

fn open_tasm(store: &str, args: &Args) -> Result<Tasm, Box<dyn Error>> {
    let root = PathBuf::from(store);
    let cfg = TasmConfig {
        workers: args.get_or("workers", 0usize)?,
        cache_bytes: args.get_or("cache-mb", 256u64)? << 20,
        // Escape hatch for smoke tests: a tiny limit forces the tiered
        // index through run flushes and compactions on small workloads.
        index_memtable_limit: std::env::var("TASM_MEMTABLE_LIMIT")
            .ok()
            .and_then(|v| v.parse().ok()),
        ..TasmConfig::default()
    };
    Ok(Tasm::open_tiered(
        root.join("videos"),
        &root.join("index"),
        cfg,
    )?)
}

fn spec_path(store: &str, name: &str) -> PathBuf {
    Path::new(store)
        .join("videos")
        .join(name)
        .join("scene.json")
}

/// Loads the scene spec persisted at ingest and rebuilds the video. A
/// sidecar that does not describe a renderable scene (hand-edited, or from
/// elsewhere) is a typed [`tasm_data::SceneError`], not a panic.
fn load_video(store: &str, name: &str) -> Result<SyntheticVideo, Box<dyn Error>> {
    let raw = std::fs::read(spec_path(store, name))
        .map_err(|_| format!("video '{name}' not found in store (run `tasm ingest` first)"))?;
    let spec: SceneSpec = serde_json::from_slice(&raw)?;
    spec.validate()?;
    Ok(SyntheticVideo::new(spec))
}

/// Attaches an existing stored video (no re-encode) and rebuilds its scene
/// for ground truth.
fn register(tasm: &Tasm, store: &str, name: &str) -> Result<SyntheticVideo, Box<dyn Error>> {
    let video = load_video(store, name)?;
    tasm.attach(name)?;
    Ok(video)
}

/// Opens the store and registers each video stored in it — only `only`,
/// when given — skipping directories that do not load as a video. The
/// registered names, in directory order.
fn open_stored(
    store: &str,
    args: &Args,
    only: Option<&str>,
) -> Result<(Tasm, Vec<String>), Box<dyn Error>> {
    let entries = std::fs::read_dir(Path::new(store).join("videos"))
        .map_err(|_| format!("no store at '{store}' (run `tasm ingest` first)"))?;
    let tasm = open_tasm(store, args)?;
    let mut names = Vec::new();
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().to_string();
        let wanted = entry.path().is_dir() && only.is_none_or(|only| only == name);
        if wanted && register(&tasm, store, &name).is_ok() {
            names.push(name);
        }
    }
    Ok((tasm, names))
}

fn ingest(args: &Args) -> CmdResult {
    let store = args.required("store")?;
    let name = args.required("name")?;
    let dataset_name = args.required("dataset")?;
    let seconds: u32 = args.get_or("seconds", 4)?;
    let seed: u64 = args.get_or("seed", 1)?;

    let dataset = Dataset::ALL
        .into_iter()
        .find(|d| d.name() == dataset_name)
        .ok_or_else(|| format!("unknown dataset '{dataset_name}' (see `tasm presets`)"))?;
    let video = dataset.build(seconds, seed);

    let tasm = open_tasm(store, args)?;
    tasm.ingest(name, &video, 30)?;
    // Replaced atomically: a torn sidecar would fail every later command on
    // an intact video. A stray temp file is reaped by store recovery.
    let spec = spec_path(store, name);
    let tmp = spec.with_extension("json.tmp");
    RealIo.write(&tmp, &serde_json::to_vec_pretty(video.spec())?)?;
    RealIo.rename(&tmp, &spec)?;
    let bytes = tasm.video_size_bytes(name)?;
    println!(
        "ingested '{name}': {} frames at {}x{}, {} SOTs, {:.1} KiB on disk",
        video.len(),
        video.width(),
        video.height(),
        tasm.manifest(name)?.sots.len(),
        bytes as f64 / 1024.0
    );
    Ok(())
}

fn detect(args: &Args) -> CmdResult {
    let store = args.required("store")?;
    let name = args.required("name")?;
    let which = args.get("detector").unwrap_or("yolov3");
    let stride: u32 = args.get_or("stride", 1)?;

    let tasm = open_tasm(store, args)?;
    let video = register(&tasm, store, name)?;
    let inner: Box<dyn Detector> = match which {
        "yolov3" => Box::new(SimulatedYolo::full(1)),
        "yolov3-tiny" => Box::new(SimulatedYolo::tiny(1)),
        other => return Err(format!("unknown detector '{other}'").into()),
    };
    let mut detector = SampledDetector::new(inner, stride);
    let before = tasm.with_index(|ix| ix.detection_count());
    let truth = |f| video.ground_truth(f);
    detect_frames(&tasm, name, 0..video.len(), &mut detector, &truth, None)?;
    tasm.with_index(|ix| ix.flush())?;
    println!(
        "detected {} boxes over {} frames ({} frames run through {which}, stride {stride}); simulated cost {:.2}s",
        tasm.with_index(|ix| ix.detection_count()) - before,
        video.len(),
        detector.frames_processed(),
        detector.total_cost_seconds()
    );
    Ok(())
}

fn scan(args: &Args) -> CmdResult {
    let store = args.required("store")?;
    let name = args.required("name")?;
    let label = args.required("label")?;
    let tasm = open_tasm(store, args)?;
    let video = register(&tasm, store, name)?;
    let start: u32 = args.get_or("start", 0)?;
    let end: u32 = args.get_or("end", video.len())?;

    let repeat: u32 = args.get_or("repeat", 1)?;
    for run in 0..repeat.max(1) {
        let result = tasm.scan(name, &LabelPredicate::label(label), start..end)?;
        println!(
            "scan '{label}' over frames {start}..{end}: {} regions, {} samples decoded, {} tile-chunks, {} cache hits ({} samples reused), {:.2} ms",
            result.regions.len(),
            result.stats.samples_decoded,
            result.stats.tile_chunks_decoded,
            result.cache.hits,
            result.cache.samples_reused,
            result.seconds() * 1e3
        );
        if repeat > 1 && run == 0 {
            println!(
                "  (repeating {} more times against the warm decoded-GOP cache)",
                repeat - 1
            );
        }
    }
    Ok(())
}

/// Parses `--roi x,y,w,h` into a rectangle.
fn parse_roi(spec: &str) -> Result<Rect, Box<dyn Error>> {
    let parts: Vec<u32> = spec
        .split(',')
        .map(|t| t.trim().parse::<u32>())
        .collect::<Result<_, _>>()
        .map_err(|_| format!("invalid --roi '{spec}' (expected x,y,w,h)"))?;
    let [x, y, w, h] = parts[..] else {
        return Err(format!(
            "invalid --roi '{spec}' (expected 4 values, got {})",
            parts.len()
        )
        .into());
    };
    if w == 0 || h == 0 {
        return Err(format!("--roi '{spec}' is empty").into());
    }
    Ok(Rect::new(x, y, w, h))
}

/// Builds the spatiotemporal query the `query`, `client query`, and
/// `client loadgen` commands share: `--label` with optional `--start`,
/// `--end`, `--roi`, `--stride`, `--limit`, `--mode`, and `--as-of`
/// flags.
fn build_query(args: &Args, default_end: u32) -> Result<Query, Box<dyn Error>> {
    let label = args.required("label")?;
    let start: u32 = args.get_or("start", 0)?;
    let end: u32 = args.get_or("end", default_end)?;
    let stride: u32 = args.get_or("stride", 1)?;
    let mode = match args.get("mode").unwrap_or("pixels") {
        "pixels" => QueryMode::Pixels,
        "count" => QueryMode::Count,
        "exists" => QueryMode::Exists,
        other => return Err(format!("unknown query mode '{other}'").into()),
    };
    let mut q = Query::new(LabelPredicate::label(label))
        .frames(start..end)
        .stride(stride)
        .mode(mode);
    if let Some(spec) = args.get("roi") {
        q = q.roi(parse_roi(spec)?);
    }
    if let Some(limit) = args.get("limit") {
        let limit: u32 = limit
            .parse()
            .map_err(|_| format!("invalid value '{limit}' for --limit"))?;
        q = q.limit(limit);
    }
    if let Some(epoch) = args.get("as-of") {
        let epoch: u64 = epoch
            .parse()
            .map_err(|_| format!("invalid value '{epoch}' for --as-of"))?;
        q = q.as_of(epoch);
    }
    Ok(q)
}

/// Runs a spatiotemporal query through the planner and reports both the
/// answer and what the planner pruned.
fn query(args: &Args) -> CmdResult {
    let store = args.required("store")?;
    let name = args.required("name")?;
    let label = args.required("label")?;
    let tasm = open_tasm(store, args)?;
    let video = register(&tasm, store, name)?;
    let q = build_query(args, video.len())?;
    let (start, end) = (q.frame_range().start, q.frame_range().end);
    let mode = q.query_mode();

    let repeat: u32 = args.get_or("repeat", 1)?;
    for run in 0..repeat.max(1) {
        let (result, trace) = if args.has("explain") {
            let spans = tasm_obs::TraceSpans::shared();
            let t0 = std::time::Instant::now();
            let result = tasm.query_traced(name, &q, &spans)?;
            let trace = spans.finish(tasm_obs::next_trace_id(), result.epoch, t0.elapsed());
            (result, Some(trace))
        } else {
            (tasm.query(name, &q)?, None)
        };
        match mode {
            QueryMode::Exists => println!(
                "exists '{label}' over frames {start}..{end}: {} ({} matches known from the index; no tiles decoded)",
                result.matched > 0,
                result.matched
            ),
            QueryMode::Count => println!(
                "count '{label}' over frames {start}..{end}: {} matches on {} frames (no tiles decoded)",
                result.matched, result.plan.frames_sampled
            ),
            QueryMode::Pixels => println!(
                "query '{label}' over frames {start}..{end}: {} regions on {} frames, {} samples decoded, {} cache hits, {:.2} ms",
                result.regions.len(),
                result.plan.frames_sampled,
                result.stats.samples_decoded,
                result.cache.hits,
                result.seconds() * 1e3
            ),
        }
        println!(
            "  plan: {} tiles decoded / {} pruned, {} GOPs decoded / {} skipped (layout epoch {})",
            result.plan.tiles_planned,
            result.plan.tiles_pruned,
            result.plan.gops_planned,
            result.plan.gops_skipped,
            result.epoch
        );
        if let Some(trace) = &trace {
            print_trace(trace);
        }
        if repeat > 1 && run == 0 {
            println!(
                "  (repeating {} more times against the warm decoded-GOP cache)",
                repeat - 1
            );
        }
    }
    Ok(())
}

fn retile(args: &Args) -> CmdResult {
    let store = args.required("store")?;
    let name = args.required("name")?;
    let labels: Vec<String> = args
        .required("labels")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if labels.is_empty() {
        return Err("--labels needs at least one label".into());
    }
    let tasm = open_tasm(store, args)?;
    register(&tasm, store, name)?;
    let stats = tasm.kqko_retile_all(name, &labels)?;
    let manifest = tasm.manifest(name)?;
    let tiled = manifest
        .sots
        .iter()
        .filter(|s| !s.layout.is_untiled())
        .count();
    println!(
        "retiled around [{}]: {}/{} SOTs tiled, transcode {:.2}s, new size {:.1} KiB",
        labels.join(", "),
        tiled,
        manifest.sots.len(),
        stats.seconds(),
        tasm.video_size_bytes(name)? as f64 / 1024.0
    );
    Ok(())
}

fn observe(args: &Args) -> CmdResult {
    let store = args.required("store")?;
    let name = args.required("name")?;
    let label = args.required("label")?;
    let tasm = open_tasm(store, args)?;
    let video = register(&tasm, store, name)?;
    let start: u32 = args.get_or("start", 0)?;
    let end: u32 = args.get_or("end", video.len())?;

    let stats = tasm.observe_regret(name, label, start..end)?;
    if stats.encode.bytes_produced > 0 {
        println!(
            "regret threshold crossed: re-tiled ({:.2}s transcode)",
            stats.seconds()
        );
    } else {
        println!("regret recorded; no re-tile yet");
    }
    Ok(())
}

/// Replays a §5.3 workload generator through the concurrent
/// [`QueryService`], reporting aggregate throughput and shared-scan reuse.
fn workload(args: &Args) -> CmdResult {
    let store = args.required("store")?;
    let name = args.required("name")?;
    let which: u32 = args.get_or("workload", 1)?;
    let concurrency: usize = args.get_or("concurrency", 0)?;
    let queue_depth: usize = args.get_or("queue-depth", 64)?;
    if queue_depth == 0 {
        return Err("--queue-depth must be at least 1".into());
    }
    let seed: u64 = args.get_or("seed", 1)?;
    let retile = parse_retile(args)?;

    let tasm = Arc::new(open_tasm(store, args)?);
    let video = register(&tasm, store, name)?;
    let query_frames: u32 = args.get_or("query-frames", 30.min(video.len()))?;

    // Populate the semantic index up front so the timed run measures query
    // execution, not first-touch detection.
    let frame_count = video.len();
    let todo = frame_count - tasm.processed_count(name, 0..frame_count)?;
    let (truth, mut detector) = (|f| video.ground_truth(f), SimulatedYolo::full(1));
    detect_frames(&tasm, name, 0..frame_count, &mut detector, &truth, None)?;
    if todo > 0 {
        println!("(populated index: {todo} frames detected up front)");
    }

    let params = WorkloadParams::new(frame_count, query_frames.clamp(1, frame_count), seed);
    let mut queries = match which {
        1 => workloads::workload1(params),
        2 => workloads::workload2(params),
        3 => workloads::workload3(params),
        4 => workloads::workload4(params),
        other => return Err(format!("unknown workload '{other}' (1-4 supported)").into()),
    };
    if let Some(cap) = args.get("queries") {
        let cap: usize = cap
            .parse()
            .map_err(|_| format!("invalid value '{cap}' for --queries"))?;
        queries.truncate(cap);
    }

    let service = QueryService::start(
        Arc::clone(&tasm),
        ServiceConfig {
            workers: concurrency,
            queue_depth,
            retile,
            ..ServiceConfig::default()
        },
    );
    let t0 = std::time::Instant::now();
    let handles: Vec<_> = queries
        .iter()
        .map(|q| {
            service.submit(QueryRequest::new(
                name,
                Query::new(LabelPredicate::label(&q.label)).frames(q.frames.clone()),
            ))
        })
        .collect::<Result<_, _>>()?;
    let mut regions = 0usize;
    for h in handles {
        regions += h.wait()?.result.regions.len();
    }
    let elapsed = t0.elapsed();
    service.drain_retile_backlog();
    let stats = service.shutdown(Shutdown::Drain).stats;
    tasm.with_index(|ix| ix.flush())?;

    let shared = stats.shared;
    println!(
        "workload {which}: {} queries in {:.2}s — {:.1} queries/s (concurrency {}, queue depth {queue_depth})",
        queries.len(),
        elapsed.as_secs_f64(),
        queries.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        if concurrency == 0 { "auto".to_string() } else { concurrency.to_string() },
    );
    println!(
        "  {} regions returned, {} samples decoded, {} reused ({:.0}% cache hit rate)",
        regions,
        stats.samples_decoded,
        stats.samples_reused,
        stats.cache_hit_rate() * 100.0,
    );
    println!(
        "  shared-scan dedup: {} owned / {} joined GOP decodes ({:.0}% join rate); {} retile ops",
        shared.owned,
        shared.joined,
        shared.join_rate() * 100.0,
        stats.retile_ops,
    );
    println!(
        "  latency (submit→complete): {} over {} queries",
        fmt_latency(&stats.latency),
        stats.latency.count,
    );
    Ok(())
}

/// Formats a latency histogram's headline percentiles in milliseconds.
fn fmt_latency(h: &tasm_obs::HistogramSnapshot) -> String {
    format!(
        "p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms",
        h.p50().as_secs_f64() * 1e3,
        h.p95().as_secs_f64() * 1e3,
        h.p99().as_secs_f64() * 1e3,
    )
}

/// Parses the shared retile-policy flag.
fn parse_retile(args: &Args) -> Result<RetilePolicy, Box<dyn Error>> {
    Ok(match args.get("retile").unwrap_or("off") {
        "off" => RetilePolicy::Off,
        "regret" => RetilePolicy::Regret,
        "more" => RetilePolicy::More,
        other => return Err(format!("unknown retile policy '{other}'").into()),
    })
}

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

/// Parses `--slow-query-ms N` into the service's slow-query threshold.
fn parse_slow_query(args: &Args) -> Result<Option<Duration>, Box<dyn Error>> {
    Ok(match args.get("slow-query-ms") {
        Some(v) => {
            let ms: u64 = v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for --slow-query-ms"))?;
            Some(Duration::from_millis(ms))
        }
        None => None,
    })
}

/// Prints the `--explain` per-phase breakdown of one query trace. The
/// phase sum is bounded by the printed total: `total_micros` is the
/// server-side admission→completion measurement and the stream phase is
/// measured after it, so `queue+plan+decode+stream ≤ total+stream`.
fn print_trace(trace: &tasm_obs::QueryTrace) {
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

/// Appends endpoint-specific series (the server's latency histogram)
/// after the global registry in a `/metrics` response.
type ExtraSeries = Arc<dyn Fn(&mut String) + Send + Sync>;

/// Appends `tasm serve`'s latency histogram to a `/metrics` body. It is
/// rendered from the same `ServiceStats` snapshot `client stats` sees, so
/// both views agree at any instant.
fn render_latency_series(out: &mut String, stats: &tasm_service::ServiceStats) {
    tasm_obs::render_histogram_into(
        out,
        "tasm_query_latency_seconds",
        "Submit-to-complete query latency (service histogram).",
        &stats.latency,
    );
}

/// Starts the Prometheus exposition endpoint shared by `serve` and
/// `route` when `--metrics-addr` is given.
fn start_metrics(
    args: &Args,
    extra: Option<ExtraSeries>,
) -> Result<Option<tasm_obs::MetricsServer>, Box<dyn Error>> {
    let Some(addr) = args.get("metrics-addr") else {
        return Ok(None);
    };
    let body: Arc<dyn Fn() -> String + Send + Sync> = Arc::new(move || {
        let mut out = tasm_obs::render();
        if let Some(extra) = &extra {
            extra(&mut out);
        }
        out
    });
    let endpoint = tasm_obs::MetricsServer::serve(addr, body)?;
    println!(
        "metrics exposed at http://{}/metrics",
        endpoint.local_addr()
    );
    Ok(Some(endpoint))
}

/// Serves every video in the store over TCP until a client sends the
/// administrative shutdown frame.
fn serve(args: &Args) -> CmdResult {
    let store = args.required("store")?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7743");
    let concurrency: usize = args.get_or("concurrency", 0)?;
    let queue_depth: usize = args.get_or("queue-depth", 64)?;
    if queue_depth == 0 {
        return Err("--queue-depth must be at least 1".into());
    }
    let retile = parse_retile(args)?;
    apply_log_flags(args)?;
    let slow_query = parse_slow_query(args)?;
    let server_cfg = ServerConfig {
        max_connections: args.get_or("max-connections", 64usize)?,
        max_inflight: args.get_or("max-inflight", 8u32)?,
        ..ServerConfig::default()
    };

    // Every stored video is served; queries name them over the wire. The
    // detector output lives in the persistent index, so no ground truth is
    // replayed.
    let (tasm, mut served) = open_stored(store, args, None)?;
    let tasm = Arc::new(tasm);
    // Opening ran startup recovery; surface what it repaired (e.g. after a
    // kill -9 mid-re-tile) before serving any traffic.
    report_recovery(&tasm);
    if served.is_empty() {
        return Err(format!("store '{store}' holds no servable videos").into());
    }
    served.sort();

    // Primary→backup replication: full-sync every backup now, then hook
    // the retile daemon so layout changes replicate before they count as
    // durable.
    let hook: Option<Arc<dyn tasm_service::RetileHook>> = match args.get("backup") {
        Some(list) => {
            let addrs: Vec<String> = list
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            let hook = tasm_cluster::ReplicatorHook::bootstrap(Arc::clone(&tasm), &addrs)
                .map_err(|e| format!("backup sync failed: {e}"))?;
            println!(
                "replicating to {} backup(s): {}",
                addrs.len(),
                addrs.join(", ")
            );
            Some(Arc::new(hook))
        }
        None => None,
    };

    let server = Arc::new(TasmServer::bind_with_hook(
        tasm,
        ServiceConfig {
            workers: concurrency,
            queue_depth,
            retile,
            slow_query,
            ..ServiceConfig::default()
        },
        server_cfg,
        addr,
        hook,
    )?);
    let metrics = {
        let stats_server = Arc::clone(&server);
        start_metrics(
            args,
            Some(Arc::new(move |out: &mut String| {
                render_latency_series(out, &stats_server.stats())
            })),
        )?
    };
    println!(
        "tasm-server listening on {} — serving [{}] ({} workers, queue depth {queue_depth}, retile {retile:?})",
        server.local_addr(),
        served.join(", "),
        if concurrency == 0 { "auto".to_string() } else { concurrency.to_string() },
    );
    println!(
        "stop with: tasm client shutdown --addr {}",
        server.local_addr()
    );
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    server.wait_shutdown_requested();
    // The metrics endpoint holds the only other handle on the server;
    // stopping it first makes the unwrap below infallible.
    if let Some(m) = metrics {
        m.shutdown();
    }
    let server = Arc::try_unwrap(server).map_err(|_| "metrics endpoint still holds the server")?;
    let report = server.shutdown();
    let stats = report.service.stats;
    println!(
        "shutdown: {} sessions served, {} queries completed ({} abandoned), {} busy rejections",
        report.sessions_served,
        report.service.completed,
        report.service.abandoned,
        report.busy_rejections,
    );
    println!(
        "  latency (submit→complete): {}; {} retile ops",
        fmt_latency(&stats.latency),
        stats.retile_ops,
    );
    Ok(())
}

/// Dispatches `tasm client <subcommand>`.
fn client(argv: &[String]) -> CmdResult {
    let Some((sub, rest)) = argv.split_first() else {
        return Err(format!("client needs a subcommand\n\n{USAGE}").into());
    };
    let args = Args::parse_with_flags(rest, &["explain", "json"])?;
    match sub.as_str() {
        "query" => client_query(&args),
        "loadgen" => client_loadgen(&args),
        "stats" => client_stats(&args),
        "shutdown" => client_shutdown(&args),
        other => Err(format!("unknown client subcommand '{other}'\n\n{USAGE}").into()),
    }
}

/// Runs one remote query and reports the same summary as the local
/// `query` command, plus the client-observed latency.
fn client_query(args: &Args) -> CmdResult {
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
    match q.query_mode() {
        QueryMode::Exists => println!(
            "exists '{label}' on {name}@{addr}: {} ({} matches known from the index; no tiles decoded)",
            outcome.matched > 0,
            outcome.matched
        ),
        QueryMode::Count => println!(
            "count '{label}' on {name}@{addr}: {} matches on {} frames (no tiles decoded)",
            outcome.matched, outcome.plan.frames_sampled
        ),
        QueryMode::Pixels => println!(
            "query '{label}' on {name}@{addr}: {} regions on {} frames, {} samples decoded remotely, {} cache hits",
            outcome.regions.len(),
            outcome.plan.frames_sampled,
            outcome.summary.samples_decoded,
            outcome.summary.cache_hits,
        ),
    }
    println!(
        "  plan: {} tiles decoded / {} pruned, {} GOPs decoded / {} skipped (layout epoch {})",
        outcome.plan.tiles_planned,
        outcome.plan.tiles_pruned,
        outcome.plan.gops_planned,
        outcome.plan.gops_skipped,
        outcome.epoch
    );
    println!(
        "  latency: {:.2} ms end-to-end ({:.2} ms server-side decode)",
        outcome.latency.as_secs_f64() * 1e3,
        (outcome.summary.lookup_micros + outcome.summary.exec_micros) as f64 / 1e3,
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
fn client_loadgen(args: &Args) -> CmdResult {
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
        busy_backoff: Duration::from_millis(2),
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
        fmt_latency(&report.latency),
        report.latency.mean().as_secs_f64() * 1e3,
        report.regions,
    );
    // Server-side counters are lifetime totals for the whole server, not
    // scoped to this run — label them as such.
    if let Ok(mut conn) = Connection::connect(addr) {
        if let Ok(stats) = conn.stats() {
            println!(
                "  server lifetime: {} completed, {}, {:.0}% cache hits, {:.0}% dedup joins",
                stats.completed,
                fmt_latency(&stats.latency),
                stats.cache_hit_rate() * 100.0,
                stats.shared.join_rate() * 100.0,
            );
        }
        let _ = conn.goodbye();
    }
    Ok(())
}

/// `client stats --json`: a [`tasm_service::ServiceStats`] snapshot.
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

fn service_stats_json(source: &str, stats: &tasm_service::ServiceStats) -> String {
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

/// Prints a remote server's aggregate statistics.
fn client_stats(args: &Args) -> CmdResult {
    let addr = args.required("addr")?;
    let mut conn = Connection::connect(addr)?;
    let stats = conn.stats()?;
    if args.has("json") {
        println!("{}", service_stats_json(addr, &stats));
        conn.goodbye()?;
        return Ok(());
    }
    println!(
        "{addr}: {} submitted, {} completed, {} failed, queue peak {}",
        stats.submitted, stats.completed, stats.failed, stats.queue_peak
    );
    println!(
        "  decode: {} samples decoded, {} reused ({:.0}% cache hits); dedup {} owned / {} joined",
        stats.samples_decoded,
        stats.samples_reused,
        stats.cache_hit_rate() * 100.0,
        stats.shared.owned,
        stats.shared.joined,
    );
    println!(
        "  latency: {} over {} queries; {} retile ops",
        fmt_latency(&stats.latency),
        stats.latency.count,
        stats.retile_ops,
    );
    conn.goodbye()?;
    Ok(())
}

/// Asks a remote server to shut down gracefully.
fn client_shutdown(args: &Args) -> CmdResult {
    let addr = args.required("addr")?;
    let mut conn = Connection::connect(addr)?;
    conn.shutdown_server()?;
    println!("server at {addr} acknowledged shutdown");
    Ok(())
}

/// Dispatches `tasm cluster <subcommand>`.
fn cluster(argv: &[String]) -> CmdResult {
    let Some((sub, rest)) = argv.split_first() else {
        return Err(format!("cluster needs a subcommand\n\n{USAGE}").into());
    };
    let args = Args::parse(rest)?;
    match sub.as_str() {
        "init" => cluster_init(&args),
        "show" => cluster_show(&args),
        other => Err(format!("unknown cluster subcommand '{other}'\n\n{USAGE}").into()),
    }
}

/// Writes an epoch-1 shard map from `--nodes id=addr,...`.
fn cluster_init(args: &Args) -> CmdResult {
    let map_path = PathBuf::from(args.required("map")?);
    let mut nodes = Vec::new();
    for spec in args.required("nodes")?.split(',') {
        let spec = spec.trim();
        if spec.is_empty() {
            continue;
        }
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
fn cluster_show(args: &Args) -> CmdResult {
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
fn route(args: &Args) -> CmdResult {
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
        ..tasm_cluster::RouterConfig::default()
    };
    let router = tasm_cluster::Router::bind(cfg, addr)?;
    // Router-side counters (routed queries, failovers, replication acks)
    // live in the global registry; no shard is dialed on a scrape.
    let metrics = start_metrics(args, None)?;
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
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    router.wait_shutdown_requested();
    if let Some(m) = metrics {
        m.shutdown();
    }
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
        match (&shard.stats, &shard.error) {
            (Some(stats), None) => println!(
                "  shard {} @ {}: {} completed, {} retile ops, {}",
                shard.node,
                shard.addr,
                stats.completed,
                stats.retile_ops,
                fmt_latency(&stats.latency),
            ),
            (Some(stats), Some(e)) => println!(
                "  shard {} @ {}: {} completed, but drain incomplete: {e}",
                shard.node, shard.addr, stats.completed,
            ),
            (None, e) => println!(
                "  shard {} @ {}: unreachable ({})",
                shard.node,
                shard.addr,
                e.as_deref().unwrap_or("no detail"),
            ),
        }
    }
    Ok(())
}

/// Moves a video to a new primary: copy → verify → flip → GC.
fn rebalance_cmd(args: &Args) -> CmdResult {
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

/// Prints what startup recovery repaired, if anything, mirroring it into
/// the structured log so a supervised `serve` leaves a machine-readable
/// record of post-crash repairs.
fn report_recovery(tasm: &Tasm) {
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

/// Sidecar files this CLI places inside video directories (next to the
/// manifest) that the store's fsck should not flag as stray.
const STORE_SIDECARS: &[&str] = &["scene.json"];

/// Validates the store: recovery runs at open, then every manifest is
/// checked against its on-disk tile packs and container headers.
fn fsck(args: &Args) -> CmdResult {
    let store = args.required("store")?;
    let tasm = open_tasm(store, args)?;
    report_recovery(&tasm);
    let report = match args.get("name") {
        Some(name) => tasm.store().fsck_video(name, STORE_SIDECARS)?,
        None => tasm.store().fsck(STORE_SIDECARS)?,
    };
    if report.is_clean() {
        println!(
            "fsck clean: {} video(s), {} tile(s) validated",
            report.videos_checked, report.tiles_checked
        );
        Ok(())
    } else {
        println!(
            "fsck found {} issue(s) across {} video(s) ({} tile(s) validated):",
            report.issues.len(),
            report.videos_checked,
            report.tiles_checked
        );
        for issue in &report.issues {
            println!("  - {issue}");
        }
        Err(format!(
            "store '{store}' failed fsck with {} issue(s)",
            report.issues.len()
        )
        .into())
    }
}

fn info(args: &Args) -> CmdResult {
    let store = args.required("store")?;
    let (tasm, names) = open_stored(store, args, args.get("name"))?;
    for name in names {
        let m = tasm.manifest(&name)?;
        let tiled = m.sots.iter().filter(|s| !s.layout.is_untiled()).count();
        let id = tasm.video_id(&name)?;
        let labels = tasm.with_index(|ix| ix.labels(id))?;
        println!(
            "{name}: {}x{} {} frames, {} SOTs ({} tiled), {:.1} KiB, labels: [{}]",
            m.width,
            m.height,
            m.frame_count,
            m.sots.len(),
            tiled,
            tasm.video_size_bytes(&name)? as f64 / 1024.0,
            labels.join(", ")
        );
    }
    Ok(())
}

/// One video's object in `stats --json`.
#[derive(Serialize)]
#[cfg_attr(test, derive(serde::Deserialize))]
struct VideoStats {
    name: String,
    disk_bytes: u64,
    raw_bytes: u64,
    frames: u32,
    sots: usize,
    tiles_dct: u64,
    tiles_pred: u64,
}

/// The semantic index tier's object in `stats --storage --json`.
#[derive(Serialize)]
#[cfg_attr(test, derive(serde::Deserialize))]
struct IndexStats {
    runs: usize,
    run_entries: u64,
    memtable_entries: usize,
    detections: u64,
    disk_bytes: u64,
    resident_bytes: u64,
    filter_probes: u64,
    filter_skips: u64,
    runs_read: u64,
}

/// `stats --json`.
#[derive(Serialize)]
#[cfg_attr(test, derive(serde::Deserialize))]
struct StoreStats {
    videos: Vec<VideoStats>,
}

/// `stats --storage --json`.
#[derive(Serialize)]
#[cfg_attr(test, derive(serde::Deserialize))]
struct StoreStorageStats {
    videos: Vec<VideoStats>,
    index: IndexStats,
}

fn stats(args: &Args) -> CmdResult {
    print!("{}", stats_report(args)?);
    Ok(())
}

/// What `stats` prints: a line per video and, with `--storage`, the
/// semantic index tier's counters, as text or (`--json`) one JSON object.
fn stats_report(args: &Args) -> Result<String, Box<dyn Error>> {
    use std::fmt::Write;
    let store = args.required("store")?;
    let (tasm, names) = open_stored(store, args, args.get("name"))?;
    let json = args.has("json");
    let mut out = String::new();
    let mut videos: Vec<VideoStats> = Vec::new();
    let mut ids: Vec<u32> = Vec::new();
    for name in names {
        ids.push(tasm.video_id(&name)?);
        let m = tasm.manifest(&name)?;
        let disk = tasm.video_size_bytes(&name)?;
        let luma = m.width as u64 * m.height as u64;
        let raw = m.frame_count as u64 * (luma + luma / 2);
        let codecs = m.sots.iter().flat_map(|sot| &sot.tile_codecs);
        let dct = codecs.clone().filter(|&&c| c == 0).count() as u64;
        let pred = codecs.count() as u64 - dct;
        if !json {
            writeln!(
                out,
                "{name}: {:.1} KiB on disk / {:.1} KiB raw ({:.2}x smaller), \
                 tiles: {dct} dct, {pred} pred",
                disk as f64 / 1024.0,
                raw as f64 / 1024.0,
                raw as f64 / disk.max(1) as f64,
            )?;
        }
        videos.push(VideoStats {
            name,
            disk_bytes: disk,
            raw_bytes: raw,
            frames: m.frame_count,
            sots: m.sots.len(),
            tiles_dct: dct,
            tiles_pred: pred,
        });
    }
    if !args.has("storage") {
        if json {
            writeln!(out, "{}", serde_json::to_string(&StoreStats { videos })?)?;
        }
        return Ok(out);
    }
    // A second, read-only handle on the tier: probe one query per stored
    // label so the filter counters reflect real lookups.
    let mut tier = TieredIndex::open(&Path::new(store).join("index"))?;
    for &id in &ids {
        for label in tier.labels(id)? {
            tier.query(id, &label, 0..u32::MAX)?;
        }
    }
    let ts = tier.stats();
    if json {
        let index = IndexStats {
            runs: ts.run_count,
            run_entries: ts.run_entries,
            memtable_entries: ts.memtable_entries,
            detections: tier.detection_count(),
            disk_bytes: ts.disk_bytes,
            resident_bytes: ts.resident_bytes,
            filter_probes: ts.filter_probes,
            filter_skips: ts.filter_skips,
            runs_read: ts.runs_read,
        };
        let both = StoreStorageStats { videos, index };
        writeln!(out, "{}", serde_json::to_string(&both)?)?;
        return Ok(out);
    }
    writeln!(out, "semantic index tier:")?;
    writeln!(
        out,
        "  {} run(s) holding {} entries, memtable {} entries, {} detections total",
        ts.run_count,
        ts.run_entries,
        ts.memtable_entries,
        tier.detection_count()
    )?;
    for (id, n, bytes) in tier.run_summaries() {
        writeln!(
            out,
            "    run {id:08}: {n} entries, {:.1} KiB",
            bytes as f64 / 1024.0
        )?;
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
        "  bloom/range filters: {} probe(s), {} skipped disk reads ({:.0}% hit rate), {} run file(s) read",
        ts.filter_probes,
        ts.filter_skips,
        100.0 * ts.filter_hit_rate(),
        ts.runs_read,
    )?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(line: &str) -> CmdResult {
        let argv: Vec<String> = line.split_whitespace().map(|s| s.to_string()).collect();
        dispatch(&argv)
    }

    /// Removes a test's store directory when the test ends.
    struct RemoveOnDrop(String);

    impl Drop for RemoveOnDrop {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    /// A store path under the system temp dir, and the guard that removes
    /// it.
    fn store(tag: &str) -> (String, RemoveOnDrop) {
        let dir = std::env::temp_dir().join(format!("tasm-cli-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.display().to_string();
        (path.clone(), RemoveOnDrop(path))
    }

    #[test]
    fn full_cli_session() {
        let (s, _store) = store("session");
        run(&format!(
            "ingest --store {s} --name cam --dataset visual-road-2k --seconds 1 --seed 3"
        ))
        .expect("ingest");
        run(&format!("detect --store {s} --name cam --stride 2")).expect("detect");
        run(&format!("scan --store {s} --name cam --label car")).expect("scan");
        run(&format!(
            "scan --store {s} --name cam --label car --repeat 2 --workers 2 --cache-mb 64"
        ))
        .expect("scan with execution flags");
        run(&format!(
            "scan --store {s} --name cam --label car --cache-mb 0 --workers 1"
        ))
        .expect("scan serial uncached");
        run(&format!(
            "query --store {s} --name cam --label car --roi 0,0,160,176 --stride 2 --limit 4"
        ))
        .expect("roi query");
        run(&format!(
            "query --store {s} --name cam --label car --mode count"
        ))
        .expect("count query");
        run(&format!(
            "query --store {s} --name cam --label car --mode exists --repeat 2"
        ))
        .expect("exists query");
        run(&format!("retile --store {s} --name cam --labels car")).expect("retile");
        run(&format!(
            "observe --store {s} --name cam --label car --end 30"
        ))
        .expect("observe");
        run(&format!("info --store {s}")).expect("info");
        run(&format!("stats --store {s}")).expect("stats");
        run(&format!("stats --store {s} --storage")).expect("stats storage");
        // The store is consistent after the whole session, whole-store and
        // per-video.
        run(&format!("fsck --store {s}")).expect("fsck");
        run(&format!("fsck --store {s} --name cam")).expect("fsck one video");
    }

    /// A second `detect` skips the frames the first processed: the index
    /// holds as many boxes as before and `query --mode count` finds as
    /// many matches.
    #[test]
    fn a_second_detect_stores_no_box_twice() {
        let (s, _store) = store("redetect");
        run(&format!(
            "ingest --store {s} --name cam --dataset visual-road-2k --seconds 1 --seed 3"
        ))
        .expect("ingest");
        let counts = || {
            let (tasm, _) = open_stored(&s, &Args::parse(&[]).unwrap(), Some("cam")).unwrap();
            let count = Query::new(LabelPredicate::label("car")).mode(QueryMode::Count);
            let matched = tasm.query("cam", &count).unwrap().matched;
            (tasm.with_index(|ix| ix.detection_count()), matched)
        };
        run(&format!("detect --store {s} --name cam --stride 2")).expect("detect");
        let first = counts();
        assert!(first.0 > 0 && first.1 > 0, "{first:?}");
        run(&format!("detect --store {s} --name cam --stride 2")).expect("detect again");
        assert_eq!(counts(), first, "(detections, car matches)");
    }

    #[test]
    fn fsck_reports_corruption_and_unknown_videos() {
        let (s, _store) = store("fsck");
        run(&format!(
            "ingest --store {s} --name cam --dataset visual-road-2k --seconds 1 --seed 3"
        ))
        .expect("ingest");
        run(&format!("fsck --store {s}")).expect("clean store");
        assert!(run(&format!("fsck --store {s} --name nope")).is_err());
        // Truncate one SOT's pack: fsck must fail with a non-zero exit.
        let videos = Path::new(&s).join("videos").join("cam");
        let pack = std::fs::read_dir(&videos)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.path().extension().is_some_and(|x| x == "tiles"))
            .expect("a SOT's pack")
            .path();
        let bytes = std::fs::read(&pack).unwrap();
        std::fs::write(&pack, &bytes[..bytes.len() / 2]).unwrap();
        assert!(run(&format!("fsck --store {s}")).is_err());
        assert!(run(&format!("fsck --store {s} --name cam")).is_err());
        // Repair and re-verify.
        std::fs::write(&pack, &bytes).unwrap();
        run(&format!("fsck --store {s}")).expect("repaired store");
    }

    /// What a crash in ingest's sidecar write leaves — a stray
    /// `scene.json.tmp` beside the published `scene.json` — is reaped by
    /// the next command's store open, and the video still loads.
    #[test]
    fn stray_scene_spec_temp_is_reaped_and_the_video_loads() {
        let (s, _store) = store("scene-tmp");
        run(&format!(
            "ingest --store {s} --name cam --dataset visual-road-2k --seconds 1 --seed 3"
        ))
        .expect("ingest");
        let tmp = spec_path(&s, "cam").with_extension("json.tmp");
        assert!(!tmp.exists(), "a finished ingest leaves no temp file");
        std::fs::write(&tmp, b"{\"torn").unwrap();
        run(&format!("scan --store {s} --name cam --label car")).expect("scan");
        assert!(!tmp.exists(), "the store's startup recovery reaps it");
        run(&format!("fsck --store {s}")).expect("fsck");
    }

    /// A `scene.json` that parses but does not describe a renderable scene
    /// fails each command that loads it with the typed error; it used to
    /// panic in `SyntheticVideo::new` (`width: 0` inside `clamp(4, 0)`).
    #[test]
    fn invalid_scene_spec_is_a_typed_error_not_a_panic() {
        use tasm_data::SceneError;
        let (s, _store) = store("bad-scene");
        run(&format!(
            "ingest --store {s} --name cam --dataset visual-road-2k --seconds 1 --seed 3"
        ))
        .expect("ingest");
        let path = spec_path(&s, "cam");
        let good = std::fs::read(&path).unwrap();
        let spec: SceneSpec = serde_json::from_slice(&good).unwrap();
        let no_width = serde_json::to_string(&SceneSpec {
            width: 0,
            ..spec.clone()
        })
        .unwrap();
        let zero_width = SceneError::Dimensions {
            width: 0,
            height: spec.height,
        };
        // JSON has no infinity, but a literal past f64's range parses as one.
        let pan = serde_json::to_string(&SceneSpec {
            camera_pan: 0.5,
            ..spec
        })
        .unwrap();
        let infinite_pan = SceneError::NotFinite {
            field: "camera_pan",
            value: f64::INFINITY,
        };
        for (sidecar, want) in [
            (no_width, zero_width),
            (pan.replace("0.5", "1e999"), infinite_pan),
        ] {
            std::fs::write(&path, sidecar).unwrap();
            let err = run(&format!("scan --store {s} --name cam --label car"))
                .expect_err("an invalid sidecar must fail the command");
            assert_eq!(err.downcast_ref::<SceneError>(), Some(&want), "{err}");
        }
        std::fs::write(&path, good).unwrap();
        run(&format!("scan --store {s} --name cam --label car")).expect("restored sidecar");
    }

    #[test]
    fn workload_runs_through_query_service() {
        let (s, _store) = store("workload");
        run(&format!(
            "ingest --store {s} --name cam --dataset visual-road-2k --seconds 1 --seed 3"
        ))
        .expect("ingest");
        // Concurrent, small queue, regret daemon on; index populates lazily
        // inside the command.
        run(&format!(
            "workload --store {s} --name cam --workload 3 --queries 12 \
             --concurrency 4 --queue-depth 4 --retile regret --query-frames 10"
        ))
        .expect("workload with service flags");
        // Serial path through the same service machinery.
        run(&format!(
            "workload --store {s} --name cam --queries 4 --concurrency 1"
        ))
        .expect("serial workload");
    }

    #[test]
    fn serve_and_client_round_trip() {
        let (s, _store) = store("serve");
        run(&format!(
            "ingest --store {s} --name cam --dataset visual-road-2k --seconds 1 --seed 3"
        ))
        .expect("ingest");
        run(&format!("detect --store {s} --name cam")).expect("detect");
        // A quasi-unique loopback port; `serve` runs on its own thread
        // until `client shutdown` lands.
        let port = 21000 + (std::process::id() as usize % 20000);
        let addr = format!("127.0.0.1:{port}");
        let serve_store = s.clone();
        let serve_addr = addr.clone();
        let server = std::thread::spawn(move || {
            run(&format!(
                "serve --store {serve_store} --addr {serve_addr} --concurrency 2 --queue-depth 8"
            ))
            .map_err(|e| e.to_string())
        });
        // The listener may take a moment to come up.
        let mut attempts = 0;
        loop {
            match run(&format!(
                "client query --addr {addr} --name cam --label car --roi 0,0,160,176 --stride 2"
            )) {
                Ok(()) => break,
                Err(_) if attempts < 100 => {
                    attempts += 1;
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
                Err(e) => panic!("client query never succeeded: {e}"),
            }
        }
        run(&format!(
            "client query --addr {addr} --name cam --label car --mode count"
        ))
        .expect("remote count query");
        run(&format!(
            "client loadgen --addr {addr} --name cam --label car --requests 12 \
             --connections 3 --frames 30 --window 10"
        ))
        .expect("loadgen");
        run(&format!("client stats --addr {addr}")).expect("stats");
        run(&format!("client shutdown --addr {addr}")).expect("shutdown");
        server
            .join()
            .expect("serve thread")
            .expect("serve exits cleanly");
        // Remote errors are typed, not panics.
        assert!(run(&format!("client stats --addr {addr}")).is_err());
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let (s, _store) = store("errors");
        assert!(run("bogus --store /tmp").is_err());
        assert!(run(&format!("scan --store {s} --name missing --label car")).is_err());
        assert!(run(&format!(
            "ingest --store {s} --name v --dataset not-a-dataset --seconds 1"
        ))
        .is_err());
        assert!(run(&format!("retile --store {s} --name v --labels ,")).is_err());
        assert!(run(&format!(
            "workload --store {s} --name missing --concurrency 2"
        ))
        .is_err());
        assert!(run(&format!(
            "ingest --store {s} --name w --dataset xiph --seconds 1"
        ))
        .is_ok());
        assert!(run(&format!("workload --store {s} --name w --workload 9")).is_err());
        assert!(run(&format!("workload --store {s} --name w --retile sideways")).is_err());
        // Malformed query flags are reported, not panicked.
        assert!(run(&format!(
            "query --store {s} --name w --label car --roi 1,2,3"
        ))
        .is_err());
        assert!(run(&format!(
            "query --store {s} --name w --label car --roi a,b,c,d"
        ))
        .is_err());
        assert!(run(&format!(
            "query --store {s} --name w --label car --roi 0,0,0,4"
        ))
        .is_err());
        assert!(run(&format!(
            "query --store {s} --name w --label car --mode sideways"
        ))
        .is_err());
        assert!(run(&format!("query --store {s} --name w --label car --limit x")).is_err());
    }

    /// FNV-1a-64: a short, stable fingerprint for pinned output.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// One latency histogram feeds three outputs: the `StatsReply` frame,
    /// the `tasm_query_latency_seconds` series on `/metrics` and the
    /// `client stats --json` line. All three are pinned for one fixed,
    /// hand-built snapshot, so a change to the histogram's type cannot move
    /// a byte of any of them.
    #[test]
    fn latency_outputs_are_pinned_for_a_fixed_snapshot() {
        let mut stats = tasm_service::ServiceStats {
            submitted: 13,
            completed: 11,
            failed: 2,
            samples_decoded: 123_456,
            samples_reused: 7_890,
            cache_hits: 31,
            cache_misses: 4,
            retile_ops: 3,
            retile_errors: 1,
            queue_peak: 6,
            ..Default::default()
        };
        stats.shared.owned = 5;
        stats.shared.joined = 2;
        stats.plan.tiles_planned = 40;
        stats.plan.tiles_pruned = 12;
        stats.plan.gops_planned = 20;
        stats.plan.gops_skipped = 7;
        stats.plan.frames_sampled = 300;
        stats.latency.buckets[0] = 1; // under 2 µs
        stats.latency.buckets[9] = 6; // [512, 1024) µs
        stats.latency.buckets[12] = 3; // [4096, 8192) µs
        stats.latency.buckets[20] = 1; // about a second
        stats.latency.count = 11;
        stats.latency.total_micros = 1_519_201;

        let frame = tasm_proto::Message::StatsReply {
            stats: Box::new(stats),
        }
        .encode();
        assert_eq!((frame.len(), fnv1a(&frame)), (479, 0x8607_35a7_3f67_7d3e));

        let mut exposition = String::new();
        render_latency_series(&mut exposition, &stats);
        assert_eq!(
            fnv1a(exposition.as_bytes()),
            0xac39_fdd7_2731_b799,
            "{exposition}"
        );
        assert!(exposition.contains("tasm_query_latency_seconds_bucket{le=\"0.001024\"} 7\n"));
        assert!(exposition.ends_with(
            "tasm_query_latency_seconds_sum 1.519201\ntasm_query_latency_seconds_count 11\n"
        ));

        assert_eq!(
            service_stats_json("127.0.0.1:7750", &stats),
            concat!(
                r#"{"source":"127.0.0.1:7750","submitted":13,"completed":11,"failed":2,"#,
                r#""samples_decoded":123456,"samples_reused":7890,"cache_hits":31,"#,
                r#""cache_misses":4,"shared_owned":5,"shared_joined":2,"retile_ops":3,"#,
                r#""retile_errors":1,"queue_peak":6,"latency":{"count":11,"#,
                r#""total_micros":1519201,"p50_micros":938,"p95_micros":2097152,"#,
                r#""p99_micros":2097152,"buckets":[1,0,0,0,0,0,0,0,0,6,0,0,3,0,0,0,0,0,"#,
                r#"0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}}"#,
            )
        );
    }

    /// `stats --json` is JSON whatever the video is called: a name with a
    /// quote in it parses back, with and without `--storage`.
    #[test]
    fn stats_json_parses_back_for_a_quoted_name() {
        let (s, _store) = store("stats-json");
        run(&format!(
            "ingest --store {s} --name a\"b --dataset visual-road-2k --seconds 1 --seed 3"
        ))
        .expect("ingest");
        let report = |line: &str| {
            let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
            stats_report(&Args::parse_with_flags(&argv, &["storage", "json"]).unwrap()).unwrap()
        };
        let plain: StoreStats =
            serde_json::from_str(&report(&format!("--store {s} --json"))).unwrap();
        let both: StoreStorageStats =
            serde_json::from_str(&report(&format!("--store {s} --storage --json"))).unwrap();
        for videos in [plain.videos, both.videos] {
            assert_eq!(videos.len(), 1);
            assert_eq!((videos[0].name.as_str(), videos[0].frames), ("a\"b", 30));
        }
        assert_eq!(both.index.detections, 0);
    }

    #[test]
    fn help_and_presets_work() {
        run("help").expect("help");
        run("presets").expect("presets");
        run("").err(); // empty command prints usage via dispatch of [""], which errs
    }
}
