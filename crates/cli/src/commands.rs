//! The commands over a store directory — `ingest`, `detect`, `query`
//! (which `tasm scan` runs too), `retile`, `observe`, `workload`, `info`,
//! `stats` and `fsck` — and the flag readers they share with the commands
//! over a network.
//!
//! The store layout is `<store>/index/` (persistent semantic index) plus
//! `<store>/videos/` (tile packs + manifests). The videos a store holds are
//! the ones `Tasm::attach_stored` finds. `ingest` also persists each
//! video's scene spec as `scene.json`, which the two commands that need
//! ground truth, `detect` and `workload`, render it from; a video that
//! arrived by replication has none.

use crate::args::Args;
use crate::report::{
    print_answer, print_trace, report_recovery, service_text, VideoReport, VideoStats,
};
use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tasm_core::runner::detect_frames;
use tasm_core::{
    LabelPredicate, Query, QueryMode, RealIo, RetilePolicy, StorageIo, Tasm, TasmConfig, TasmError,
    VideoStore,
};
use tasm_data::{workloads, Dataset, SceneSpec, SyntheticVideo, WorkloadParams};
use tasm_detect::sampled::SampledDetector;
use tasm_detect::yolo::SimulatedYolo;
use tasm_detect::Detector;
use tasm_index::{SemanticIndex, TieredIndex};
use tasm_service::{QueryRequest, QueryService, ServiceConfig, Shutdown};
use tasm_video::{FrameSource, Rect};

pub(crate) type CmdResult = Result<(), Box<dyn Error>>;

pub(crate) fn open_tasm(store: &str, args: &Args) -> Result<Tasm, Box<dyn Error>> {
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

pub(crate) fn spec_path(store: &str, name: &str) -> PathBuf {
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
        .map_err(|_| format!("video '{name}' has no scene spec (only `tasm ingest` writes one)"))?;
    let spec: SceneSpec = serde_json::from_slice(&raw)?;
    spec.validate()?;
    Ok(SyntheticVideo::new(spec))
}

/// Opens the store and attaches every video it holds (no re-encode), or
/// only `only`, which it must hold. The attached names, in name order.
pub(crate) fn open_stored(
    store: &str,
    args: &Args,
    only: Option<&str>,
) -> Result<(Tasm, Vec<String>), Box<dyn Error>> {
    if !Path::new(store).join("videos").is_dir() {
        return Err(format!("no store at '{store}' (run `tasm ingest` first)").into());
    }
    let tasm = open_tasm(store, args)?;
    let names = match only {
        None => tasm.attach_stored()?,
        // A video the store does not hold is the store's `NotFound`, as
        // `fsck --name` reports it.
        Some(name) => match tasm.attach(name) {
            Ok(_) => vec![name.to_string()],
            Err(TasmError::Store(e)) => return Err(e.into()),
            Err(e) => return Err(e.into()),
        },
    };
    Ok((tasm, names))
}

pub(crate) fn ingest(args: &Args) -> CmdResult {
    let store = args.required("store")?;
    let name = args.required("name")?;
    let dataset_name = args.required("dataset")?;
    let seconds: u32 = args.get_or("seconds", 4)?;
    let seed: u64 = args.get_or("seed", 1)?;

    let dataset = Dataset::ALL
        .into_iter()
        .find(|d| d.name() == dataset_name)
        .ok_or_else(|| format!("unknown dataset '{dataset_name}' (see `tasm presets`)"))?;
    let tasm = open_tasm(store, args)?;
    let video = dataset.build(seconds, seed);
    tasm.ingest(name, &video, 30)?;
    // Replaced atomically: a torn sidecar would fail every later command on
    // an intact video. A stray temp file is reaped by store recovery.
    let spec = spec_path(store, name);
    let tmp = spec.with_extension("json.tmp");
    RealIo.write(&tmp, &serde_json::to_vec_pretty(video.spec())?)?;
    RealIo.rename(&tmp, &spec)?;
    let v = VideoReport::build(&tasm, name)?;
    println!(
        "ingested '{name}': {} frames at {}x{}, {} SOTs, {:.1} KiB on disk",
        v.stats.frames,
        v.width,
        v.height,
        v.stats.sots,
        v.kib()
    );
    Ok(())
}

pub(crate) fn detect(args: &Args) -> CmdResult {
    let store = args.required("store")?;
    let name = args.required("name")?;
    let which = args.get("detector").unwrap_or("yolov3");
    let stride: u32 = args.get_or("stride", 1)?;

    let (tasm, _) = open_stored(store, args, Some(name))?;
    let video = load_video(store, name)?;
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

/// After the first of `repeat` runs, says the rest run against the warm
/// cache.
fn note_repeats(repeat: u32, run: u32) {
    if repeat > 1 && run == 0 {
        println!(
            "  (repeating {} more times against the warm decoded-GOP cache)",
            repeat - 1
        );
    }
}

/// Runs a spatiotemporal query through the planner and reports both the
/// answer and what the planner pruned; `tasm scan` is this command with no
/// query clause.
pub(crate) fn query(args: &Args) -> CmdResult {
    let store = args.required("store")?;
    let name = args.required("name")?;
    let label = args.required("label")?;
    let (tasm, _) = open_stored(store, args, Some(name))?;
    let frames = tasm.manifest(name)?.frame_count;
    let q = build_query(args, frames)?;
    let frames = q.frame_range();

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
        let what = format!("'{label}' over frames {}..{}", frames.start, frames.end);
        let cost = format!(
            "{} samples decoded, {} cache hits, {:.2} ms",
            result.stats.samples_decoded,
            result.cache.hits,
            result.seconds() * 1e3
        );
        print_answer(
            &what,
            q.query_mode(),
            result.matched,
            result.regions.len(),
            &result.plan,
            result.epoch,
            &cost,
        );
        if let Some(trace) = &trace {
            print_trace(trace);
        }
        note_repeats(repeat, run);
    }
    Ok(())
}

pub(crate) fn retile(args: &Args) -> CmdResult {
    let store = args.required("store")?;
    let name = args.required("name")?;
    let labels = args.list("labels");
    if labels.is_empty() {
        return Err("--labels needs at least one label".into());
    }
    let (tasm, _) = open_stored(store, args, Some(name))?;
    let stats = tasm.kqko_retile_all(name, &labels)?;
    let v = VideoReport::build(&tasm, name)?;
    println!(
        "retiled around [{}]: {}/{} SOTs tiled, transcode {:.2}s, new size {:.1} KiB",
        labels.join(", "),
        v.tiled_sots,
        v.stats.sots,
        stats.seconds(),
        v.kib()
    );
    Ok(())
}

pub(crate) fn observe(args: &Args) -> CmdResult {
    let store = args.required("store")?;
    let name = args.required("name")?;
    let label = args.required("label")?;
    let (tasm, _) = open_stored(store, args, Some(name))?;
    let frames = tasm.manifest(name)?.frame_count;
    let start: u32 = args.get_or("start", 0)?;
    let end: u32 = args.get_or("end", frames)?;

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
pub(crate) fn workload(args: &Args) -> CmdResult {
    let store = args.required("store")?;
    let name = args.required("name")?;
    let which: u32 = args.get_or("workload", 1)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let cfg = service_config(args)?;

    let (tasm, _) = open_stored(store, args, Some(name))?;
    let tasm = Arc::new(tasm);
    let video = load_video(store, name)?;
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
    if let Some(cap) = args.get_opt("queries")? {
        queries.truncate(cap);
    }

    let service = QueryService::start(Arc::clone(&tasm), cfg);
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

    println!(
        "workload {which}: {} queries in {:.2}s — {:.1} queries/s (concurrency {}, queue depth {}), {regions} regions returned",
        queries.len(),
        elapsed.as_secs_f64(),
        queries.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        if cfg.workers == 0 { "auto".to_string() } else { cfg.workers.to_string() },
        cfg.queue_depth,
    );
    print!("{}", service_text("  ", &stats));
    Ok(())
}

/// Sidecar files this CLI places inside video directories (next to the
/// manifest) that the store's fsck should not flag as stray.
const STORE_SIDECARS: &[&str] = &["scene.json"];

/// Validates the store: recovery runs at open, then every manifest is
/// checked against its on-disk tile packs and container headers.
pub(crate) fn fsck(args: &Args) -> CmdResult {
    let store = args.required("store")?;
    let report = {
        let tasm = open_tasm(store, args)?;
        report_recovery(&tasm);
        match args.get("name") {
            Some(name) => tasm.store().fsck_video(name, STORE_SIDECARS)?,
            None => tasm.store().fsck(STORE_SIDECARS)?,
        }
    };
    // The index tier, opened again once the store's handle on it is
    // closed: every run re-read, checksummed and decoded, the WAL parsed.
    let tier = TieredIndex::open(&Path::new(store).join("index"))?.verify()?;
    let tier_issues = tier
        .iter()
        .map(|i| format!("index {}: {}", i.file, i.detail));
    let issues: Vec<String> = report
        .issues
        .iter()
        .map(ToString::to_string)
        .chain(tier_issues)
        .collect();
    let tiles = format!(
        "{} tile(s) validated ({} DCT tile(s) in the v1 block syntax)",
        report.tiles_checked, report.v1_tiles
    );
    if issues.is_empty() {
        println!(
            "fsck clean: {} video(s), {tiles}, index verified",
            report.videos_checked
        );
        Ok(())
    } else {
        println!(
            "fsck found {} issue(s) across {} video(s) ({tiles}) and the index:",
            issues.len(),
            report.videos_checked,
        );
        for issue in &issues {
            println!("  - {issue}");
        }
        Err(format!("store '{store}' failed fsck with {} issue(s)", issues.len()).into())
    }
}

/// The report of each video `--name` selects: every stored one by default.
fn video_reports(store: &str, args: &Args) -> Result<Vec<VideoReport>, Box<dyn Error>> {
    let (tasm, names) = open_stored(store, args, args.get("name"))?;
    names
        .iter()
        .map(|name| VideoReport::build(&tasm, name))
        .collect()
}

pub(crate) fn info(args: &Args) -> CmdResult {
    for v in video_reports(args.required("store")?, args)? {
        let VideoStats {
            name, frames, sots, ..
        } = &v.stats;
        println!(
            "{name}: {}x{} {frames} frames, {sots} SOTs ({} tiled), {:.1} KiB, labels: [{}]",
            v.width,
            v.height,
            v.tiled_sots,
            v.kib(),
            v.labels.join(", ")
        );
    }
    Ok(())
}

pub(crate) fn stats(args: &Args) -> CmdResult {
    print!("{}", stats_report(args)?);
    Ok(())
}

/// What `stats` prints: a line per video and, with `--storage`, the
/// semantic index tier's counters, as text or (`--json`) one JSON object.
pub(crate) fn stats_report(args: &Args) -> Result<String, Box<dyn Error>> {
    let store = args.required("store")?;
    // `video_reports` closes its `Tasm`, and with it the store's handle on
    // the index tier, before the tier is opened again below.
    let videos = video_reports(store, args)?;
    if !args.has("storage") {
        return crate::report::store_stats(videos, None, args.has("json"));
    }
    // Opening the tier runs its recovery: temp files removed, runs a
    // compaction superseded deleted, a torn WAL rewritten; beside a live
    // owner (`tasm serve`) it only reads and repairs nothing. One probe query
    // per stored label makes the filter counters reflect real lookups.
    let mut tier = TieredIndex::open(&Path::new(store).join("index"))?;
    for video in &videos {
        for label in &video.labels {
            tier.query(video.id, label, 0..u32::MAX)?;
        }
    }
    // The tiles still in the v1 block syntax, from fsck's read of every
    // tile's header.
    let tiles = VideoStore::open(Path::new(store).join("videos"))?;
    let mut v1_tiles = 0;
    for video in &videos {
        v1_tiles += tiles
            .fsck_video(&video.stats.name, STORE_SIDECARS)?
            .v1_tiles;
    }
    crate::report::store_stats(videos, Some((&tier, v1_tiles)), args.has("json"))
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
pub(crate) fn build_query(args: &Args, default_end: u32) -> Result<Query, Box<dyn Error>> {
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
    if let Some(limit) = args.get_opt("limit")? {
        q = q.limit(limit);
    }
    if let Some(epoch) = args.get_opt("as-of")? {
        q = q.as_of(epoch);
    }
    Ok(q)
}

/// The query service `serve` and `workload` run: `--concurrency` workers
/// (0 = one per core) over a `--queue-depth` queue of at least 1, with the
/// `--retile` policy's daemon.
pub(crate) fn service_config(args: &Args) -> Result<ServiceConfig, Box<dyn Error>> {
    let queue_depth = args.get_or("queue-depth", 64usize)?;
    if queue_depth == 0 {
        return Err("--queue-depth must be at least 1".into());
    }
    let retile = match args.get("retile").unwrap_or("off") {
        "off" => RetilePolicy::Off,
        "regret" => RetilePolicy::Regret,
        "more" => RetilePolicy::More,
        other => return Err(format!("unknown retile policy '{other}'").into()),
    };
    Ok(ServiceConfig {
        workers: args.get_or("concurrency", 0usize)?,
        queue_depth,
        retile,
        ..ServiceConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch;
    use crate::report::{
        render_latency_series, render_router_series, render_server_series, service_stats_json,
        StoreStats, StoreStorageStats,
    };
    use tasm_core::StoreError;

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
    /// the next command's store open, and the video's scene still loads.
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
        run(&format!("detect --store {s} --name cam --stride 2")).expect("detect");
        assert!(!tmp.exists(), "the store's startup recovery reaps it");
        run(&format!("fsck --store {s}")).expect("fsck");
    }

    /// A `scene.json` that parses but does not describe a renderable scene
    /// fails each command that loads it (`detect` and `workload`) with the
    /// typed error; it used to panic in `SyntheticVideo::new` (`width: 0`
    /// inside `clamp(4, 0)`).
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
            for cmd in ["detect", "workload --queries 1"] {
                let err = run(&format!("{cmd} --store {s} --name cam"))
                    .expect_err("an invalid sidecar must fail the command");
                assert_eq!(err.downcast_ref::<SceneError>(), Some(&want), "{err}");
            }
        }
        std::fs::write(&path, good).unwrap();
        run(&format!("detect --store {s} --name cam --stride 2")).expect("restored sidecar");
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
        // A second ingest under a stored name is refused before it encodes.
        let again = run(&format!(
            "ingest --store {s} --name w --dataset visual-road-2k --seconds 1"
        ))
        .expect_err("re-ingest");
        assert!(
            matches!(again.downcast_ref::<TasmError>(), Some(TasmError::AlreadyStored(n)) if n == "w"),
            "{again}"
        );
        // `info`, `stats` and `fsck` name a missing video alike.
        for cmd in ["info", "stats", "fsck"] {
            let err = run(&format!("{cmd} --store {s} --name nope")).expect_err(cmd);
            let found = err.downcast_ref::<StoreError>();
            assert!(
                matches!(found, Some(StoreError::NotFound(_))),
                "{cmd}: {err}"
            );
        }
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

    /// `/metrics` on `serve` and `route` renders each count the service,
    /// server and router keep as one typed counter series, from the
    /// snapshot it is handed; `serve`'s ends with the latency histogram.
    #[test]
    fn served_counts_render_as_counter_series() {
        let stats = tasm_service::ServiceStats {
            submitted: 13,
            completed: 11,
            failed: 2,
            retile_ops: 3,
            ..Default::default()
        };
        let mut served = String::new();
        render_server_series(&mut served, &stats, (4, 5));
        let mut router = String::new();
        let routed = tasm_cluster::RouterStats {
            routed: 21,
            failovers: 1,
            ..Default::default()
        };
        render_router_series(&mut router, &routed);
        for (body, name, value) in [
            (&served, "tasm_queries_submitted_total", 13),
            (&served, "tasm_queries_completed_total", 11),
            (&served, "tasm_queries_failed_total", 2),
            (&served, "tasm_retile_commits_total", 3),
            (&served, "tasm_queries_busy_rejected_total", 4),
            (&served, "tasm_connections_rejected_total", 5),
            (&router, "tasm_router_queries_total", 21),
            (&router, "tasm_router_failovers_total", 1),
        ] {
            let series = format!("# TYPE {name} counter\n{name} {value}\n");
            assert_eq!(body.matches(&series).count(), 1, "{name} in:\n{body}");
        }
        let mut latency = String::new();
        render_latency_series(&mut latency, &stats);
        assert!(served.ends_with(&latency));
        assert_eq!(served.matches("# TYPE").count(), 7);
        assert_eq!(router.matches("# TYPE").count(), 2);
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

    /// `stats --storage` counts the runs compaction has not yet rewritten
    /// from `TSR1` (fixed-width boxes) to `TSR2`, in text and in JSON.
    #[test]
    fn stats_storage_counts_tsr1_runs() {
        let (s, _store) = store("stats-tsr1");
        run(&format!(
            "ingest --store {s} --name cam --dataset visual-road-2k --seconds 1 --seed 3"
        ))
        .expect("ingest");
        let run_v1 = include_bytes!("../../index/testdata/run_v1.sst");
        std::fs::write(Path::new(&s).join("index/run_00000000.sst"), run_v1).unwrap();
        let report = |flags: &str| {
            let line = format!("--store {s} --storage {flags}");
            let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
            stats_report(&Args::parse_with_flags(&argv, &["storage", "json"]).unwrap()).unwrap()
        };
        assert!(report("").contains("1 run(s) holding 12 entries (1 still TSR1)"));
        let both: StoreStorageStats = serde_json::from_str(&report("--json")).unwrap();
        assert_eq!((both.index.runs, both.index.v1_runs), (1, 1));
    }

    /// A store an earlier build wrote (`tests/testdata/store_v1`, whose
    /// answers `tests/write_path.rs` checks) holds six DCT tiles in the v1
    /// block syntax: `fsck` passes, and it and `stats --storage` count
    /// them, in text and in JSON.
    #[test]
    fn fsck_and_stats_count_tiles_in_the_v1_block_syntax() {
        let (s, _store) = store("v1-tiles");
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/testdata/store_v1");
        let mut dirs = vec![PathBuf::new()];
        while let Some(rel) = dirs.pop() {
            std::fs::create_dir_all(Path::new(&s).join(&rel)).unwrap();
            for entry in std::fs::read_dir(fixture.join(&rel)).unwrap() {
                let rel = rel.join(entry.unwrap().file_name());
                if fixture.join(&rel).is_dir() {
                    dirs.push(rel);
                } else {
                    std::fs::copy(fixture.join(&rel), Path::new(&s).join(&rel)).unwrap();
                }
            }
        }
        let report = |flags: &str| {
            let line = format!("--store {s} --storage {flags}");
            let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
            stats_report(&Args::parse_with_flags(&argv, &["storage", "json"]).unwrap()).unwrap()
        };
        run(&format!("fsck --store {s}")).expect("an earlier build's store is clean");
        let store = VideoStore::open(Path::new(&s).join("videos")).unwrap();
        assert_eq!(store.fsck(STORE_SIDECARS).unwrap().v1_tiles, 6);
        drop(store);
        assert!(report("").contains("tiles: 6 DCT tile(s) still in the v1 block syntax"));
        let both: StoreStorageStats = serde_json::from_str(&report("--json")).unwrap();
        assert_eq!((both.v1_tiles, both.index.detections), (6, 12));
    }

    /// `fsck` verifies the index tier too: a `TSR1` run from an older
    /// build is clean, and one whose checksum holds but whose entries do
    /// not decode (its magic relabelled `TSR2`) fails the check.
    #[test]
    fn fsck_verifies_the_index_tier() {
        let (s, _store) = store("fsck-index");
        run(&format!(
            "ingest --store {s} --name cam --dataset visual-road-2k --seconds 1 --seed 3"
        ))
        .expect("ingest");
        let run_path = Path::new(&s).join("index/run_00000000.sst");
        let mut bytes = include_bytes!("../../index/testdata/run_v1.sst").to_vec();
        std::fs::write(&run_path, &bytes).unwrap();
        run(&format!("fsck --store {s}")).expect("a TSR1 run is clean");
        bytes[..4].copy_from_slice(b"TSR2");
        let crc_at = bytes.len() - 8;
        let crc = tasm_index::crc32(&bytes[..crc_at]);
        bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&run_path, &bytes).unwrap();
        assert!(run(&format!("fsck --store {s}")).is_err());
    }

    #[test]
    fn help_and_presets_work() {
        run("help").expect("help");
        run("presets").expect("presets");
        // An empty command line prints the usage text and succeeds.
        assert!(run("").is_ok());
    }
}
