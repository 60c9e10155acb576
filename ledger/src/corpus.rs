//! The seeded corpus and the timed calls that put it into a store.
//!
//! Scenes are rendered one at a time into memory *before* ingest, so scene
//! rendering is never charged to the store. Tile files are afterwards served
//! from the operating system's page cache: latencies are the sandbox's, not
//! a device's. Every store writes through the production `RealIo` (fsync on
//! every write and parent directory).

use crate::pace::{Paced, Pacer};
use crate::rng::Rng;
use crate::stats;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tasm_core::{RetileStats, Tasm, TasmConfig};
use tasm_data::Dataset;
use tasm_index::{TierStats, TieredIndex};
use tasm_video::{Frame, FrameSource, Rect, VecFrameSource};

pub const FPS: u32 = 30;
pub const VIDEOS: usize = 4;
pub const VIDEO_SECONDS: u32 = 2;
/// The labels queries ask for; the tuned layout is built around the first
/// two (the paper's "known queries, known objects" state).
pub const LABELS: [&str; 3] = ["car", "person", "traffic_light"];
pub const TUNED_FOR: [&str; 2] = ["car", "person"];

/// One rendered scene: frames plus the generator's boxes per frame.
pub struct Scene {
    pub name: String,
    pub frames: VecFrameSource,
    pub truth: Vec<Vec<(&'static str, Rect)>>,
}

impl Scene {
    pub fn frame_count(&self) -> u32 {
        self.frames.len()
    }

    pub fn raw_bytes(&self) -> u64 {
        self.frame_count() as u64 * self.frames.width() as u64 * self.frames.height() as u64 * 3 / 2
    }
}

/// What outlives a scene once its frames are dropped.
pub struct VideoInfo {
    pub name: String,
    pub frame_count: u32,
    pub raw_bytes: u64,
    pub truth: Vec<Vec<(&'static str, Rect)>>,
}

/// Where a store lives: tile files and the tiered index side by side, as
/// the `tasm` CLI lays a store out.
pub struct StoreDirs {
    pub root: PathBuf,
}

impl StoreDirs {
    pub fn videos(&self) -> PathBuf {
        self.root.join("videos")
    }
    pub fn index(&self) -> PathBuf {
        self.root.join("index")
    }
    pub fn open(&self, cfg: TasmConfig) -> Tasm {
        Tasm::open_tiered(self.videos(), &self.index(), cfg).expect("open store")
    }
}

/// One timed call on the pacer's clock, and how many units of work (frames
/// ingested, SOTs re-tiled) it did.
#[derive(Clone, Copy)]
pub struct Timed {
    pub at_ns: u64,
    pub dur_ns: u64,
    pub units: u64,
}

/// Median over `calls` of units per reference-speed second.
pub fn units_per_s(paced: &Paced, calls: &[Timed]) -> f64 {
    let rates: Vec<f64> = calls
        .iter()
        .map(|c| stats::ratio(c.units as f64 * 1e3, paced.ms(c.at_ns, c.dur_ns)))
        .collect();
    stats::median(&rates)
}

/// Median over `calls` of reference-speed milliseconds per unit.
pub fn ms_per_unit(paced: &Paced, calls: &[Timed]) -> f64 {
    let costs: Vec<f64> = calls
        .iter()
        .map(|c| stats::ratio(paced.ms(c.at_ns, c.dur_ns), c.units as f64))
        .collect();
    stats::median(&costs)
}

/// Timings and counts of the calls that build or extend a store.
#[derive(Default)]
pub struct BuildProbe {
    pub render_s: f64,
    pub frames_rendered: u64,
    /// One per video: the time inside `ingest` + `add_metadata` +
    /// `mark_processed` + `flush`, and the video's frames.
    pub ingests: Vec<Timed>,
    /// Time inside `ingest` alone (encode + tile writes + manifest).
    pub store_ingest_s: f64,
    pub frames_ingested: u64,
    pub insert_us: Vec<f64>,
    pub flush_ms: Vec<f64>,
    /// Committing re-tile calls with the SOTs each re-tiled, and what they
    /// transcoded.
    pub retiles: Vec<Timed>,
    pub retile: RetileStats,
    pub sot_retiles: u64,
    pub runs: RunTracker,
}

impl BuildProbe {
    /// Times a re-tiling call and, if it committed (the video's layout
    /// epoch advanced), accounts it. Returns the call's seconds and whether
    /// it committed.
    pub fn retile_call(
        &mut self,
        tasm: &Tasm,
        video: &str,
        pacer: &mut Pacer,
        call: impl FnOnce() -> RetileStats,
    ) -> (f64, bool) {
        let before = tasm.current_epoch(video).expect("epoch");
        let (at_ns, t) = (pacer.now_ns(), Instant::now());
        let cost = call();
        let dur = t.elapsed();
        let committed = tasm.current_epoch(video).expect("epoch") - before;
        if committed > 0 {
            self.retiles.push(Timed {
                at_ns,
                dur_ns: dur.as_nanos() as u64,
                units: committed,
            });
            self.sot_retiles += committed;
            self.retile.decode += cost.decode;
            self.retile.encode += cost.encode;
        }
        pacer.pace();
        (dur.as_secs_f64(), committed > 0)
    }

    /// Raw milliseconds of every committing re-tile call.
    pub fn retile_call_ms(&self) -> Vec<f64> {
        self.retiles.iter().map(|c| c.dur_ns as f64 / 1e6).collect()
    }
}

/// Run flushes and compactions of a tiered index, inferred from outside by
/// listing its runs (through a second, read-only `TieredIndex::open`, the
/// way `tasm stats --storage` reads the tier) at quiescent points.
#[derive(Default)]
pub struct RunTracker {
    ids: Vec<u64>,
    pub flushes: u64,
    pub compactions: u64,
}

impl RunTracker {
    /// The same view of the runs, with the counts starting over.
    pub fn restart(self) -> RunTracker {
        RunTracker {
            ids: self.ids,
            ..RunTracker::default()
        }
    }

    /// Call after a `flush()` returned and while no writer is active.
    pub fn observe(&mut self, index_dir: &Path) {
        let tier = TieredIndex::open(index_dir).expect("open tier read-only");
        let now: Vec<u64> = tier.run_summaries().iter().map(|r| r.0).collect();
        let next_before = self.ids.iter().max().map_or(0, |m| m + 1);
        let next_now = now.iter().max().map_or(0, |m| m + 1).max(next_before);
        // Run ids are handed out in sequence, to flushed and to merged runs
        // alike; a compaction merges 4 runs into one.
        let created = next_now - next_before;
        let still_there = now.iter().filter(|id| **id >= next_before).count() as u64;
        let old_gone = self.ids.iter().filter(|id| !now.contains(id)).count() as u64;
        let compactions = (old_gone + created - still_there) / 4;
        self.compactions += compactions;
        self.flushes += created - compactions;
        self.ids = now;
    }
}

pub fn render(name: &str, seconds: u32, seed: u64, probe: &mut BuildProbe) -> Scene {
    let t = Instant::now();
    let video = Dataset::VisualRoad2K.build(seconds, seed);
    let frames: Vec<Frame> = (0..video.len()).map(|f| video.frame(f)).collect();
    let truth = (0..video.len()).map(|f| video.ground_truth(f)).collect();
    probe.render_s += t.elapsed().as_secs_f64();
    probe.frames_rendered += frames.len() as u64;
    Scene {
        name: name.to_string(),
        frames: VecFrameSource::new(frames),
        truth,
    }
}

/// Ingests a scene untiled, records its ground-truth boxes as detections,
/// marks every frame processed and flushes the index.
pub fn ingest(
    tasm: &Tasm,
    dirs: &StoreDirs,
    scene: &Scene,
    probe: &mut BuildProbe,
    pacer: &mut Pacer,
) -> VideoInfo {
    let (at_ns, t0) = (pacer.now_ns(), Instant::now());
    tasm.ingest(&scene.name, &scene.frames, FPS)
        .expect("ingest");
    probe.store_ingest_s += t0.elapsed().as_secs_f64();
    add_truth(tasm, &scene.name, &scene.truth, probe);
    probe.ingests.push(Timed {
        at_ns,
        dur_ns: t0.elapsed().as_nanos() as u64,
        units: scene.frame_count() as u64,
    });
    probe.frames_ingested += scene.frame_count() as u64;
    pacer.untimed(|| probe.runs.observe(&dirs.index()));
    pacer.pace();
    VideoInfo {
        name: scene.name.clone(),
        frame_count: scene.frame_count(),
        raw_bytes: scene.raw_bytes(),
        truth: scene.truth.clone(),
    }
}

/// `add_metadata` per box, `mark_processed` per frame, then one `flush`.
pub fn add_truth(
    tasm: &Tasm,
    name: &str,
    truth: &[Vec<(&'static str, Rect)>],
    probe: &mut BuildProbe,
) {
    for (f, boxes) in truth.iter().enumerate() {
        for (label, bbox) in boxes {
            let t = Instant::now();
            tasm.add_metadata(name, label, f as u32, *bbox)
                .expect("add_metadata");
            probe.insert_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        tasm.mark_processed(name, f as u32).expect("mark_processed");
    }
    let t = Instant::now();
    tasm.with_index(|ix| ix.flush()).expect("index flush");
    probe.flush_ms.push(t.elapsed().as_secs_f64() * 1e3);
}

/// The corpus scenes' seeds. The corpus is the same on every `--seed`:
/// scene content moves every timing by far more than the bounds the ledger
/// gates on, so the seed picks the requests, not the videos.
pub fn corpus_seeds() -> Vec<u64> {
    let mut r = Rng::new(0x7a5d_2021).fork(1);
    (0..VIDEOS).map(|_| r.next_u64() >> 16).collect()
}

/// Builds the corpus store: render, ingest, ground truth, and — when
/// `tuned` — `kqko_retile_all` around `TUNED_FOR`.
pub fn build(
    tasm: &Tasm,
    dirs: &StoreDirs,
    seeds: &[u64],
    tuned: bool,
    probe: &mut BuildProbe,
    pacer: &mut Pacer,
) -> Vec<VideoInfo> {
    let objects: Vec<String> = TUNED_FOR.iter().map(|s| s.to_string()).collect();
    let mut infos = Vec::with_capacity(seeds.len());
    for (i, &seed) in seeds.iter().enumerate() {
        let scene = render(&format!("v{i}"), VIDEO_SECONDS, seed, probe);
        pacer.pace();
        infos.push(ingest(tasm, dirs, &scene, probe, pacer));
        if tuned {
            probe.retile_call(tasm, &scene.name, pacer, || {
                tasm.kqko_retile_all(&scene.name, &objects)
                    .expect("kqko_retile_all")
            });
        }
    }
    infos
}

/// Copies one video from `source` into `shard` the way replication does:
/// tile files verbatim, then the index rows.
pub fn sync_video(source: &Tasm, shard: &Tasm, info: &VideoInfo, probe: &mut BuildProbe) {
    let (manifest, sots) = source
        .replication_snapshot(&info.name)
        .expect("replication snapshot");
    shard
        .apply_replicated_video(manifest, &sots)
        .expect("apply replicated video");
    add_truth(shard, &info.name, &info.truth, probe);
}

/// Sizes of a store at a quiescent point.
pub struct StoreSizes {
    pub tile_bytes: u64,
    pub raw_bytes: u64,
    pub frames: u64,
    pub tiles: u64,
    pub pred_tiles: u64,
    pub detections: u64,
    pub tier: TierStats,
}

impl StoreSizes {
    pub fn measure(tasm: &Tasm, dirs: &StoreDirs, raw_bytes: u64) -> StoreSizes {
        let mut s = StoreSizes {
            tile_bytes: 0,
            raw_bytes,
            frames: 0,
            tiles: 0,
            pred_tiles: 0,
            detections: tasm.with_index(|ix| ix.detection_count()),
            tier: TieredIndex::open(&dirs.index())
                .expect("open tier read-only")
                .stats(),
        };
        for name in tasm.video_names() {
            s.tile_bytes += tasm.video_size_bytes(&name).expect("video size");
            let manifest = tasm.manifest(&name).expect("manifest");
            s.frames += manifest.frame_count as u64;
            for sot in &manifest.sots {
                s.tiles += sot.tile_codecs.len() as u64;
                s.pred_tiles += sot.tile_codecs.iter().filter(|&&c| c != 0).count() as u64;
            }
        }
        s
    }

    /// The sizes of two stores taken together.
    pub fn merge(mut self, other: StoreSizes) -> StoreSizes {
        self.tile_bytes += other.tile_bytes;
        self.raw_bytes += other.raw_bytes;
        self.frames += other.frames;
        self.tiles += other.tiles;
        self.pred_tiles += other.pred_tiles;
        self.detections += other.detections;
        self.tier.disk_bytes += other.tier.disk_bytes;
        self.tier.resident_bytes += other.tier.resident_bytes;
        self.tier.run_count += other.tier.run_count;
        self
    }

    pub fn store_bytes_per_raw_byte(&self) -> f64 {
        stats::ratio(self.tile_bytes as f64, self.raw_bytes as f64)
    }

    pub fn index_bytes_per_entry(&self) -> f64 {
        stats::ratio(self.tier.disk_bytes as f64, self.detections as f64)
    }
}

/// Serial decode, serial encode and no decoded-GOP cache: the configuration
/// of every handle that builds a store or answers for the oracle. Encode is
/// serial (`parallel_encode: false`; the output is bit-identical either
/// way) because the default spreads a re-tile's tiles over every core, and
/// on two shared cores a re-tile then takes 160 or 250 ms per SOT depending
/// on whether the host lends the second one at that moment.
pub fn serial_uncached() -> TasmConfig {
    let mut cfg = TasmConfig {
        workers: 1,
        cache_bytes: 0,
        ..TasmConfig::default()
    };
    cfg.storage.parallel_encode = false;
    cfg
}

/// Opens an existing store the way a restarted process does — recovery,
/// then `attach` of every video — and times it.
pub fn reopen(dirs: &StoreDirs, cfg: TasmConfig, videos: &[VideoInfo]) -> (Tasm, f64) {
    let t = Instant::now();
    let tasm = dirs.open(cfg);
    for v in videos {
        tasm.attach(&v.name).expect("attach");
    }
    (tasm, t.elapsed().as_secs_f64() * 1e3)
}

/// Builds the tuned corpus store in `dirs` with a throwaway handle, then
/// reopens it under `cfg` — the state every read workload starts from.
pub struct TunedStore {
    pub dirs: StoreDirs,
    pub tasm: Tasm,
    pub videos: Vec<VideoInfo>,
    pub probe: BuildProbe,
    pub open_ms: f64,
}

impl TunedStore {
    pub fn build(root: &Path, seeds: &[u64], cfg: TasmConfig, pacer: &mut Pacer) -> TunedStore {
        let dirs = StoreDirs {
            root: root.to_path_buf(),
        };
        let mut probe = BuildProbe::default();
        let builder = dirs.open(serial_uncached());
        let videos = build(&builder, &dirs, seeds, true, &mut probe, pacer);
        drop(builder);
        let (tasm, open_ms) = reopen(&dirs, cfg, &videos);
        TunedStore {
            dirs,
            tasm,
            videos,
            probe,
            open_ms,
        }
    }

    pub fn names(&self) -> Vec<String> {
        self.videos.iter().map(|v| v.name.clone()).collect()
    }

    pub fn raw_bytes(&self) -> u64 {
        self.videos.iter().map(|v| v.raw_bytes).sum()
    }

    /// Width and height of the corpus frames.
    pub fn frame_dims(&self) -> (u32, u32) {
        let m = self.tasm.manifest(&self.videos[0].name).expect("manifest");
        (m.width, m.height)
    }
}
